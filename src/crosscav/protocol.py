"""Explicit piecewise replay of the two proposed experiments.

A run composes unitary Jaynes-Cummings pulses, a dispersive wait, and a
dissipative window, on the single-excitation space (two modes truncated
at one photon plus the atom).  Dissipation during the pulses is off by
default, matching the assumption that pulse times are short against 1/k;
a flag turns it on for sensitivity checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, pi, sqrt

import numpy as np
import scipy.sparse as sp

from .analytic import (
    PreparedStateParams,
    prepared_state,
    prob_e_single_cavity_detuned,
    prob_e_single_cavity_resonant,
    prob_e_two_cavity,
)
from .integrator import (
    EvolutionSpec,
    evolve_master,
    free_hamiltonian,
    jc_hamiltonian,
    unitary_propagator,
)
from .liouvillian import (
    SuperOperator,
    SymmetricDecayParameters,
    build_symmetric_liouvillian,
)
from .tensor import (
    ATOM_E,
    ATOM_G,
    DensityMatrix,
    Ket,
    basis_ket,
    density_from_ket,
    make_space,
    partial_trace,
)

_PREP_FIDELITY_MIN = 1.0 - 1e-9

UNITARY_KINDS = ("resonant-mode1", "resonant-mode2", "dispersive", "both-modes-phase")


@dataclass(frozen=True)
class Segment:
    """One piecewise-constant slice of a protocol."""

    kind: str
    duration: float
    G: float = 0.0
    Omega: float = 0.0
    Omega_a: float = 0.0
    decay: SymmetricDecayParameters = None
    frame: str = "rotating"

    def __post_init__(self):
        if self.duration < 0:
            raise ValueError(f"segment duration must be >= 0, got {self.duration}")
        if self.kind not in UNITARY_KINDS + ("dissipative",):
            raise ValueError(f"unknown segment kind {self.kind!r}")
        if self.kind == "dissipative" and self.decay is None:
            raise ValueError("dissipative segment needs decay parameters")


@dataclass(frozen=True)
class ProtocolConfig:
    """Couplings, decay constants, target angles and the dissipation window.

    Omega is the common mode frequency (only relevant in the lab frame);
    the dispersive detuning delta = Omega_a - Omega sets the wait time
    t_0s = phi / delta.  G is not fixed by the experiments themselves, so
    the default is merely small enough that all pulse times are << T.
    """

    G: float
    decay: SymmetricDecayParameters
    theta: float
    phi: float
    T: float
    Omega: float = 0.0
    delta: float = None

    def __post_init__(self):
        if self.delta is None:
            object.__setattr__(self, "delta", 50.0 * self.G)
        for name in ("G", "theta", "phi", "T", "Omega", "delta"):
            if not isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.G <= 0:
            raise ValueError("coupling G must be positive")
        if self.T < 0:
            raise ValueError("window T must be non-negative")
        object.__setattr__(self, "theta", float(self.theta) % (2 * pi))
        object.__setattr__(self, "phi", float(self.phi) % (2 * pi))
        if self.delta <= 0:
            raise ValueError("dispersive detuning must be positive")

    # preparation times
    @property
    def t_1s(self) -> float:
        return self.theta / self.G

    @property
    def t_0s(self) -> float:
        return self.phi / self.delta

    @property
    def t_2s(self) -> float:
        return pi / (2 * self.G)

    # readout times (two-cavity experiment)
    @property
    def t_1p(self) -> float:
        return 3 * pi / (2 * self.G)

    @property
    def t_0p(self) -> float:
        return self.t_0s

    @property
    def t_2p(self) -> float:
        return (2 * self.theta - pi) / (2 * self.G)

    # single-cavity two-polarization pulse
    @property
    def t_12a(self) -> float:
        return pi / (2 * sqrt(2.0) * self.G)


@dataclass(frozen=True)
class RunRecord:
    """Outcome of one protocol run."""

    p_e: float
    p_e_analytic: float
    prep_fidelity: float
    after_preparation: DensityMatrix
    after_window: DensityMatrix
    segments: tuple
    total_time: float
    label: str

    def summary(self) -> dict:
        """JSON-friendly scalars; matrices are reduced to diagnostics."""
        return {
            "label": self.label,
            "p_e": self.p_e,
            "p_e_analytic": self.p_e_analytic,
            "prep_fidelity": self.prep_fidelity,
            "after_window_purity": self.after_window.purity(),
            "segments": [
                {"kind": k, "duration": d} for k, d in self.segments
            ],
            "total_time": self.total_time,
        }


def _segment_generator(space, seg: Segment, H) -> SuperOperator:
    """-i[H, .] plus the dissipator, for pulses with dissipation left on."""
    D = space.dim
    Hm = H.matrix
    I = sp.identity(D, format="csr")
    comm = -1j * (
        sp.kron(sp.csr_matrix(Hm), I, format="csr")
        - sp.kron(I, sp.csr_matrix(Hm).T, format="csr")
    )
    Ld = build_symmetric_liouvillian(seg.decay, space, seg.frame)
    return SuperOperator(comm + Ld.matrix, space)


def compose_segments(
    initial: DensityMatrix, segments, dissipate_during_pulses: bool = False
) -> DensityMatrix:
    """Fold unitary and dissipative evolution over a segment list."""
    rho = initial
    space = initial.space
    for seg in segments:
        if seg.kind == "dissipative":
            L = build_symmetric_liouvillian(seg.decay, space, seg.frame)
            rho = evolve_master(rho, L, EvolutionSpec(seg.duration))
            continue
        if seg.kind == "dispersive":
            H = free_hamiltonian(space, seg.Omega, seg.Omega_a)
        else:
            which = {
                "resonant-mode1": "mode1",
                "resonant-mode2": "mode2",
                "both-modes-phase": "both_with_phase",
            }[seg.kind]
            H = jc_hamiltonian(space, which, seg.G, seg.Omega, seg.Omega_a)
        if dissipate_during_pulses and seg.decay is not None:
            Lfull = _segment_generator(space, seg, H)
            rho = evolve_master(rho, Lfull, EvolutionSpec(seg.duration))
        else:
            U = unitary_propagator(H, seg.duration)
            rho = DensityMatrix(U @ rho.matrix @ U.conj().T, space)
    return rho


def _frame_freqs(cfg: ProtocolConfig, frame: str, resonant: bool):
    """(Omega, Omega_a) pair for a segment in the chosen frame."""
    if frame == "lab":
        om = cfg.Omega
        return om, om if resonant else om + cfg.delta
    if frame == "rotating":
        return 0.0, 0.0 if resonant else cfg.delta
    raise ValueError(f"frame must be 'lab' or 'rotating', got {frame!r}")


def _attach_atom_ground(field_ket: Ket, space) -> Ket:
    amps = np.kron(field_ket.amplitudes, np.array([1.0, 0.0], dtype=complex))
    return Ket(amps, space)


def _excited_projector(space) -> np.ndarray:
    e = basis_ket(make_space([2]), (ATOM_E,)).amplitudes
    proj = np.outer(e, e.conj())
    out = np.eye(1, dtype=complex)
    for d in space.dims[:-1]:
        out = np.kron(out, np.eye(d))
    return np.kron(out, proj)


def run_two_cavity(
    cfg: ProtocolConfig,
    readout: str = "overlap",
    frame: str = "rotating",
    dissipate_during_pulses: bool = False,
) -> RunRecord:
    """Preparation atom, dissipative window, readout; two separate cavities.

    readout='overlap' projects the post-window field state onto the
    prepared state, which is what the mirrored atom sequence measures;
    readout='explicit' simulates that atom sequence and requires
    theta in [pi/2, pi) so the final pulse time is non-negative.
    """
    if readout not in ("overlap", "explicit"):
        raise ValueError(f"unknown readout mode {readout!r}")
    if readout == "explicit" and not (pi / 2 <= cfg.theta < pi):
        raise ValueError(
            "explicit readout requires theta in [pi/2, pi): the final pulse "
            f"time (2*theta - pi)/(2G) = {cfg.t_2p:.3e} s is negative; use the "
            "overlap readout outside that range"
        )
    space = make_space([2, 2, 2])
    om_r, oma_r = _frame_freqs(cfg, frame, resonant=True)
    om_d, oma_d = _frame_freqs(cfg, frame, resonant=False)

    prep = [
        Segment("resonant-mode1", cfg.t_1s, cfg.G, om_r, oma_r, cfg.decay, frame),
        Segment("dispersive", cfg.t_0s, 0.0, om_d, oma_d, cfg.decay, frame),
        Segment("resonant-mode2", cfg.t_2s, cfg.G, om_r, oma_r, cfg.decay, frame),
    ]
    rho0 = density_from_ket(basis_ket(space, (0, 0, ATOM_E)))
    rho_prep = compose_segments(rho0, prep, dissipate_during_pulses)

    psi_target = _attach_atom_ground(
        prepared_state(PreparedStateParams(cfg.theta, cfg.phi)), space
    )
    fid = rho_prep.fidelity_with_ket(psi_target)
    if not dissipate_during_pulses and fid < _PREP_FIDELITY_MIN:
        raise RuntimeError(f"preparation fidelity {fid} below contract")

    window = Segment("dissipative", cfg.T, decay=cfg.decay, frame=frame)
    rho_T = compose_segments(rho_prep, [window])

    if readout == "overlap":
        p_e = rho_T.fidelity_with_ket(psi_target)
        ro_segments = []
    else:
        ro_segments = [
            Segment("resonant-mode1", cfg.t_1p, cfg.G, om_r, oma_r, cfg.decay, frame),
            Segment("dispersive", cfg.t_0p, 0.0, om_d, oma_d, cfg.decay, frame),
            Segment("resonant-mode2", cfg.t_2p, cfg.G, om_r, oma_r, cfg.decay, frame),
        ]
        rho_out = compose_segments(rho_T, ro_segments, dissipate_during_pulses)
        p_e = float(np.real(np.trace(_excited_projector(space) @ rho_out.matrix)))

    dec = cfg.decay
    analytic = prob_e_two_cavity(
        PreparedStateParams(cfg.theta, cfg.phi), dec.k, dec.r, dec.gamma, cfg.T
    )
    segments = prep + [window] + ro_segments
    return RunRecord(
        p_e=float(p_e),
        p_e_analytic=analytic,
        prep_fidelity=float(fid),
        after_preparation=rho_prep,
        after_window=rho_T,
        segments=tuple((s.kind, s.duration) for s in segments),
        total_time=sum(s.duration for s in segments),
        label=f"two-cavity/{readout}",
    )


def run_single_cavity(
    cfg: ProtocolConfig,
    variant: str = "resonant",
    frame: str = "rotating",
    dissipate_during_pulses: bool = False,
) -> RunRecord:
    """Single-cavity experiment with two orthogonally polarized modes.

    variant='resonant': both modes resonant, one atom pulse of length
    t_12a on each side of the window.  variant='detuned': the squeezed
    cavity leaves a single resonant mode; pi/(2G) pulses and plain
    single-mode decay.
    """
    space = make_space([2, 2, 2])
    om_r, oma_r = _frame_freqs(cfg, frame, resonant=True)
    dec = cfg.decay

    if variant == "resonant":
        pulse_kind, pulse_t = "both-modes-phase", cfg.t_12a
        window_decay = dec
        analytic = prob_e_single_cavity_resonant(dec.k, dec.r, dec.gamma, cfg.T)
        target = np.zeros(space.dim, dtype=complex)
        target += basis_ket(space, (0, 1, ATOM_G)).amplitudes / sqrt(2.0)
        target += 1j * basis_ket(space, (1, 0, ATOM_G)).amplitudes / sqrt(2.0)
        psi_target = Ket(target, space)
    elif variant == "detuned":
        pulse_kind, pulse_t = "resonant-mode2", pi / (2 * cfg.G)
        # no cross decay between a resonant and a far-detuned mode
        window_decay = SymmetricDecayParameters(dec.k, 0.0, 0.0, dec.omega)
        analytic = prob_e_single_cavity_detuned(dec.k, cfg.T)
        psi_target = _attach_atom_ground(
            Ket(
                basis_ket(make_space([2, 2]), (0, 1)).amplitudes, make_space([2, 2])
            ),
            space,
        )
    else:
        raise ValueError(f"unknown variant {variant!r}")

    prep = [Segment(pulse_kind, pulse_t, cfg.G, om_r, oma_r, window_decay, frame)]
    rho0 = density_from_ket(basis_ket(space, (0, 0, ATOM_E)))
    rho_prep = compose_segments(rho0, prep, dissipate_during_pulses)
    fid = rho_prep.fidelity_with_ket(psi_target)
    if not dissipate_during_pulses and fid < _PREP_FIDELITY_MIN:
        raise RuntimeError(f"preparation fidelity {fid} below contract")

    window = Segment("dissipative", cfg.T, decay=window_decay, frame=frame)
    rho_T = compose_segments(rho_prep, [window])

    ro = [Segment(pulse_kind, pulse_t, cfg.G, om_r, oma_r, window_decay, frame)]
    rho_out = compose_segments(rho_T, ro, dissipate_during_pulses)
    p_e = float(np.real(np.trace(_excited_projector(space) @ rho_out.matrix)))

    segments = prep + [window] + ro
    return RunRecord(
        p_e=p_e,
        p_e_analytic=analytic,
        prep_fidelity=float(fid),
        after_preparation=rho_prep,
        after_window=rho_T,
        segments=tuple((s.kind, s.duration) for s in segments),
        total_time=sum(s.duration for s in segments),
        label=f"single-cavity/{variant}",
    )


def atom_ground_population(rho: DensityMatrix) -> float:
    """Population of |g> in the atom marginal (atom is the last subsystem)."""
    atom = partial_trace(rho, [len(rho.space.dims) - 1])
    return float(np.real(atom.matrix[ATOM_G, ATOM_G]))


def field_marginal(rho: DensityMatrix) -> DensityMatrix:
    return partial_trace(rho, range(len(rho.space.dims) - 1))
