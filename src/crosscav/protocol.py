"""Explicit piecewise replay of the two proposed experiments.

A run composes unitary Jaynes-Cummings pulses, a dispersive wait, and a
dissipative window, on the single-excitation space (two modes truncated
at one photon plus the atom).  Dissipation during the pulses is off by
default, matching the assumption that pulse times are short against 1/k;
a flag turns it on for sensitivity checks.

What a run repeats is reused by value.  The prepared state depends only
on the space, the preparation pulses and whether they dissipate, so equal
preparations share one read-only DensityMatrix, from a cache bounded by
the bytes it holds; a pulse's decay and frame enter its key only when the
pulse dissipates.  The |0,0,e> start state and the target kets are kept
per space and per (theta, phi) or variant.  Pulse propagators and window
exponentials are reused inside the integrator.  Every cached value passed
its checks when it was built, and every state a run builds anew still
runs the full DensityMatrix checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isfinite, pi, sqrt

import numpy as np

from . import _memo
from .analytic import PreparedStateParams, prepared_state
from .integrator import (
    EvolutionSpec,
    evolve_master,
    free_hamiltonian,
    jc_hamiltonian,
    unitary_propagator,
)
from .liouvillian import SymmetricDecayParameters, build_symmetric_liouvillian
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
# bytes of prepared states kept (_memo.ByteLRU): a [2, 2, 2] state takes
# 1.5 KiB with its entry, so 512 KiB keeps 341, more than the distinct
# preparations of a sweep over the default 201 values of phi; a sweep
# with more values revisits each phi once per r and misses
_PREPARED_CACHE_BYTES = 512 * 1024
_prepared_states = _memo.register(_memo.ByteLRU(_PREPARED_CACHE_BYTES))
# two-cavity target kets kept: one per (theta, phi) of a sweep, 128 bytes
# each on the [2, 2, 2] space
_TARGET_CACHE_SIZE = 256
# single-cavity target kets kept: one per variant, resonant and detuned
_VARIANT_CACHE_SIZE = 2
# start states kept, one per space; every run uses the [2, 2, 2] space
_START_CACHE_SIZE = 2

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
        for name in ("duration", "G", "Omega", "Omega_a"):
            value = getattr(self, name)
            if not isfinite(value):
                raise ValueError(f"segment {name} must be finite, got {value}")
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
            "prep_fidelity": self.prep_fidelity,
            "after_window_purity": self.after_window.purity(),
            "segments": [
                {"kind": k, "duration": d} for k, d in self.segments
            ],
            "total_time": self.total_time,
        }


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
            # the pulse Hamiltonian and the dissipator make one generator
            L = build_symmetric_liouvillian(seg.decay, space, seg.frame, H)
            rho = evolve_master(rho, L, EvolutionSpec(seg.duration))
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


def _attach_atom_ground(field_ket: Ket) -> Ket:
    amps = np.kron(field_ket.amplitudes, np.array([1.0, 0.0], dtype=complex))
    return Ket(amps, make_space(field_ket.space.dims + (2,)))


@_memo.register
@lru_cache(maxsize=_TARGET_CACHE_SIZE)
def _two_cavity_target(theta: float, phi: float) -> Ket:
    """cos(theta)|0,1,g> + e^{i phi} sin(theta)|1,0,g>, kept per angle pair."""
    return _attach_atom_ground(prepared_state(PreparedStateParams(theta, phi)))


@_memo.register
@lru_cache(maxsize=_VARIANT_CACHE_SIZE)
def _single_cavity_target(variant: str) -> Ket:
    """The single-cavity experiment's prepared field state, atom in |g>."""
    space = make_space([2, 2, 2])
    if variant == "detuned":
        return basis_ket(space, (0, 1, ATOM_G))
    return Ket(
        (
            basis_ket(space, (0, 1, ATOM_G)).amplitudes
            + 1j * basis_ket(space, (1, 0, ATOM_G)).amplitudes
        )
        / sqrt(2.0),
        space,
    )


@_memo.register
@lru_cache(maxsize=_START_CACHE_SIZE)
def _excited_vacuum(space) -> DensityMatrix:
    """|0,0,e><0,0,e|, the state every run starts from, kept per space."""
    return density_from_ket(basis_ket(space, (0, 0, ATOM_E)))


def _prepared(space, prep, dissipate: bool) -> DensityMatrix:
    """compose_segments from |0,0,e> over prep, reused by value.

    Without dissipation a pulse's decay and frame do not act on the state,
    so they enter the key only when the pulses dissipate.
    """
    key = (space, dissipate, tuple(
        (s.kind, s.duration, s.G, s.Omega, s.Omega_a)
        + ((s.decay, s.frame) if dissipate else ())
        for s in prep
    ))
    rho = _prepared_states.get(key)
    if rho is None:
        rho = compose_segments(_excited_vacuum(space), prep, dissipate)
        _prepared_states.put(key, rho, rho.matrix.nbytes)
    return rho


def _atom_population(rho: DensityMatrix, level: int) -> float:
    """Population of one atom level in the atom marginal (atom is last)."""
    atom = partial_trace(rho, [len(rho.space.dims) - 1])
    return float(np.real(atom.matrix[level, level]))


def _run(cfg, frame, dissipate, label, prep, target, window_decay, readout):
    """Prepare from |0,0,e>, check the prepared state against `target`,
    open the dissipative window, then read out.

    readout=None projects the post-window state onto `target`; a segment
    list replays those pulses and reads the atom's excited population.
    """
    rho_prep = _prepared(target.space, prep, dissipate)
    fid = rho_prep.fidelity_with_ket(target)
    if not dissipate and fid < _PREP_FIDELITY_MIN:
        raise RuntimeError(f"preparation fidelity {fid} below contract")

    window = Segment("dissipative", cfg.T, decay=window_decay, frame=frame)
    rho_T = compose_segments(rho_prep, [window])

    if readout is None:
        p_e, readout = rho_T.fidelity_with_ket(target), []
    else:
        p_e = _atom_population(compose_segments(rho_T, readout, dissipate), ATOM_E)

    segments = prep + [window] + readout
    return RunRecord(
        p_e=float(p_e),
        prep_fidelity=float(fid),
        after_preparation=rho_prep,
        after_window=rho_T,
        segments=tuple((s.kind, s.duration) for s in segments),
        total_time=sum(s.duration for s in segments),
        label=label,
    )


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
    om_r, oma_r = _frame_freqs(cfg, frame, resonant=True)
    om_d, oma_d = _frame_freqs(cfg, frame, resonant=False)

    def pulses(t_1, t_0, t_2):
        return [
            Segment("resonant-mode1", t_1, cfg.G, om_r, oma_r, cfg.decay, frame),
            Segment("dispersive", t_0, 0.0, om_d, oma_d, cfg.decay, frame),
            Segment("resonant-mode2", t_2, cfg.G, om_r, oma_r, cfg.decay, frame),
        ]

    target = _two_cavity_target(cfg.theta, cfg.phi)
    ro = pulses(cfg.t_1p, cfg.t_0p, cfg.t_2p) if readout == "explicit" else None
    return _run(
        cfg, frame, dissipate_during_pulses, f"two-cavity/{readout}",
        pulses(cfg.t_1s, cfg.t_0s, cfg.t_2s), target, cfg.decay, ro,
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
    om_r, oma_r = _frame_freqs(cfg, frame, resonant=True)
    dec = cfg.decay

    if variant == "resonant":
        pulse_kind, pulse_t, window_decay = "both-modes-phase", cfg.t_12a, dec
    elif variant == "detuned":
        pulse_kind, pulse_t = "resonant-mode2", pi / (2 * cfg.G)
        # no cross decay between a resonant and a far-detuned mode
        window_decay = SymmetricDecayParameters(dec.k, 0.0, 0.0, dec.omega)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    target = _single_cavity_target(variant)

    pulse = [Segment(pulse_kind, pulse_t, cfg.G, om_r, oma_r, window_decay, frame)]
    return _run(
        cfg, frame, dissipate_during_pulses, f"single-cavity/{variant}",
        pulse, target, window_decay, pulse,
    )


def atom_ground_population(rho: DensityMatrix) -> float:
    """Population of |g> in the atom marginal (atom is the last subsystem)."""
    return _atom_population(rho, ATOM_G)


def field_marginal(rho: DensityMatrix) -> DensityMatrix:
    return partial_trace(rho, range(len(rho.space.dims) - 1))
