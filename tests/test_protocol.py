from math import exp, pi, sqrt

import numpy as np
import pytest
import scipy.sparse as sp

import crosscav.protocol
from conftest import to_scipy
from crosscav.analytic import (
    PreparedStateParams,
    prob_e_single_cavity_detuned,
    prob_e_single_cavity_resonant,
    prob_e_two_cavity,
)
from crosscav.integrator import EvolutionSpec, evolve_master, free_hamiltonian, jc_hamiltonian
from crosscav.liouvillian import (
    SuperOperator,
    SymmetricDecayParameters,
    build_symmetric_liouvillian,
)
from crosscav.protocol import (
    ProtocolConfig,
    Segment,
    compose_segments,
    run_single_cavity,
    run_two_cavity,
)
from crosscav.tensor import (
    ATOM_E,
    ATOM_G,
    DensityMatrix,
    basis_ket,
    density_from_ket,
    make_space,
    partial_trace,
)

G_DEFAULT = 2 * pi * 47e3


def make_cfg(theta=2.0, phi=1.0, k=1000.0, r=500.0, gamma=pi / 2, T=500e-6, **kw):
    return ProtocolConfig(
        G=G_DEFAULT,
        decay=SymmetricDecayParameters(k, r, gamma),
        theta=theta,
        phi=phi,
        T=T,
        **kw,
    )


def test_config_times():
    cfg = make_cfg(theta=0.7, phi=1.3)
    assert cfg.t_1s == pytest.approx(0.7 / cfg.G)
    assert cfg.t_0s == pytest.approx(1.3 / (50 * cfg.G))
    assert cfg.t_2s == pytest.approx(pi / (2 * cfg.G))
    assert cfg.t_12a == pytest.approx(pi / (2 * sqrt(2) * cfg.G))


def test_config_rejects_bad_values():
    dec = SymmetricDecayParameters(100.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(G=0.0, decay=dec, theta=1.0, phi=1.0, T=1e-3)
    with pytest.raises(ValueError):
        ProtocolConfig(G=1e5, decay=dec, theta=1.0, phi=1.0, T=-1.0)
    with pytest.raises(ValueError):
        ProtocolConfig(G=1e5, decay=dec, theta=1.0, phi=1.0, T=1e-3, delta=-5.0)


@pytest.mark.parametrize("field", ["G", "theta", "phi", "T", "Omega", "delta"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite(field, value):
    kw = dict(G=1e5, decay=SymmetricDecayParameters(100.0, 0.0, 0.0),
              theta=1.0, phi=1.0, T=1e-3)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        ProtocolConfig(**kw)


def test_segment_validation():
    with pytest.raises(ValueError, match="kind"):
        Segment("warp", 1e-6)
    with pytest.raises(ValueError):
        Segment("resonant-mode1", -1e-6)
    with pytest.raises(ValueError, match="decay"):
        Segment("dissipative", 1e-3)


@pytest.mark.parametrize("field", ["duration", "G", "Omega", "Omega_a"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_segment_rejects_non_finite(field, value):
    kw = dict(kind="resonant-mode1", duration=1e-6, G=1e5)
    kw[field] = value
    with pytest.raises(ValueError, match=f"segment {field} must be finite"):
        Segment(**kw)


def test_compose_empty_segments():
    space = make_space([2, 2, 2])
    rho = density_from_ket(basis_ket(space, (0, 0, ATOM_E)))
    assert compose_segments(rho, []) is rho


def test_compose_unitary_round_trip():
    cfg = make_cfg()
    space = make_space([2, 2, 2])
    rho = density_from_ket(basis_ket(space, (0, 0, ATOM_E)))
    half = Segment("resonant-mode1", pi / (2 * cfg.G), cfg.G)
    out = compose_segments(rho, [half, half, half, half])  # full 2*pi rotation
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-10)


def test_preparation_fidelity_and_marginals():
    cfg = make_cfg(theta=2.5, phi=0.4)
    rec = run_two_cavity(cfg)
    assert rec.prep_fidelity >= 1 - 1e-9
    atom = partial_trace(rec.after_preparation, [2])
    assert atom.matrix[ATOM_G, ATOM_G].real == pytest.approx(1.0, abs=1e-9)
    fields = partial_trace(rec.after_preparation, [0, 1])
    assert fields.purity() == pytest.approx(1.0, abs=1e-9)


def test_zero_dissipation_returns_unity():
    cfg = make_cfg(theta=2.0, phi=0.9, k=0.0, r=0.0, gamma=0.0, T=1e-3)
    assert run_two_cavity(cfg).p_e == pytest.approx(1.0, abs=1e-9)
    assert run_single_cavity(cfg, "resonant").p_e == pytest.approx(1.0, abs=1e-9)
    assert run_single_cavity(cfg, "detuned").p_e == pytest.approx(1.0, abs=1e-9)


def test_simulated_matches_analytic_random(rng):
    for _ in range(10):
        cfg = make_cfg(
            theta=rng.uniform(0, 2 * pi),
            phi=rng.uniform(0, 2 * pi),
            k=rng.uniform(200.0, 2000.0),
            r=0.0,
            gamma=rng.uniform(0, 2 * pi),
            T=rng.uniform(0.0, 1e-3),
        )
        cfg = ProtocolConfig(
            G=cfg.G,
            decay=SymmetricDecayParameters(
                cfg.decay.k, rng.uniform(0.0, cfg.decay.k), cfg.decay.gamma
            ),
            theta=cfg.theta,
            phi=cfg.phi,
            T=cfg.T,
        )
        dec = cfg.decay
        expected = prob_e_two_cavity(
            PreparedStateParams(cfg.theta, cfg.phi), dec.k, dec.r, dec.gamma, cfg.T
        )
        assert run_two_cavity(cfg).p_e == pytest.approx(expected, abs=1e-6)


def test_single_cavity_matches_analytic():
    for r in (0.0, 500.0, 1000.0):
        cfg = make_cfg(r=r, T=800e-6)
        dec = cfg.decay
        expected = prob_e_single_cavity_resonant(dec.k, dec.r, dec.gamma, cfg.T)
        assert run_single_cavity(cfg, "resonant").p_e == pytest.approx(
            expected, abs=1e-6
        )
    rec = run_single_cavity(make_cfg(r=0.0, T=600e-6), "detuned")
    assert rec.p_e == pytest.approx(exp(-2 * 1000.0 * 600e-6), abs=1e-6)


def test_explicit_readout_agrees_with_overlap():
    for theta in (pi / 2, 2.0, 3.0):
        for phi in (0.3, pi / 2, 4.4):
            cfg = make_cfg(theta=theta, phi=phi, T=400e-6)
            a = run_two_cavity(cfg, readout="overlap")
            b = run_two_cavity(cfg, readout="explicit")
            assert b.p_e == pytest.approx(a.p_e, abs=1e-6)


def test_explicit_readout_rejects_small_theta():
    cfg = make_cfg(theta=0.7)
    with pytest.raises(ValueError, match="theta"):
        run_two_cavity(cfg, readout="explicit")


def test_frame_independence():
    cfg = make_cfg(theta=2.2, phi=1.8, T=300e-6, Omega=2e4)
    rot = run_two_cavity(cfg, frame="rotating")
    lab = run_two_cavity(cfg, frame="lab")
    assert lab.p_e == pytest.approx(rot.p_e, abs=1e-8)
    sc_rot = run_single_cavity(cfg, "resonant", frame="rotating")
    sc_lab = run_single_cavity(cfg, "resonant", frame="lab")
    assert sc_lab.p_e == pytest.approx(sc_rot.p_e, abs=1e-8)


def test_window_semigroup_property():
    cfg_full = make_cfg(T=800e-6)
    cfg_half = make_cfg(T=400e-6)
    full = run_two_cavity(cfg_full)
    half = run_two_cavity(cfg_half)
    window = Segment("dissipative", 400e-6, decay=cfg_full.decay)
    resumed = compose_segments(half.after_window, [window])
    np.testing.assert_allclose(resumed.matrix, full.after_window.matrix, atol=1e-9)


def test_dfs_point_survives_window():
    gamma = 1.4
    cfg = make_cfg(theta=pi / 4, phi=pi - gamma, k=1000.0, r=1000.0, gamma=gamma, T=2e-3)
    rec = run_two_cavity(cfg)
    assert rec.p_e == pytest.approx(1.0, abs=1e-6)


def test_dissipate_during_pulses_small_perturbation():
    # pulse times ~ us against 1/k = 1 ms: leaving decay on during pulses
    # shifts P_e only slightly, and downward
    cfg = make_cfg(theta=2.0, phi=1.0, T=500e-6)
    clean = run_two_cavity(cfg)
    leaky = run_two_cavity(cfg, dissipate_during_pulses=True)
    assert leaky.p_e < clean.p_e + 1e-12
    assert clean.p_e - leaky.p_e < 0.05


def test_run_record_summary_is_json_friendly():
    import json

    rec = run_single_cavity(make_cfg(T=200e-6), "resonant")
    s = rec.summary()
    json.dumps(s)
    assert s["label"] == "single-cavity/resonant"
    assert s["total_time"] == pytest.approx(rec.total_time)
    assert [d["kind"] for d in s["segments"]].count("dissipative") == 1


@pytest.mark.parametrize("residue, reported", [(-1e-12, 0.0), (-1e-9, 0.0), (-2e-9, None)])
def test_read_out_clamps_rounding_residue_and_rejects_a_negative_probability(
    monkeypatch, residue, reported
):
    monkeypatch.setattr(crosscav.protocol, "_atom_population", lambda rho, level: residue)
    if reported is None:
        with pytest.raises(ValueError, match="read-out probability .* is negative"):
            run_single_cavity(make_cfg(), "resonant")
    else:
        assert run_single_cavity(make_cfg(), "resonant").p_e == reported


def test_runs_are_physical_over_the_whole_range():
    # r in [0, k] with both endpoints, windows up to 20/k: probabilities stay
    # in [0, 1], the post-window state keeps unit trace and Hermiticity, and
    # the replay agrees with the closed forms
    pytest.importorskip("hypothesis")
    from hypothesis import example, given, settings
    from hypothesis import strategies as st

    angle = st.floats(-2 * pi, 2 * pi)

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        k=st.floats(100.0, 5000.0),
        r_frac=st.floats(0.0, 1.0),
        gamma=angle,
        theta=angle,
        phi=angle,
        kT=st.floats(0.0, 20.0),
    )
    @example(k=1000.0, r_frac=0.0, gamma=1.0, theta=pi / 4, phi=0.5, kT=20.0)
    @example(k=1000.0, r_frac=1.0, gamma=1.0, theta=pi / 4, phi=0.5, kT=20.0)
    def check(k, r_frac, gamma, theta, phi, kT):
        r, T = r_frac * k, kT / k
        cfg = make_cfg(theta=theta, phi=phi, k=k, r=r, gamma=gamma, T=T)
        runs = {
            "two": run_two_cavity(cfg),
            "resonant": run_single_cavity(cfg, "resonant"),
            "detuned": run_single_cavity(cfg, "detuned"),
        }
        for rec in runs.values():
            assert -1e-12 <= rec.p_e <= 1 + 1e-12
            m = rec.after_window.matrix
            assert abs(np.trace(m) - 1.0) < 1e-12
            assert np.abs(m - m.conj().T).max() < 1e-12
        # r T <= 20 here, far below where cosh(r T) overflows
        dec = cfg.decay
        params = PreparedStateParams(cfg.theta, cfg.phi)
        expected = {
            "two": prob_e_two_cavity(params, dec.k, dec.r, dec.gamma, T),
            "resonant": prob_e_single_cavity_resonant(dec.k, dec.r, dec.gamma, T),
            "detuned": prob_e_single_cavity_detuned(dec.k, T),
        }
        for name, rec in runs.items():
            assert rec.p_e == pytest.approx(expected[name], abs=1e-6), name

    check()


@pytest.mark.parametrize("frame", ["rotating", "lab"])
def test_leaky_pulse_generator_matches_kron_commutator(frame):
    # a pulse with dissipation left on is one builder call with the pulse
    # Hamiltonian folded in; the reference adds -i[H, .] by sp.kron
    space = make_space([2, 2, 2])
    decay = SymmetricDecayParameters(1000.0, 600.0, 2.1, omega=2 * pi * 1e5)
    Om = 2 * pi * 1e5 if frame == "lab" else 0.0
    Om_d = Om + 50 * G_DEFAULT
    pulses = [
        (Segment(kind, 3e-6, G_DEFAULT, Om, Om, decay, frame),
         jc_hamiltonian(space, which, G_DEFAULT, Om, Om))
        for kind, which in (("resonant-mode1", "mode1"), ("resonant-mode2", "mode2"),
                            ("both-modes-phase", "both_with_phase"))
    ] + [(Segment("dispersive", 3e-6, 0.0, Om, Om_d, decay, frame),
          free_hamiltonian(space, Om, Om_d))]
    eye = sp.identity(space.dim, format="csr")
    rho0 = density_from_ket(basis_ket(space, (0, 1, ATOM_E)))
    for seg, H in pulses:
        Hs = sp.csr_matrix(H.matrix)
        comm = -1j * (sp.kron(Hs, eye, format="csr") - sp.kron(eye, Hs.T, format="csr"))
        ref = comm + to_scipy(build_symmetric_liouvillian(decay, space, frame).matrix)
        L = to_scipy(build_symmetric_liouvillian(decay, space, frame, H).matrix)
        assert abs(L - ref).max() <= 1e-12 * abs(ref).max(), seg.kind
        leaky = compose_segments(rho0, [seg], dissipate_during_pulses=True)
        expected = evolve_master(
            rho0, SuperOperator(ref.toarray(), space), EvolutionSpec(seg.duration)
        )
        np.testing.assert_allclose(leaky.matrix, expected.matrix, rtol=0, atol=1e-12)


# --- value caches: a warm run is bit-identical to a cold one ---

RUNS = {
    "two/overlap": lambda c, f, d: run_two_cavity(c, "overlap", f, d),
    "two/explicit": lambda c, f, d: run_two_cavity(c, "explicit", f, d),
    "single/resonant": lambda c, f, d: run_single_cavity(c, "resonant", f, d),
    "single/detuned": lambda c, f, d: run_single_cavity(c, "detuned", f, d),
}


def _fingerprint(rec):
    return (rec.p_e.hex(), rec.prep_fidelity.hex(), rec.after_preparation.matrix.tobytes(),
            rec.after_window.matrix.tobytes())


@pytest.mark.parametrize("dissipate", [False, True])
@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("run", RUNS)
def test_warm_runs_match_cold_runs_bit_for_bit(cold, run, frame, dissipate):
    cfgs = [make_cfg(theta=2.0, phi=phi, r=r, T=T, Omega=2e4)
            for r in (0.0, 500.0, 1000.0) for phi in (0.4, 1.0) for T in (0.0, 3e-4)]
    cold_prints = []
    for c in cfgs:
        cold()
        cold_prints.append(_fingerprint(RUNS[run](c, frame, dissipate)))
    warm = [RUNS[run](c, frame, dissipate) for c in cfgs]
    warm_again = [RUNS[run](c, frame, dissipate) for c in cfgs]
    assert [_fingerprint(rec) for rec in warm] == cold_prints
    assert [_fingerprint(rec) for rec in warm_again] == cold_prints
    for rec in warm:
        for rho in (rec.after_preparation, rec.after_window):
            assert not rho.matrix.flags.writeable


def test_prepared_state_keys_on_decay_only_when_pulses_dissipate(cold):
    a, b = make_cfg(r=200.0), make_cfg(r=900.0)
    # without dissipation the pulses ignore the decay: one shared state
    assert run_two_cavity(a).after_preparation is run_two_cavity(b).after_preparation
    leaky_a = run_two_cavity(a, dissipate_during_pulses=True).after_preparation
    leaky_b = run_two_cavity(b, dissipate_during_pulses=True).after_preparation
    assert leaky_a is not leaky_b
    assert leaky_a.matrix.tobytes() != leaky_b.matrix.tobytes()
    # another phi is another dispersive wait, so another prepared state
    other = run_two_cavity(make_cfg(r=200.0, phi=2.0)).after_preparation
    assert other is not run_two_cavity(a).after_preparation


def test_warm_overlap_run_reuses_the_target_and_its_fidelity(cold, monkeypatch):
    kets = []
    fidelity = DensityMatrix.fidelity_with_ket

    def spy(rho, psi):
        kets.append(psi)
        return fidelity(rho, psi)

    monkeypatch.setattr(DensityMatrix, "fidelity_with_ket", spy)
    run_two_cavity(make_cfg(r=200.0))
    assert len(kets) == 2  # the preparation check, then the readout
    target = kets[0]
    kets.clear()
    run_two_cavity(make_cfg(r=900.0))
    assert len(kets) == 1 and kets[0] is target
