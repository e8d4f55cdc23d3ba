import copy
import dataclasses
import pickle
from math import cos, exp, factorial, pi, sin, sqrt

import numpy as np
import pytest

from crosscav.analytic import (
    AmplitudePair,
    PreparedStateParams,
    discriminator_D,
    evolve_amplitudes,
    prepared_state,
    prob_e_single_cavity_detuned,
    prob_e_single_cavity_resonant,
    prob_e_two_cavity,
    robust_coherent_state,
    robust_entangled_state,
    robust_fock_state,
    single_excitation_propagator,
    two_mode_space,
)
from crosscav.integrator import EvolutionSpec, evolve_master
from crosscav.liouvillian import (
    SymmetricDecayParameters,
    build_symmetric_liouvillian,
    normal_mode_ops,
)
from crosscav.tensor import basis_ket, density_from_ket, make_space
from crosscav.validate import (
    integrated_prob_two_cavity,
    single_excitation_block_propagator,
)


def test_prepared_state_theta_zero():
    psi = prepared_state(PreparedStateParams(0.0, 1.0))
    space = psi.space
    assert basis_ket(space, (0, 1)).overlap(psi) == pytest.approx(1.0)


def test_prepared_state_matches_single_cavity_form():
    psi = prepared_state(PreparedStateParams(pi / 4, pi / 2))
    space = psi.space
    a01 = basis_ket(space, (0, 1)).overlap(psi)
    a10 = basis_ket(space, (1, 0)).overlap(psi)
    assert a01 == pytest.approx(1 / sqrt(2))
    assert a10 == pytest.approx(1j / sqrt(2))


def test_prepared_state_normalized(rng):
    for _ in range(10):
        psi = prepared_state(
            PreparedStateParams(rng.uniform(0, 2 * pi), rng.uniform(0, 2 * pi))
        )
        assert psi.norm() == pytest.approx(1.0, abs=1e-14)


# --- single-excitation propagator ---


def test_propagator_t_zero_identity():
    M = single_excitation_propagator(1000.0, 500.0, 1.0, 0.0)
    np.testing.assert_allclose(M, np.eye(2), atol=1e-15)


def test_propagator_r_zero_uniform_decay():
    k, t = 800.0, 1e-3
    M = single_excitation_propagator(k, 0.0, 2.0, t)
    np.testing.assert_allclose(M, exp(-k * t) * np.eye(2), atol=1e-15)


def test_propagator_against_master_equation_oracle():
    k, r, gamma, t = 1000.0, 750.0, pi / 2, 500e-6
    M_num = single_excitation_block_propagator(k, r, gamma, t)
    M = single_excitation_propagator(k, r, gamma, t)
    np.testing.assert_allclose(M, M_num, atol=1e-8)


def test_propagator_rejects_bad_domain():
    with pytest.raises(ValueError):
        single_excitation_propagator(100.0, 200.0, 0.0, 1e-3)
    with pytest.raises(ValueError):
        single_excitation_propagator(100.0, 50.0, 0.0, -1e-3)


_NAN, _INF = float("nan"), float("inf")
_PREP = PreparedStateParams(pi / 4, pi / 2)


@pytest.mark.parametrize("call,name", [
    (lambda: prob_e_single_cavity_resonant(1000.0, 1000.0, 1.0, _NAN), "t"),
    (lambda: prob_e_single_cavity_resonant(_INF, 10.0, 1.0, 1e-3), "k"),
    (lambda: prob_e_two_cavity(_PREP, 1000.0, _NAN, 1.0, 1e-3), "r"),
    (lambda: prob_e_two_cavity(_PREP, 1000.0, 10.0, -_INF, 1e-3), "gamma"),
    (lambda: single_excitation_propagator(1000.0, 10.0, _NAN, 1e-3), "gamma"),
    (lambda: discriminator_D(1000.0, 10.0, 1.0, _INF), "t"),
    (lambda: prob_e_single_cavity_detuned(1000.0, _NAN), "T"),
    (lambda: prob_e_single_cavity_detuned(_NAN, 1e-3), "k"),
    (lambda: robust_entangled_state(_NAN), "gamma"),
    (lambda: robust_coherent_state(_INF, 0.3), "gamma"),
    (lambda: robust_fock_state(_NAN, 1, 2), "gamma"),
])
def test_analytic_rejects_non_finite(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


# in the closed forms' argument order (k, r, gamma, T), under their check's names
_RATES = {"k": 1000.0, "r": 500.0, "gamma": 1.0, "t": 1e-3}


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF])
@pytest.mark.parametrize("name", list(_RATES))
@pytest.mark.parametrize("closed_form", [
    lambda k, r, gamma, t: prob_e_two_cavity(_PREP, k, r, gamma, t),
    prob_e_single_cavity_resonant,
], ids=["two_cavity", "single_cavity_resonant"])
def test_closed_forms_name_each_non_finite_argument(closed_form, name, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        closed_form(*{**_RATES, name: bad}.values())


def test_rate_check_accepts_finite_arguments_whose_sum_overflows():
    # k + r + t + gamma is inf here; the screen falls back to the named
    # checks, which pass every finite argument.  At T = 0 nothing has
    # decayed, even where 2k overflows a float
    k = r = gamma = 1e308
    M = single_excitation_propagator(k, r, gamma, 0.0)
    np.testing.assert_array_equal(M, np.eye(2))
    assert prob_e_two_cavity(PreparedStateParams(0.3, 1.0), k, r, gamma, 0.0) == 1.0
    assert prob_e_two_cavity(_PREP, k, r, gamma, 0.0) == 1.0
    assert prob_e_single_cavity_resonant(k, r, gamma, 0.0) == 1.0
    assert prob_e_single_cavity_detuned(k, 0.0) == 1.0


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF])
@pytest.mark.parametrize("angle", ["theta", "phi"])
def test_prepared_state_params_rejects_non_finite(angle, bad):
    angles = {"theta": 0.3, "phi": 1.2, angle: bad}
    with pytest.raises(ValueError, match="^angles must be finite"):
        PreparedStateParams(**angles)


@pytest.mark.parametrize("bad", [_NAN, _INF, -_INF])
@pytest.mark.parametrize("angle", ["theta", "phi"])
def test_prepared_state_params_keeps_its_dataclass_behaviour(angle, bad):
    p = PreparedStateParams(theta=1, phi=-pi / 2)
    assert (p.theta, p.phi) == (1.0, 2 * pi - pi / 2)
    assert type(p.theta) is float
    same = PreparedStateParams(1.0, 3 * pi / 2)
    assert same == p and hash(same) == hash(p)
    assert p != PreparedStateParams(1.0, 0.5)
    assert repr(p) == f"PreparedStateParams(theta=1.0, phi={2 * pi - pi / 2!r})"
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.theta = 0.5
    # replace reduces the changed angle and keeps the other as stored
    moved = dataclasses.replace(p, **{angle: 2 * pi + 0.25})
    assert getattr(moved, angle) == pytest.approx(0.25, abs=1e-15)
    other = "phi" if angle == "theta" else "theta"
    assert getattr(moved, other) == getattr(p, other)
    assert dataclasses.replace(p) == p
    with pytest.raises(ValueError, match="^angles must be finite"):
        dataclasses.replace(p, **{angle: bad})
    # slotted: no per-instance dict, and copies keep the stored angles
    assert not hasattr(p, "__dict__")
    for copied in (pickle.loads(pickle.dumps(p)), copy.deepcopy(p), copy.copy(p)):
        assert type(copied) is PreparedStateParams and copied is not p
        assert copied == p and (copied.theta, copied.phi) == (p.theta, p.phi)


def test_amplitude_pair_evolution_population():
    u0 = AmplitudePair(1j / sqrt(2), 1 / sqrt(2))
    u = evolve_amplitudes(u0, 1000.0, 1000.0, pi / 2, 1e-3)
    # robust combination at r = k, gamma = pi/2 keeps its population
    assert abs(u.u1) ** 2 + abs(u.u2) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_amplitude_pair_rejects_overfilled():
    with pytest.raises(ValueError):
        AmplitudePair(1.0, 0.5)


# --- probabilities ---


def test_prob_two_cavity_no_environment():
    assert prob_e_two_cavity(PreparedStateParams(0.6, 1.9), 0.0, 0.0, 0.0, 1.0) == 1.0


def test_prob_two_cavity_dfs_point():
    gamma = 1.1
    p = PreparedStateParams(pi / 4, pi - gamma)
    assert prob_e_two_cavity(p, 1000.0, 1000.0, gamma, 2e-3) == pytest.approx(1.0)


def test_prob_two_cavity_closed_form_value():
    p = PreparedStateParams(pi / 4, pi / 2)
    got = prob_e_two_cavity(p, 1000.0, 500.0, pi / 2, 500e-6)
    assert got == pytest.approx(exp(-0.5), abs=1e-12)


def test_prob_single_cavity_resonant_dfs():
    for T in (0.0, 1e-4, 5e-3):
        assert prob_e_single_cavity_resonant(1000.0, 1000.0, pi / 2, T) == pytest.approx(
            1.0, abs=1e-12
        )


def test_prob_single_cavity_resonant_r_zero():
    k, T = 1000.0, 7e-4
    assert prob_e_single_cavity_resonant(k, 0.0, 0.3, T) == pytest.approx(
        exp(-2 * k * T)
    )


def test_prob_single_cavity_resonant_value():
    got = prob_e_single_cavity_resonant(1000.0, 500.0, pi / 2, 1e-3)
    assert got == pytest.approx(exp(-1.0), abs=1e-12)


def test_prob_single_cavity_detuned():
    assert prob_e_single_cavity_detuned(1000.0, 0.0) == 1.0
    assert prob_e_single_cavity_detuned(0.0, 5.0) == 1.0
    assert prob_e_single_cavity_detuned(1000.0, 500e-6) == pytest.approx(exp(-1.0))


def test_discriminator_values():
    assert discriminator_D(1000.0, 0.0, 1.3, 8e-4) == pytest.approx(0.0, abs=1e-15)
    got = discriminator_D(1000.0, 1000.0, pi / 2, 1e-3)
    assert got == pytest.approx(1.0 - exp(-2.0), abs=1e-12)


def test_discriminator_sign_on_grid():
    for r in np.linspace(0.0, 1000.0, 11):
        for T in np.linspace(0.0, 3e-3, 13):
            assert discriminator_D(1000.0, r, pi / 2, T) >= -1e-15


def test_consistency_single_equals_two_cavity():
    p = PreparedStateParams(pi / 4, pi / 2)
    for r in (0.0, 300.0, 1000.0):
        for T in (0.0, 4e-4, 2e-3):
            a = prob_e_single_cavity_resonant(1000.0, r, 0.9, T)
            b = prob_e_two_cavity(p, 1000.0, r, 0.9, T)
            assert a == pytest.approx(b, abs=1e-12)


def test_probability_range_grid():
    k = 1000.0
    thetas = np.linspace(0, 2 * pi, 10)
    phis = np.linspace(0, 2 * pi, 10)
    rs = np.linspace(0, k, 5)
    Ts = np.linspace(0, 3e-3, 5)
    gammas = np.linspace(0, 2 * pi, 5)
    for th in thetas:
        for ph in phis:
            for r in rs:
                for T in Ts:
                    for g in gammas:
                        v = prob_e_two_cavity(PreparedStateParams(th, ph), k, r, g, T)
                        assert -1e-12 <= v <= 1 + 1e-12


def test_visibility_monotone_in_r():
    k, gamma, T = 1000.0, pi / 2, 500e-6
    phis = np.linspace(0, 2 * pi, 401)
    amplitudes = []
    for r in np.linspace(0, k, 6):
        vals = [
            prob_e_two_cavity(PreparedStateParams(pi / 4, ph), k, r, gamma, T)
            for ph in phis
        ]
        amplitudes.append(max(vals) - min(vals))
    assert all(b >= a - 1e-12 for a, b in zip(amplitudes, amplitudes[1:]))


def test_maximum_at_pi_minus_gamma():
    k, r, T = 1000.0, 600.0, 500e-6
    for gamma in (0.3, 1.9, 4.0):
        phis = np.linspace(0, 2 * pi, 2001)
        vals = [
            prob_e_two_cavity(PreparedStateParams(pi / 4, ph), k, r, gamma, T)
            for ph in phis
        ]
        peak = phis[int(np.argmax(vals))]
        expected = (pi - gamma) % (2 * pi)
        assert peak == pytest.approx(expected, abs=2 * pi / 2000 + 1e-12)


def test_oracle_equivalence_random(rng):
    for _ in range(20):
        k = rng.uniform(200.0, 2000.0)
        r = rng.uniform(0.0, k)
        gamma = rng.uniform(0.0, 2 * pi)
        theta = rng.uniform(0.0, 2 * pi)
        phi = rng.uniform(0.0, 2 * pi)
        T = rng.uniform(0.0, 2.0 / k)
        closed = prob_e_two_cavity(PreparedStateParams(theta, phi), k, r, gamma, T)
        brute = integrated_prob_two_cavity(theta, phi, k, r, gamma, T)
        assert closed == pytest.approx(brute, abs=1e-6)


def test_slow_and_fast_decay_rates():
    k, r, gamma = 1000.0, 700.0, 2.1
    space = two_mode_space(1)
    L = build_symmetric_liouvillian(SymmetricDecayParameters(k, r, gamma), space)
    A1, A2 = normal_mode_ops(space, gamma)
    N1 = (A1.dag() @ A1).matrix
    N2 = (A2.dag() @ A2).matrix
    rho0 = density_from_ket(basis_ket(space, (1, 0)))
    t = 4e-4
    rho_t = evolve_master(rho0, L, EvolutionSpec(t))
    for N, rate in ((N1, 2 * (k - r)), (N2, 2 * (k + r))):
        n0 = np.trace(N @ rho0.matrix).real
        nt = np.trace(N @ rho_t.matrix).real
        assert nt / n0 == pytest.approx(exp(-rate * t), rel=1e-6)


# --- robust states ---


def test_robust_entangled_equals_slow_mode_excitation():
    gamma = 0.9
    psi = robust_entangled_state(gamma)
    space = psi.space
    A1, _ = normal_mode_ops(space, gamma)
    v = A1.matrix.conj().T @ basis_ket(space, (0, 0)).amplitudes
    np.testing.assert_allclose(psi.amplitudes, v / np.linalg.norm(v), atol=1e-15)


def test_robust_entangled_gamma_pi():
    psi = robust_entangled_state(pi)
    space = psi.space
    assert basis_ket(space, (1, 0)).overlap(psi) == pytest.approx(1 / sqrt(2))
    assert basis_ket(space, (0, 1)).overlap(psi) == pytest.approx(1 / sqrt(2))


def test_robust_entangled_survives_dfs_flow():
    gamma = 2.7
    psi = robust_entangled_state(gamma)
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(1000.0, 1000.0, gamma), psi.space, "rotating"
    )
    rho_T = evolve_master(density_from_ket(psi), L, EvolutionSpec(1e-3))
    assert rho_T.fidelity_with_ket(psi) >= 1 - 1e-8


def test_robust_coherent_vacuum_limit():
    psi = robust_coherent_state(1.0, 0.0, n_max=4)
    assert abs(psi.amplitudes[0]) == pytest.approx(1.0)


def test_robust_coherent_mode_structure():
    gamma, v, n_max = 0.6, 0.3, 8
    psi = robust_coherent_state(gamma, v, n_max)
    A1, A2 = normal_mode_ops(psi.space, gamma)
    fast = A2.matrix @ psi.amplitudes
    assert np.linalg.norm(fast) < 1e-15
    # A1 psi = sqrt(2) v psi below the top shell n1 + n2 = n_max; the top
    # shell has no shell above it to lower from, so there A1 psi is 0 and
    # differs from sqrt(2) v psi by up to 1.06e-6 here
    slow = A1.matrix @ psi.amplitudes
    n1, n2 = np.indices((n_max + 1, n_max + 1)).reshape(2, -1)
    top = n1 + n2 == n_max
    np.testing.assert_allclose(
        slow[~top], sqrt(2) * v * psi.amplitudes[~top], rtol=0, atol=1e-15
    )
    assert (slow[top] == 0).all()


@pytest.mark.parametrize("gamma, v, n_max", [
    (0.6, 0.3, 8), (1.1, 0.9, 8), (2.5, 1.4, 8), (0.9, 0.5 - 0.4j, 4), (0.0, 1.0, 4),
])
def test_robust_coherent_state_is_a_truncated_slow_mode_coherent_state(gamma, v, n_max):
    psi = robust_coherent_state(gamma, v, n_max)
    # the support is exactly n1 + n2 <= n_max
    n1, n2 = np.indices((n_max + 1, n_max + 1)).reshape(2, -1)
    assert ((psi.amplitudes != 0) == (n1 + n2 <= n_max)).all()
    # sum_{n <= n_max} alpha^n / sqrt(n!) |n>_slow with alpha = sqrt(2) v
    alpha = sqrt(2) * v
    ref = sum(
        alpha**n / sqrt(factorial(n)) * robust_fock_state(gamma, n, n_max).amplitudes
        for n in range(n_max + 1)
    )
    assert np.abs(psi.amplitudes - ref / np.linalg.norm(ref)).max() <= 1e-15


def test_robust_coherent_rejects_large_amplitude():
    with pytest.raises(ValueError):
        robust_coherent_state(0.0, 2.0, n_max=4)


def test_robust_fock_states():
    assert abs(robust_fock_state(1.0, 0, 4).amplitudes[0]) == pytest.approx(1.0)
    np.testing.assert_allclose(
        robust_fock_state(2.2, 1, 1).amplitudes,
        robust_entangled_state(2.2).amplitudes,
        atol=1e-15,
    )
    psi = robust_fock_state(0.0, 2, 2)
    space = make_space([3, 3])
    a20 = basis_ket(space, (2, 0)).overlap(psi)
    a11 = basis_ket(space, (1, 1)).overlap(psi)
    a02 = basis_ket(space, (0, 2)).overlap(psi)
    assert a20 == pytest.approx(0.5)
    assert a11 == pytest.approx(-1 / sqrt(2))
    assert a02 == pytest.approx(0.5)


def test_robust_fock_rejects_overflow():
    with pytest.raises(ValueError):
        robust_fock_state(0.0, 3, 2)
