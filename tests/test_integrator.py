from math import cos, exp, pi, sin, sqrt

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import crosscav.integrator
from conftest import random_density
from crosscav.analytic import robust_coherent_state
from crosscav.integrator import (
    EvolutionSpec,
    evolve_master,
    evolve_unitary,
    jc_hamiltonian,
)
from crosscav.liouvillian import (
    DecayParameters,
    SymmetricDecayParameters,
    build_general_liouvillian,
    build_symmetric_liouvillian,
)
from crosscav.tensor import (
    ATOM_E,
    ATOM_G,
    Operator,
    basis_ket,
    density_from_ket,
    make_space,
    number_op,
)


def test_zero_generator_is_identity(two_mode_nmax1, rng):
    L = build_general_liouvillian(DecayParameters(0.0, 0.0), two_mode_nmax1)
    rho = random_density(two_mode_nmax1, rng)
    out = evolve_master(rho, L, EvolutionSpec(1e-3, method="rk4"))
    np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-14)


def test_single_mode_decay_closed_form(two_mode_nmax1):
    k, t = 1000.0, 1e-3
    L = build_general_liouvillian(DecayParameters(k11=k, k22=0.0), two_mode_nmax1)
    rho0 = density_from_ket(basis_ket(two_mode_nmax1, (1, 0)))
    n1 = number_op(two_mode_nmax1, 0).matrix
    for method in ("rk4", "expm"):
        rho_t = evolve_master(rho0, L, EvolutionSpec(t, method=method))
        n_mean = np.trace(n1 @ rho_t.matrix).real
        assert n_mean == pytest.approx(exp(-2 * k * t), abs=1e-8)


def test_rk4_agrees_with_expm(two_mode_nmax1, rng):
    for _ in range(10):
        k = rng.uniform(100.0, 2000.0)
        r = rng.uniform(0.0, k)
        gamma = rng.uniform(0.0, 2 * pi)
        t = rng.uniform(0.0, 2.0 / k)
        L = build_symmetric_liouvillian(
            SymmetricDecayParameters(k, r, gamma), two_mode_nmax1
        )
        rho0 = random_density(two_mode_nmax1, rng)
        a = evolve_master(rho0, L, EvolutionSpec(t, method="rk4"))
        b = evolve_master(rho0, L, EvolutionSpec(t, method="expm"))
        np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-8)


def test_rk4_fourth_order_scaling(two_mode_nmax1, rng):
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(5000.0, 2500.0, 1.0), two_mode_nmax1
    )
    rho0 = random_density(two_mode_nmax1, rng)
    t = 4e-4
    exact = evolve_master(rho0, L, EvolutionSpec(t, method="expm")).matrix
    step = t / 100

    def deviation(h):
        out = evolve_master(rho0, L, EvolutionSpec(t, step=h, method="rk4"))
        return np.abs(out.matrix - exact).max()

    assert deviation(step) / deviation(step / 2) >= 8.0


def test_rk4_refuses_oversized_step(two_mode_nmax1, rng):
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(1e6, 0.0, 0.0), two_mode_nmax1
    )
    rho0 = random_density(two_mode_nmax1, rng)
    with pytest.raises(ValueError, match="step"):
        evolve_master(rho0, L, EvolutionSpec(1e-3, step=5e-4, method="rk4"))


def test_trajectory_invariants(two_mode_nmax1, rng):
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(1000.0, 900.0, 0.7), two_mode_nmax1
    )
    rho = random_density(two_mode_nmax1, rng)
    for t in np.linspace(0.0, 3e-3, 7):
        m = evolve_master(rho, L, EvolutionSpec(t)).matrix
        assert abs(np.trace(m) - 1) <= 1e-9
        assert np.abs(m - m.conj().T).max() <= 1e-9
        assert np.linalg.eigvalsh(m).min() >= -1e-8


# --- exact path against scipy's matrix exponential ---

K_EXACT = 1000.0
EXACT_CASES = {
    "r=k": (K_EXACT, 1e-3, "rotating", 0.0),
    "r=k(1-1e-7)": (K_EXACT * (1 - 1e-7), 1e-3, "rotating", 0.0),
    "r<k": (0.4 * K_EXACT, 2e-3, "rotating", 0.0),
    "lab": (0.7 * K_EXACT, 2e-3, "lab", 2 * pi * 5e3),
    "T=1s": (K_EXACT, 1.0, "rotating", 0.0),
}


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2]], ids=str)
@pytest.mark.parametrize("case", EXACT_CASES)
def test_expm_matches_dense_exponential(dims, case, rng):
    r, T, frame, omega = EXACT_CASES[case]
    space = make_space(dims)
    params = SymmetricDecayParameters(K_EXACT, r, rng.uniform(0, 2 * pi), omega)
    L = build_symmetric_liouvillian(params, space, frame)
    rho0 = random_density(space, rng)
    out = evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1)
    ref = expm(L.matrix.toarray() * T) @ rho0.matrix.reshape(-1)
    assert np.abs(out - ref).max() <= 1e-10


def test_expm_matches_expm_multiply_at_nmax8():
    gamma, T = 2.0, 1e-3
    psi = robust_coherent_state(gamma, 0.3, n_max=8)
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, K_EXACT, gamma), psi.space, "rotating"
    )
    rho0 = density_from_ket(psi)
    out = evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1)
    ref = expm_multiply(L.matrix * T, rho0.matrix.reshape(-1))
    assert np.abs(out - ref).max() <= 1e-12


def test_expm_never_falls_back_to_rk4(two_mode_nmax1, rng, monkeypatch):
    def no_rk4(*args, **kwargs):
        raise AssertionError("method='expm' must not run RK4")

    monkeypatch.setattr(crosscav.integrator, "_rk4", no_rk4)
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, K_EXACT, 0.3), two_mode_nmax1
    )
    rho0 = random_density(two_mode_nmax1, rng)
    out = evolve_master(rho0, L, EvolutionSpec(1e-3, method="expm"))
    assert abs(np.trace(out.matrix) - 1) <= 1e-12


@pytest.mark.parametrize("kw", [
    {"duration": float("nan")},
    {"duration": float("inf")},
    {"duration": 1e-3, "step": float("nan")},
    {"duration": 1e-3, "step": float("inf")},
])
def test_spec_rejects_non_finite(kw):
    with pytest.raises(ValueError, match="finite"):
        EvolutionSpec(**kw)


# --- unitary segments ---


def test_vacuum_rabi_oscillation():
    space = make_space([2, 2, 2])
    G = 2 * pi * 25e3
    H = jc_hamiltonian(space, "mode1", G)
    psi0 = basis_ket(space, (0, 0, ATOM_E))
    t = 0.3 / G
    psi = evolve_unitary(psi0, H, t)
    a_e = basis_ket(space, (0, 0, ATOM_E)).overlap(psi)
    a_g = basis_ket(space, (1, 0, ATOM_G)).overlap(psi)
    assert a_e == pytest.approx(cos(G * t), abs=1e-12)
    assert a_g == pytest.approx(-1j * sin(G * t), abs=1e-12)


def test_dispersive_segment_phase():
    from crosscav.integrator import free_hamiltonian

    space = make_space([2, 2, 2])
    delta, t = 3e5, 2e-6
    H = free_hamiltonian(space, 0.0, delta)  # rotating frame: sz * delta / 2
    b = basis_ket(space, (1, 0, ATOM_G))
    e = basis_ket(space, (0, 0, ATOM_E))
    psi0 = type(b)((b.amplitudes + e.amplitudes) / sqrt(2), space)
    psi = evolve_unitary(psi0, H, t)
    rel = b.overlap(psi) / e.overlap(psi)
    assert rel == pytest.approx(np.exp(1j * delta * t), abs=1e-12)


def test_zero_duration_identity():
    space = make_space([2, 2, 2])
    H = jc_hamiltonian(space, "mode2", 1e5)
    psi0 = basis_ket(space, (0, 1, ATOM_G))
    assert evolve_unitary(psi0, H, 0.0) is psi0


def test_unitary_norm_and_composition(rng):
    space = make_space([2, 2, 2])
    H = jc_hamiltonian(space, "both_with_phase", 1e5, Omega=2e5, Omega_a=2e5)
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    from crosscav.tensor import Ket

    psi0 = Ket(v / np.linalg.norm(v), space)
    t1, t2 = 3.1e-6, 1.7e-6
    once = evolve_unitary(evolve_unitary(psi0, H, t1), H, t2)
    both = evolve_unitary(psi0, H, t1 + t2)
    assert abs(once.norm() - 1) < 1e-12
    np.testing.assert_allclose(once.amplitudes, both.amplitudes, atol=1e-10)


def test_non_hermitian_rejected():
    space = make_space([2])
    H = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), space)
    psi = basis_ket(space, (0,))
    with pytest.raises(ValueError, match="Hermitian"):
        evolve_unitary(psi, H, 1.0)


def test_jc_variants_hermitian():
    space = make_space([3, 3, 2])
    for which in ("mode1", "mode2", "both_with_phase"):
        H = jc_hamiltonian(space, which, 1e5, Omega=2e5, Omega_a=1.9e5).matrix
        assert np.abs(H - H.conj().T).max() < 1e-15 * np.abs(H).max()


def test_jc_mode1_commutes_with_mode2_number():
    space = make_space([3, 3, 2])
    H = jc_hamiltonian(space, "mode1", 1e5)
    n2 = number_op(space, 1)
    assert np.abs((H @ n2 - n2 @ H).matrix).max() < 1e-9


def test_both_modes_pulse_creates_entangled_state():
    space = make_space([2, 2, 2])
    G = 2 * pi * 25e3
    H = jc_hamiltonian(space, "both_with_phase", G)
    t = pi / (2 * sqrt(2.0) * G)
    psi = evolve_unitary(basis_ket(space, (0, 0, ATOM_E)), H, t)
    target = (
        basis_ket(space, (0, 1, ATOM_G)).amplitudes
        + 1j * basis_ket(space, (1, 0, ATOM_G)).amplitudes
    ) / sqrt(2)
    fidelity = abs(np.vdot(target, psi.amplitudes)) ** 2
    assert fidelity >= 1 - 1e-10


def test_jc_requires_atom():
    with pytest.raises(ValueError, match="atom"):
        jc_hamiltonian(make_space([3, 3]), "mode1", 1e5)
