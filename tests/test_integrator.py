from math import cos, exp, pi, sin, sqrt

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import expm
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import expm_multiply

import crosscav.integrator
from conftest import random_density, to_scipy
from crosscav import _memo
from crosscav.analytic import (
    PreparedStateParams,
    prob_e_two_cavity,
    robust_coherent_state,
    robust_entangled_state,
)
from crosscav.integrator import (
    EvolutionSpec,
    evolve_master,
    evolve_unitary,
    jc_hamiltonian,
    unitary_propagator,
)
from crosscav.liouvillian import (
    DecayParameters,
    SuperOperator,
    SymmetricDecayParameters,
    build_general_liouvillian,
    build_symmetric_liouvillian,
)
from crosscav.tensor import (
    ATOM_E,
    ATOM_G,
    Ket,
    Operator,
    basis_ket,
    density_from_ket,
    make_space,
    number_op,
)
from crosscav.validate import integrated_prob_two_cavity


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
    ref = expm_multiply(to_scipy(L.matrix) * T, rho0.matrix.reshape(-1))
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


# --- reachable block: dense and sparse branches against scipy's expm ---

BLOCK_GENERATORS = {
    **{
        f"r={name}-{frame}": (SymmetricDecayParameters(K_EXACT, r, 0.9, 2 * pi * 5e3), frame)
        for name, r in (("0", 0.0), ("k/2", K_EXACT / 2), ("k", K_EXACT))
        for frame in ("rotating", "lab")
    },
    "asymmetric": (DecayParameters(
        k11=900.0, k22=1100.0, k12=300.0, k21=280.0,
        d11=15.0, d22=-10.0, d12=120.0, d21=-90.0, omega1=2e4, omega2=2.1e4,
    ), None),
}


def _generator(case, space):
    params, frame = BLOCK_GENERATORS[case]
    if frame is None:
        return build_general_liouvillian(params, space)
    return build_symmetric_liouvillian(params, space, frame)


def _excitations(space):
    """Total excitation number of every basis state (the atom's e counts 1)."""
    levels = np.indices(space.dims).reshape(len(space.dims), -1)
    return levels.sum(axis=0)


def _random_ket(space, rng, allowed):
    v = np.where(allowed, rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim), 0)
    return Ket(v / np.linalg.norm(v), space)


def _block_states(space, rng):
    n_exc = _excitations(space)
    return {
        # one excitation shared by the modes and, when present, the atom
        "protocol": density_from_ket(_random_ket(space, rng, n_exc == 1)),
        "sectors": density_from_ket(_random_ket(space, rng, n_exc <= 2)),
        "full-rank": random_density(space, rng),
    }


def _reachable_oracle(L, v):
    """Indices reachable from supp(v) by repeated dense pattern products."""
    pattern = (L.toarray() != 0).astype(int)
    reach = v != 0
    while True:
        grown = reach | (pattern @ reach > 0)
        if (grown == reach).all():
            return reach
        reach = grown


@pytest.mark.parametrize("case", BLOCK_GENERATORS)
@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2], [3, 3, 2]], ids=str)
def test_block_propagation_matches_dense_exponential(dims, case, rng):
    space = make_space(dims)
    L = _generator(case, space)
    dense = L.matrix.toarray()
    states = _block_states(space, rng)
    for T in (1e-4, 1e-3, 1.0):
        prop = expm(dense * T)
        for label, rho0 in states.items():
            v = rho0.matrix.reshape(-1)
            out = evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1)
            ref = prop @ v
            assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max(), (label, T)
            outside = ~_reachable_oracle(L.matrix, v)
            assert not np.abs(dense[np.ix_(outside, ~outside)]).any()
            assert (out[outside] == 0).all(), (label, T)
            if label == "protocol":
                assert outside.any()


# --- connected components of a generator's stored pattern ---


def _assert_components_match_scipy(A, label):
    labels = A.components
    pattern = sp.csr_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    n_ref, ref = connected_components(pattern, directed=True, connection="weak")
    # the same partition: each label pairs with exactly one scipy label
    pairs = np.unique(np.stack([labels, ref]), axis=1)
    assert pairs.shape[1] == n_ref == len(np.unique(labels)), label
    # no stored entry joins two labels
    assert (labels[A.row_of()] == labels[A.indices]).all(), label


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2], [3, 3, 2], [9, 9]], ids=str)
def test_components_match_scipy(dims):
    space = make_space(dims)
    for case in BLOCK_GENERATORS:
        _assert_components_match_scipy(_generator(case, space).matrix, case)
    if len(dims) == 3:
        params, frame = BLOCK_GENERATORS["r=k-lab"]
        H = jc_hamiltonian(space, "both_with_phase", 1e5, 2e5, 2e5)
        L = build_symmetric_liouvillian(params, space, frame, H)
        _assert_components_match_scipy(L.matrix, "pulse")


def test_components_of_a_scattered_generator_match_scipy(rng):
    _assert_components_match_scipy(_scattered_generator(rng).matrix, "scattered")


def test_components_are_labelled_once_and_only_for_large_blocks():
    params = SymmetricDecayParameters(K_EXACT, K_EXACT, 0.9)
    space = make_space([2, 2, 2])
    L = build_symmetric_liouvillian(params, space)
    rho0 = density_from_ket(basis_ket(space, (1, 0, ATOM_G)))
    evolve_master(rho0, L, EvolutionSpec(1.0))
    # a block of at most 64 rows never labels the generator
    assert "components" not in vars(L.matrix)
    labels = L.matrix.components
    assert not labels.flags.writeable
    assert L.matrix.components is labels
    # a generator reused by value keeps its labels
    assert build_symmetric_liouvillian(params, space).matrix.components is labels


def test_sparse_action_runs_the_nmax8_coherent_state(monkeypatch):
    def no_dense(*args, **kwargs):
        raise AssertionError("the n_max = 8 coherent state must take the sparse action")

    monkeypatch.setattr(crosscav.integrator, "_expm_dense", no_dense)
    psi = robust_coherent_state(2.0, 0.3, n_max=8)
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, K_EXACT, 2.0), psi.space, "rotating"
    )
    rho_T = evolve_master(density_from_ket(psi), L, EvolutionSpec(1e-3))
    assert 1.0 - rho_T.fidelity_with_ket(psi) <= 1e-12


def test_action_rejects_a_window_whose_step_count_overflows(monkeypatch):
    def no_work(*args, **kwargs):
        raise AssertionError("the window must be rejected before any product")

    monkeypatch.setattr(crosscav.integrator, "_shifted_product", no_work)
    psi = robust_coherent_state(0.3, 0.3, n_max=8)
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, K_EXACT, 0.3), psi.space, "rotating"
    )
    with pytest.raises(ValueError, match=r"t = 1e\+308 s times the generator norm \S+ 1/s") as exc:
        evolve_master(density_from_ket(psi), L, EvolutionSpec(1e308))
    assert "\n" not in str(exc.value)


def _shift(A):
    return A.diagonal().sum() / A.shape[0]


def _assert_product_matches_scipy(A, mu, rng, label):
    n = A.shape[0]
    ref = to_scipy(A) - mu * sp.identity(n, format="csr")
    for x in (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=n) + 0j):
        out = crosscav.integrator._shifted_product(A, mu)(x)
        # rounding of a row sum is bounded by its absolute terms
        assert (np.abs(out - ref @ x) <= 1e-15 * (abs(ref) @ np.abs(x))).all(), label


@pytest.mark.parametrize("dims", [[3, 3, 2], [9, 9]], ids=str)
def test_diagonal_product_matches_scipy(dims, rng):
    space = make_space(dims)
    pulses = [None]
    if len(dims) == 3:
        pulses += [jc_hamiltonian(space, w, 1e5, 2e5, 2e5) for w in ("mode1", "both_with_phase")]
    for case, (params, frame) in BLOCK_GENERATORS.items():
        for H in pulses:
            if frame is None:
                L = build_general_liouvillian(params, space, H)
            else:
                L = build_symmetric_liouvillian(params, space, frame, H)
            A = L.matrix
            # the diagonals of every generator the package builds
            assert len(np.unique(A.indices - A.row_of())) <= 17, case
            for mu in (_shift(A), 0.0):
                _assert_product_matches_scipy(A, mu, rng, (case, H is None, mu))


def _scattered_generator(rng):
    """A [3, 3] generator in a randomly relabelled basis."""
    space = make_space([3, 3])
    D = space.dim
    perm = rng.permutation(D)
    vec_perm = (perm[:, None] * D + perm).ravel()
    L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, 600.0, 0.4), space)
    return SuperOperator(L.matrix.toarray()[np.ix_(vec_perm, vec_perm)], space)


def test_scattered_generator_takes_the_csr_product(rng):
    # relabelling the basis of [3, 3] scatters the generator over many
    # diagonals; the action must then use the CSR product, and stay exact
    scattered = _scattered_generator(rng)
    space = scattered.space
    A = scattered.matrix
    dense = A.toarray()
    n_diagonals = len(np.unique(A.indices - A.row_of()))
    assert n_diagonals * A.shape[0] > crosscav.integrator._DIAGONAL_FILL_LIMIT * A.nnz
    # no diagonal storage is built: the product is a CSR record's own
    product = crosscav.integrator._shifted_product(A, _shift(A))
    assert type(getattr(product, "__self__", None)) is type(A)
    _assert_product_matches_scipy(A, _shift(A), rng, "scattered")
    rho0 = random_density(space, rng)
    for T in (1e-4, 1e-3):
        out = evolve_master(rho0, scattered, EvolutionSpec(T))
        ref = expm(dense * T) @ rho0.matrix.reshape(-1)
        v = out.matrix.reshape(-1)
        assert np.abs(v - ref).max() <= 1e-10 * np.abs(ref).max()


# full-rank [3, 3, 2] windows: no component has more than 19 of its 324
# rows, so they square densely too (the lab frame is left out at 1e308 s:
# its result fails the density-matrix Hermiticity check)
FULL_RANK_FRAMES = {1e-3: (), 1.0: ("rotating", "lab"), 1e308: ("rotating",)}


@pytest.mark.parametrize("T", [1e-3, 1.0, 1e308])
def test_dense_squaring_runs_a_protocol_state(monkeypatch, T, rng, cold):
    def no_action(*args, **kwargs):
        raise AssertionError("a protocol state must take the dense branch")

    monkeypatch.setattr(crosscav.integrator, "_expm_action", no_action)
    sizes = []
    expm_dense = crosscav.integrator._expm_dense

    def recording(B, *args):
        sizes.append(len(B))
        return expm_dense(B, *args)

    monkeypatch.setattr(crosscav.integrator, "_expm_dense", recording)
    space = make_space([2, 2, 2])
    gamma = 0.9
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, K_EXACT, gamma), space, "rotating"
    )
    e10 = basis_ket(space, (1, 0, ATOM_G)).amplitudes
    e01 = basis_ket(space, (0, 1, ATOM_G)).amplitudes
    psi0 = (e10 + e01) / sqrt(2)
    rho_T = evolve_master(density_from_ket(Ket(psi0, space)), L, EvolutionSpec(T)).matrix
    # at r = k the slow-mode excitation keeps its population for any window
    slow = np.kron(robust_entangled_state(gamma).amplitudes, [1.0, 0.0])
    share = abs(np.vdot(slow, psi0)) ** 2
    assert 0.01 < share < 0.99
    assert np.vdot(slow, rho_T @ slow).real == pytest.approx(share, abs=1e-12)
    assert abs(np.trace(rho_T) - 1) <= 1e-12

    big = make_space([3, 3, 2])
    for frame in FULL_RANK_FRAMES[T]:
        L = build_symmetric_liouvillian(
            SymmetricDecayParameters(K_EXACT, K_EXACT, gamma, 2 * pi * 5e3), big, frame
        )
        rho0 = random_density(big, rng)
        v = evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1)
        assert abs(v.reshape(big.dim, big.dim).trace() - 1) <= 1e-12, frame
        if T == 1e308:
            # every decaying mode is gone: the state is stationary
            scale = np.abs(L.matrix.toarray()).sum(axis=0).max() * np.abs(v).max()
            assert np.abs(L.matrix @ v).max() <= 1e-15 * scale
        else:
            ref = expm(L.matrix.toarray() * T) @ rho0.matrix.reshape(-1)
            assert np.abs(v - ref).max() <= 1e-10 * np.abs(ref).max(), frame
    assert max(sizes) <= crosscav.integrator._DENSE_MAX_DIM


def test_long_windows_keep_closed_form_accuracy(rng):
    # squaring doubles the rounding the propagator carries, about ten
    # times for T = 40/k; squaring exp(L h) - I instead of exp(L h) keeps that
    # rounding at a few 1e-15 (squaring I + F directly gives up to 3e-14)
    for T in (0.01, 0.02, 0.04):
        for _ in range(8):
            theta, phi, gamma = rng.uniform(0, 2 * pi, size=3)
            params = PreparedStateParams(theta, phi)
            closed = prob_e_two_cavity(params, K_EXACT, K_EXACT, gamma, T)
            replay = integrated_prob_two_cavity(theta, phi, K_EXACT, K_EXACT, gamma, T)
            assert abs(replay - closed) <= 1.5e-14, (theta, phi, gamma, T)


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


# --- value caches: pulse propagators and window block exponentials ---


def test_byte_lru_evicts_the_least_recent_entry_by_bytes():
    size = 100 + _memo.ENTRY_OVERHEAD
    cache = _memo.ByteLRU(3 * size)
    for key in "abc":
        cache.put(key, key.upper(), 100)
    assert cache.get("a") == "A"  # now the most recent
    assert cache.put("d", "D", 100) == "D"
    assert cache.get("b") is None
    assert [cache.get(key) for key in "acd"] == ["A", "C", "D"]
    assert len(cache) == 3 and cache.nbytes == 3 * size
    assert cache.put("big", "X", cache.max_bytes) == "X"
    assert cache.get("big") is None and len(cache) == 3
    cache.cache_clear()
    assert len(cache) == 0 and cache.nbytes == 0


def test_byte_lru_keeps_its_byte_count_under_threads():
    import sys
    import threading

    cache = _memo.ByteLRU(20 * (8 + _memo.ENTRY_OVERHEAD))
    errors = []

    def work(seed):
        try:
            for i in range(20000):
                key = (seed * 7 + i) % 50
                if cache.get(key) is None:
                    cache.put(key, key, 8)
        except Exception as exc:  # a lost update can empty the map mid-eviction
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert cache.nbytes == len(cache) * (8 + _memo.ENTRY_OVERHEAD) <= cache.max_bytes


def test_unitary_cache_hits_by_value_and_misses_on_t_or_h(cold):
    space = make_space([2, 2, 2])
    H = jc_hamiltonian(space, "mode1", 1e5)
    cache = crosscav.integrator._unitaries
    U = unitary_propagator(H, 2e-6)
    assert not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0] = 0
    # an equal Hamiltonian built apart is served the same array
    assert unitary_propagator(Operator(H.matrix.copy(), space), 2e-6) is U
    assert len(cache) == 1
    other_t = unitary_propagator(H, 3e-6)
    other_h = unitary_propagator(jc_hamiltonian(space, "mode2", 1e5), 2e-6)
    assert len(cache) == 3
    assert not np.array_equal(other_t, U) and not np.array_equal(other_h, U)
    cold()
    fresh = unitary_propagator(H, 2e-6)
    assert fresh is not U and fresh.tobytes() == U.tobytes()


def test_non_hermitian_hamiltonian_is_never_cached(cold):
    space = make_space([2])
    H = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), space)
    for _ in range(2):
        with pytest.raises(ValueError, match="Hermitian"):
            unitary_propagator(H, 1.0)
    assert len(crosscav.integrator._unitaries) == 0


def _one_excitation_state(space, weights):
    e10 = basis_ket(space, (1, 0, ATOM_G)).amplitudes
    e01 = basis_ket(space, (0, 1, ATOM_G)).amplitudes
    v = weights[0] * e10 + weights[1] * e01
    return density_from_ket(Ket(v / np.linalg.norm(v), space))


def test_block_cache_hits_by_value_and_misses_on_t_or_block(cold):
    space = make_space([2, 2, 2])
    cache = crosscav.integrator._block_exponentials

    def window(r, T, weights=(1.0, 1.0)):
        L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, r, 0.9), space)
        return evolve_master(_one_excitation_state(space, weights), L, EvolutionSpec(T))

    first = window(500.0, 1e-3)
    assert len(cache) == 1
    for E, _ in cache._entries.values():
        assert not E.flags.writeable
    assert window(500.0, 1e-3).matrix.tobytes() == first.matrix.tobytes()
    # another state on the same block is served the same exponential
    window(500.0, 1e-3, weights=(0.3, 1.0))
    assert len(cache) == 1
    window(500.0, 2e-3)
    window(K_EXACT, 1e-3)
    assert len(cache) == 3
    cold()
    assert window(500.0, 1e-3).matrix.tobytes() == first.matrix.tobytes()


def test_block_cache_stays_under_its_bound_for_full_blocks(cold, rng):
    space = make_space([2, 2, 2])
    cache = crosscav.integrator._block_exponentials
    bound = crosscav.integrator._BLOCK_CACHE_BYTES
    L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, 700.0, 0.4), space)
    rho0 = random_density(space, rng)  # full rank: the block is all 64 rows
    entry = 2 * 64 * 64 * 16 + _memo.ENTRY_OVERHEAD
    windows = np.linspace(1e-4, 3e-3, 12)
    warm = [evolve_master(rho0, L, EvolutionSpec(T)) for T in windows]
    assert cache.nbytes <= bound
    assert 0 < len(cache) == bound // entry < len(windows)
    for T, rho in zip(windows, warm):
        cold()
        assert evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes() == rho.matrix.tobytes()
