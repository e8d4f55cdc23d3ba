import weakref
from collections import OrderedDict
from math import pi

import numpy as np
import pytest
import scipy.sparse as sp

from conftest import random_density, random_hermitian, to_scipy
from crosscav import integrator, liouvillian
from crosscav.analytic import robust_entangled_state
from crosscav.cli import main
from crosscav.integrator import EvolutionSpec, evolve_master, jc_hamiltonian
from crosscav.liouvillian import (
    DecayParameters,
    EnvironmentSpec,
    SymmetricDecayParameters,
    apply_liouvillian,
    build_general_liouvillian,
    build_symmetric_liouvillian,
    cross_rates_from_environment,
    decompose_symmetric,
    normal_mode_ops,
    normal_mode_transform,
)
from crosscav.tensor import (
    Operator,
    annihilation_op,
    basis_ket,
    density_from_ket,
    make_space,
    number_op,
)
from crosscav.validate import liouvillian_direct


def test_independent_channels_photon_decay(two_mode_nmax1):
    p = DecayParameters(k11=1000.0, k22=700.0)
    L = build_general_liouvillian(p, two_mode_nmax1)
    rho = density_from_ket(basis_ket(two_mode_nmax1, (1, 0)))
    drho = apply_liouvillian(L, rho)
    n1 = number_op(two_mode_nmax1, 0).matrix
    dn1 = np.trace(n1 @ drho).real
    assert dn1 == pytest.approx(-2 * 1000.0 * 1.0, rel=1e-12)


def test_vacuum_is_stationary(two_mode_nmax1):
    p = DecayParameters(1000.0, 1000.0, 300.0, 300.0, 10.0, -5.0, 40.0, 20.0, 1e5, 1e5)
    L = build_general_liouvillian(p, two_mode_nmax1)
    vac = density_from_ket(basis_ket(two_mode_nmax1, (0, 0)))
    assert np.abs(apply_liouvillian(L, vac)).max() < 1e-12


def test_dfs_state_is_annihilated(two_mode_nmax1):
    gamma = 0.8
    p = SymmetricDecayParameters(k=1000.0, r=1000.0, gamma=gamma)
    L = build_symmetric_liouvillian(p, two_mode_nmax1, "rotating")
    rho = density_from_ket(robust_entangled_state(gamma))
    assert np.abs(apply_liouvillian(L, rho)).max() < 1e-12


def test_real_phase_dfs(two_mode_nmax1):
    p = SymmetricDecayParameters(k=500.0, r=500.0, gamma=0.0)
    L = build_symmetric_liouvillian(p, two_mode_nmax1, "rotating")
    rho = density_from_ket(robust_entangled_state(0.0))
    assert np.abs(apply_liouvillian(L, rho)).max() < 1e-12


def test_symmetric_r_zero_is_independent_decay(two_mode_nmax1):
    sym = build_symmetric_liouvillian(
        SymmetricDecayParameters(800.0, 0.0, 1.3), two_mode_nmax1, "rotating"
    )
    indep = build_general_liouvillian(
        DecayParameters(k11=800.0, k22=800.0), two_mode_nmax1
    )
    assert np.abs((sym.matrix - indep.matrix).toarray()).max() == 0.0


def test_symmetric_matches_general(two_mode_nmax1):
    p = SymmetricDecayParameters(1000.0, 500.0, pi / 3)
    Ls = build_symmetric_liouvillian(p, two_mode_nmax1, "lab")
    Lg = build_general_liouvillian(p.to_general("lab"), two_mode_nmax1)
    assert np.abs((Ls.matrix - Lg.matrix).toarray()).max() < 1e-14


def test_positivity_rejected():
    with pytest.raises(ValueError):
        SymmetricDecayParameters(k=100.0, r=150.0, gamma=0.0)
    with pytest.raises(ValueError, match="positive semidefinite"):
        DecayParameters(k11=100.0, k22=100.0, k12=150.0, k21=150.0)


@pytest.mark.parametrize("field", ["k", "r", "gamma", "omega"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_symmetric_parameters_reject_non_finite(field, value):
    kw = dict(k=1000.0, r=10.0, gamma=0.0, omega=0.0)
    kw[field] = value
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        SymmetricDecayParameters(**kw)


@pytest.mark.parametrize("field", ["k11", "k12", "d21", "omega1"])
def test_general_parameters_reject_non_finite(field):
    kw = dict(k11=1000.0, k22=1000.0)
    kw[field] = float("nan")
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        DecayParameters(**kw)


def test_negative_r_folds_into_phase():
    p = SymmetricDecayParameters(k=100.0, r=-50.0, gamma=0.0)
    assert p.r == 50.0
    assert p.gamma == pytest.approx(pi)


@pytest.mark.parametrize("dims", [[2, 2], [3, 3, 2]], ids=["two_mode", "with_atom"])
def test_apply_matches_direct_evaluation(dims, rng):
    space = make_space(dims)
    p = DecayParameters(
        k11=900.0, k22=1100.0, k12=300.0, k21=280.0,
        d11=15.0, d22=-10.0, d12=120.0, d21=-90.0,
        omega1=2e4, omega2=2.1e4,
    )
    L = build_general_liouvillian(p, space)
    for _ in range(10):
        X = random_hermitian(space.dim, rng)
        np.testing.assert_allclose(
            apply_liouvillian(L, X),
            liouvillian_direct(p, space, X),
            atol=1e-12 * 2000,
        )


def test_trace_and_hermiticity_preservation(two_mode_nmax1, rng):
    p = SymmetricDecayParameters(1000.0, 600.0, 2.2, omega=1e4)
    L = build_symmetric_liouvillian(p, two_mode_nmax1, "lab")
    for _ in range(10):
        X = random_hermitian(two_mode_nmax1.dim, rng)
        LX = apply_liouvillian(L, X)
        assert abs(np.trace(LX)) < 1e-10 * np.abs(X).max() * 2000
        assert np.abs(LX - LX.conj().T).max() < 1e-12 * 2000
        # L(X^dag) = L(X)^dag on a general complex input
        Y = rng.normal(size=X.shape) + 1j * rng.normal(size=X.shape)
        np.testing.assert_allclose(
            apply_liouvillian(L, Y.conj().T),
            apply_liouvillian(L, Y).conj().T,
            atol=1e-12 * 2000,
        )


def test_zero_superoperator(two_mode_nmax1):
    L = build_general_liouvillian(DecayParameters(0.0, 0.0), two_mode_nmax1)
    rho = density_from_ket(basis_ket(two_mode_nmax1, (1, 1)))
    assert np.abs(apply_liouvillian(L, rho)).max() == 0.0


def test_apply_signature_mismatch(two_mode_nmax1):
    L = build_general_liouvillian(DecayParameters(1.0, 1.0), two_mode_nmax1)
    rho = density_from_ket(basis_ket(make_space([3, 3]), (0, 0)))
    with pytest.raises(ValueError):
        apply_liouvillian(L, rho)


# --- decay rates from a discrete environment ---


def test_environment_uncoupled_second_mode():
    env = EnvironmentSpec(
        entries=[(1.0 + 0.5j, 0.0, 1.0e5), (0.3, 0.0, 1.1e5)],
        tau_c=1e-4, Omega1=1.0e5, Omega2=1.0e5,
    )
    p = cross_rates_from_environment(env)
    assert p.k12 == p.k21 == p.d12 == p.d21 == 0.0
    assert p.k22 == p.d22 == 0.0


def test_environment_identical_couplings():
    entries = [(0.2 + 0.1j, 0.2 + 0.1j, 9.9e4), (0.5, 0.5, 1.02e5)]
    env = EnvironmentSpec(entries=entries, tau_c=2e-4, Omega1=1e5, Omega2=1e5)
    p = cross_rates_from_environment(env)
    assert p.k12 == p.k11 and p.d12 == p.d11
    assert p.k21 == p.k22 and p.d21 == p.d22


def test_environment_resonant_closed_form():
    alpha, tau_c = 0.7, 3e-4
    env = EnvironmentSpec(
        entries=[(alpha, alpha, 1e5)], tau_c=tau_c, Omega1=1e5, Omega2=1e5
    )
    p = cross_rates_from_environment(env)
    expected = alpha**2 * tau_c
    for k in (p.k11, p.k22, p.k12, p.k21):
        assert k == pytest.approx(expected, abs=1e-12)
    for d in (p.d11, p.d22, p.d12, p.d21):
        assert d == pytest.approx(0.0, abs=1e-12)


def test_environment_mirror_spectrum_conjugate_symmetry():
    # frequencies mirrored around the common probe frequency, equal couplings
    # per mirror pair: the cross sums are then conjugates of each other
    Omega, tau_c = 1e5, 1e-4
    entries = []
    rng = np.random.default_rng(7)
    for _ in range(8):
        delta = rng.uniform(1e3, 5e4)
        a1 = complex(rng.normal(), rng.normal()) * 0.1
        a2 = complex(rng.normal(), rng.normal()) * 0.1
        entries.append((a1, a2, Omega + delta))
        entries.append((a1, a2, Omega - delta))
    env = EnvironmentSpec(entries=entries, tau_c=tau_c, Omega1=Omega, Omega2=Omega)
    p = cross_rates_from_environment(env)
    c12 = p.k12 + 1j * p.d12
    c21 = p.k21 + 1j * p.d21
    assert c12 == pytest.approx(np.conj(c21), abs=1e-16)


# --- normal modes and the slow/fast split ---


def test_transform_gamma_zero():
    m = normal_mode_transform(0.0)
    np.testing.assert_allclose(m * np.sqrt(2), [[1, -1], [1, 1]], atol=1e-15)


def test_transform_unitary():
    m = normal_mode_transform(1.234)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(2), atol=1e-15)


def test_transform_rows_are_damping_eigenvectors():
    # decompose_symmetric relies on rows of the transform diagonalizing the
    # damping matrix with rates exactly k - r (slow) and k + r (fast)
    rng = np.random.default_rng(31)
    for k, s, gamma in rng.uniform([1.0, 0.0, 0.0], [2000.0, 1.0, 2 * pi], (6, 3)):
        for r in (0.0, s * k, k):
            p = SymmetricDecayParameters(k, r, gamma)
            G = p.to_general().damping_matrix()
            m = normal_mode_transform(gamma)
            for row, rate in zip(m, (k - r, k + r)):
                np.testing.assert_allclose(G @ row, rate * row, rtol=0, atol=1e-12 * k)


def test_normal_modes_annihilate_vacuum_and_commute():
    space = make_space([4, 4])
    A1, A2 = normal_mode_ops(space, 0.77)
    vac = basis_ket(space, (0, 0))
    assert (A1 @ vac).norm() == 0.0
    # bosonic commutators on the sub-span below the truncation edge
    sub = [int(np.ravel_multi_index((i, j), (4, 4))) for i in range(3) for j in range(3)]
    c11 = (A1 @ A1.dag() - A1.dag() @ A1).matrix
    c12 = (A1 @ A2.dag() - A2.dag() @ A1).matrix
    np.testing.assert_allclose(c11[np.ix_(sub, sub)], np.eye(9), atol=1e-12)
    np.testing.assert_allclose(c12[np.ix_(sub, sub)], 0 * np.eye(9), atol=1e-12)


def test_decomposition_r_zero_equal_rates(two_mode_nmax1):
    p = SymmetricDecayParameters(1000.0, 0.0, 0.4)
    L1, L2 = decompose_symmetric(p, two_mode_nmax1)
    # both channels decay at rate k; swapping the roles leaves the sum fixed
    L = build_symmetric_liouvillian(p, two_mode_nmax1)
    assert np.abs((L1.matrix + L2.matrix - L.matrix).toarray()).max() < 1e-10


def test_decomposition_dfs_limit(two_mode_nmax1):
    p = SymmetricDecayParameters(1000.0, 1000.0, 1.0)
    L1, _ = decompose_symmetric(p, two_mode_nmax1, "rotating")
    assert np.abs(L1.matrix.toarray()).max() == 0.0


def test_decomposition_identity_matches_builder(two_mode_nmax1):
    p = SymmetricDecayParameters(1000.0, 750.0, pi / 2)
    L = build_symmetric_liouvillian(p, two_mode_nmax1)
    L1, L2 = decompose_symmetric(p, two_mode_nmax1)
    assert np.abs((L1.matrix + L2.matrix - L.matrix).toarray()).max() <= 1e-10


@pytest.mark.parametrize("k,r,gamma", [
    (1000.0, 0.0, 0.0),
    (1000.0, 500.0, 1.1),
    (1000.0, 1000.0, 4.0),
    (300.0, 299.0, 6.0),
])
def test_decomposition_identity_grid(two_mode_nmax1, k, r, gamma):
    p = SymmetricDecayParameters(k, r, gamma, omega=1e4)
    for frame in ("rotating", "lab"):
        L = build_symmetric_liouvillian(p, two_mode_nmax1, frame)
        L1, L2 = decompose_symmetric(p, two_mode_nmax1, frame)
        assert np.abs((L1.matrix + L2.matrix - L.matrix).toarray()).max() <= 1e-10


def test_excitation_monotone_under_flow(two_mode_nmax1, rng):
    p = SymmetricDecayParameters(1000.0, 800.0, 2.5)
    L = build_symmetric_liouvillian(p, two_mode_nmax1)
    n_tot = (number_op(two_mode_nmax1, 0) + number_op(two_mode_nmax1, 1)).matrix
    for _ in range(5):
        rho = random_density(two_mode_nmax1, rng)
        values = []
        for t in np.linspace(0.0, 2e-3, 9):
            rho_t = evolve_master(rho, L, EvolutionSpec(t))
            values.append(np.trace(n_tot @ rho_t.matrix).real)
        diffs = np.diff(values)
        assert (diffs <= 1e-10).all()


# --- plan-and-fill assembly against a Kronecker-product reference ---


def _kron_gksl(D, ops, gamma, h, H=None):
    """Reference generator summed term by term with sp.kron.

    2 sum_ij gamma_ij kron(o_i, conj o_j) - kron(K, I) - kron(I, conj K)
    with K = sum_ij (gamma_ij + i h_ji) o_j^dag o_i + iH, all in sparse
    algebra.
    """
    ops = [sp.csr_matrix(o) for o in ops]
    eye = sp.identity(D, format="csr")
    K = sp.csr_matrix((D, D), dtype=complex) if H is None else sp.csr_matrix(1j * H)
    jump = sp.csr_matrix((D * D, D * D), dtype=complex)
    for i, oi in enumerate(ops):
        for j, oj in enumerate(ops):
            K = K + complex(gamma[i, j] + 1j * h[j, i]) * (oj.conj().T @ oi)
            if gamma[i, j] != 0:
                jump = jump + complex(2 * gamma[i, j]) * sp.kron(oi, oj.conj(), format="csr")
    return jump - sp.kron(K, eye, format="csr") - sp.kron(eye, K.conj(), format="csr")


def _kron_general(p, space, H=None):
    c = 0.5 * (p.d12 + p.d21) + 0.5j * (p.k12 - p.k21)
    h = np.array([[p.omega1 - p.d11, -c], [-np.conj(c), p.omega2 - p.d22]])
    ops = [annihilation_op(space, 0).matrix, annihilation_op(space, 1).matrix]
    return _kron_gksl(space.dim, ops, p.damping_matrix(), h, H)


def _generator_cases(space):
    """(label, generator, reference, exact pattern) for every builder path."""
    k, omega, gamma = 1000.0, 3e4, 2.3
    for frame in ("rotating", "lab"):
        for r in (0.0, 400.0, k):
            p = SymmetricDecayParameters(k, r, gamma, omega)
            if r != 400.0:
                yield (f"symmetric-{frame}-r{r:g}",
                       build_symmetric_liouvillian(p, space, frame),
                       _kron_general(p.to_general(frame), space), True)
            w = np.array([[omega if frame == "lab" else 0.0]])
            A = normal_mode_ops(space, gamma)
            for n, (L, op, rate) in enumerate(
                zip(decompose_symmetric(p, space, frame), A, (k - r, k + r)), 1
            ):
                ref = _kron_gksl(space.dim, [op.matrix], np.array([[rate]]), w)
                # the normal-mode operators are complex, so where an entry
                # cancels exactly in theory, dense and sparse products can
                # leave rounding residue at different positions
                yield f"channel{n}-{frame}-r{r:g}", L, ref, False
    p = DecayParameters(
        k11=900.0, k22=1100.0, k12=300.0, k21=280.0,
        d11=15.0, d22=-10.0, d12=120.0, d21=-90.0,
        omega1=2e4, omega2=2.1e4,
    )
    yield "general", build_general_liouvillian(p, space), _kron_general(p, space), True


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2], [3, 3, 2], [9, 9]],
                         ids=lambda d: "x".join(map(str, d)))
def test_coo_assembly_matches_kron_reference(dims):
    space = make_space(dims)
    for label, L, ref, exact_pattern in _generator_cases(space):
        # the dtypes are checked on the record: the conversion may recast
        assert L.matrix.indices.dtype == np.int32 and L.matrix.indptr.dtype == np.int32, label
        m = to_scipy(L.matrix)
        assert m.has_canonical_format, label
        assert np.count_nonzero(m.data) == m.nnz, f"{label}: stored explicit zeros"
        scale = np.abs(ref.data).max() if ref.nnz else 1.0
        assert np.abs((m - ref).data).max(initial=0.0) <= 1e-15 * scale, label
        # an entry held by only one of the two is bounded by the check above
        if exact_pattern:
            assert m.nnz == ref.nnz, label
            np.testing.assert_array_equal(m.indptr, ref.indptr, err_msg=label)
            np.testing.assert_array_equal(m.indices, ref.indices, err_msg=label)


def test_extra_hamiltonian_must_share_the_space(two_mode_nmax1):
    p = SymmetricDecayParameters(1000.0, 500.0, 1.0)
    space = make_space([2, 2, 2])
    H = Operator(np.eye(space.dim), space)
    with pytest.raises(ValueError, match="Hamiltonian space"):
        build_symmetric_liouvillian(p, two_mode_nmax1, "rotating", H)


@pytest.mark.parametrize("dims", [[3, 3, 2], [9, 9]], ids=lambda d: "x".join(map(str, d)))
def test_hamiltonian_only_channel_is_exactly_anti_hermitian(dims):
    # at r = k the slow channel is -i[omega A1^dag A1, .] alone, which must
    # carry no decay: exactly anti-Hermitian, with no rounding residue
    space = make_space(dims)
    p = SymmetricDecayParameters(1000.0, 1000.0, 2.3, omega=3e4)
    L1, _ = decompose_symmetric(p, space, "lab")
    assert L1.matrix.nnz > 0
    m = to_scipy(L1.matrix)
    assert abs(m + m.conj().T).max() == 0.0


# --- reuse by value: fresh generators, window work kept by the integrator ---


@pytest.fixture
def reuse_cache(monkeypatch):
    """An empty cache of window work (integrator._plans) for the test,
    restored afterwards."""
    cache = OrderedDict()
    monkeypatch.setattr(integrator, "_plans", cache)
    return cache


REUSE_BASE = dict(k=1000.0, r=500.0, gamma=0.3, omega=2e4)


def _build(frame="lab", dims=(2, 2, 2), **changes):
    params = SymmetricDecayParameters(**{**REUSE_BASE, **changes})
    return params, make_space(dims), build_symmetric_liouvillian(params, make_space(dims), frame)


def _window(L):
    """One Fock-basis window on L, from a one-photon state with the atom."""
    rho0 = density_from_ket(basis_ket(L.space, (1, 0, 0)))
    return evolve_master(rho0, L, EvolutionSpec(1e-4)).matrix


def test_equal_inputs_share_one_read_only_assembly(reuse_cache):
    params, space, L = _build()
    again = _build()[2]
    assert again is not L
    general = build_general_liouvillian(params.to_general("lab"), space)
    assert build_general_liouvillian(params.to_general("lab"), space) is not general
    # the windows of equal generators share the CSR of the first one
    np.testing.assert_array_equal(_window(L), _window(again))
    (entry,) = reuse_cache.values()
    assert entry.matrix is L.matrix and "matrix" not in vars(again)
    for name in ("data", "indices", "indptr"):
        array = getattr(L.matrix, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]


def test_working_on_a_copy_leaves_the_shared_generator_unchanged(reuse_cache):
    L = _build()[2]
    before, window = L.matrix.toarray(), _window(L)
    work = to_scipy(L.matrix).copy()
    with pytest.warns(sp.SparseEfficiencyWarning):
        work[0, L.space.dim**2 - 1] = 1.0  # an unstored position: new arrays
    work.data *= 2
    np.testing.assert_array_equal(L.matrix.toarray(), before)
    # the kept CSR serves an equal generator's windows unchanged
    (entry,) = reuse_cache.values()
    np.testing.assert_array_equal(entry.matrix.toarray(), before)
    np.testing.assert_array_equal(_window(_build()[2]), window)


@pytest.mark.parametrize("change", [
    {"r": 700.0}, {"gamma": 1.1}, {"k": 1200.0}, {"omega": 3e4},
    {"frame": "rotating"}, {"dims": (3, 3, 2)},
], ids=lambda c: next(iter(c)))
def test_changed_input_gives_a_fresh_build(reuse_cache, change):
    base = _build()[2]
    frame = change.pop("frame", "lab")
    params, space, L = _build(frame, **change)
    _window(base)
    _window(L)
    # each value keeps its own assembly
    assert len(reuse_cache) == 2
    fresh = liouvillian._general(params.to_general(frame), space).matrix
    assert L.matrix.nnz == fresh.nnz
    np.testing.assert_array_equal(L.matrix.toarray(), fresh.toarray())


def test_a_symmetric_generator_is_assembled_on_its_first_read(reuse_cache, monkeypatch):
    calls = []
    general = liouvillian._general

    def counted(*args):
        calls.append(args)
        return general(*args)

    monkeypatch.setattr(liouvillian, "_general", counted)
    params, space, L = _build()
    assert (L.params, L.frame, L.space) == (params, "lab", space)
    assert calls == []
    m = L.matrix
    assert L.matrix is m and len(calls) == 1
    # reading the matrix keeps nothing; only a window does
    assert not reuse_cache
    for name in ("data", "indices", "indptr"):
        assert not getattr(m, name).flags.writeable
    fresh = general(params.to_general("lab"), space).matrix
    np.testing.assert_array_equal(m.toarray(), fresh.toarray())


def test_a_symmetric_build_rejects_an_unknown_frame_at_once(reuse_cache):
    with pytest.raises(ValueError, match="frame must be 'lab' or 'rotating'"):
        build_symmetric_liouvillian(SymmetricDecayParameters(**REUSE_BASE), make_space([2, 2]),
                                    "rotate")
    assert not reuse_cache


def test_builds_with_a_hamiltonian_are_never_cached(reuse_cache):
    space = make_space([2, 2, 2])
    params = SymmetricDecayParameters(**REUSE_BASE)
    H = jc_hamiltonian(space, "mode1", 1e5)
    first = build_symmetric_liouvillian(params, space, "rotating", H)
    second = build_symmetric_liouvillian(params, space, "rotating", H)
    assert first is not second
    assert first.matrix.data.flags.writeable
    _window(first)
    assert not reuse_cache


def test_to_general_runs_once_per_assembled_generator(reuse_cache, cold, capsys,
                                                      monkeypatch):
    calls = {"to_general": 0, "_general": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(SymmetricDecayParameters, "to_general",
                        counted("to_general", SymmetricDecayParameters.to_general))
    monkeypatch.setattr(liouvillian, "_general", counted("_general", liouvillian._general))
    for command in ("sweep-phi", "sweep-time"):
        assert main([command, "--engine", "simulated", "--points", "4"]) == 0
    capsys.readouterr()
    assert calls["_general"] > 0
    assert calls["to_general"] == calls["_general"]


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("with_h", [False, True], ids=["no-H", "H"])
def test_one_subsystem_space_is_rejected_by_both_builders(reuse_cache, frame, with_h):
    space = make_space([2])
    params = SymmetricDecayParameters(**REUSE_BASE)
    H = Operator(np.eye(space.dim), space) if with_h else None
    with pytest.raises(ValueError, match="two field modes"):
        build_symmetric_liouvillian(params, space, frame, H)
    with pytest.raises(ValueError, match="two field modes"):
        build_general_liouvillian(params.to_general(frame), space, H)
    assert not reuse_cache


def test_at_most_two_generators_are_retained(reuse_cache):
    L = _build(r=100.0)[2]
    _window(L)
    first = weakref.ref(L.matrix)
    del L
    assert first() is not None
    for r in (200.0, 300.0, 400.0):
        _window(_build(r=r)[2])
        assert len(reuse_cache) <= 2
    assert first() is None


def test_never_holds_two_nmax8_generators_at_once(reuse_cache, monkeypatch):
    # as in crosscav validate: an n_max = 8 generator, a small one, another
    big, small = make_space([9, 9]), make_space([2, 2])
    built = []  # weak references to the CSR record of every generator built
    general = liouvillian._general

    def live_big():
        return sum(m is not None and m.shape[0] == big.dim**2 for m in (ref() for ref in built))

    def tracked(params, space, H=None):
        if space == big:
            assert live_big() == 0
        L = general(params, space, H)
        built.append(weakref.ref(L.matrix))
        return L

    monkeypatch.setattr(liouvillian, "_general", tracked)
    for space, k in ((big, 1000.0), (small, 1000.0), (big, 900.0)):
        # a Fock-basis window (the vacuum's one-row block) assembles the
        # generator and keeps it for its value
        v = np.zeros(space.dim**2, dtype=complex)
        v[0] = 1.0
        L = build_symmetric_liouvillian(SymmetricDecayParameters(k, k, 2.0), space)
        integrator._propagate(L, v, 1e-3)
        del L
    assert len(built) == 3 and live_big() == 1


# --- the numpy CSR record against scipy ---


def _record_cases(space, rng):
    """(label, builder, sp.kron reference) for every assembly path, plus the edge cases.

    "lab-k0" has empty rows (-i[omega N, .] leaves the populations still);
    "channel-rate0" is the slow channel at r = k in the rotating frame (as
    decompose_symmetric builds it), which has no entries at all.
    """
    D = space.dim
    k, omega, gamma = 1000.0, 3e4, 2.3
    for frame in ("rotating", "lab"):
        for r in (0.0, k / 2, k):
            p = SymmetricDecayParameters(k, r, gamma, omega)
            yield (f"symmetric-{frame}-r{r:g}",
                   lambda p=p, f=frame: liouvillian._general(p.to_general(f), space),
                   lambda p=p, f=frame: _kron_general(p.to_general(f), space))
    general = DecayParameters(
        k11=900.0, k22=1100.0, k12=300.0, k21=280.0,
        d11=15.0, d22=-10.0, d12=120.0, d21=-90.0, omega1=2e4, omega2=2.1e4,
    )
    yield ("general", lambda: liouvillian._general(general, space),
           lambda: _kron_general(general, space))
    H = random_hermitian(D, rng, scale=1e4)
    yield ("general-with-H", lambda: liouvillian._general(general, space, H),
           lambda: _kron_general(general, space, H))
    lab_k0 = SymmetricDecayParameters(0.0, 0.0, 0.0, omega).to_general("lab")
    yield ("lab-k0", lambda: liouvillian._general(lab_k0, space),
           lambda: _kron_general(lab_k0, space))
    A1, A2 = (A.matrix for A in normal_mode_ops(space, gamma))
    channels = {"channel-lab": ([A2], np.array([[2 * k]]), np.array([[omega]])),
                "channel-rate0": ([A1], np.array([[0.0]]), np.array([[0.0]]))}
    for label, args in channels.items():
        yield (label, lambda args=args: liouvillian._gksl(space, *args),
               lambda args=args: _kron_gksl(D, *args))


def _assert_matches_scipy(m, ref, label):
    """Same pattern, int32 indices, no stored zeros, values within 1e-15."""
    assert m.indices.dtype == np.int32 and m.indptr.dtype == np.int32, label
    assert np.count_nonzero(m.data) == m.nnz, f"{label}: stored explicit zeros"
    assert m.shape == ref.shape and m.nnz == ref.nnz, label
    np.testing.assert_array_equal(m.indptr, ref.indptr, err_msg=label)
    np.testing.assert_array_equal(m.indices, ref.indices, err_msg=label)
    scale = np.abs(ref.data).max(initial=0.0)
    assert np.abs(m.data - ref.data).max(initial=0.0) <= 1e-15 * scale, label


# toarray of the [9, 9] generator would take 690 MB; dense checks stop here
DENSE_MAX_ROWS = 324
KERNEL_SPACES = pytest.mark.parametrize(
    "dims", [[2, 2], [3, 3, 2], [9, 9]], ids=lambda d: "x".join(map(str, d))
)


@KERNEL_SPACES
def test_csr_assembly_matches_scipy(dims, rng):
    space = make_space(dims)
    for label, build, reference in _record_cases(space, rng):
        L = build()
        ref = reference()
        ref.eliminate_zeros()
        _assert_matches_scipy(L.matrix, ref, label)
        if label == "channel-rate0":
            assert ref.nnz == 0 and L.matrix.nnz == 0
        if label == "lab-k0":
            assert (np.diff(L.matrix.indptr) == 0).any()
        if space.dim**2 <= DENSE_MAX_ROWS:
            # a dense generator converts to the same record
            again = liouvillian.SuperOperator(L.matrix.toarray(), space).matrix
            np.testing.assert_array_equal(again.indptr, L.matrix.indptr, err_msg=label)
            np.testing.assert_array_equal(again.indices, L.matrix.indices, err_msg=label)
            np.testing.assert_array_equal(again.data, L.matrix.data, err_msg=label)


def _sandwich_coo(coef, A, B, D):
    """COO triplets of the vectorized sandwich rho -> coef A rho B.

    Entry (a, c) of A times entry (d, b) of B lands at row a*D + b,
    column c*D + d, in the row-major order of np.multiply.outer.
    """
    ra, ca = np.nonzero(A)
    cb, rb = np.nonzero(B)
    rows = (ra.astype(np.int32)[:, None] * D + rb.astype(np.int32)).ravel()
    cols = (ca.astype(np.int32)[:, None] * D + cb.astype(np.int32)).ravel()
    vals = coef * np.multiply.outer(A[ra, ca], B[cb, rb]).ravel()
    return rows, cols, vals


def _sort_and_sum_gksl(space, ops, gamma, h, H=None):
    """liouvillian._gksl as one stable sort-and-sum of all sandwich triplets."""
    D = space.dim
    eye = np.eye(D, dtype=complex)
    K = np.zeros((D, D), dtype=complex) if H is None else 1j * np.asarray(H)
    terms = []
    for i, oi in enumerate(ops):
        for j, oj in enumerate(ops):
            P = oj.conj().T @ oi
            if i == j:
                P = 0.5 * (P + P.conj().T)
            K = K + complex(gamma[i, j] + 1j * h[j, i]) * P
            if gamma[i, j] != 0:
                terms.append(_sandwich_coo(2 * gamma[i, j], oi, oj.conj().T, D))
    terms.append(_sandwich_coo(-1, K, eye, D))
    terms.append(_sandwich_coo(-1, eye, K.conj().T, D))
    rows, cols, vals = (np.concatenate(parts) for parts in zip(*terms))
    matrix = liouvillian._CSR.from_coo(rows, cols, vals, (D * D, D * D))
    return liouvillian.SuperOperator(matrix, space)


@KERNEL_SPACES
def test_assembly_is_byte_identical_to_one_sort_and_sum(dims, rng, monkeypatch):
    # an independent copy of the assembly pins its summation order: each
    # position sums its sandwich contributions in the order jumps, K rho,
    # rho K^dag, and a lone contribution keeps its sign of zero
    space = make_space(dims)
    builds = [(label, build) for label, build, _ in _record_cases(space, rng)]
    for frame in ("rotating", "lab"):
        for r in (400.0, 1000.0):
            p = SymmetricDecayParameters(1000.0, r, 2.3, 3e4)
            builds += [(f"decompose-{frame}-r{r:g}-L{n + 1}",
                        lambda p=p, f=frame, n=n: decompose_symmetric(p, space, f)[n])
                       for n in (0, 1)]
    for label, build in builds:
        L = build().matrix
        with monkeypatch.context() as m:
            m.setattr(liouvillian, "_gksl", _sort_and_sum_gksl)
            ref = build().matrix
        for name in ("data", "indices", "indptr"):
            a, b = getattr(L, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (label, name)


def test_each_build_owns_its_arrays(cold, rng):
    # each build sums its own triplets, so builds that share patterns
    # share no array, and only the reuse cache makes them read-only
    space = make_space([9, 9])
    params = SymmetricDecayParameters(1000.0, 600.0, 0.7, 2e4)

    def build(H=None):
        return liouvillian._general(params.to_general("lab"), space, H).matrix

    first, second = build(), build()
    with_h = build(random_hermitian(space.dim, rng, scale=1e4))
    channels = [L.matrix for L in decompose_symmetric(params, space, "lab")]
    built = [first, second, with_h, *channels]
    for name in ("data", "indices", "indptr"):
        arrays = [getattr(m, name) for m in built]
        assert all(x.flags.writeable for x in arrays), name
        for a, x in enumerate(arrays):
            assert not any(np.shares_memory(x, y) for y in arrays[a + 1:]), name
        assert getattr(first, name).tobytes() == getattr(second, name).tobytes(), name
    cold()
    again = build()
    for name in ("data", "indices", "indptr"):
        assert getattr(again, name).tobytes() == getattr(first, name).tobytes(), name


@KERNEL_SPACES
def test_csr_record_operations_match_scipy(dims, rng):
    space = make_space(dims)
    n = space.dim**2
    cases = {label: build() for label, build, _ in _record_cases(space, rng)}
    x = rng.normal(size=n) + 1j * rng.normal(size=n)
    X = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
    for label, L in cases.items():
        m, ref = L.matrix, to_scipy(L.matrix)
        if n <= DENSE_MAX_ROWS:
            np.testing.assert_array_equal(m.toarray(), ref.toarray(), err_msg=label)
        np.testing.assert_array_equal(m.diagonal(), ref.diagonal(), err_msg=label)
        for v in (x, X, x.real):
            # rounding of a row sum is bounded by its absolute terms
            bound = 1e-15 * (abs(ref) @ np.abs(v))
            assert (np.abs(m @ v - ref @ v) <= bound).all(), label
            assert (m @ v).shape == (ref @ v).shape, label
    pairs = [("symmetric-lab-r500", "general"), ("general-with-H", "lab-k0"),
             ("channel-rate0", "symmetric-rotating-r1000")]
    for a, b in pairs:
        ma, mb = cases[a].matrix, cases[b].matrix
        for op in ("__add__", "__sub__"):
            ref = getattr(to_scipy(ma), op)(to_scipy(mb))
            ref.eliminate_zeros()
            _assert_matches_scipy(getattr(ma, op)(mb), ref, f"{a} {op} {b}")
    m = cases["general"].matrix
    assert (m - m).nnz == 0


def test_superoperator_takes_a_record_or_a_dense_matrix(two_mode_nmax1):
    L = build_general_liouvillian(DecayParameters(1000.0, 700.0), two_mode_nmax1)
    dense = liouvillian.SuperOperator(L.matrix.toarray(), two_mode_nmax1)
    np.testing.assert_array_equal(dense.matrix.toarray(), L.matrix.toarray())
    with pytest.raises(ValueError, match="2-D"):
        liouvillian.SuperOperator(to_scipy(L.matrix), two_mode_nmax1)
    with pytest.raises(ValueError, match="does not match"):
        liouvillian.SuperOperator(np.eye(4), two_mode_nmax1)
