import gc
import time
import weakref
from math import cos, exp, inf, nan, pi, sin, sqrt

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import crosscav.integrator
import crosscav.liouvillian
import crosscav.protocol
import crosscav.validate
from conftest import kept, random_density, to_scipy
from crosscav.analytic import (
    PreparedStateParams,
    prob_e_two_cavity,
    robust_coherent_state,
    robust_entangled_state,
    robust_fock_state,
)
from crosscav.integrator import (
    EvolutionSpec,
    evolve_master,
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
    DensityMatrix,
    Ket,
    Operator,
    basis_ket,
    density_from_ket,
    make_space,
    number_op,
)
from crosscav.validate import (
    check_dfs_preservation,
    check_loss_channel,
    integrated_prob_two_cavity,
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
    # omega T = 21.3 pi is no multiple of pi, so a wrong frame phase shows
    "lab": (0.7 * K_EXACT, 2.13e-3, "lab", 2 * pi * 5e3),
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


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("r", [0.0, 500.0, K_EXACT])
@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2]], ids=str)
def test_dense_exponential_matches_scipy_on_whole_generators(dims, r, frame):
    # the whole generator as one block: 16 rows on [2, 2], 64 on [2, 2, 2]
    space = make_space(dims)
    params = SymmetricDecayParameters(K_EXACT, r, 0.9, 2 * pi * 5e3)
    B = build_symmetric_liouvillian(params, space, frame).matrix.toarray()
    norm = float(np.abs(B).sum(axis=0).max())
    powers = crosscav.integrator._powers(B, norm)
    for t in (1e-7, 1e-5, 1e-4, 5e-4, 2e-3, 1e-2):
        ref = expm(B * t)
        E = crosscav.integrator._expm_dense(t, norm, powers)
        assert np.abs(E - ref).max() <= 1e-13 * np.abs(ref).max(), t


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


# --- Fock-basis windows: dense parts against scipy's expm ---

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
    # at omega = 2 pi 5e3 /s the lab-frame phases of 1e-4, 1e-3 and 1 s are
    # all +-1; at 1.3e-4 s, omega T = 1.3 pi, a wrong phase sign shows
    for T in (1e-4, 1.3e-4, 1e-3, 1.0):
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


# --- window plans: the classes of a conserved excitation charge ---


def _plan_cases(space):
    """(case, generator, the index of the finest _charges label it conserves):
    per mode (0) at r = 0, the field order (1) for the other windows without
    a pulse, the total order (2) with a JC pulse."""
    for case in BLOCK_GENERATORS:
        yield case, _generator(case, space), 0 if case.startswith("r=0-") else 1
    if len(space.dims) == 3:
        for case, which in (("r=k/2-rotating", "mode1"), ("r=k-lab", "both_with_phase")):
            params, frame = BLOCK_GENERATORS[case]
            H = jc_hamiltonian(space, which, 1e5, 2e5, 2e5)
            yield f"{which} pulse", build_symmetric_liouvillian(params, space, frame, H), 2


@pytest.mark.parametrize("dims", [[2, 2], [2, 2, 2], [3, 3, 2]], ids=str)
def test_window_plans_are_charge_classes_closed_under_the_generator(dims, rng):
    space = make_space(dims)
    charges = crosscav.integrator._charges(space)
    for case, L, finest in _plan_cases(space):
        A = L.matrix
        rows = A.row_of()
        # the charges the generator keeps: its label, with no level raised
        kept = [np.array_equal(label[rows], label[A.indices])
                and (levels[:, rows] <= levels[:, A.indices]).all()
                for label, levels in charges]
        assert kept == [i >= finest for i in range(3)], case
        label, levels = charges[finest]
        for size in (1, 3, 10):
            support = np.zeros(A.shape[0], dtype=bool)
            support[rng.choice(A.shape[0], size, replace=False)] = True
            # per touched class, its indices up to the support's top levels
            classes = []
            for c in set(label[support].tolist()):
                inside = support & (label == c)
                classes.append(np.logical_and.reduce(
                    [label == c] + [level <= level[inside].max() for level in levels]))
            expected = np.logical_or.reduce(classes)
            parts = crosscav.integrator._plan(A, space, support).parts
            assert len(parts) == (1 if np.count_nonzero(expected) <= 64 else len(classes))
            planned = np.zeros_like(support)
            for part in parts:
                assert not planned[part[0]].any(), (case, size)
                planned[part[0]] = True
            assert (planned == expected).all(), (case, size)
            assert (planned >= _reachable_oracle(A, support)).all(), (case, size)
            # no stored entry leaves the planned rows
            assert planned[rows[planned[A.indices]]].all(), (case, size)


def _fock_generator(params, space, frame="rotating"):
    """The symmetric generator's assembled matrix as a plain SuperOperator,
    which keeps no builder parameters: its windows take the Fock-basis route
    even inside S."""
    return SuperOperator(build_general_liouvillian(params.to_general(frame), space).matrix, space)


@pytest.fixture
def plans_made(monkeypatch):
    """Every window plan made (_plan), in order."""
    made = []
    plan = crosscav.integrator._plan

    def recorded(*args):
        made.append(plan(*args))
        return made[-1]

    monkeypatch.setattr(crosscav.integrator, "_plan", recorded)
    return made


def _refused(L, rho0, rows, T=1e-3):
    """Assert that method "expm" refuses the window in one line that names rows."""
    with pytest.raises(ValueError, match=rf"a charge class of {rows} rows, more than the 64 "
                       r'.*use method="rk4"') as exc:
        evolve_master(rho0, L, EvolutionSpec(T))
    assert "\n" not in str(exc.value)
    entry = kept(L)
    assert entry is None or entry.plan is None


@pytest.mark.parametrize("case, rows", [("coherent", 285), ("full-rank", 489)])
def test_expm_refuses_a_component_over_the_dense_cap(case, rows, monkeypatch, rng):
    params = SymmetricDecayParameters(K_EXACT, K_EXACT, 2.0)
    if case == "coherent":
        # on the Fock-basis route the n_max = 8 robust coherent state's block
        # splits into charge classes of up to 285 rows
        psi = robust_coherent_state(2.0, 0.3, n_max=8)
        L, rho0 = _fock_generator(params, psi.space), density_from_ket(psi)
    else:
        # a full-rank state reaches outside S, so it keeps the Fock-basis route
        space = make_space([9, 9])
        L, rho0 = build_symmetric_liouvillian(params, space), random_density(space, rng)
    L.matrix  # assembled before the products are watched

    def no_work(*args, **kwargs):
        raise AssertionError("the window must be refused before any product")

    monkeypatch.setattr(crosscav.liouvillian._CSR, "__matmul__", no_work)
    # no window length is ever tried: 1e308 s is refused the same way
    for T in (1e-3, 1e308):
        _refused(L, rho0, rows, T)


def test_rk4_answers_a_window_that_expm_refuses(rng):
    # a full-rank [5, 5] state: one 85-row charge class under the general builder
    space = make_space([5, 5])
    L = _fock_generator(SymmetricDecayParameters(K_EXACT, 600.0, 0.9), space)
    rho0 = random_density(space, rng)
    _refused(L, rho0, 85, T=1e-4)
    out = evolve_master(rho0, L, EvolutionSpec(1e-4, method="rk4")).matrix.reshape(-1)
    ref = expm_multiply(to_scipy(L.matrix) * 1e-4, rho0.matrix.reshape(-1))
    assert np.abs(out - ref).max() <= 1e-12


def _dfs_superposition(gamma):
    """(|0> + |4>)_slow / sqrt(2) at n_max = 8: a 65-row reachable block."""
    zero, four = robust_fock_state(gamma, 0, 8), robust_fock_state(gamma, 4, 8)
    return Ket((zero.amplitudes + four.amplitudes) / sqrt(2), zero.space)


@pytest.mark.parametrize("r, T, fidelity", [
    (K_EXACT, 1e-3, 1.0),
    (K_EXACT, 1.0, 1.0),
    (K_EXACT, 1e6, 1.0),
    # 1/4 (1 + (1 - x)^4) + x^4 / 4 + x^2 / 2 with x = exp(-2 (k - r) T)
    (500.0, 1e-3, 0.36216187637828623),
])
def test_a_decoherence_free_superposition_runs_densely_by_block_component(r, T, fidelity,
                                                                        plans_made):
    gamma = 0.9
    psi = _dfs_superposition(gamma)
    params = SymmetricDecayParameters(K_EXACT, r, gamma)
    rho0 = density_from_ket(psi)
    # the symmetric builder's generator takes the loss channel, its assembled
    # matrix the Fock-basis blocks; both must give the fidelity
    L = build_symmetric_liouvillian(params, psi.space, "rotating")
    fock = _fock_generator(params, psi.space)
    for generator in (L, fock):
        rho_T = evolve_master(rho0, generator, EvolutionSpec(T))
        # the channel window makes no plan
        assert len(plans_made) == (generator is fock)
        assert rho_T.fidelity_with_ket(psi) == pytest.approx(fidelity, abs=1e-12)
        if T == 1e-3:
            ref = expm_multiply(to_scipy(fock.matrix) * T, rho0.matrix.reshape(-1))
            assert np.abs(rho_T.matrix.reshape(-1) - ref).max() <= 1e-10
    (plan,) = plans_made
    assert sorted(len(R) for R, _, _ in plan.parts) == [5, 5, 55]


@pytest.mark.parametrize("dims", [[2, 2, 2], [3, 3, 2]], ids=str)
def test_lab_frame_full_rank_windows_match_the_rotating_frame(dims, rng):
    # the frame phases leave the squarings: each dense part runs
    # B - i diag(mu) and multiplies its output by exp(i mu t)
    space = make_space(dims)
    rho0 = random_density(space, rng)
    params = SymmetricDecayParameters(K_EXACT, K_EXACT, 0.9, 2 * pi * 5e3)
    lab, rotating = (build_symmetric_liouvillian(params, space, frame)
                     for frame in ("lab", "rotating"))
    # omega T = 1.3 pi is no multiple of pi, so the phases show
    T = 1.3e-4
    out = evolve_master(rho0, lab, EvolutionSpec(T)).matrix.reshape(-1)
    ref = expm(lab.matrix.toarray() * T) @ rho0.matrix.reshape(-1)
    assert np.abs(out - ref).max() <= 1e-10 * np.abs(ref).max()
    for T in (1e3, 1e6, 1e300):
        out = evolve_master(rho0, lab, EvolutionSpec(T)).matrix
        ref = evolve_master(rho0, rotating, EvolutionSpec(T)).matrix
        assert np.abs(np.diag(out) - np.diag(ref)).max() <= 1e-12, T
    with pytest.raises(ValueError, match=r"t = 1e\+308 s times the frame phase rate") as exc:
        evolve_master(rho0, lab, EvolutionSpec(1e308))
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("gamma", [0.9, 1.1])
@pytest.mark.parametrize("v", [0.3, 0.9, 1.4])
def test_robust_coherent_states_are_stationary_at_r_equal_k(v, gamma):
    # truncated by total excitation, the state is sum_n alpha^n/sqrt(n!) |n>_slow,
    # in the r = k generator's kernel; a per-mode truncation leaks out of it
    # (1 - F = 5.2e-6 at |v| = 0.9)
    psi = robust_coherent_state(gamma, v, n_max=8)
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, K_EXACT, gamma), psi.space, "rotating"
    )
    rho_T = evolve_master(density_from_ket(psi), L, EvolutionSpec(1e-3))
    assert 1.0 - rho_T.fidelity_with_ket(psi) <= 1e-14
    assert 1.0 - rho_T.purity() <= 1e-14


# validate's two dfs_preservation checks and their deviations.  Both states
# lie in S, so every window takes the loss channel and makes no sparse
# product.  The case ids keep the deviations of the per-mode
# truncation (5.851e-14 and 5.418e-14), so each case runs under its earlier
# name
DFS_CHECKS = [
    pytest.param(1000.0, pi / 2, 5.552e-16, id=f"1000.0-{pi / 2}-5.851e-14"),
    pytest.param(900.0, 2.0, 2.221e-16, id="900.0-2.0-5.418e-14"),
]


def _count_products(monkeypatch):
    """The length of every vector the sparse product multiplies from now on."""
    rows = []
    product = crosscav.liouvillian._CSR.__matmul__

    def counted(A, x):
        rows.append(len(x))
        return product(A, x)

    monkeypatch.setattr(crosscav.liouvillian._CSR, "__matmul__", counted)
    return rows


@pytest.mark.parametrize("k, gamma, deviation", DFS_CHECKS)
def test_robust_states_cost_the_action_few_products(k, gamma, deviation, monkeypatch):
    calls = _count_products(monkeypatch)
    check = check_dfs_preservation(SymmetricDecayParameters(k, k, gamma))
    assert check["passed"]
    assert calls == []
    assert check["max_deviation"] <= deviation <= 1e-15


# --- the loss channel: two-mode windows inside S without a pulse ---

# general parameters with unequal local rates and mode frequencies and a
# complex cross term in the damping matrix
GENERAL = DecayParameters(k11=1000.0, k22=600.0, k12=400.0, k21=400.0,
                          d12=100.0, d21=-100.0, omega1=50.0, omega2=-30.0)


def _inside_s(space, rng):
    """A random full-rank density matrix on the kets with n1 + n2 <= N."""
    kets = crosscav.integrator._sectors(space.dims[0])[0]
    X = rng.normal(size=(len(kets), len(kets))) + 1j * rng.normal(size=(len(kets), len(kets)))
    m = np.zeros((space.dim, space.dim), dtype=complex)
    m[np.ix_(kets, kets)] = X @ X.conj().T
    return DensityMatrix(m / np.trace(m).real, space)


def _no_fock_route(monkeypatch):
    def fock(*args):
        raise AssertionError("a state inside S must take the loss channel")

    monkeypatch.setattr(crosscav.integrator, "_propagate", fock)


@pytest.mark.parametrize("frame", ["rotating", "lab"])
@pytest.mark.parametrize("r", [0.0, 500.0, K_EXACT])
def test_factorized_route_matches_expm_multiply_at_nmax8(r, frame, monkeypatch, rng):
    psi = robust_coherent_state(1.1, 0.9, n_max=8)
    # omega T is no multiple of pi at either window, so a wrong phase shows
    params = SymmetricDecayParameters(K_EXACT, r, 1.1, 31415.9)
    L = build_symmetric_liouvillian(params, psi.space, frame)
    states = (density_from_ket(psi), _inside_s(psi.space, rng))
    windows = (1e-4, 1e-3)
    with monkeypatch.context() as m:
        _no_fock_route(m)
        outs = [evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1)
                for rho0 in states for T in windows]
    A = to_scipy(L.matrix)
    refs = [expm_multiply(A * T, rho0.matrix.reshape(-1)) for rho0 in states for T in windows]
    for out, ref in zip(outs, refs):
        assert np.abs(out - ref).max() <= 1e-10


@pytest.mark.parametrize("T", [1.0, 1e6, 1e300])
def test_factorized_windows_keep_a_robust_state_at_any_length(T, monkeypatch):
    _no_fock_route(monkeypatch)
    psi = robust_coherent_state(1.1, 0.9, n_max=8)
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, K_EXACT, 1.1), psi.space, "rotating"
    )
    start = time.perf_counter()
    rho_T = evolve_master(density_from_ket(psi), L, EvolutionSpec(T))
    elapsed = time.perf_counter() - start
    assert abs(1.0 - rho_T.fidelity_with_ket(psi)) <= 1e-14
    assert elapsed < 0.1


@pytest.mark.parametrize("T", [1.0, 1e6])
def test_factorized_lab_windows_keep_a_pure_state_pure(T):
    # the frame is one phase per ket, a unitary: a phase per coherence order,
    # each rounded on its own, left this state with eigenvalue -1.9e-6 at 1e6 s
    # on the Fock-basis route
    psi = robust_coherent_state(1.1, 0.9, n_max=8)
    params = SymmetricDecayParameters(K_EXACT, K_EXACT, 1.1, 31415.9)
    lab, rotating = (build_symmetric_liouvillian(params, psi.space, frame)
                     for frame in ("lab", "rotating"))
    rho0 = density_from_ket(psi)
    out = evolve_master(rho0, lab, EvolutionSpec(T))
    ref = evolve_master(rho0, rotating, EvolutionSpec(T)).matrix
    assert abs(1.0 - out.purity()) <= 1e-14
    assert np.abs(np.diag(out.matrix) - np.diag(ref)).max() <= 1e-14
    with pytest.raises(ValueError, match=r"t = 1e\+308 s times the frame phase rate") as exc:
        evolve_master(rho0, lab, EvolutionSpec(1e308))
    assert "\n" not in str(exc.value)


def test_a_state_inside_s_answers_where_the_action_overflows():
    # a full-rank state reaches outside S, where method "expm" refuses its
    # 489-row charge class: test_expm_refuses_a_component_over_the_dense_cap
    psi = robust_coherent_state(0.3, 0.3, n_max=8)
    rho0 = density_from_ket(psi)

    def window(r):
        L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, r, 0.3), psi.space)
        return evolve_master(rho0, L, EvolutionSpec(1e308))

    assert abs(1.0 - window(K_EXACT).fidelity_with_ket(psi)) <= 1e-14
    # below r = k every excitation decays: the vacuum is left
    decayed = window(K_EXACT / 2).matrix
    vacuum = np.zeros_like(decayed)
    vacuum[0, 0] = 1.0
    assert np.abs(decayed - vacuum).max() <= 1e-15


def test_dfs_check_never_assembles_the_nmax8_generator(cold, monkeypatch):
    spaces = []
    general = crosscav.liouvillian._general

    def recording(params, space, H=None):
        spaces.append(space.dims)
        return general(params, space, H)

    monkeypatch.setattr(crosscav.liouvillian, "_general", recording)
    for k, gamma in ((1000.0, pi / 2), (900.0, 2.0)):
        assert check_dfs_preservation(SymmetricDecayParameters(k, k, gamma))["passed"]
    # the robust entangled state's [2, 2] window and the n_max = 8 window
    # both take the loss channel
    assert spaces == []


def test_factorized_windows_share_one_plan_and_never_assemble(cold, monkeypatch):
    # a channel window of either builder keeps no plan and never calls
    # _general (the general builder's entry keeps only its channel's power
    # stack); a repeated window, warm or cold, gives the same bytes
    calls = []
    general = crosscav.liouvillian._general
    monkeypatch.setattr(crosscav.liouvillian, "_general",
                        lambda *args: calls.append(args) or general(*args))
    psi = robust_coherent_state(0.9, 0.6, n_max=8)
    rho0 = density_from_ket(psi)
    symmetric = SymmetricDecayParameters(K_EXACT, 600.0, 0.9, 31415.9)
    for L in (build_symmetric_liouvillian(symmetric, psi.space, "lab"),
              build_general_liouvillian(GENERAL, psi.space)):
        first = [evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes() for T in (1e-3, 2e-3)]
        assert evolve_master(rho0, L, EvolutionSpec(1e-3)).matrix.tobytes() == first[0]
        cold()
        assert evolve_master(rho0, L, EvolutionSpec(2e-3)).matrix.tobytes() == first[1]
    assert calls == []
    assert crosscav.integrator._plans.cache_info().currsize == 1
    entry = kept(L)
    assert entry.matrix is None and entry.plan is None and entry.channel is not None


def _fock_route_cases(rng):
    """(label, generator, state) of windows that keep the Fock-basis route."""
    params = SymmetricDecayParameters(K_EXACT, 600.0, 0.9)
    four = make_space([4, 4])
    coherent = density_from_ket(robust_coherent_state(0.9, 0.6, n_max=3))
    yield ("atom", build_symmetric_liouvillian(params, make_space([4, 4, 2])),
           random_density(make_space([4, 4, 2]), rng))
    yield ("unequal", build_symmetric_liouvillian(params, make_space([4, 3])),
           random_density(make_space([4, 3]), rng))
    yield ("hamiltonian", build_symmetric_liouvillian(params, four, "rotating",
                                                      1e3 * number_op(four, 0)), coherent)
    # one ket with n1 + n2 = 4 puts the state outside S
    psi = coherent.matrix[:, 0] + 0.1 * basis_ket(four, (1, 3)).amplitudes
    yield ("outside-S", build_symmetric_liouvillian(params, four),
           density_from_ket(Ket(psi / np.linalg.norm(psi), four)))


def test_other_windows_keep_the_fock_route(cold, plans_made, monkeypatch, rng):
    def no_channel(*args):
        raise AssertionError("this window must keep the Fock-basis route")

    monkeypatch.setattr(crosscav.integrator, "_loss_matrices", no_channel)
    for i, (label, L, rho0) in enumerate(_fock_route_cases(rng)):
        T = 1e-4
        out = evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1)
        assert len(plans_made) == i + 1, label
        ref = expm_multiply(to_scipy(L.matrix) * T, rho0.matrix.reshape(-1))
        assert np.abs(out - ref).max() <= 1e-10, label


def test_n2_and_general_windows_take_the_loss_channel(monkeypatch):
    # the symmetric builder at N = 2 and the general builder at N = 3
    params = SymmetricDecayParameters(K_EXACT, 600.0, 0.9)
    general = build_general_liouvillian(params.to_general("rotating"), make_space([4, 4]))
    cases = [("N=2", build_symmetric_liouvillian(params, make_space([3, 3])),
              density_from_ket(robust_coherent_state(0.9, 0.6, n_max=2))),
             ("general", general, density_from_ket(robust_coherent_state(0.9, 0.6, n_max=3)))]
    with monkeypatch.context() as m:
        _no_fock_route(m)
        outs = [evolve_master(rho0, L, EvolutionSpec(1e-4)).matrix.reshape(-1)
                for _, L, rho0 in cases]
    for out, (label, L, rho0) in zip(outs, cases):
        ref = expm_multiply(to_scipy(L.matrix) * 1e-4, rho0.matrix.reshape(-1))
        assert np.abs(out - ref).max() <= 1e-10, label


GRID = [(share, frame) for share in (0.0, 0.5, 1.0) for frame in ("rotating", "lab")]


def test_factorized_route_check_passes_on_the_whole_grid():
    # the Fock side runs densely up to N = 4, in classes of at most 55 rows
    cases = [(N, dict(k=K_EXACT, r=share * K_EXACT, gamma=1.1, omega=2e3), frame)
             for N in (1, 2, 3, 4) for share, frame in GRID]
    # validate's asymmetric general parameters, up to N = 3
    cases += [(N, crosscav.validate._ASYMMETRIC, None) for N in (1, 2, 3)]
    check = check_loss_channel(cases)
    assert check["passed"] and check["max_deviation"] <= 1e-12


@pytest.mark.parametrize("N", [1, 2, 3])
def test_general_windows_match_the_fock_route(N):
    # omega1 = 50 and omega2 = -30 rad/s: the mean frequency leaves M as a
    # phase per ket, and the difference stays in M with the cross term
    check = check_loss_channel([(N, vars(GENERAL), None)])
    assert check["passed"] and check["max_deviation"] <= 1e-12


def test_general_nmax8_coherent_window_answers(monkeypatch):
    # on the Fock-basis route this window has a 285-row charge class, which
    # method "expm" refuses; the channel answers it
    psi = robust_coherent_state(1.1, 0.9, n_max=8)
    L = build_general_liouvillian(GENERAL, psi.space)
    rho0 = density_from_ket(psi)
    with monkeypatch.context() as m:
        _no_fock_route(m)
        outs = [evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1) for T in (1e-4, 1e-3)]
    A = to_scipy(L.matrix)
    for out, T in zip(outs, (1e-4, 1e-3)):
        ref = expm_multiply(A * T, rho0.matrix.reshape(-1))
        assert np.abs(out - ref).max() <= 1e-12, T


@pytest.mark.parametrize("T", [1e3, 1e6])
def test_lab_windows_keep_a_robust_state_positive_at_long_times(T):
    # at N = 2 this window took the Fock-basis route, whose phase per
    # coherence order left eigenvalues of -1.324e-09 (1e3 s) and -1.356e-06
    # (1e6 s), and DensityMatrix refused the result
    psi = robust_coherent_state(1.1, 0.7, 2)
    params = SymmetricDecayParameters(K_EXACT, K_EXACT, 1.1, 31415.9)
    L = build_symmetric_liouvillian(params, psi.space, "lab")
    rho_T = evolve_master(density_from_ket(psi), L, EvolutionSpec(T))
    assert np.linalg.eigvalsh(rho_T.matrix).min() >= -1e-14
    assert 1.0 - rho_T.purity() <= 1e-14


@pytest.mark.parametrize("share, frame", GRID)
def test_factorized_route_matches_expm_multiply_at_n5(share, frame, monkeypatch, rng):
    # at N = 5 the Fock side's classes exceed the dense cap, so the
    # channel is checked against scipy on the assembled generator
    space = make_space([6, 6])
    params = SymmetricDecayParameters(K_EXACT, share * K_EXACT, 1.1, 2e3)
    L = build_symmetric_liouvillian(params, space, frame)
    states = (density_from_ket(robust_coherent_state(1.1, 0.5, 5)), _inside_s(space, rng))
    with monkeypatch.context() as m:
        _no_fock_route(m)
        outs = [evolve_master(rho0, L, EvolutionSpec(T)).matrix.reshape(-1)
                for rho0 in states for T in (1e-4, 1e-3)]
    A = to_scipy(L.matrix)
    refs = [expm_multiply(A * T, rho0.matrix.reshape(-1)) for rho0 in states for T in (1e-4, 1e-3)]
    for out, ref in zip(outs, refs):
        assert np.abs(out - ref).max() <= 1e-12


def _assert_product_matches_scipy(A, rng, label):
    n = A.shape[0]
    ref = to_scipy(A)
    for x in (rng.normal(size=n) + 1j * rng.normal(size=n), rng.normal(size=n) + 0j):
        out = A @ x
        # rounding of a row sum is bounded by its absolute terms
        assert (np.abs(out - ref @ x) <= 1e-15 * (abs(ref) @ np.abs(x))).all(), label


@pytest.mark.parametrize("dims", [[3, 3, 2], [9, 9], "scattered"], ids=str)
def test_csr_product_matches_scipy(dims, rng):
    if dims == "scattered":
        _assert_product_matches_scipy(_scattered_generator(rng).matrix, rng, dims)
        return
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
            _assert_product_matches_scipy(A, rng, (case, H is None))


def _scattered_generator(rng):
    """A [3, 3] generator in a randomly relabelled basis."""
    space = make_space([3, 3])
    D = space.dim
    perm = rng.permutation(D)
    vec_perm = (perm[:, None] * D + perm).ravel()
    L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, 600.0, 0.4), space)
    return SuperOperator(L.matrix.toarray()[np.ix_(vec_perm, vec_perm)], space)


def test_scattered_generator_evolves_as_the_dense_exponential(rng):
    # relabelling the basis of [3, 3] scatters the generator's entries
    # far from its diagonal, and it conserves no excitation charge of the
    # space: method "expm" refuses it in one line, and RK4 stays exact
    scattered = _scattered_generator(rng)
    space = scattered.space
    dense = scattered.matrix.toarray()
    rho0 = random_density(space, rng)
    refusal = r'conserves no excitation charge.*use method="rk4"'
    with pytest.raises(ValueError, match=refusal) as exc:
        evolve_master(rho0, scattered, EvolutionSpec(1e-4))
    assert "\n" not in str(exc.value)
    for T in (1e-4, 1e-3):
        out = evolve_master(rho0, scattered, EvolutionSpec(T, method="rk4"))
        ref = expm(dense * T) @ rho0.matrix.reshape(-1)
        v = out.matrix.reshape(-1)
        assert np.abs(v - ref).max() <= 1e-10 * np.abs(ref).max()


# full-rank [3, 3, 2] windows: no charge class has more than 19 of its 324
# rows, so they square densely too (the lab frame is left out at 1e308 s,
# where its frame phase overflows)
FULL_RANK_FRAMES = {1e-3: (), 1.0: ("rotating", "lab"), 1e308: ("rotating",)}


@pytest.mark.parametrize("T", [1e-3, 1.0, 1e308])
def test_dense_squaring_runs_a_protocol_state(monkeypatch, T, rng, cold):
    sizes = []
    expm_dense = crosscav.integrator._expm_dense

    def recording(t, norm, powers):
        sizes.append(powers.shape[1])
        return expm_dense(t, norm, powers)

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


def _evolved(psi0, H, t):
    """psi(t) = exp(-i H t) psi0, with hbar = 1."""
    return Ket(unitary_propagator(H, t) @ psi0.amplitudes, psi0.space)


def test_vacuum_rabi_oscillation():
    space = make_space([2, 2, 2])
    G = 2 * pi * 25e3
    H = jc_hamiltonian(space, "mode1", G)
    psi0 = basis_ket(space, (0, 0, ATOM_E))
    t = 0.3 / G
    psi = _evolved(psi0, H, t)
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
    psi = _evolved(psi0, H, t)
    rel = b.overlap(psi) / e.overlap(psi)
    assert rel == pytest.approx(np.exp(1j * delta * t), abs=1e-12)


def test_zero_duration_identity():
    space = make_space([2, 2, 2])
    H = jc_hamiltonian(space, "mode2", 1e5)
    U = unitary_propagator(H, 0.0)
    np.testing.assert_allclose(U, np.eye(space.dim), rtol=0, atol=1e-15)


def test_unitary_norm_and_composition(rng):
    space = make_space([2, 2, 2])
    H = jc_hamiltonian(space, "both_with_phase", 1e5, Omega=2e5, Omega_a=2e5)
    v = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    psi0 = Ket(v / np.linalg.norm(v), space)
    t1, t2 = 3.1e-6, 1.7e-6
    once = _evolved(_evolved(psi0, H, t1), H, t2)
    both = _evolved(psi0, H, t1 + t2)
    assert abs(once.norm() - 1) < 1e-12
    np.testing.assert_allclose(once.amplitudes, both.amplitudes, atol=1e-10)


def test_non_hermitian_rejected():
    space = make_space([2])
    H = Operator(np.array([[0.0, 1.0], [0.0, 0.0]]), space)
    with pytest.raises(ValueError, match="Hermitian"):
        unitary_propagator(H, 1.0)


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
    psi = _evolved(basis_ket(space, (0, 0, ATOM_E)), H, t)
    target = (
        basis_ket(space, (0, 1, ATOM_G)).amplitudes
        + 1j * basis_ket(space, (1, 0, ATOM_G)).amplitudes
    ) / sqrt(2)
    fidelity = abs(np.vdot(target, psi.amplitudes)) ** 2
    assert fidelity >= 1 - 1e-10


def test_jc_requires_atom():
    with pytest.raises(ValueError, match="atom"):
        jc_hamiltonian(make_space([3, 3]), "mode1", 1e5)


# --- value caches: pulse propagators and window exponentials ---


def test_unitary_cache_hits_by_value_and_misses_on_t_or_h(cold):
    space = make_space([2, 2, 2])
    H = jc_hamiltonian(space, "mode1", 1e5)
    cache = crosscav.integrator._unitary
    U = unitary_propagator(H, 2e-6)
    assert not U.flags.writeable
    with pytest.raises(ValueError):
        U[0, 0] = 0
    # an equal Hamiltonian built apart is served the same array
    assert unitary_propagator(Operator(H.matrix.copy(), space), 2e-6) is U
    assert cache.cache_info().currsize == 1
    other_t = unitary_propagator(H, 3e-6)
    other_h = unitary_propagator(jc_hamiltonian(space, "mode2", 1e5), 2e-6)
    assert cache.cache_info().currsize == 3
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
    assert crosscav.integrator._unitary.cache_info().currsize == 0


@pytest.mark.parametrize("entry, t", [(nan, 1e-6), (inf, 1e-6), (0.0, nan), (0.0, inf)],
                         ids=["nan-H", "inf-H", "nan-t", "inf-t"])
def test_non_finite_hamiltonian_or_duration_is_refused_and_never_cached(cold, entry, t):
    space = make_space([2, 2, 2])
    m = jc_hamiltonian(space, "mode1", 1e5).matrix.copy()
    m[0, 0] = entry  # a NaN passes the Hermiticity check, since nan > tol is False
    for _ in range(2):
        with pytest.raises(ValueError, match="needs a finite H and duration") as exc:
            unitary_propagator(Operator(m, space), t)
        assert "\n" not in str(exc.value)
    assert crosscav.integrator._unitary.cache_info().currsize == 0


def _one_excitation_state(space, weights):
    e10 = basis_ket(space, (1, 0, ATOM_G)).amplitudes
    e01 = basis_ket(space, (0, 1, ATOM_G)).amplitudes
    v = weights[0] * e10 + weights[1] * e01
    return density_from_ket(Ket(v / np.linalg.norm(v), space))


def test_block_cache_hits_by_value_and_misses_on_t_or_block(cold, plans_made):
    space = make_space([2, 2, 2])

    def window(r, T, weights=(1.0, 1.0)):
        L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, r, 0.9), space)
        rho = evolve_master(_one_excitation_state(space, weights), L, EvolutionSpec(T))
        return rho, kept(L).plan.exponentials

    first, exponentials = window(500.0, 1e-3)
    assert exponentials.cache_info().currsize == 1
    assert len(plans_made) == 1
    (E,) = exponentials(1e-3)
    assert not E.flags.writeable
    # an equal generator built apart reuses the window's plan
    again, same = window(500.0, 1e-3)
    assert again.matrix.tobytes() == first.matrix.tobytes() and same is exponentials
    # another state on the same block is served the same exponential
    window(500.0, 1e-3, weights=(0.3, 1.0))
    assert exponentials.cache_info().misses == 1
    assert exponentials(1e-3)[0] is E
    window(500.0, 2e-3)
    assert exponentials.cache_info().currsize == 2
    assert len(plans_made) == 1
    # another block is another plan, with exponentials of its own
    _, other = window(K_EXACT, 1e-3)
    assert other is not exponentials and other.cache_info().currsize == 1
    assert exponentials.cache_info().currsize == 2
    assert len(plans_made) == 2
    cold()
    assert window(500.0, 1e-3)[0].matrix.tobytes() == first.matrix.tobytes()
    assert len(plans_made) == 3


def test_a_window_plan_is_remade_when_the_support_changes(cold, plans_made, rng):
    space = make_space([2, 2, 2])
    L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, 500.0, 0.9), space)
    spec = EvolutionSpec(1e-3)
    # a 5-row block, the whole space, and a one-entry support inside the first
    states = [_one_excitation_state(space, (1.0, 1.0)), random_density(space, rng),
              _one_excitation_state(space, (1.0, 0.0))]
    cold_bytes = []
    for rho0 in states:
        cold()
        cold_bytes.append(evolve_master(rho0, L, spec).matrix.tobytes())
    cold()
    plans_made.clear()
    for i in (0, 1, 0, 2, 2, 1):
        assert evolve_master(states[i], L, spec).matrix.tobytes() == cold_bytes[i], i
    # only the last plan is kept: every change of support plans again
    assert len(plans_made) == 5


def _large_block_case(case, rng):
    """A generator and a state whose reachable block has more than 64 rows."""
    space = make_space([3, 3, 2])
    L = build_symmetric_liouvillian(
        SymmetricDecayParameters(K_EXACT, 700.0, 0.9, 2 * pi * 5e3), space, case
    )
    return L, random_density(space, rng)


@pytest.mark.parametrize("case", ["rotating", "lab"])
def test_large_blocks_reuse_their_window_plan(case, cold, plans_made, monkeypatch, rng):
    L, rho0 = _large_block_case(case, rng)
    calls = []
    expm_dense = crosscav.integrator._expm_dense

    def recorded(*args):
        calls.append(args)
        return expm_dense(*args)

    monkeypatch.setattr(crosscav.integrator, "_expm_dense", recorded)
    cold_bytes = {}
    for T in (2e-4, 5e-4):
        cold()
        cold_bytes[T] = evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes()
    # the [3, 3, 2] states split into 36 charge classes, each squared
    # densely; equal classes share one exponential per window
    plan = plans_made[-1]
    assert len(plan.parts) == 36 and len(plan.blocks) == 8
    assert len(calls) == 2 * sum(P is not None for _, P in plan.blocks)
    cold()
    plans_made.clear()
    for T in (2e-4, 5e-4, 2e-4):
        assert evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes() == cold_bytes[T], T
    assert len(plans_made) == 1


def test_a_plans_stack_is_made_once_and_is_the_same_array_for_every_later_window(cold, rng):
    space = make_space([2, 2, 2])
    L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, 700.0, 0.4), space)
    rho0 = random_density(space, rng)  # full rank: one 64-row block
    windows = (1e-7, 2e-3, 1e-4, 2e-3)
    cold_bytes = {}
    for T in windows:
        cold()
        cold_bytes[T] = evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes()
    cold()
    stacks = []
    for T in windows:
        assert evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes() == cold_bytes[T], T
        plan = kept(L).plan
        # every window misses the plan's exponentials and sums its powers
        plan.exponentials.cache_clear()
        ((R, block, mu),) = plan.parts
        stacks.append(plan.blocks[block][1])
    # the plan made every power up to degree 25 once, read-only
    P = stacks[0]
    assert P.shape == (25, 64, 64) and not P.flags.writeable
    assert all(stack is P for stack in stacks)
    # the block is the whole generator, whose diagonal is real
    assert np.array_equal(R, np.arange(64)) and mu is None
    np.testing.assert_array_equal(P[0], L.matrix.toarray() / plan.blocks[block][0])
    for j in range(1, 25):
        np.testing.assert_array_equal(P[j], P[j - 1] @ P[0])


def test_a_window_plan_lives_only_as_long_as_its_generator(cold, monkeypatch):
    space = make_space([2, 2, 2])
    rho0 = _one_excitation_state(space, (1.0, 1.0))
    powers = []  # weak references to every plan's power stack
    plan = crosscav.integrator._plan

    def watched(*args):
        made = plan(*args)
        powers.extend(weakref.ref(P) for _, P in made.blocks)
        return made

    monkeypatch.setattr(crosscav.integrator, "_plan", watched)

    def window(r, H=None):
        params = SymmetricDecayParameters(K_EXACT, r, 0.9)
        L = build_symmetric_liouvillian(params, space, "rotating", H)
        evolve_master(rho0, L, EvolutionSpec(1e-6))
        return L

    # a generator with a Hamiltonian is never kept: its plan goes with the
    # window, while the generator lives on
    L = window(500.0, jc_hamiltonian(space, "mode1", 1e5))
    gc.collect()
    assert len(powers) == 1 and powers[0]() is None
    assert crosscav.integrator._plans.cache_info().currsize == 0
    # a builder's generator without H keeps its CSR and plan under its
    # value, past the generator, until two other values replace them
    matrix = weakref.ref(window(500.0).matrix)
    gc.collect()
    assert powers[1]() is not None and matrix() is not None
    for r in (600.0, 700.0):
        window(r)
    gc.collect()
    assert powers[1]() is None and matrix() is None


def test_clearing_the_caches_empties_the_generators_and_the_window_plans(cold, monkeypatch):
    space = make_space([2, 2, 2])
    params = SymmetricDecayParameters(K_EXACT, 500.0, 0.9)
    rho0 = _one_excitation_state(space, (1.0, 1.0))
    assembled = []
    general = crosscav.liouvillian._general
    monkeypatch.setattr(crosscav.liouvillian, "_general",
                        lambda *args: assembled.append(args) or general(*args))
    L = build_symmetric_liouvillian(params, space)
    evolve_master(rho0, L, EvolutionSpec(1e-3))
    plans = crosscav.integrator._plans
    assert plans.cache_info().currsize == 1
    entry = kept(L)
    assert entry.matrix is L.matrix and entry.plan is not None
    cold()
    assert plans.cache_info().currsize == 0
    # the next window on an equal generator assembles it again
    evolve_master(rho0, build_symmetric_liouvillian(params, space), EvolutionSpec(1e-3))
    assert len(assembled) == 2


@pytest.mark.parametrize("builder", ["symmetric", "general"])
def test_an_equal_generator_is_assembled_once_for_windows_of_any_support(builder, cold,
                                                                        monkeypatch, rng):
    space = make_space([2, 2, 2])
    params = SymmetricDecayParameters(K_EXACT, 500.0, 0.9, 2 * pi * 5e3)

    def build():
        if builder == "symmetric":
            return build_symmetric_liouvillian(params, space, "lab")
        return build_general_liouvillian(params.to_general("lab"), space)

    assembled = []
    general = crosscav.liouvillian._general
    monkeypatch.setattr(crosscav.liouvillian, "_general",
                        lambda *args: assembled.append(args) or general(*args))
    # a 5-row block and the whole space
    states = (_one_excitation_state(space, (1.0, 1.0)), random_density(space, rng))
    first, second = build(), build()
    assert first is not second
    outs = [evolve_master(rho0, L, EvolutionSpec(1e-3)).matrix.tobytes()
            for L in (first, second) for rho0 in states]
    assert len(assembled) == 1
    assert "matrix" not in vars(second)
    # every window is the one a generator that keeps nothing gives
    fock = SuperOperator(first.matrix, space)
    assert outs == [evolve_master(rho0, fock, EvolutionSpec(1e-3)).matrix.tobytes()
                    for _ in range(2) for rho0 in states]


def test_general_channel_windows_make_their_power_stack_once(cold, monkeypatch):
    calls = []
    powers = crosscav.integrator._powers
    monkeypatch.setattr(crosscav.integrator, "_powers",
                        lambda *args: calls.append(args) or powers(*args))
    rho0 = density_from_ket(robust_coherent_state(0.9, 0.6, n_max=2))
    windows = (1e-4, 1e-3, 1e-4, 2e-3)
    # every window on a fresh but equal generator reuses the 2x2 stack
    warm = [evolve_master(rho0, build_general_liouvillian(GENERAL, rho0.space),
                          EvolutionSpec(T)).matrix.tobytes() for T in windows]
    assert len(calls) == 1
    assert warm[0] == warm[2]
    for T, out in zip(windows, warm):
        cold()
        L = build_general_liouvillian(GENERAL, rho0.space)
        assert evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes() == out, T
    assert len(calls) == 1 + len(windows)


def test_block_cache_stays_under_its_bound_for_full_blocks(cold, rng):
    # the two plans _plans keeps hold at most _BLOCK_CACHE_BYTES between them
    space = make_space([2, 2, 2])
    bound = crosscav.integrator._BLOCK_CACHE_BYTES
    L = build_symmetric_liouvillian(SymmetricDecayParameters(K_EXACT, 700.0, 0.4), space)
    rho0 = random_density(space, rng)  # full rank: the block is all 64 rows
    entry = 64 * 64 * 16 + crosscav.integrator._ENTRY_OVERHEAD
    windows = np.linspace(1e-4, 3e-3, 12)
    warm = [evolve_master(rho0, L, EvolutionSpec(T)) for T in windows]
    info = kept(L).plan.exponentials.cache_info()
    assert info.maxsize * entry <= bound // 2
    assert 0 < info.currsize == info.maxsize == bound // 2 // entry < len(windows)
    for T, rho in zip(windows, warm):
        cold()
        assert evolve_master(rho0, L, EvolutionSpec(T)).matrix.tobytes() == rho.matrix.tobytes()
