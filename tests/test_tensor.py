import warnings

import numpy as np
import pytest

from conftest import random_density
from crosscav.tensor import (
    ATOM_E,
    ATOM_G,
    DensityMatrix,
    Ket,
    Operator,
    annihilation_op,
    atom_ops,
    basis_ket,
    density_from_ket,
    make_space,
    partial_trace,
)


def test_make_space_dimensions():
    assert make_space([2]).dim == 2
    assert make_space([4, 4]).dim == 16
    assert make_space([4, 4, 2]).dim == 32


def test_make_space_rejects_bad_dims():
    with pytest.raises(ValueError):
        make_space([])
    with pytest.raises(ValueError):
        make_space([4, 0])


def test_annihilation_matrix_elements():
    space = make_space([3])  # n_max = 2
    a = annihilation_op(space, 0).matrix
    assert a[0, 1] == pytest.approx(1.0)
    assert a[1, 2] == pytest.approx(np.sqrt(2.0))
    assert np.count_nonzero(a) == 2


def test_annihilation_kills_vacuum():
    space = make_space([4, 4])
    a1 = annihilation_op(space, 0)
    vac = basis_ket(space, (0, 0))
    assert (a1 @ vac).norm() == 0.0


def test_annihilation_embedding():
    space = make_space([2, 2])
    a1 = annihilation_op(space, 0)
    out = a1 @ basis_ket(space, (1, 0))
    np.testing.assert_allclose(out.amplitudes, basis_ket(space, (0, 0)).amplitudes)


def test_annihilation_bad_subsystem():
    with pytest.raises(ValueError):
        annihilation_op(make_space([2, 2]), 5)
    with pytest.raises(ValueError):
        annihilation_op(make_space([2, 1]), 1)


def test_atom_ops_algebra():
    space = make_space([2, 2, 2])
    sz, sp, sm = atom_ops(space, 2)
    e = basis_ket(space, (0, 0, ATOM_E))
    g = basis_ket(space, (0, 0, ATOM_G))
    np.testing.assert_allclose((sm @ e).amplitudes, g.amplitudes)
    anticomm = sp @ sm + sm @ sp
    np.testing.assert_allclose(anticomm.matrix, np.eye(space.dim))
    evals = np.linalg.eigvalsh(atom_ops(make_space([2]), 0)[0].matrix)
    np.testing.assert_allclose(sorted(evals), [-1.0, 1.0])


def test_atom_ops_rejects_non_qubit():
    with pytest.raises(ValueError):
        atom_ops(make_space([3, 2]), 0)


def test_commutator_below_truncation_edge():
    n_max = 4
    space = make_space([n_max + 1])
    a = annihilation_op(space, 0)
    c = (a @ a.dag() - a.dag() @ a).matrix
    # identity on levels 0..n_max-1, the edge level necessarily fails
    np.testing.assert_allclose(c[:n_max, :n_max], np.eye(n_max), atol=1e-12)
    assert c[n_max, n_max] == pytest.approx(-n_max)


def test_expectation_number_state():
    space = make_space([3])
    a = annihilation_op(space, 0)
    n = a.dag() @ a
    rho = density_from_ket(basis_ket(space, (1,)))
    assert np.trace(n.matrix @ rho.matrix) == pytest.approx(1.0)


def test_adjoint_involution_and_product_rule(rng):
    space = make_space([3, 2])
    d = space.dim
    A = Operator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), space)
    B = Operator(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)), space)
    np.testing.assert_allclose(A.dag().dag().matrix, A.matrix, atol=1e-12)
    np.testing.assert_allclose((A @ B).dag().matrix, (B.dag() @ A.dag()).matrix, atol=1e-12)


def test_embedding_commutes_with_multiplication():
    # embed(AB) = embed(A) embed(B) for same-subsystem A, B
    space = make_space([3, 2])
    a = annihilation_op(space, 0)
    n_embedded = a.dag() @ a
    from crosscav.tensor import embed_local

    local_a = np.diag(np.sqrt([1.0, 2.0]), k=1)
    direct = embed_local(space, 0, local_a.conj().T @ local_a)
    np.testing.assert_allclose(n_embedded.matrix, direct.matrix, atol=1e-12)


def test_signature_mismatch_raises():
    a = annihilation_op(make_space([2, 2]), 0)
    b = annihilation_op(make_space([3, 3]), 0)
    with pytest.raises(ValueError):
        a @ b


def test_density_from_ket_vacuum():
    space = make_space([2, 2])
    rho = density_from_ket(basis_ket(space, (0, 0)))
    assert rho.matrix[0, 0] == pytest.approx(1.0)
    assert np.count_nonzero(rho.matrix) == 1


def test_density_from_ket_bell_like():
    space = make_space([2, 2])
    v = (basis_ket(space, (1, 0)).amplitudes + basis_ket(space, (0, 1)).amplitudes)
    psi = Ket(v / np.sqrt(2), space)
    rho = density_from_ket(psi)
    nonzero = np.abs(rho.matrix[np.abs(rho.matrix) > 1e-15])
    assert len(nonzero) == 4
    np.testing.assert_allclose(nonzero, 0.5)
    assert rho.purity() == pytest.approx(1.0)


def test_density_from_ket_rejects_unnormalized():
    space = make_space([2])
    psi = Ket([0.5, 0.5], space, normalized=False)
    with pytest.raises(ValueError):
        density_from_ket(psi)


NON_FINITE = [np.nan, np.inf, -np.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("normalized", [True, False])
def test_ket_rejects_non_finite(value, normalized):
    with pytest.raises(ValueError, match="non-finite"):
        Ket([value, 0.0], make_space([2]), normalized=normalized)


@pytest.mark.parametrize("value", NON_FINITE)
def test_density_rejects_non_finite(value):
    space = make_space([2])
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.full((2, 2), value), space)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(np.diag([1.0, value]), space)


@pytest.mark.parametrize("matrix, message", [
    ([[np.nan, np.inf], [0.0, 1.0]], "non-finite entries"),
    ([[0.5, 1e-9], [0.0, 0.5]], "not Hermitian"),
    ([[0.5, 0.0], [0.0, 0.5 + 1e-9]], "trace deviates"),
    ([[1.0 + 1e-8, 0.0], [0.0, -1e-8]], "negative eigenvalue"),
])
def test_density_names_the_first_check_it_fails_without_a_warning(matrix, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            DensityMatrix(np.array(matrix), make_space([2]))


def test_density_properties_random(rng):
    space = make_space([3, 2])
    d = space.dim
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    psi = Ket(v / np.linalg.norm(v), space)
    rho = density_from_ket(psi)
    m = rho.matrix
    assert np.abs(m - m.conj().T).max() < 1e-12
    assert abs(np.trace(m) - 1) < 1e-12
    assert np.linalg.eigvalsh(m).min() > -1e-12


def test_partial_trace_product_state():
    space = make_space([2, 2, 2])
    rho = density_from_ket(basis_ket(space, (1, 0, ATOM_G)))
    atom = partial_trace(rho, [2])
    np.testing.assert_allclose(atom.matrix, [[1, 0], [0, 0]], atol=1e-14)
    field = partial_trace(rho, [0, 1])
    assert field.matrix[2, 2] == pytest.approx(1.0)  # row-major |1,0>


def test_partial_trace_preserves_trace(rng):
    space = make_space([2, 3, 2])
    rho = random_density(space, rng)
    red = partial_trace(rho, [1])
    assert np.trace(red.matrix).real == pytest.approx(1.0)


@pytest.mark.parametrize("kind", ["operator", "ket", "density"])
def test_construction_copies_the_callers_array(kind):
    space = make_space([2])
    if kind == "ket":
        caller = np.array([1.0, 0.0], dtype=complex)
        stored = Ket(caller, space).amplitudes
    else:
        caller = np.diag([1.0, 0.0]).astype(complex)
        cls = Operator if kind == "operator" else DensityMatrix
        stored = cls(caller, space).matrix
    caller[0] = 2.0
    assert caller.flags.writeable
    assert not stored.flags.writeable
    assert stored.reshape(-1)[0] == 1.0
    with pytest.raises(ValueError, match="read-only"):
        stored[0] = 3.0


def test_embedded_operators_are_cached_and_read_only():
    space = make_space([2, 2, 2])
    a = annihilation_op(space, 0)
    assert annihilation_op(space, 0) is a
    assert annihilation_op(space, 1) is not a
    with pytest.raises(ValueError, match="read-only"):
        a.matrix[0, 1] = 5.0
    ops = atom_ops(space, 2)
    assert atom_ops(space, 2) is ops
    for op in ops:
        assert not op.matrix.flags.writeable
    other = make_space([3, 3, 2])
    assert annihilation_op(other, 0) is not a
    assert atom_ops(other, 2) is not ops
    # a product of cached operators is a new operator; the cache is untouched
    n = a.dag() @ a
    assert n.matrix is not a.matrix
    np.testing.assert_array_equal(annihilation_op(space, 0).matrix, a.matrix)
