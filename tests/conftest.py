import numpy as np
import pytest
import scipy.sparse as sp

from crosscav.tensor import DensityMatrix, make_space


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def random_density(space, rng):
    """Random full-rank state via a Wishart-like construction."""
    d = space.dim
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = A @ A.conj().T
    m /= np.trace(m).real
    return DensityMatrix(m, space)


def random_hermitian(d, rng, scale=1.0):
    A = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return scale * (A + A.conj().T) / 2


@pytest.fixture
def two_mode_nmax1():
    return make_space([2, 2])


def to_scipy(m):
    """A generator's CSR record as a scipy CSR matrix, for scipy oracles."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
