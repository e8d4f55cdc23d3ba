import numpy as np
import pytest
import scipy.sparse as sp

from crosscav import _memo
from crosscav.tensor import DensityMatrix, make_space

# a test whose call phase takes longer than this fails the session.  The
# slowest test takes about 3 s on 2 vCPUs; a propagation branch whose cost
# grows linearly with the window once made four cases take 16-37 s each
# (tier-1 went from ~5 s to 121 s) while every test still passed
TEST_CALL_LIMIT_S = 15.0
_slow_calls = []


def pytest_runtest_logreport(report):
    if report.when == "call" and report.duration > TEST_CALL_LIMIT_S:
        _slow_calls.append((report.nodeid, report.duration))


def pytest_terminal_summary(terminalreporter):
    for nodeid, duration in _slow_calls:
        terminalreporter.write_line(
            f"SLOW {nodeid}: call took {duration:.1f} s, limit {TEST_CALL_LIMIT_S:g} s",
            red=True,
        )


def pytest_sessionfinish(session, exitstatus):
    if _slow_calls and exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


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
def cold():
    """Empty every value cache of a protocol run, now and when called again."""
    _memo.clear_all()
    return _memo.clear_all


@pytest.fixture
def two_mode_nmax1():
    return make_space([2, 2])


def to_scipy(m):
    """A generator's CSR record as a scipy CSR matrix, for scipy oracles."""
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)
