"""Dense operator algebra on truncated tensor-product Hilbert spaces.

Subsystem convention: index 0 is field mode M1, index 1 is field mode M2,
and the atom (dimension 2) comes last when present.  Basis ordering is
row-major over the subsystem list, so matrix layouts are reproducible
bit-exactly.  A bosonic mode truncated at n_max occupies n_max + 1 levels.
Atom levels: index 0 = |g>, index 1 = |e>.

Operator, Ket and DensityMatrix hold read-only copies of the arrays they
are given.  annihilation_op and atom_ops are cached per (space, subsystem),
so the Kronecker embedding of each distinct operator runs once and every
caller shares the same read-only result.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod

import numpy as np

ATOM_G = 0
ATOM_E = 1

_HERM_TOL = 1e-10
_TRACE_TOL = 1e-10
_EIG_TOL = -1e-9
# distinct (space, subsystem) operators a process keeps; a sweep needs a few
_OP_CACHE_SIZE = 64


@dataclass(frozen=True)
class SpaceSignature:
    """Ordered per-subsystem dimensions of a tensor-product space."""

    dims: tuple

    def __post_init__(self):
        dims = tuple(int(d) for d in self.dims)
        if len(dims) == 0:
            raise ValueError("space needs at least one subsystem")
        if any(d < 1 for d in dims):
            raise ValueError(f"all subsystem dimensions must be >= 1, got {dims}")
        object.__setattr__(self, "dims", dims)

    @property
    def dim(self) -> int:
        return prod(self.dims)

    def __len__(self):
        return len(self.dims)


def make_space(dims) -> SpaceSignature:
    """Build a SpaceSignature from a list of positive subsystem dimensions."""
    return SpaceSignature(tuple(dims))


def _frozen_copy(a) -> np.ndarray:
    """Read-only complex copy of a, so the caller's array stays writable."""
    m = np.array(a, dtype=complex)
    m.setflags(write=False)
    return m


def _check_same_space(a, b):
    if a.space != b.space:
        raise ValueError(f"space mismatch: {a.space.dims} vs {b.space.dims}")


@dataclass(frozen=True)
class Operator:
    """Dense complex matrix acting on a tagged tensor-product space."""

    matrix: np.ndarray
    space: SpaceSignature

    def __post_init__(self):
        m = _frozen_copy(self.matrix)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dimension {self.space.dim}"
            )
        object.__setattr__(self, "matrix", m)

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T, self.space)

    def __add__(self, other):
        _check_same_space(self, other)
        return Operator(self.matrix + other.matrix, self.space)

    def __sub__(self, other):
        _check_same_space(self, other)
        return Operator(self.matrix - other.matrix, self.space)

    def __neg__(self):
        return Operator(-self.matrix, self.space)

    def __mul__(self, scalar):
        return Operator(self.matrix * scalar, self.space)

    __rmul__ = __mul__

    def __matmul__(self, other):
        if isinstance(other, Ket):
            _check_same_space(self, other)
            return Ket(self.matrix @ other.amplitudes, self.space, normalized=False)
        _check_same_space(self, other)
        return Operator(self.matrix @ other.matrix, self.space)


@dataclass(frozen=True)
class Ket:
    """Dense complex state vector on a tagged space."""

    amplitudes: np.ndarray
    space: SpaceSignature
    normalized: bool = True

    def __post_init__(self):
        v = _frozen_copy(self.amplitudes).reshape(-1)
        if v.shape != (self.space.dim,):
            raise ValueError(
                f"vector length {v.shape[0]} does not match space dimension {self.space.dim}"
            )
        if not np.isfinite(v).all():
            raise ValueError("ket has non-finite amplitudes")
        if self.normalized and abs(np.linalg.norm(v) - 1.0) > 1e-12:
            raise ValueError(f"ket marked normalized has norm {np.linalg.norm(v)}")
        object.__setattr__(self, "amplitudes", v)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def overlap(self, other: "Ket") -> complex:
        _check_same_space(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def unit(self) -> "Ket":
        n = self.norm()
        if n == 0:
            raise ValueError("cannot normalize the zero vector")
        return Ket(self.amplitudes / n, self.space)


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite state on a tagged space."""

    matrix: np.ndarray
    space: SpaceSignature

    def __post_init__(self):
        m = _frozen_copy(self.matrix)
        if m.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match space dimension {self.space.dim}"
            )
        if not np.isfinite(m).all():
            raise ValueError("density matrix has non-finite entries")
        mh = m.conj().T
        herm_dev = np.abs(m - mh).max()
        if herm_dev > _HERM_TOL:
            raise ValueError(f"density matrix not Hermitian (deviation {herm_dev:.3e})")
        trace_dev = abs(m.trace() - 1.0)
        if trace_dev > _TRACE_TOL:
            raise ValueError(f"density matrix trace deviates by {trace_dev:.3e}")
        # the smallest eigenvalue of the Hermitian part (m + mh) / 2; eigvalsh
        # returns them ascending, and halving after it is exact
        min_eig = float(np.linalg.eigvalsh(m + mh)[0]) / 2
        if min_eig < _EIG_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {min_eig:.3e}")
        object.__setattr__(self, "matrix", m)

    def purity(self) -> float:
        return float(np.real(np.trace(self.matrix @ self.matrix)))

    def fidelity_with_ket(self, psi: Ket) -> float:
        """<psi|rho|psi>, the fidelity against a pure reference state."""
        _check_same_space(self, psi)
        v = psi.amplitudes
        return float(np.real(np.vdot(v, self.matrix @ v)))


def basis_ket(space: SpaceSignature, occupations) -> Ket:
    """Product basis state with the given per-subsystem level indices."""
    occupations = tuple(int(n) for n in occupations)
    if len(occupations) != len(space.dims):
        raise ValueError("one level index per subsystem required")
    for n, d in zip(occupations, space.dims):
        if not 0 <= n < d:
            raise ValueError(f"level {n} out of range for subsystem of dimension {d}")
    idx = int(np.ravel_multi_index(occupations, space.dims))
    v = np.zeros(space.dim, dtype=complex)
    v[idx] = 1.0
    return Ket(v, space)


def embed_local(space: SpaceSignature, subsystem: int, local: np.ndarray) -> Operator:
    """Embed a single-subsystem matrix by identity on all other factors."""
    if not 0 <= subsystem < len(space.dims):
        raise ValueError(f"subsystem index {subsystem} out of range")
    d = space.dims[subsystem]
    local = np.asarray(local, dtype=complex)
    if local.shape != (d, d):
        raise ValueError(f"local matrix shape {local.shape} does not match dimension {d}")
    out = np.array([[1.0 + 0j]])
    for i, di in enumerate(space.dims):
        out = np.kron(out, local if i == subsystem else np.eye(di))
    return Operator(out, space)


@lru_cache(maxsize=_OP_CACHE_SIZE)
def annihilation_op(space: SpaceSignature, subsystem: int) -> Operator:
    """Embedded lowering operator with <n-1|a|n> = sqrt(n).

    Cached per (space, subsystem): repeat calls return the same read-only
    Operator, so the embedding runs once per distinct operator.
    """
    if not 0 <= subsystem < len(space.dims):
        raise ValueError(f"subsystem index {subsystem} out of range")
    d = space.dims[subsystem]
    if d < 2:
        raise ValueError(f"subsystem {subsystem} has dimension {d} < 2")
    local = np.diag(np.sqrt(np.arange(1, d)), k=1).astype(complex)
    return embed_local(space, subsystem, local)


def number_op(space: SpaceSignature, subsystem: int) -> Operator:
    a = annihilation_op(space, subsystem)
    return a.dag() @ a


@lru_cache(maxsize=_OP_CACHE_SIZE)
def atom_ops(space: SpaceSignature, subsystem: int):
    """Embedded (sigma_z, sigma_plus, sigma_minus) for a two-level subsystem.

    sigma_z = |e><e| - |g><g|, sigma_minus = |g><e|, sigma_plus = |e><g|.
    Cached per (space, subsystem) like annihilation_op; the tuple and its
    read-only Operators are shared between callers.
    """
    if not 0 <= subsystem < len(space.dims):
        raise ValueError(f"subsystem index {subsystem} out of range")
    if space.dims[subsystem] != 2:
        raise ValueError(
            f"atom subsystem must have dimension 2, got {space.dims[subsystem]}"
        )
    sz = np.zeros((2, 2), dtype=complex)
    sz[ATOM_E, ATOM_E] = 1.0
    sz[ATOM_G, ATOM_G] = -1.0
    sm = np.zeros((2, 2), dtype=complex)
    sm[ATOM_G, ATOM_E] = 1.0
    sp = sm.conj().T
    return (
        embed_local(space, subsystem, sz),
        embed_local(space, subsystem, sp),
        embed_local(space, subsystem, sm),
    )


def density_from_ket(ket: Ket) -> DensityMatrix:
    """Rank-1 projector |psi><psi| from a normalized ket."""
    n = ket.norm()
    if abs(n - 1.0) > 1e-9:
        raise ValueError(f"ket must be normalized, got norm {n}")
    v = ket.amplitudes / n
    return DensityMatrix(np.outer(v, v.conj()), ket.space)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced state over the listed subsystem indices (in ascending order)."""
    keep = sorted(set(int(i) for i in keep))
    dims = rho.space.dims
    if any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError("subsystem index out of range")
    n = len(dims)
    t = rho.matrix.reshape(dims + dims)
    # trace out everything not kept, highest axis pairs first so lower
    # subsystem positions stay valid
    traced = [i for i in range(n) if i not in keep]
    for i in sorted(traced, reverse=True):
        t = np.trace(t, axis1=i, axis2=i + t.ndim // 2)
    kept_dims = tuple(dims[i] for i in keep)
    d = prod(kept_dims)
    return DensityMatrix(t.reshape(d, d), make_space(kept_dims))
