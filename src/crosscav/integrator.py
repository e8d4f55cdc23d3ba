"""Brute-force time evolution: master-equation and unitary segments.

This module is the numerical oracle against which every closed form in
the package is checked, so it stays deliberately simple.  The master
equation is propagated exactly on the reachable block of the vectorized
state: the set R of vec(rho) indices reachable from the support of rho0
along the generator's nonzeros.  R is closed under L, so L[R^c, R] = 0 and
exp(L t) v = (exp(L_RR t) v_R, 0) for any generator, frame or rate; a
protocol state in the N <= 1 excitation sector touches a handful of the
64 entries of its space, a full-rank state all of them.

One function, _propagate, runs L_RR on one of two branches:

- dense Taylor scaling and squaring of exp(L_RR t), whose cost grows
  with log T (Higham, SIAM J. Matrix Anal. Appl. 26:1179, 2005);
- the truncated Taylor action exp(L_RR t) v_R of Al-Mohy & Higham
  (SIAM J. Sci. Comput. 33:488, 2011), whose cost grows with T but needs
  no dense matrix.  It multiplies by the whole generator, stored along
  its few diagonals; since L[R^c, R] = 0, entries outside R stay exactly
  zero, and its step plan comes from L_RR alone.

Blocks of at most _DENSE_MAX_DIM rows, one full [2,2,2] protocol space,
run densely.  A larger block is split along the connected components of
L's stored pattern, labelled once per generator (_CSR.components): no
stored entry joins two components, so each is closed under L and
propagates on its own.  The weak U(1) symmetry of these generators
(Buca & Prosen, New J. Phys. 14:073007, 2012) makes them small, at most
19 of the 324 rows of [3,3,2], so a full-rank state there still runs
densely, one component at a time.  Only a block that meets a component
of more than _DENSE_MAX_DIM rows takes the action, as the n_max = 8
states do (components of up to 489 of 6561 rows); that caps the dense
block's memory.  Neither branch diagonalizes, so both stay exact where
the generator is defective, as at the decoherence-free point r = k.
Both run on numpy alone.
Fixed-step RK4 runs only when a caller asks for it, as an independent
oracle on the full generator.

A sweep repeats the same pulses and windows many times, so two pure
pieces are reused by value: unitary_propagator by the bytes of H and t,
and the dense branch's exp(B t) by the bytes of the block B, its size and
t.  Both are read-only and held in least-recently-used caches bounded by
the bytes they hold (_memo.ByteLRU).  A miss runs every check; a hit
returns a value that passed them.  The sparse action is not cached.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import ceil, isfinite, ldexp, log2

import numpy as np

from . import _memo
from .liouvillian import _CSR, SuperOperator
from .tensor import (
    DensityMatrix,
    Ket,
    Operator,
    SpaceSignature,
    annihilation_op,
    atom_ops,
    number_op,
)

_RK4_LOCAL_ERR_LIMIT = 1e-6
# Al-Mohy & Higham, Table 3.1: the largest t*||A||_1 for which the degree-m
# Taylor polynomial meets a backward error of 2^-53
_TAYLOR_THETA = {
    10: 1.44e-1, 15: 6.41e-1, 20: 1.44, 25: 2.43, 30: 3.54,
    35: 4.7, 40: 6.0, 45: 7.2, 50: 8.5, 55: 9.9,
}
_UNIT_ROUNDOFF = 2.0**-53
# the most rows a dense block may have: a reachable block or, past it,
# each connected component it meets; a block that meets a larger
# component takes the sparse action.  64 is one full [2,2,2] protocol
# space, and the largest component of a [3,3,2] generator has 19 rows
_DENSE_MAX_DIM = 64
# the action stores a generator by diagonals unless that takes more than
# this many times its stored entries (the package's generators take < 3.5)
_DIAGONAL_FILL_LIMIT = 4
# distinct pulse Hamiltonians a process keeps; a sweep needs a few
_HAMILTONIAN_CACHE_SIZE = 16
# bytes the two exponential caches may hold (_memo.ByteLRU); with the
# protocol's state caches they stay under 2 MiB, about 4 % of a
# simulated sweep's peak RSS.  A pulse propagator on the protocol's
# [2, 2, 2] space takes 2.5 KiB (H, U and the entry's objects), and a
# benchmark sweep pass needs about 28.  A protocol window's reachable
# block is 5 x 5, 1.3 KiB an entry: a sweep-time pass over n values of T
# makes 2n per r, and 1 MiB keeps the n detuned windows, which repeat
# for every r, up to the default n = 201.  A full 64-row block takes
# 128.5 KiB, so at most 7 of those are kept.
_UNITARY_CACHE_BYTES = 256 * 1024
_BLOCK_CACHE_BYTES = 1024 * 1024
_unitaries = _memo.register(_memo.ByteLRU(_UNITARY_CACHE_BYTES))
_block_exponentials = _memo.register(_memo.ByteLRU(_BLOCK_CACHE_BYTES))


@dataclass(frozen=True)
class EvolutionSpec:
    """Duration, step size ('auto' or seconds) and integration method.

    method "expm" (the default) is the exact exponential action and ignores
    step; "rk4" is fixed-step RK4, an independent oracle that runs only
    when asked for, with step "auto" or an explicit step in seconds.
    """

    duration: float
    step: object = "auto"
    method: str = "expm"

    def __post_init__(self):
        if not isfinite(self.duration) or self.duration < 0:
            raise ValueError(
                f"duration must be finite and non-negative, got {self.duration}"
            )
        if self.step != "auto":
            step = float(self.step)
            if not isfinite(step) or step <= 0:
                raise ValueError(
                    f"explicit step must be finite and positive, got {self.step}"
                )
        if self.method not in ("expm", "rk4"):
            raise ValueError(f"unknown method {self.method!r}")


def _auto_step(L: SuperOperator, duration: float) -> float:
    # the diagonal of the generator bounds the fastest rate from above;
    # 5e-3/rate keeps the RK4 global error orders below the 1e-6 tolerances
    diag = np.abs(L.matrix.diagonal())
    rate = max(float(diag.max()) if diag.size else 0.0, 1.0 / max(duration, 1e-300))
    return min(5e-3 / rate, duration / 100.0)


def _rk4(Lmat, v: np.ndarray, duration: float, step: float, check_step: bool) -> np.ndarray:
    n_steps = max(1, ceil(duration / step))
    h = duration / n_steps

    def deriv(y):
        return Lmat @ y

    def rk4_step(y, hh):
        k1 = deriv(y)
        k2 = deriv(y + 0.5 * hh * k1)
        k3 = deriv(y + 0.5 * hh * k2)
        k4 = deriv(y + hh * k3)
        return y + (hh / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)

    if check_step:
        # compare one full step against two half steps at t = 0
        full = rk4_step(v, h)
        half = rk4_step(rk4_step(v, h / 2), h / 2)
        err = float(np.abs(full - half).max()) / max(float(np.abs(v).max()), 1e-300)
        if err > _RK4_LOCAL_ERR_LIMIT:
            suggested = h * (_RK4_LOCAL_ERR_LIMIT / err) ** 0.2
            raise ValueError(
                f"step {h:.3e} gives RK4 local error estimate {err:.3e} > "
                f"{_RK4_LOCAL_ERR_LIMIT}; retry with step <= {suggested:.3e}"
            )

    y = v
    for _ in range(n_steps):
        y = rk4_step(y, h)
    return y


def _shifted_product(A: _CSR, mu: complex):
    """The map x -> (A - mu I) x, applied along A's diagonals.

    Diagonal k holds A[i, i + k], and y_i = sum_k A[i, i + k] x_{i+k} is
    summed in ascending k, so each row adds its entries in column order,
    as a CSR product does.  Every generator the package builds has at most
    17 diagonals (a sandwich kron(A, B^T) lands on offsets D o_A + o_B), so
    a product is a few whole-vector multiply-adds over shifted views of one
    zero-padded copy of x, faster than gathering x[indices].  A matrix
    whose diagonals would store more than _DIAGONAL_FILL_LIMIT times its
    entries takes the CSR product instead.
    """
    n = A.shape[0]
    rows = A.row_of()
    offset = A.indices - rows
    # the diagonals present, ascending, from the 2n - 1 possible offsets
    present = np.zeros(2 * n - 1, dtype=bool)
    present[offset + (n - 1)] = True
    present[n - 1] = True
    ks = np.flatnonzero(present) - (n - 1)
    if len(ks) * n > _DIAGONAL_FILL_LIMIT * max(A.nnz, n):
        diagonal = np.arange(n)
        return (A - _CSR.from_coo(diagonal, diagonal, np.full(n, mu), A.shape)).__matmul__
    diags = np.zeros((len(ks), n), dtype=complex)
    diags[np.searchsorted(ks, offset), rows] = A.data
    diags[np.searchsorted(ks, 0)] -= mu
    lo = -int(ks[0])
    padded = np.zeros(lo + n + int(ks[-1]), dtype=complex)
    views = [padded[lo + k:lo + k + n] for k in ks]
    tmp = np.empty(n, dtype=complex)

    def product(x):
        padded[lo:lo + n] = x
        y = diags[0] * views[0]
        for d, xk in zip(diags[1:], views[1:]):
            np.multiply(d, xk, out=tmp)
            y += tmp
        return y

    return product


def _expm_action(A: _CSR, v: np.ndarray, t: float, mu: complex, norm: float) -> np.ndarray:
    """exp(A t) v by s truncated Taylor substeps of degree <= m.

    v is supported on a block R of indices closed under A, and mu and norm
    are trace(A_RR)/|R| and ||A_RR - mu I||_1: the shift that shrinks the
    block's norm, and that norm.  (m, s) minimise the matrix-vector
    products m*s subject to t*norm / s <= theta_m, and each substep stops
    once two successive terms fall below 2^-53 relative to the partial
    sum.  Since A[R^c, R] = 0, every entry outside R stays exactly zero.
    """
    if not isfinite(t * norm):
        raise ValueError(
            f"window t = {t:g} s times the generator norm {norm:.3e} 1/s "
            "overflows the Taylor action's step count"
        )
    m, s = min(
        ((m, max(1, ceil(t * norm / theta))) for m, theta in _TAYLOR_THETA.items()),
        key=lambda ms: ms[0] * ms[1],
    )
    product = _shifted_product(A, mu)
    h = t / s
    eta = np.exp(mu * h)
    F = v
    for _ in range(s):
        term = F
        c1 = np.abs(term).max()
        for j in range(1, m + 1):
            term = (h / j) * product(term)
            c2 = np.abs(term).max()
            F = F + term
            if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(F).max():
                break
            c1 = c2
        F = eta * F
    return F


def _reachable(A: _CSR, rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Mask of the indices R reachable from supp(v) along A's stored entries.

    (A v)_i involves v_j wherever A[i, j] is stored, so R grows by the rows
    (rows[k] is the row of stored entry k) of the stored entries in its
    columns until it stops growing; R is then closed under A.
    """
    mask = v != 0
    while True:
        grown = mask.copy()
        grown[rows[mask[A.indices]]] = True
        if np.array_equal(grown, mask):
            return mask
        mask = grown


def _block(A: _CSR, rows: np.ndarray, mask: np.ndarray):
    """The indices R of a mask closed under A, and A_RR.

    Returns R and A_RR as COO triplets in block indices; every stored
    entry of a column in R has its row in R.
    """
    R = np.flatnonzero(mask)
    if len(R) == len(mask):
        return R, rows, A.indices, A.data
    keep = mask[A.indices]
    pos = np.cumsum(mask) - 1
    return R, pos[rows[keep]], pos[A.indices[keep]], A.data[keep]


def _expm_dense(B: np.ndarray, t: float, norm: float) -> np.ndarray:
    """exp(B t) by truncated Taylor scaling and squaring; norm = ||B||_1 > 0.

    Degree-m Taylor on B t / 2^s with t*norm / 2^s <= theta_m, the
    backward-error bound of _expm_action, and (m, s) minimising the m + s
    products; s comes from log2 t + log2 norm, so no finite window
    overflows it.

    F = exp(B h) - I is summed and squared, F <- 2F + F^2, without the
    identity, so its rounding stays relative to F while F is small (as in
    expm1); the Taylor sum stops early like _expm_action's.  The rounding
    of I + F, about n u ||I + F||_1, doubles with every squaring, and
    squaring stops once one more squaring would change I + F by less than
    the rounding it already carries: every mode has then either decayed or
    moves slower than the computation can resolve, and the remaining
    squarings would only amplify rounding (at r = k they would turn the
    conserved slow-mode population into 0 or inf for windows near the
    float range).
    """
    n = B.shape[0]
    log_norm = log2(t) + log2(norm)
    m, s = min(
        ((m, max(0, ceil(log_norm - log2(theta)))) for m, theta in _TAYLOR_THETA.items()),
        key=sum,
    )
    X = B * ldexp(t, -s)
    F = term = X
    c1 = np.abs(X).max()
    for j in range(2, m + 1):
        term = (X @ term) / j
        c2 = np.abs(term).max()
        F = F + term
        if c1 + c2 <= _UNIT_ROUNDOFF * np.abs(F).max():
            break
        c1 = c2
    eye = np.eye(n)
    tol = n * _UNIT_ROUNDOFF * np.abs(eye + F).sum(axis=0).max()
    for _ in range(s):
        F2 = 2 * F + F @ F
        done = np.abs(F2 - F).sum(axis=0).max() <= tol
        F = F2
        if done:
            break
        tol *= 2
    return eye + F


def _shift_and_norm(rows, cols, vals, n):
    """mu = trace(B)/n and ||B - mu I||_1 of the n x n block B in triplets."""
    on = rows == cols
    diag = np.zeros(n, dtype=complex)
    diag[rows[on]] = vals[on]
    mu = diag.sum() / n
    col_sums = np.bincount(cols, weights=np.abs(np.where(on, vals - mu, vals)), minlength=n)
    no_diag = np.ones(n, dtype=bool)
    no_diag[rows[on]] = False
    col_sums[no_diag] += abs(mu)
    return mu, float(col_sums.max())


def _dense_on_block(rows, cols, vals, v: np.ndarray, t: float) -> np.ndarray:
    """exp(B t) v for the block B in triplets, with exp(B t) reused by value."""
    n = len(v)
    norm = float(np.bincount(cols, weights=np.abs(vals), minlength=n).max())
    if norm == 0:
        return v
    B = np.zeros((n, n), dtype=complex)
    np.add.at(B, (rows, cols), vals)
    # B's entries are stored in row-major order, so B and t fix norm too
    key = (B.tobytes(), n, float(t).hex())
    E = _block_exponentials.get(key)
    if E is None:
        E = _expm_dense(B, t, norm)
        E.setflags(write=False)
        _block_exponentials.put(key, E, 2 * E.nbytes)
    return E @ v


def _propagate(A: _CSR, v: np.ndarray, t: float) -> np.ndarray:
    """exp(A t) v on the block of v's reachable indices; zero elsewhere.

    A block of at most _DENSE_MAX_DIM rows runs densely.  A larger one
    runs densely one connected component of A at a time when no component
    that supp(v) touches has more rows, and by the sparse action on the
    whole of A otherwise.
    """
    rows = A.row_of()
    mask = _reachable(A, rows, v)
    parts = [mask]
    if np.count_nonzero(mask) > _DENSE_MAX_DIM:
        labels = A.components
        touched = np.zeros(len(v), dtype=bool)
        touched[labels[v != 0]] = True
        if np.bincount(labels, minlength=len(v))[touched].max() > _DENSE_MAX_DIM:
            R, rows, cols, vals = _block(A, rows, mask)
            return _expm_action(A, v, t, *_shift_and_norm(rows, cols, vals, len(R)))
        # no stored entry joins two components, so each is closed under A
        parts = [mask & (labels == c) for c in np.flatnonzero(touched)]
    out = np.zeros_like(v)
    for part in parts:
        R, *block = _block(A, rows, part)
        out[R] = _dense_on_block(*block, v[R], t)
    return out


def evolve_master(rho0: DensityMatrix, L: SuperOperator, spec: EvolutionSpec) -> DensityMatrix:
    """Integrate d(rho)/dt = L rho for spec.duration.

    method "expm" propagates the block of vec(rho0) reachable under L, on
    the dense or the sparse branch (see the module docstring); entries
    outside the block stay exactly zero.  L is only read, so a generator
    shared through the builders' reuse cache can be passed as it is.
    """
    if rho0.space != L.space:
        raise ValueError("space mismatch between state and superoperator")
    if spec.duration == 0:
        return rho0
    v0 = rho0.matrix.reshape(-1)
    if spec.method == "expm":
        v = _propagate(L.matrix, v0, spec.duration)
    else:
        step = _auto_step(L, spec.duration) if spec.step == "auto" else float(spec.step)
        v = _rk4(L.matrix, v0, spec.duration, step, check_step=spec.step != "auto")
    D = L.space.dim
    return DensityMatrix(v.reshape(D, D), rho0.space)


def unitary_propagator(H: Operator, duration: float) -> np.ndarray:
    """exp(-i H t) through the eigendecomposition of a Hermitian H.

    Memoized by the bytes of H's matrix and of t: the result is read-only
    and shared with every later caller that passes equal values.  Only a
    miss checks Hermiticity, so a non-Hermitian H is never stored and
    always raises.
    """
    Hm = H.matrix
    key = (Hm.tobytes(), float(duration).hex())
    U = _unitaries.get(key)
    if U is not None:
        return U
    herm_dev = float(np.abs(Hm - Hm.conj().T).max())
    if herm_dev > 1e-10 * max(float(np.abs(Hm).max()), 1.0):
        raise ValueError(f"Hamiltonian is not Hermitian (deviation {herm_dev:.3e})")
    w, V = np.linalg.eigh(Hm)
    U = (V * np.exp(-1j * w * duration)) @ V.conj().T
    U.setflags(write=False)
    return _unitaries.put(key, U, 2 * U.nbytes)


def evolve_unitary(psi0: Ket, H: Operator, duration: float) -> Ket:
    """psi(t) = exp(-i H t) psi0, with hbar = 1."""
    if psi0.space != H.space:
        raise ValueError("space mismatch between state and Hamiltonian")
    if duration == 0:
        return psi0
    U = unitary_propagator(H, duration)
    return Ket(U @ psi0.amplitudes, psi0.space, normalized=psi0.normalized)


def _find_atom(space: SpaceSignature) -> int:
    idx = len(space.dims) - 1
    if space.dims[idx] != 2:
        raise ValueError("space has no trailing two-level atom subsystem")
    return idx


@lru_cache(maxsize=_HAMILTONIAN_CACHE_SIZE)
def jc_hamiltonian(
    space: SpaceSignature,
    which: str,
    G: float,
    Omega: float = 0.0,
    Omega_a: float = 0.0,
) -> Operator:
    """Resonant atom-field Hamiltonian in the rotating wave approximation.

    which = 'mode1' or 'mode2' couples the atom to a single mode; the
    'both_with_phase' variant couples it to both orthogonally polarized
    modes, with the mode-1 coupling carrying a relative factor i.
    Frequencies are angular; pass Omega = Omega_a = 0 for the rotating frame.
    Memoized by its arguments: equal calls share one read-only Operator.
    """
    atom = _find_atom(space)
    sz, spl, smi = atom_ops(space, atom)
    n_total = number_op(space, 0)
    if len(space.dims) > 2:
        n_total = n_total + number_op(space, 1)
    H = Omega * n_total + (Omega_a / 2.0) * sz
    if which == "mode1":
        a = annihilation_op(space, 0)
        H = H + G * (a.dag() @ smi + a @ spl)
    elif which == "mode2":
        a = annihilation_op(space, 1)
        H = H + G * (a.dag() @ smi + a @ spl)
    elif which == "both_with_phase":
        a1 = annihilation_op(space, 0)
        a2 = annihilation_op(space, 1)
        H = H + G * (
            1j * (a1.dag() @ smi) - 1j * (a1 @ spl) + a2.dag() @ smi + a2 @ spl
        )
    else:
        raise ValueError(f"unknown coupling variant {which!r}")
    return H


@lru_cache(maxsize=_HAMILTONIAN_CACHE_SIZE)
def free_hamiltonian(space: SpaceSignature, Omega: float, Omega_a: float) -> Operator:
    """Dispersive segment: free fields plus the detuned atom splitting.

    Memoized by its arguments, like jc_hamiltonian.
    """
    atom = _find_atom(space)
    sz, _, _ = atom_ops(space, atom)
    n_total = number_op(space, 0)
    if len(space.dims) > 2:
        n_total = n_total + number_op(space, 1)
    return Omega * n_total + (Omega_a / 2.0) * sz
