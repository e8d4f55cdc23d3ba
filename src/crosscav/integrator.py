"""Brute-force time evolution: master-equation and unitary segments.

This module is the numerical oracle against which every closed form in
the package is checked, so it stays deliberately simple.  evolve_master
with method "expm" takes one of two exact routes:

- the loss channel, for a window without a pulse: L is a builder's
  generator without H (a _LossGenerator), its space is exactly two field
  modes [N+1, N+1], and rho0 lies in S, every ket and bra with
  n1 + n2 <= N.  It never reads L.matrix (_propagate_channel);
- the Fock-basis route, _propagate on L's CSR, for every other window:
  every protocol window (its space has the atom), a generator with H,
  and any state outside S.

The loss channel.  The jumps are linear in the modes and h is quadratic,
so at zero temperature exp(L t) is a pure-loss channel fixed by the 2x2
M(t) = exp(-(Gamma^T + i h) t), which carries <a> to M <a> (Serafini,
Quantum Continuous Variables, CRC 2017, ch. 5; Prosen, New J. Phys.
10:043026, 2008):

    exp(L t) rho = Gamma(M) (sum_{m <= N} D^m(rho) / m!) Gamma(M)^dag,

with Gamma(M) the number-conserving map a_j^dag -> sum_i M_ij a_i^dag
(_ladder) and D(X) = sum_jj' Q_j'j a_j X a_j'^dag, Q = I - M^dag M, run
as index shifts on S (_lower).  D lowers ket and bra by one excitation,
so the sum ends at m = N.  The window is completely positive by
construction and costs the same at any T.  For the symmetric builder M
comes from the exact rates k - r and k + r of the slow and fast normal
modes, so at r = k the slow mode does not decay however long the window
(Zanardi & Rasetti, PRL 79:3306, 1997); for the general builder M is
_expm_dense of the 2x2 generator.  The mean mode frequency w leaves M as
the phase e^(-i w n t) of sector n, one phase per ket with w n t reduced
modulo 2 pi, so a pure state stays rank one however large w t grows.

The Fock-basis route propagates exactly on blocks of the vectorized
state that conserved charges mark out (_charges, _plan).  Every generator
the package builds conserves the total excitation N weakly (Buca &
Prosen, New J. Phys. 14:073007, 2012): N is n1 + n2 plus 1 for an
excited atom, the jumps lower ket and bra by one, and the mode terms, the
JC pulses and the dispersive wait keep it.  So L never raises a ket's N,
and the plan takes the finest of three nested charges, each a label of
the vec(rho) indices and the ket excitations it bounds, that every
stored entry keeps (label conserved, no bounded excitation raised): the
per-mode orders (dn1, dn2) with the ket and bra levels of the factors
after the two modes, bounding the ket's n1, n2 and N (no cross decay or
coupling); the field order d(n1 + n2) with those levels, bounding N (any
window without a pulse); or the total order q = dN (a pulse).  In each
class the support of rho0 touches, the indices whose bounded excitations
are at most the support's top form a set R closed under L, so
L[R^c, R] = 0 and exp(L t) v = (exp(L_RR t) v_R, 0); a protocol state in
the N <= 1 excitation sector touches a handful of the 64 entries of its
space, a full-rank state all of them.  A generator that keeps no
charge, such as one written in a permuted basis, is refused with a
one-line ValueError that points to method "rk4".

One function, _propagate, runs L_RR by dense Taylor scaling and
squaring of exp(L_RR t), whose cost grows with log T (Higham, SIAM J.
Matrix Anal. Appl. 26:1179, 2005).  Its Taylor sum runs over the powers
of L_RR that the window plan keeps, so a window computes only its
coefficients, one cumulative sum (stopped once two successive terms
fall below 2^-53 of the sum) and the squarings; the result is scattered
into R, and entries outside R are never touched and stay exactly zero.

If the classes' union has at most _DENSE_MAX_DIM rows, one full [2,2,2]
protocol space, it runs densely as one part.  Otherwise each class is
one part: at most 19 rows for a full-rank [3,3,2] state, 55 for
(|0> + |4>)_slow at n_max = 8.  A class of more than _DENSE_MAX_DIM rows
in a larger union is refused with a one-line ValueError that names its
size and points to method "rk4": any full-rank n_max = 8 state (489
rows) has one, and no command builds one.  That caps the dense part's
memory.  No route diagonalizes, so both stay exact where the generator
is defective, as at the decoherence-free point r = k.  Both run on numpy
alone.

In the lab frame a dense block B carries the phases -i omega q of its
coherence orders on its diagonal, and squaring would carry them too.
With mu the mean imaginary diagonal of each class in B, diag(mu)
commutes with B, since no stored entry joins two classes, so exactly
exp(B t) = diag(e^(i mu t)) exp((B - i diag(mu)) t): a dense part
squares only the second factor and applies the phase with mu t reduced
modulo 2 pi.

Fixed-step RK4 runs only when a caller asks for it, as an independent
oracle on the full generator.

A sweep repeats the same windows many times, and this module alone
decides which window work is reused, by value.  What a window does before
any exponential, the charge check, the classes and the assembly of each
dense part with its powers (B / ||B||_1)^j, j <= 25, is its plan
(_plan); it depends on the generator and supp(v) alone.  Equal blocks of
one plan are matched once, when it is made, and share one power stack.
The builders return a fresh generator on every call, and _plans keeps,
for the two most recently used values of a builder's generator without
H, its CSR, the last support's plan and the general loss channel's 2x2
power stack (_Reuse).  So an equal generator is assembled once while its
value is kept, and the windows of a sweep over T share one stack of
powers.  A plan keeps the exponentials of its blocks for its most recent
windows in an lru_cache over t (_exponentials), bounded so that the two
kept plans hold at most _BLOCK_CACHE_BYTES; a generator with H makes a
plan for every window, so its exponentials are not reused.  A miss runs
every check; a hit returns read-only values that passed them.  A pulse
propagator is reused by the bytes of H and by t (_unitary), behind
unitary_propagator, so every pulse a run applies still passes through
that one function.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, exp, expm1, isfinite, ldexp, log2
from typing import NamedTuple

import numpy as np

from .liouvillian import (
    _CSR,
    SuperOperator,
    _frame_omega,
    _LossGenerator,
    _mode_hamiltonian,
)
from .tensor import (
    DensityMatrix,
    Operator,
    SpaceSignature,
    annihilation_op,
    atom_ops,
    number_op,
)

_RK4_LOCAL_ERR_LIMIT = 1e-6
# Al-Mohy & Higham, Table 3.1: the largest t*||A||_1 for which the degree-m
# Taylor polynomial meets a backward error of 2^-53
_TAYLOR_THETA = {10: 1.44e-1, 15: 6.41e-1, 20: 1.44, 25: 2.43}
_UNIT_ROUNDOFF = 2.0**-53
# the most rows a dense part may have: the union of a window's charge
# classes or, past it, each class; _plan refuses a larger class.  64 is
# one full [2,2,2] protocol space; a full-rank [3,3,2] state's classes
# have at most 19 rows.  A part's powers take 25 n^2 16 bytes: 1.6 MB at
# 64 rows, 95 MB at the 489 of a full-rank [9,9] state
_DENSE_MAX_DIM = 64
# bytes of window exponentials that the two kept plans (_plans) hold in
# all: each plan's cache over t (_exponentials) keeps as many windows as
# half of it holds.  A detuned protocol window's block is 5 x 5, 912
# bytes a window: a sweep-time pass over n values of T makes 2n windows
# per r, and its detuned plan keeps its n windows, which repeat for every
# r, up to n = 574.  A full 64-row block takes 64.5 KiB, so a plan keeps
# at most 7 of those.  The plans' power stacks are not counted here: a
# dense part holds 25 n^2 16 bytes of powers (1.6 MB at 64 rows, 10 and
# 40 KB for the 5- and 10-row windows of a protocol sweep)
_BLOCK_CACHE_BYTES = 1024 * 1024
# bytes of the Python objects around a kept array (its header and its
# slot in the cache's entry), counted per array so that many tiny blocks
# cannot outgrow the bound
_ENTRY_OVERHEAD = 512


@dataclass(frozen=True)
class EvolutionSpec:
    """Duration, step size ('auto' or seconds) and integration method.

    method "expm" (the default) is exact propagation and ignores step; it
    refuses a window it cannot split into dense blocks (_plan).  "rk4" is
    fixed-step RK4, an independent oracle that runs only when asked for,
    with step "auto" or an explicit step in seconds.
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


def _expm_dense(t: float, norm: float, powers: np.ndarray) -> np.ndarray:
    """Read-only exp(B t) by truncated Taylor scaling and squaring; norm = ||B||_1 > 0.

    X = B t / 2^s takes the fewest squarings s with ||X||_1 = x <= theta_25
    = 2.43, then the smallest degree m with x <= theta_m: the backward-error
    bound of Al-Mohy & Higham (SIAM J. Sci. Comput. 33:488, 2011), Table
    3.1.  B enters only through its stored powers (_powers), so a degree
    costs no product and only the squarings count.  s comes from log2 t +
    log2 norm and x = 2^-s t * norm is formed without t * norm, so no
    finite window overflows either.

    F = exp(X) - I = sum_j c_j P_j, c_j = x^j / j!, is one cumulative sum
    over the stack of powers, taken up to the first j at which two
    successive terms are both below 2^-53 of the partial sum (Al-Mohy &
    Higham's early stop).  The terms add up to at most e^x - 1 in norm and
    exp(X) is at least e^-x, so cancellation amplifies rounding by at most
    e^(2 * 2.43), about 130.

    F is squared, F <- 2F + F^2, without the identity, so its rounding
    stays relative to F while F is small (as in expm1).  The rounding of
    I + F, about n u ||I + F||_1, doubles with every squaring, and
    squaring stops once one more squaring would change I + F by less than
    the rounding it already carries: every mode has then either decayed
    or moves slower than the computation can resolve, and the remaining
    squarings would only amplify rounding (at r = k they would turn the
    conserved slow-mode population into 0 or inf for windows near the
    float range).
    """
    n = powers.shape[1]
    s = max(0, ceil(log2(t) + log2(norm) - log2(_TAYLOR_THETA[25])))
    x = ldexp(t, -s) * norm
    m = next((m for m in (10, 15, 20) if x <= _TAYLOR_THETA[m]), 25)
    c = np.cumprod(x / np.arange(1, m + 1))
    terms = c[:, None, None] * powers[:m]
    sums = terms.cumsum(axis=0)
    # the largest entry of each term and of each partial sum
    size = np.abs(terms.reshape(m, -1)).max(axis=1)
    top = np.abs(sums.reshape(m, -1)).max(axis=1)
    stop = size[:-1] + size[1:] <= _UNIT_ROUNDOFF * top[1:]
    j = stop.argmax()  # the first stop, or 0 when there is none
    F = sums[j + 1 if stop[j] else -1]
    eye = np.eye(n)
    tol = n * _UNIT_ROUNDOFF * np.abs(eye + F).sum(axis=0).max() if s else 0.0
    for _ in range(s):
        F2 = 2 * F + F @ F
        done = np.abs(F2 - F).sum(axis=0).max() <= tol
        F = F2
        if done:
            break
        tol *= 2
    E = eye + F
    E.setflags(write=False)
    return E


@lru_cache(maxsize=16)  # one entry per space in use
def _charges(space: SpaceSignature):
    """The charges (label, levels) of the vec(rho) indices of space, finest first.

    A label is a non-negative integer per index, and levels holds, one row
    each, the ket excitations that bound a class of it (a factor's level
    is its excitation, so an excited atom counts 1):
    - the per-mode orders (dn1, dn2) with the ket and bra levels of every
      factor after the two modes, bounding the ket's n1, n2 and total
      excitation N;
    - the field order d(n1 + n2) with those same levels, bounding the
      ket's total excitation N;
    - the total order q, the ket's N minus the bra's, bounding N.
    Every array is read-only.
    """
    dims = space.dims
    levels = np.indices(dims).reshape(len(dims), -1)
    ket = np.repeat(levels, space.dim, axis=1)  # index i D + j holds ket i, bra j
    bra = np.tile(levels, space.dim)
    top = np.array(dims)[:, None] - 1
    orders = ket - bra + top  # per factor, shifted to be non-negative
    kept, kept_dims = [*ket[2:], *bra[2:]], [*dims[2:], *dims[2:]]
    excitation = ket.sum(axis=0, keepdims=True)
    charges = (
        (np.ravel_multi_index([*orders[:2], *kept], [*(2 * top[:2, 0] + 1), *kept_dims]),
         np.concatenate([ket[:2], excitation])),
        (np.ravel_multi_index([orders[:2].sum(axis=0), *kept],
                              [2 * top[:2].sum() + 1, *kept_dims]), excitation),
        (orders.sum(axis=0), excitation),
    )
    for charge in charges:
        for a in charge:
            a.setflags(write=False)
    return charges


def _dense_part(A: _CSR, rows: np.ndarray, mask: np.ndarray, label: np.ndarray):
    """The dense part (R, B, mu) of A on a mask closed under A.

    R is the mask's indices and B = A_RR: every stored entry of a column in
    R has its row in R.  mu is None when B's diagonal is real.  Otherwise
    mu is, per row, the mean imaginary diagonal of the row's class (its
    value of label, a charge that A conserves), and the part holds
    B - i diag(mu) in place of B (see the module docstring).
    """
    R = np.flatnonzero(mask)
    keep = mask[A.indices]
    pos = np.cumsum(mask) - 1
    n = len(R)
    B = np.zeros((n, n), dtype=complex)
    B[pos[rows[keep]], pos[A.indices[keep]]] = A.data[keep]  # a _CSR row stores each column once
    mu = None
    if B.diagonal().imag.any():
        c = label[R]
        mu = np.bincount(c, B.diagonal().imag)[c] / np.bincount(c)[c]
        B[np.diag_indices(n)] -= 1j * mu
    return R, B, mu


def _powers(B: np.ndarray, norm: float) -> np.ndarray:
    """The read-only stack P_j = (B / norm)^j, j = 1..25, with P_j = P_(j-1) P_1."""
    P = np.empty((25,) + B.shape, dtype=complex)
    np.divide(B, norm, out=P[0])
    for j in range(1, 25):
        np.matmul(P[j - 1], P[0], out=P[j])
    P.setflags(write=False)
    return P


class _Plan(NamedTuple):
    """A window plan (_plan): parts lists (R, block, mu) per dense part,
    block an index into blocks, which holds (norm, powers) of each distinct
    B, with powers None when norm = ||B||_1 is 0; exponentials(t) is the
    tuple of exp(B t) per block (_exponentials)."""

    parts: list
    blocks: list
    exponentials: Callable


def _exponentials(blocks) -> Callable:
    """exp(B t) of every block (norm, powers) as a function of t, None
    where norm is 0, each read-only.

    An lru_cache over t: counting each array's bytes and _ENTRY_OVERHEAD,
    its windows fill at most half of _BLOCK_CACHE_BYTES, so the two plans
    that _plans keeps hold at most all of it.
    """
    size = sum(P[0].nbytes + _ENTRY_OVERHEAD for _, P in blocks if P is not None)

    @lru_cache(maxsize=_BLOCK_CACHE_BYTES // 2 // size if size else 0)
    def exponentials(t):
        return tuple(None if P is None else _expm_dense(t, norm, P) for norm, P in blocks)

    return exponentials


def _plan(A: _CSR, space: SpaceSignature, support: np.ndarray) -> _Plan:
    """The plan of exp(A t) v for every v whose nonzeros are the support mask.

    The plan takes the finest charge of _charges whose label every stored
    entry of A conserves and whose levels none raises.  Each class the
    support touches keeps its indices whose levels are at most the
    support's top in that class, a set closed under A.  If their union has
    at most _DENSE_MAX_DIM rows it is one dense part (_dense_part),
    otherwise each class is one.  Equal blocks B share one power stack and
    one exponential per window.  A generator without such a charge, or a
    class of more than _DENSE_MAX_DIM rows in a larger union, raises
    ValueError before any product: "expm" holds no block that large, and
    RK4 runs only when asked for.
    """
    rows, cols = A.row_of(), A.indices
    for label, levels in _charges(space):
        if np.array_equal(label[rows], label[cols]) and (levels[:, rows] <= levels[:, cols]).all():
            break
    else:
        raise ValueError(
            'the generator conserves no excitation charge, so method "expm" '
            'cannot split it into dense blocks; use method="rk4"'
        )
    mask = np.ones(len(label), dtype=bool)
    for level in levels:
        top = np.full(label.max() + 1, -1)
        np.maximum.at(top, label[support], level[support])
        mask &= level <= top[label]
    masks = [mask]
    if np.count_nonzero(mask) > _DENSE_MAX_DIM:
        sizes = np.bincount(label[mask], minlength=label.max() + 1)
        if sizes.max() > _DENSE_MAX_DIM:
            raise ValueError(
                f"the state's reachable block has a charge class of {sizes.max()} rows, "
                f'more than the {_DENSE_MAX_DIM} that method "expm" propagates '
                'densely; use method="rk4"'
            )
        masks = [mask & (label == c) for c in np.flatnonzero(sizes)]
    parts, blocks, index = [], [], {}  # index: B's bytes -> its position in blocks
    for m in masks:
        R, B, mu = _dense_part(A, rows, m, label)
        key = B.tobytes()
        if key not in index:
            index[key] = len(blocks)
            norm = float(np.abs(B).sum(axis=0).max())
            blocks.append((norm, _powers(B, norm) if norm else None))
        parts.append((R, index[key], mu))
    return _Plan(parts, blocks, _exponentials(blocks))


def _frame_phase(mu: np.ndarray, t: float) -> np.ndarray:
    """e^(i mu t) per row, with mu t reduced modulo 2 pi first."""
    top = float(np.abs(mu).max())
    if not isfinite(top * t):
        raise ValueError(
            f"window t = {t:g} s times the frame phase rate {top:.3e} 1/s "
            "overflows the frame phase"
        )
    return np.exp(1j * np.fmod(mu * t, 2 * np.pi))


class _Reuse:
    """Window work kept for one generator value, each None until a window
    needs it: the CSR (matrix), the last Fock-basis support (bytes) and
    its plan (a _Plan, with its exponentials), and (w, norm, powers) of the
    general loss channel (channel)."""

    matrix = support = plan = channel = None


@lru_cache(maxsize=2)  # a sweep's window generator plus one other
def _plans(key) -> _Reuse:
    """The window work kept for key = (type(params), params, frame, space),
    the value of a _LossGenerator.  A miss stores a fresh, empty entry and
    evicts the least recently used one before anything is assembled into
    the new one, so at most two CSRs and two plans are held."""
    return _Reuse()


def _reuse(L: SuperOperator) -> _Reuse:
    """The _plans entry of L's value; a fresh one, not kept, unless L is a
    _LossGenerator."""
    if not isinstance(L, _LossGenerator):
        return _Reuse()
    return _plans((type(L.params), L.params, L.frame, L.space))


def _propagate(L: SuperOperator, v: np.ndarray, t: float) -> np.ndarray:
    """exp(L t) v on the block R that supp(v) plans (_plan); zero elsewhere.

    The plan depends on L's CSR and supp(v) alone, and the entry of L's
    value (_reuse) keeps both; L.matrix is read only for a plan on an
    entry that holds no CSR yet, and a rate whose assembly overflows a
    float raises FloatingPointError there.  The plan keeps its blocks'
    exponentials for its recent windows (_exponentials); a miss sums the
    Taylor series over each block's stored powers.
    """
    support = v != 0
    pattern = support.tobytes()
    entry = _reuse(L)
    if entry.support != pattern:
        if entry.matrix is None:
            with np.errstate(over="raise", invalid="raise"):
                entry.matrix = L.matrix
        entry.plan = _plan(entry.matrix, L.space, support)
        entry.support = pattern
    E = entry.plan.exponentials(t)
    out = np.zeros_like(v)
    for R, block, mu in entry.plan.parts:
        w = v[R] if E[block] is None else E[block] @ v[R]
        out[R] = w if mu is None else _frame_phase(mu, t) * w
    return out


@lru_cache(maxsize=16)  # one entry per field-mode dimension in use
def _sectors(n: int):
    """(kets, lowered) of S on two field modes [n, n].

    kets are the Fock indices n1 n + n2 of S, sector by sector (n1 + n2 =
    0, 1, ..., n - 1, so sector m starts at m (m + 1) / 2), n1 ascending
    within one.  lowered[j] = (src, dst, c): a_j maps position src of S to
    dst with the factor c = sqrt(n_j).
    """
    total = np.repeat(np.arange(n), np.arange(1, n + 1))
    n1 = np.arange(len(total)) - total * (total + 1) // 2
    kets = n1 * n + total - n1
    pos = np.empty(n * n, dtype=int)
    pos[kets] = np.arange(len(kets))
    lowered = []
    for nj, step in ((n1, n), (total - n1, 1)):
        src = np.flatnonzero(nj)
        lowered.append((src, pos[kets[src] - step], np.sqrt(nj[src])))
    return kets, lowered


def _lower(X: np.ndarray, Q: np.ndarray, lowered) -> np.ndarray:
    """D(X) = sum_jj' Q_j'j a_j X a_j'^dag on S, by index shifts (_sectors)."""
    rows = []
    for src, dst, c in lowered:
        Y = np.zeros_like(X)
        Y[dst] = c[:, None] * X[src]
        rows.append(Y)
    out = np.zeros_like(X)
    for (src, dst, c), q in zip(lowered, Q):
        out[:, dst] += (q[0] * rows[0] + q[1] * rows[1])[:, src] * c
    return out


def _ladder(M: np.ndarray, n: int, phase) -> np.ndarray:
    """Gamma(M) on S, block diagonal in the sectors of _sectors.

    Sector m is multiplied by phase[m] unless phase is None.  Its column q
    is the image of |q, m - q>: b_1^dag / sqrt(q) of column q - 1 of
    sector m - 1, or for q = 0 b_2^dag / sqrt(m) of its column 0, with
    b_j^dag = sum_i M_ij a_i^dag.
    """
    size = n * (n + 1) // 2
    G = np.zeros((size, size), dtype=complex)
    G[0, 0] = 1.0
    block = G[:1, :1]
    for m in range(1, n):
        root = np.sqrt(np.arange(1, m + 1))
        up1 = np.zeros((m + 1, m), dtype=complex)
        up1[1:] = root[:, None] * block  # a_1^dag
        up2 = np.zeros((m + 1, m), dtype=complex)
        up2[:-1] = root[::-1, None] * block  # a_2^dag
        start = m * (m + 1) // 2
        block = G[start:start + m + 1, start:start + m + 1]
        block[:, 1:] = (M[0, 0] * up1 + M[1, 0] * up2) / root
        block[:, 0] = (M[0, 1] * up1[:, 0] + M[1, 1] * up2[:, 0]) / root[-1]
    if phase is not None:
        G *= np.repeat(phase, np.arange(1, n + 1))[:, None]
    return G


def _loss_matrices(L: _LossGenerator, t: float):
    """(M, Q, w): M = exp(-(Gamma^T + i (h - w I)) t), Q = I - M^dag M, w the mean mode frequency.

    For the symmetric builder they come from the rates k - r and k + r on
    the projectors onto the rows of liouvillian.normal_mode_transform,
    written with exact halves; r may exceed k by the parameters' rounding
    allowance, and the slow rate is then 0.  For the general builder M is
    _expm_dense over the 2x2 generator's power stack, kept by _reuse.
    """
    p = L.params
    if L.frame is not None:
        phase = np.exp(-1j * p.gamma)
        slow = 0.5 * np.array([[1.0, -phase], [-np.conj(phase), 1.0]])
        fast = np.eye(2) - slow
        rate_s, rate_f = max(p.k - p.r, 0.0) * t, (p.k + p.r) * t
        M = exp(-rate_s) * slow + exp(-rate_f) * fast
        Q = -expm1(-2 * rate_s) * slow - expm1(-2 * rate_f) * fast
        return M, Q, _frame_omega(p.omega, L.frame)
    entry = _reuse(L)
    if entry.channel is None:
        h = _mode_hamiltonian(p)
        w = float(h.trace().real) / 2
        B = -(p.damping_matrix().T + 1j * (h - w * np.eye(2)))
        norm = float(np.abs(B).sum(axis=0).max())
        entry.channel = w, norm, _powers(B, norm) if norm else None
    w, norm, powers = entry.channel
    M = _expm_dense(t, norm, powers) if norm else np.eye(2, dtype=complex)
    Q = np.eye(2) - M.conj().T @ M
    return M, (Q + Q.conj().T) / 2, w


def _propagate_channel(L: SuperOperator, rho: np.ndarray, t: float):
    """exp(L t) rho by the loss channel, summing the D^m(rho) / m! one at a
    time, or None where the channel does not run (module docstring)."""
    n = L.space.dims[0]
    if not (isinstance(L, _LossGenerator) and L.space.dims == (n, n)):
        return None
    kets, lowered = _sectors(n)
    inside = np.ix_(kets, kets)
    X = term = rho[inside]
    if np.count_nonzero(X) != np.count_nonzero(rho):  # rho has entries outside S
        return None
    M, Q, w = _loss_matrices(L, t)
    for m in range(1, n):
        term = _lower(term, Q, lowered) / m
        X = X + term
    G = _ladder(M, n, _frame_phase(-w * np.arange(n), t) if w else None)
    out = np.zeros_like(rho)
    out[inside] = G @ X @ G.conj().T
    return out


def evolve_master(rho0: DensityMatrix, L: SuperOperator, spec: EvolutionSpec) -> DensityMatrix:
    """Integrate d(rho)/dt = L rho for spec.duration.

    method "expm" takes the loss channel where it runs, and otherwise
    propagates densely the classes of a charge that L conserves which
    vec(rho0) touches (see the module docstring); entries outside them
    stay exactly zero.  It raises ValueError for a generator that keeps no
    charge or a class of more than _DENSE_MAX_DIM rows; method "rk4" runs
    any window.
    """
    if rho0.space != L.space:
        raise ValueError("space mismatch between state and superoperator")
    if spec.duration == 0:
        return rho0
    v0 = rho0.matrix.reshape(-1)
    if spec.method == "expm":
        out = _propagate_channel(L, rho0.matrix, spec.duration)
        v = _propagate(L, v0, spec.duration) if out is None else out.reshape(-1)
    else:
        step = _auto_step(L, spec.duration) if spec.step == "auto" else float(spec.step)
        v = _rk4(L.matrix, v0, spec.duration, step, check_step=spec.step != "auto")
    D = L.space.dim
    return DensityMatrix(v.reshape(D, D), rho0.space)


def unitary_propagator(H: Operator, duration: float) -> np.ndarray:
    """exp(-i H t) through the eigendecomposition of a Hermitian H; a
    non-finite H or duration, or a non-Hermitian H, raises ValueError.

    Reused by the bytes of H's matrix and the value of t (_unitary): the
    result is read-only and shared with every later caller that passes
    equal values.  lru_cache keeps no call that raised, so a refused H
    raises on every call.
    """
    return _unitary(H.matrix.tobytes(), H.space.dim, duration)


@lru_cache(maxsize=100)  # a benchmark sweep pass computes 26
def _unitary(H_bytes: bytes, dim: int, duration: float) -> np.ndarray:
    Hm = np.frombuffer(H_bytes, dtype=complex).reshape(dim, dim)
    if not (isfinite(duration) and np.isfinite(Hm).all()):
        raise ValueError(f"unitary_propagator needs a finite H and duration, got t = {duration}")
    herm_dev = float(np.abs(Hm - Hm.conj().T).max())
    if herm_dev > 1e-10 * max(float(np.abs(Hm).max()), 1.0):
        raise ValueError(f"Hamiltonian is not Hermitian (deviation {herm_dev:.3e})")
    w, V = np.linalg.eigh(Hm)
    U = (V * np.exp(-1j * w * duration)) @ V.conj().T
    U.setflags(write=False)
    return U


def _find_atom(space: SpaceSignature) -> int:
    idx = len(space.dims) - 1
    if space.dims[idx] != 2:
        raise ValueError("space has no trailing two-level atom subsystem")
    return idx


@np.errstate(over="raise", invalid="raise")
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
    A product that overflows a float raises FloatingPointError.
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


@np.errstate(over="raise", invalid="raise")
def free_hamiltonian(space: SpaceSignature, Omega: float, Omega_a: float) -> Operator:
    """Dispersive segment: free fields plus the detuned atom splitting; a
    product that overflows a float raises FloatingPointError."""
    atom = _find_atom(space)
    sz, _, _ = atom_ops(space, atom)
    n_total = number_op(space, 0)
    if len(space.dims) > 2:
        n_total = n_total + number_op(space, 1)
    return Omega * n_total + (Omega_a / 2.0) * sz
