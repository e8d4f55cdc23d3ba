"""Cross-decay Liouvillian for two field modes sharing a reservoir.

The generator acts on row-major vectorized density matrices: with
vec(rho) = rho.reshape(-1), a sandwich map rho -> A rho B becomes
kron(A, B.T).  One routine, _gksl, assembles every generator: each
sandwich term gives the COO triplets of its dense D x D factors' nonzero
pairs, and _CSR.from_coo sums them all in one stable sort, so no
Kronecker product is ever formed.
Superoperator matrices are stored in _CSR, a small numpy-only CSR record,
so the n_max = 8 coherent-state space (D = 81, D^2 = 6561) stays cheap
and the package runs without scipy.

A generator without H is a _LossGenerator, made fresh by every builder
call: it keeps the builder's parameters (and frame) and makes its CSR on
the first read of .matrix.  Only then does _general run (and
SymmetricDecayParameters.to_general, with its positivity check), once per
generator, and the arrays are marked read-only.  So
integrator.evolve_master can run a two-mode window from the 2x2 Gamma and
h alone (its loss channel) and never assemble the D^2-row generator, and
the integrator, which keys its window plans by those values, reuses the
CSR of an equal generator without reading .matrix again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .tensor import (
    DensityMatrix,
    Operator,
    SpaceSignature,
    annihilation_op,
)

_TWO_PI = 2.0 * np.pi
_PSD_TOL = 1e-12


def _require_finite(params):
    for name, value in vars(params).items():
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class DecayParameters:
    """Full set of decay rates and frequency shifts for two modes.

    k11/k22 are the local decay rates, k12/k21 the cross decay rates,
    d11..d21 the frequency shifts, omega1/omega2 the bare mode frequencies.
    All rates in 1/s, frequencies in rad/s.
    """

    k11: float
    k22: float
    k12: float = 0.0
    k21: float = 0.0
    d11: float = 0.0
    d22: float = 0.0
    d12: float = 0.0
    d21: float = 0.0
    omega1: float = 0.0
    omega2: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.k11 < 0 or self.k22 < 0:
            raise ValueError("local decay rates must be non-negative")
        dm = self.damping_matrix()
        scale = max(abs(dm).max(), 1.0)
        min_eig = float(np.linalg.eigvalsh(dm).min())
        if min_eig < -_PSD_TOL * scale:
            raise ValueError(
                "damping matrix is not positive semidefinite "
                f"(min eigenvalue {min_eig:.3e}): {dm.tolist()}"
            )

    def damping_matrix(self) -> np.ndarray:
        """2x2 matrix whose positivity makes the generator a legal channel.

        Off-diagonal (k12 + k21)/2 + i(d12 - d21)/2; the two coincide with
        k12 + i(d12 - d21)/2 whenever k12 = k21, which is the physically
        motivated near-symmetric regime.
        """
        kappa = 0.5 * (self.k12 + self.k21) + 0.5j * (self.d12 - self.d21)
        return np.array(
            [[self.k11, kappa], [np.conj(kappa), self.k22]], dtype=complex
        )


@dataclass(frozen=True)
class SymmetricDecayParameters:
    """Symmetric-cavity form: equal local rates k, cross term r e^{i gamma}."""

    k: float
    r: float
    gamma: float
    omega: float = 0.0

    def __post_init__(self):
        _require_finite(self)
        if self.k < 0:
            raise ValueError("decay rate k must be non-negative")
        r, gamma = self.r, self.gamma
        if r < 0:
            # polar form is degenerate; fold the sign into the phase
            r, gamma = -r, gamma + np.pi
        gamma = gamma % _TWO_PI
        object.__setattr__(self, "r", float(r))
        object.__setattr__(self, "gamma", float(gamma))
        if self.r > self.k * (1 + 1e-12):
            raise ValueError(
                f"cross rate r={self.r} exceeds k={self.k}; generator not positive"
            )

    def to_general(self, frame: str = "lab") -> DecayParameters:
        """The general parameters in the given frame."""
        omega = _frame_omega(self.omega, frame)
        return DecayParameters(
            k11=self.k,
            k22=self.k,
            k12=self.r * np.cos(self.gamma),
            k21=self.r * np.cos(self.gamma),
            d12=self.r * np.sin(self.gamma),
            d21=-self.r * np.sin(self.gamma),
            omega1=omega,
            omega2=omega,
        )


def _frame_omega(omega: float, frame: str) -> float:
    if frame == "rotating":
        return 0.0
    if frame == "lab":
        return float(omega)
    raise ValueError(f"frame must be 'lab' or 'rotating', got {frame!r}")


@dataclass(frozen=True, eq=False)
class _CSR:
    """Compressed sparse rows of a complex matrix: the generators' storage.

    Row i stores the columns indices[indptr[i]:indptr[i + 1]], ascending,
    with the values data[indptr[i]:indptr[i + 1]]: no duplicates and no
    stored zeros.  indices and indptr are int32.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple

    @classmethod
    def from_coo(cls, rows, cols, vals, shape) -> "_CSR":
        """Sum the triplets (rows, cols, vals) into CSR, dropping exact zeros.

        Duplicates are summed in the order given; an entry whose sum is
        exactly zero is not stored.  Every CSR of the package is made here:
        by _gksl, from_dense and the sums of two records.
        """
        n_rows, n_cols = shape
        key = np.asarray(rows, dtype=np.int64) * n_cols + np.asarray(cols)
        order = np.argsort(key, kind="stable")
        key = key[order]
        starts = np.flatnonzero(np.diff(key, prepend=-1))
        data = np.add.reduceat(np.asarray(vals, dtype=complex)[order], starts)
        keep = data != 0
        key = key[starts[keep]]
        counts = np.bincount(key // n_cols, minlength=n_rows)
        indptr = np.zeros(n_rows + 1, dtype=np.int32)
        np.cumsum(counts, out=indptr[1:])
        return cls(data[keep], (key % n_cols).astype(np.int32), indptr, (n_rows, n_cols))

    @classmethod
    def from_dense(cls, a) -> "_CSR":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError(f"expected a dense 2-D matrix, got shape {a.shape}")
        rows, cols = np.nonzero(a)
        return cls.from_coo(rows, cols, a[rows, cols], a.shape)

    @property
    def nnz(self) -> int:
        return len(self.data)

    def row_of(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(
            np.arange(self.shape[0], dtype=np.int32), np.diff(self.indptr)
        )

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=complex)
        out[self.row_of(), self.indices] = self.data
        return out

    def diagonal(self) -> np.ndarray:
        rows = self.row_of()
        on = rows == self.indices
        out = np.zeros(min(self.shape), dtype=complex)
        out[rows[on]] = self.data[on]
        return out

    def __matmul__(self, x):
        """The product with a vector or a matrix, row by row.

        The package's only sparse product: RK4 and apply_liouvillian
        both multiply through it.  Each row is summed
        with np.add.reduceat, which adds a row's first term to the sum of
        the others (a pairwise sum for long rows), not in column order.
        """
        x = np.asarray(x)
        out = np.zeros((self.shape[0], *x.shape[1:]), dtype=complex)
        filled = np.flatnonzero(np.diff(self.indptr))
        if filled.size:
            data = self.data.reshape(-1, *(1,) * (x.ndim - 1))
            out[filled] = np.add.reduceat(data * x[self.indices], self.indptr[filled])
        return out

    def _combine(self, other, sign):
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} and {other.shape}")
        return _CSR.from_coo(
            np.concatenate([self.row_of(), other.row_of()]),
            np.concatenate([self.indices, other.indices]),
            np.concatenate([self.data, sign * other.data]),
            self.shape,
        )

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)


@dataclass(frozen=True, eq=False)
class SuperOperator:
    """D^2 x D^2 generator on row-major vectorized density matrices.

    matrix is a _CSR; a dense array is converted to one.  Generators
    compare and hash by identity.
    """

    matrix: _CSR
    space: SpaceSignature

    def __post_init__(self):
        if not isinstance(self.matrix, _CSR):
            object.__setattr__(self, "matrix", _CSR.from_dense(self.matrix))
        d2 = self.space.dim**2
        if self.matrix.shape != (d2, d2):
            raise ValueError(
                f"superoperator shape {self.matrix.shape} does not match D^2={d2}"
            )

    def __add__(self, other):
        if self.space != other.space:
            raise ValueError("space mismatch")
        return SuperOperator(self.matrix + other.matrix, self.space)


class _LossGenerator(SuperOperator):
    """A builder's generator without H, assembled on the first read of matrix.

    params and frame are the builder's: SymmetricDecayParameters and the
    frame, or DecayParameters and None for build_general_liouvillian.  The
    first read of matrix runs _general once and marks the CSR read-only.
    """

    def __init__(self, params, frame, space: SpaceSignature):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "space", space)

    @cached_property
    def matrix(self) -> _CSR:
        p = self.params if self.frame is None else self.params.to_general(self.frame)
        m = _general(p, self.space).matrix
        for a in (m.data, m.indices, m.indptr):
            a.setflags(write=False)
        return m

    def __repr__(self):
        return f"_LossGenerator({self.params!r}, {self.frame!r}, {self.space!r})"


@dataclass(frozen=True)
class EnvironmentSpec:
    """Discrete bath: entries (alpha1, alpha2, omega_k), memory cutoff tau_c."""

    entries: tuple
    tau_c: float
    Omega1: float
    Omega2: float

    def __post_init__(self):
        if self.tau_c <= 0:
            raise ValueError("tau_c must be positive")
        entries = tuple(
            (complex(a1), complex(a2), float(w)) for a1, a2, w in self.entries
        )
        if not entries:
            raise ValueError("environment needs at least one entry")
        object.__setattr__(self, "entries", entries)


def normal_mode_transform(gamma: float) -> np.ndarray:
    """Unitary mixing (a1, a2) -> (A1, A2) set by the cross-decay phase.

    Its rows are the eigenvectors of the symmetric damping matrix: the
    first (slow, rate k - r) and the second (fast, rate k + r).
    """
    return np.array(
        [[1.0, -np.exp(-1j * gamma)], [np.exp(1j * gamma), 1.0]], dtype=complex
    ) / np.sqrt(2.0)


def normal_mode_ops(space: SpaceSignature, gamma: float):
    """Slow/fast collective lowering operators (A1, A2) on the given space."""
    a1 = annihilation_op(space, 0).matrix
    a2 = annihilation_op(space, 1).matrix
    m = normal_mode_transform(gamma)
    return tuple(Operator(u1 * a1 + u2 * a2, space) for u1, u2 in m)


def _gksl(space: SpaceSignature, ops, gamma, h, H=None) -> SuperOperator:
    """GKSL generator of the lowering operators ops on row-major vec(rho).

    rho -> sum_ij gamma_ij (2 o_i rho o_j^dag - {o_j^dag o_i, rho}) - i[H_o + H, rho]
    with H_o = sum_ij h_ij o_i^dag o_j and H an optional full-space
    Hamiltonian matrix.  Every term is a sandwich A rho B, whose vectorized
    form is kron(A, B.T): the jumps 2 gamma_ij o_i rho o_j^dag, and -K rho
    and -rho K^dag with the dense K = sum_ij (gamma_ij + i h_ji) o_j^dag o_i
    + iH.

    Entry (a, c) of A times entry (d, b) of B lands at row a*D + b, column
    c*D + d.  Each sandwich gives the triplets of its factors' nonzero
    pairs, in the order above, and _CSR.from_coo sums them all in one
    stable sort, so no Kronecker product is formed.  Entries that cancel
    exactly are dropped.
    """
    D = space.dim
    K = np.zeros((D, D), dtype=complex) if H is None else 1j * np.asarray(H)
    adjoints = [o.conj().T for o in ops]
    sandwiches = []
    for i, oi in enumerate(ops):
        for j, oj_dag in enumerate(adjoints):
            P = oj_dag @ oi
            if i == j:
                # a fused multiply-add in the dense product can leave an
                # imaginary rounding residue on the diagonal of o^dag o
                P = 0.5 * (P + P.conj().T)
            K = K + complex(gamma[i, j] + 1j * h[j, i]) * P
            if gamma[i, j] != 0:
                sandwiches.append((2 * gamma[i, j], oi, oj_dag))
    eye = np.eye(D, dtype=complex)
    sandwiches += [(-1, K, eye), (-1, eye, K.conj().T)]
    rows, cols, vals = [], [], []
    for coef, A, B in sandwiches:
        ra, ca = np.nonzero(A)
        cb, rb = np.nonzero(B)
        rows.append((ra[:, None] * D + rb).ravel())
        cols.append((ca[:, None] * D + cb).ravel())
        vals.append(coef * np.multiply.outer(A[ra, ca], B[cb, rb]).ravel())
    triplets = (np.concatenate(x) for x in (rows, cols, vals))
    return SuperOperator(_CSR.from_coo(*triplets, (D * D, D * D)), space)


def _require_field_modes(space: SpaceSignature):
    if len(space.dims) < 2:
        raise ValueError("space must contain the two field modes")


def _mode_hamiltonian(p: DecayParameters) -> np.ndarray:
    """The 2x2 mode Hamiltonian h of build_general_liouvillian."""
    c = 0.5 * (p.d12 + p.d21) + 0.5j * (p.k12 - p.k21)
    return np.array([[p.omega1 - p.d11, -c], [-np.conj(c), p.omega2 - p.d22]])


def _general(params: DecayParameters, space: SpaceSignature, H=None) -> SuperOperator:
    """A fresh build_general_liouvillian generator; H is a matrix or None."""
    _require_field_modes(space)
    ops = [annihilation_op(space, 0).matrix, annihilation_op(space, 1).matrix]
    return _gksl(space, ops, params.damping_matrix(), _mode_hamiltonian(params), H)


def build_general_liouvillian(
    params: DecayParameters, space: SpaceSignature, H: Operator = None
) -> SuperOperator:
    """Zero-temperature cross-decay generator of the two field modes.

    GKSL form with lowering operators (a1, a2):
    rho -> sum_ij G_ij (2 a_i rho a_j^dag - {a_j^dag a_i, rho}) - i[H_m + H, rho],
    where G = params.damping_matrix() = [[k11, kappa], [conj kappa, k22]],
    kappa = (k12 + k21)/2 + i(d12 - d21)/2, and H_m = sum_ij h_ij a_i^dag a_j
    with h = [[omega1 - d11, -c], [-conj c, omega2 - d22]],
    c = (d12 + d21)/2 + i(k12 - k21)/2, so the shifts d11 and d22 lower the
    mode frequencies.  Any subsystems beyond the first two (e.g. an atom
    factor) are left untouched; omega1 = omega2 = 0 gives rotating-frame
    dynamics.  H, when given, is an extra full-space Hamiltonian, such as
    an atom-field pulse that runs while the modes decay; None means zero.

    Without H the result is a fresh _LossGenerator that keeps params; its
    CSR is assembled on the first read of .matrix, with read-only arrays.
    A build with H is assembled at once, with writable arrays.
    """
    if H is None:
        _require_field_modes(space)
        return _LossGenerator(params, None, space)
    if H.space != space:
        raise ValueError(f"Hamiltonian space {H.space.dims} does not match {space.dims}")
    return _general(params, space, H.matrix)


def build_symmetric_liouvillian(
    params: SymmetricDecayParameters,
    space: SpaceSignature,
    frame: str = "rotating",
    H: Operator = None,
) -> SuperOperator:
    """Symmetric-cavity generator: k11 = k22 = k, cross term r e^{i gamma}.

    In the rotating frame the -i*Omega number commutators are dropped;
    measured probabilities are frame-independent.  H is an optional extra
    full-space Hamiltonian, as in build_general_liouvillian.  Without H the
    result is a fresh _LossGenerator that keeps params and frame; its CSR
    is assembled on the first read of .matrix, when to_general runs.
    """
    if H is None:
        # a bad space or frame fails here, not at the first read of .matrix
        _require_field_modes(space)
        _frame_omega(params.omega, frame)
        return _LossGenerator(params, frame, space)
    return build_general_liouvillian(params.to_general(frame), space, H)


def apply_liouvillian(L: SuperOperator, rho) -> np.ndarray:
    """Devectorized action d(rho)/dt; accepts a DensityMatrix or raw matrix."""
    mat = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho)
    if isinstance(rho, DensityMatrix) and rho.space != L.space:
        raise ValueError("space mismatch between superoperator and state")
    D = L.space.dim
    if mat.shape != (D, D):
        raise ValueError(f"state shape {mat.shape} does not match space dimension {D}")
    return (L.matrix @ mat.reshape(-1)).reshape(D, D)


def _window_integral(x: float, tau_c: float) -> complex:
    """Integral of e^{i x tau} over [0, tau_c]; the x -> 0 limit is tau_c."""
    if abs(x) * tau_c < 1e-12:
        return complex(tau_c)
    return (np.exp(1j * x * tau_c) - 1.0) / (1j * x)


def cross_rates_from_environment(env: EnvironmentSpec) -> DecayParameters:
    """Decay constants k_ij + i d_ij summed over a discrete bath spectrum."""
    c = {}
    probes = {1: env.Omega1, 2: env.Omega2}
    for i in (1, 2):
        for j in (1, 2):
            total = 0.0 + 0.0j
            for a1, a2, wk in env.entries:
                alpha = {1: a1, 2: a2}
                total += alpha[i] * np.conj(alpha[j]) * _window_integral(
                    wk - probes[j], env.tau_c
                )
            c[(i, j)] = total
    return DecayParameters(
        k11=c[(1, 1)].real,
        k22=c[(2, 2)].real,
        k12=c[(1, 2)].real,
        k21=c[(2, 1)].real,
        d11=c[(1, 1)].imag,
        d22=c[(2, 2)].imag,
        d12=c[(1, 2)].imag,
        d21=c[(2, 1)].imag,
        omega1=env.Omega1,
        omega2=env.Omega2,
    )


def decompose_symmetric(
    params: SymmetricDecayParameters,
    space: SpaceSignature,
    frame: str = "rotating",
):
    """Split the symmetric generator into slow (k - r) and fast (k + r) channels.

    Each channel is the GKSL generator of one normal mode (A1 or A2 from
    normal_mode_ops) with H = omega A^dag A.  The rates are exactly k - r
    and k + r, so L1 vanishes at r = k, and L1 + L2 reproduces the builder
    in either frame.

    In the lab frame the stored pattern depends on rounding.  Where an
    entry of -i omega [A^dag A, .] cancels in exact arithmetic, as on the
    degenerate diagonal -i omega (P[a, a] - P[b, b]) with P = A^dag A, the
    dense product leaves a residue of order omega * eps, and _CSR.from_coo
    drops only exact zeros: at omega = 3e4, r = k and gamma = 2.3 the slow
    channel on [9, 9] stores 27110 entries, 302 of them below 1e-9.  The
    residues are 1e-16 relative to the channel, so every value is exact to
    rounding; only the count of stored entries is not fixed.
    """
    omega = np.array([[_frame_omega(params.omega, frame)]])
    A1, A2 = normal_mode_ops(space, params.gamma)
    L1 = _gksl(space, [A1.matrix], np.array([[params.k - params.r]]), omega)
    L2 = _gksl(space, [A2.matrix], np.array([[params.k + params.r]]), omega)
    return L1, L2
