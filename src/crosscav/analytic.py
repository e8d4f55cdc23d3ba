"""Closed-form results: single-excitation propagator, detection probabilities,
and the slow-mode (robust) state constructors.

All formulas live in the rotating frame; the measured probabilities are
frame-independent.  cosh/sinh forms are used instead of e^{+-rt}
differences to avoid cancellation at small rt.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, cosh, exp, factorial, isfinite, pi, sin, sinh, sqrt

import numpy as np

from .liouvillian import normal_mode_ops
from .tensor import Ket, SpaceSignature, basis_ket, make_space

_TWO_PI = 2.0 * pi


@dataclass(frozen=True, init=False, slots=True)
class PreparedStateParams:
    """Preparation angles: theta from the first Rabi pulse, phi from the
    dispersive wait, each stored once, reduced mod 2 pi."""

    theta: float
    phi: float

    def __init__(self, theta: float, phi: float):
        if not (isfinite(theta) and isfinite(phi)):
            raise ValueError("angles must be finite")
        object.__setattr__(self, "theta", float(theta) % _TWO_PI)
        object.__setattr__(self, "phi", float(phi) % _TWO_PI)


@dataclass(frozen=True)
class AmplitudePair:
    """Amplitudes of |1,0> and |0,1> inside the single-excitation branch."""

    u1: complex
    u2: complex

    def __post_init__(self):
        if abs(self.u1) ** 2 + abs(self.u2) ** 2 > 1 + 1e-12:
            raise ValueError("amplitude pair exceeds unit population")

    def as_vector(self) -> np.ndarray:
        return np.array([self.u1, self.u2], dtype=complex)


def _require_finite(**values):
    """Raise ValueError naming the first non-finite argument."""
    for name, value in values.items():
        if not isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _check_rates(k: float, r: float, t: float, gamma: float):
    # the sweeps call this once per point, so screen the sum first: it is
    # finite unless an argument is not, or finite arguments overflow it,
    # and only then do the named checks run
    if not isfinite(k + r + t + gamma):
        _require_finite(k=k, r=r, t=t, gamma=gamma)
    if t < 0:
        raise ValueError("time must be non-negative")
    if k < 0:
        raise ValueError("decay rate k must be non-negative")
    if not 0 <= r <= k * (1 + 1e-12):
        raise ValueError(f"need 0 <= r <= k, got r={r}, k={k}")


def two_mode_space(n_max: int = 1) -> SpaceSignature:
    return make_space([n_max + 1, n_max + 1])


def prepared_state(p: PreparedStateParams, n_max: int = 1) -> Ket:
    """cos(theta)|0,1> + e^{i phi} sin(theta)|1,0> on the two-mode space."""
    space = two_mode_space(n_max)
    v = np.zeros(space.dim, dtype=complex)
    v += cos(p.theta) * basis_ket(space, (0, 1)).amplitudes
    v += np.exp(1j * p.phi) * sin(p.theta) * basis_ket(space, (1, 0)).amplitudes
    return Ket(v, space)


def single_excitation_propagator(
    k: float, r: float, gamma: float, t: float, cross_factor: str = "phase"
) -> np.ndarray:
    """2x2 map M(t) with (u1, u2)(t) = M(t) (u1, u2)(0).

    M(t) = e^{-kt} [[cosh(rt), -e^{-i gamma} sinh(rt)],
                    [-e^{i gamma} sinh(rt), cosh(rt)]].

    cross_factor='scaled' multiplies the off-diagonal phase by r.  That
    variant is dimensionally inconsistent and disagrees with the
    master-equation oracle; it exists only so the validation suite can
    document the disagreement.
    """
    _check_rates(k, r, t, gamma)
    if cross_factor == "phase":
        off = 1.0
    elif cross_factor == "scaled":
        off = r
    else:
        raise ValueError(f"unknown cross_factor {cross_factor!r}")
    ch, sh = cosh(r * t), sinh(r * t)
    eg = np.exp(1j * gamma)
    return exp(-k * t) * np.array(
        [[ch, -off * sh / eg], [-off * sh * eg, ch]], dtype=complex
    )


def evolve_amplitudes(
    u0: AmplitudePair, k: float, r: float, gamma: float, t: float
) -> AmplitudePair:
    u = single_excitation_propagator(k, r, gamma, t) @ u0.as_vector()
    return AmplitudePair(complex(u[0]), complex(u[1]))


def prob_e_two_cavity(
    p: PreparedStateParams, k: float, r: float, gamma: float, T: float
) -> float:
    """Excited-state detection probability of the two-cavity experiment.

    Squared modulus of the single-excitation overlap conj(u(0)) . u(T)
    with u(0) = (e^{i phi} sin theta, cos theta); identical, by expansion,
    to (e^{-2kT}/4) |(e^{-rT}+e^{rT})
                     + sin(2 theta) cos(gamma + phi) (e^{-rT}-e^{rT})|^2.
    """
    _check_rates(k, r, T, gamma)
    amp = cosh(r * T) - sinh(r * T) * sin(2 * p.theta) * cos(gamma + p.phi)
    return exp(-2 * (k * T)) * amp * amp


def prob_e_single_cavity_resonant(k: float, r: float, gamma: float, T: float) -> float:
    """Single-cavity two-polarization experiment; equals the two-cavity
    probability at theta = pi/4, phi = pi/2."""
    _check_rates(k, r, T, gamma)
    amp = cosh(r * T) + sinh(r * T) * sin(gamma)
    return exp(-2 * (k * T)) * amp * amp


def prob_e_single_cavity_detuned(k: float, T: float) -> float:
    """Reference experiment with a single resonant mode: e^{-2kT}."""
    if not (isfinite(k) and isfinite(T)):
        _require_finite(k=k, T=T)
    if T < 0 or k < 0:
        raise ValueError("k and T must be non-negative")
    return exp(-2 * (k * T))


def discriminator_D(k: float, r: float, gamma: float, T: float) -> float:
    """Cross-decay signal: resonant minus detuned detection probability."""
    return prob_e_single_cavity_resonant(k, r, gamma, T) - prob_e_single_cavity_detuned(
        k, T
    )


def robust_entangled_state(gamma: float, n_max: int = 1) -> Ket:
    """(|1,0> - e^{i gamma}|0,1>)/sqrt(2), i.e. the slow mode's one-photon state."""
    _require_finite(gamma=gamma)
    space = two_mode_space(n_max)
    v = np.zeros(space.dim, dtype=complex)
    v += basis_ket(space, (1, 0)).amplitudes / sqrt(2.0)
    v -= np.exp(1j * gamma) * basis_ket(space, (0, 1)).amplitudes / sqrt(2.0)
    return Ket(v, space)


def robust_coherent_state(gamma: float, v: complex, n_max: int = 8) -> Ket:
    """Two-mode coherent state with amplitudes (v, -e^{i gamma} v), truncated
    by total excitation: n1 + n2 <= n_max.

    The product coefficients v^n1/sqrt(n1!) (-e^{i gamma} v)^n2/sqrt(n2!) are
    kept where n1 + n2 <= n_max, then normalized.  Their n-photon part is
    alpha^n/sqrt(n!) |n>_slow with alpha = sqrt(2) v, so the state is exactly
    sum_{n <= n_max} alpha^n/sqrt(n!) |n>_slow, normalized (|n>_slow as in
    robust_fock_state).  The subspace n1 + n2 <= n_max is closed under the
    normal-mode rotation, so at r = k the state is stationary up to
    rounding; a per-mode truncation is not, and leaks.

    At r < k the dropped tail n > n_max shows: the fidelity after T departs
    from the untruncated closed form exp(-2|v|^2 (1 - e^{-(k-r)T})^2), at
    n_max = 8, k = 1000 /s, r = 500 /s and T = 1 ms by 5e-12 at |v| = 0.3
    and by 2.9e-4 at |v| = 0.9.  The guard |v|^2 <= n_max/4 was sized for a
    per-mode truncation and allows much more: the slow mode holds 2|v|^2
    photons on average, so at n_max = 8 and |v|^2 just under 2 the dropped
    Poisson tail is 2.1 % of the weight, and with gamma = 1.1 the same
    fidelity departs by 3.8e-2 (9.2e-3 at |v| = 1.2).
    """
    _require_finite(gamma=gamma)
    v = complex(v)
    if abs(v) ** 2 > n_max / 4.0:
        raise ValueError(
            f"|v|^2 = {abs(v)**2:.3f} too large for truncation at n_max = {n_max}"
        )
    space = two_mode_space(n_max)

    def coeffs(alpha):
        return np.array(
            [alpha**n / sqrt(factorial(n)) for n in range(n_max + 1)], dtype=complex
        )

    n = np.arange(n_max + 1)
    amps = np.outer(coeffs(v), coeffs(-np.exp(1j * gamma) * v))
    amps[np.add.outer(n, n) > n_max] = 0
    return Ket(amps.ravel() / np.linalg.norm(amps), space)


def robust_fock_state(gamma: float, n: int, n_max: int) -> Ket:
    """Normalized n-fold slow-mode excitation of the two-mode vacuum."""
    _require_finite(gamma=gamma)
    if n < 0:
        raise ValueError("excitation count must be non-negative")
    if n > n_max:
        raise ValueError(f"n = {n} exceeds the truncation n_max = {n_max}")
    space = two_mode_space(n_max)
    A1, _ = normal_mode_ops(space, gamma)
    v = basis_ket(space, (0, 0)).amplitudes
    A1d = A1.matrix.conj().T
    for _ in range(n):
        v = A1d @ v
    return Ket(v / np.linalg.norm(v), space)
