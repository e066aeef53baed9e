"""Confluent Heun equation: parameters, residual operator, Frobenius oracle,
and the z -> 1-z parameter transform.

The equation used throughout:

    u'' + (gamma/z + delta/(z-1) + eps) u' + (alpha z - q)/(z(z-1)) u = 0

with regular singular points z = 0, 1 and an irregular point at infinity.
The Frobenius series about z = 0 is the package's independent reference
solution; it is deliberately implemented with no shared code with the
Kummer-basis expansions.
"""

from __future__ import annotations

import cmath
import warnings
from dataclasses import dataclass

from .errors import (NonConvergenceError, PoleAtGammaError, SingularPointError,
                     TruncationWarning)
from .kummer import nonpositive_int

SINGULAR_TOL = 1e-12
TAIL_WARN = 1e-10


@dataclass(frozen=True)
class CheParams:
    """The five equation parameters. All may be complex.

    eps != 0 is required by every expansion family but is enforced at
    expansion time, not here: the residual operator and the Frobenius
    oracle are perfectly happy with eps = 0. Every field must be finite.
    """

    gamma: complex
    delta: complex
    epsilon: complex
    alpha: complex
    q: complex

    def __post_init__(self):
        for name in ("gamma", "delta", "epsilon", "alpha", "q"):
            value = complex(getattr(self, name))
            if not cmath.isfinite(value):
                raise ValueError(f"parameter {name} = {value} is not finite")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class LocalSeries:
    """Power-series solution sum c_k z^k analytic at z = 0, c_0 = 1."""

    params: CheParams
    coefficients: tuple


def residual(params: CheParams, u, u1, u2, z):
    """Left-hand side of the equation at z given u and its two derivatives."""
    z = complex(z)
    if abs(z) <= SINGULAR_TOL or abs(z - 1) <= SINGULAR_TOL:
        raise SingularPointError(f"z={z} is a singular point of the equation")
    p = params
    return (u2
            + (p.gamma / z + p.delta / (z - 1) + p.epsilon) * u1
            + (p.alpha * z - p.q) / (z * (z - 1)) * u)


def relative_residual(params: CheParams, u, u1, u2, z):
    """|residual| / max(1, |u|, |u'|, |u''|) at z; None at z = 0 or 1, where
    the value is still meaningful but the operator is singular."""
    try:
        r = residual(params, u, u1, u2, z)
    except SingularPointError:
        return None
    return abs(r) / max(1.0, abs(u), abs(u1), abs(u2))


def frobenius_coefficients(params: CheParams, K: int) -> LocalSeries:
    """First K+1 coefficients of the analytic-at-0 solution, c_0 = 1.

    Multiplying the equation by z(z-1) and inserting sum c_k z^k gives

        (k+1)(k+gamma) c_{k+1}
            = [k(k-1) + k(gamma+delta-eps) - q] c_k + [eps(k-1)+alpha] c_{k-1}

    so the coefficients follow by forward substitution. gamma must not be
    zero or a negative integer (the k+gamma factor would vanish).
    """
    if K < 1:
        raise ValueError("K must be at least 1")
    p = params
    if nonpositive_int(p.gamma) is not None:
        raise PoleAtGammaError(
            f"gamma={p.gamma} is zero or a negative integer; "
            f"no analytic-at-0 power series")
    c = [1.0 + 0j]
    gde = p.gamma + p.delta - p.epsilon
    for k in range(K):
        prev = c[k - 1] if k >= 1 else 0j
        num = (k * (k - 1) + k * gde - p.q) * c[k] + (p.epsilon * (k - 1) + p.alpha) * prev
        c.append(num / ((k + 1) * (k + p.gamma)))
    return LocalSeries(params=params, coefficients=tuple(c))


def frobenius_eval(series: LocalSeries, z):
    """(u, u', u'') of the partial sum at z, term-wise differentiation.

    Intended for |z| < 1; past that the series diverges: TruncationWarning
    above a 1e-10 last-term tail estimate, NonConvergenceError on overflow.
    """
    z = complex(z)
    c = series.coefficients
    u = u1 = u2 = 0j
    # z^k, z^(k-1) and z^(k-2) as running powers, 0 below k = 1 and 2:
    # nothing is divided by z, which may be 0 or square to 0
    zk, zk1, zk2 = 1.0 + 0j, 0j, 0j
    for k, ck in enumerate(c):
        u += ck * zk
        u1 += k * ck * zk1
        u2 += k * (k - 1) * ck * zk2
        zk, zk1, zk2 = zk * z, zk, zk1
    K = len(c) - 1
    try:
        tail = abs(c[K]) * abs(z) ** K / max(1e-300, abs(u))
    except OverflowError:  # |z|^K or |u| past the double range
        tail = float("inf")
    if not all(map(cmath.isfinite, (u, u1, u2, tail))):
        raise NonConvergenceError(
            f"power series through z^{K} overflows at |z| = {abs(z):.3g}")
    if tail > TAIL_WARN:
        warnings.warn(
            f"power-series tail estimate {tail:.3e} exceeds {TAIL_WARN}",
            TruncationWarning,
            stacklevel=2,
        )
    return u, u1, u2


def transform_1_minus_z(params: CheParams) -> CheParams:
    """Parameters of the equation satisfied by w -> u(1-w).

    Substituting z = 1-w swaps the roles of the two regular points:
    (gamma', delta', eps', alpha', q') = (delta, gamma, -eps, -alpha, q-alpha).
    Applying the map twice returns the input exactly.
    """
    p = params
    return CheParams(gamma=p.delta, delta=p.gamma, epsilon=-p.epsilon,
                     alpha=-p.alpha, q=p.q - p.alpha)
