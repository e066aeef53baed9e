"""Kummer confluent hypergeometric function 1F1 and its recurrence identities.

Everything here is double-precision complex, computed by the direct power
series. Callers in this package do not all stay at small argument: the
spectrum ladders evaluate at |x| of order 1, the two-state closed form
reaches |x| of about 20, and a wide two-state window reaches 100. Accuracy
degrades as |x| grows, most at Re x < 0 where the terms cancel; a
LargeArgumentWarning is issued beyond LARGE_X, though digits are already
lost below it. No asymptotic branch is provided.
"""

from __future__ import annotations

import cmath
import warnings

from .errors import LargeArgumentWarning, NonConvergenceError, PoleAtLowerParameterError

INT_TOL = 1e-9          # |value - m| below this treats value as the integer m
DEFAULT_TOL = 1e-14     # relative tail target of the power series
DEFAULT_MAX_TERMS = 10000
LARGE_X = 30.0          # beyond this the direct series loses digits; warn

IDENTITY_IDS = ("D6", "R14", "R27", "R28", "R29", "R46", "R47")


def nonpositive_int(value) -> int | None:
    """Return m >= 0 if value is the non-positive integer -m within INT_TOL,
    else None."""
    z = complex(value)
    m = round(z.real)
    if m > 0:
        return None
    if abs(z - m) <= INT_TOL:
        return -m
    return None


def _check_lower_parameter(a, c) -> int | None:
    """Enforce the pole rule on c. Returns the polynomial degree m when a is
    a non-positive integer (termination applies), else None."""
    m = nonpositive_int(a)
    p = nonpositive_int(c)
    if p is not None:
        if m is None or m > p:
            raise PoleAtLowerParameterError(
                f"1F1 lower parameter c={c} is a non-positive integer and the "
                f"series does not terminate before the pole (a={a})"
            )
    return m


def eval_1f1(a, c, x, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """Sum 1F1(a; c; x) = sum_k (a)_k/(c)_k x^k/k!.

    Truncates when the relative tail estimate (two consecutive terms) falls
    below tol. If a is a non-positive integer -m the exact degree-m
    polynomial is returned. NonConvergenceError where the sum overflows;
    ValueError naming the argument where a, c or x is not finite.
    LargeArgumentWarning beyond LARGE_X, after those checks and the pole
    rule.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    a, c, x = complex(a), complex(c), complex(x)
    if not (cmath.isfinite(a) and cmath.isfinite(c) and cmath.isfinite(x)):
        bad = next(n for n, v in zip("acx", (a, c, x)) if not cmath.isfinite(v))
        raise ValueError(f"1F1 argument {bad} is not finite: {a=}, {c=}, {x=}")
    m = _check_lower_parameter(a, c)
    if abs(x) > LARGE_X:
        warnings.warn(
            f"|x|={abs(x):.3g} > {LARGE_X}: direct 1F1 series may lose accuracy",
            LargeArgumentWarning,
            stacklevel=2,
        )
    if x == 0:
        return complex(1.0)
    if m is not None:
        # exact polynomial of degree m; no tolerance involved
        total = term = complex(1.0)
        for k in range(m):
            term *= (a + k) * x / ((c + k) * (k + 1))
            total += term
        return _finite(total, a, c, x)
    total = term = complex(1.0)
    small_streak = 0
    for k in range(max_terms):
        term *= (a + k) * x / ((c + k) * (k + 1))
        total += term
        if abs(term) <= tol * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return _finite(total, a, c, x)
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"1F1({a}; {c}; {x}) did not reach tol={tol} within {max_terms} terms"
    )


def _finite(total: complex, a, c, x) -> complex:
    if not cmath.isfinite(total):
        raise NonConvergenceError(f"1F1({a}; {c}; {x}) overflows to {total}")
    return total


def _series_derivative(a, c, x, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """Term-wise derivative sum_{k>=1} (a)_k/(c)_k x^{k-1}/(k-1)!.

    Term k is a/c times term k-1 of 1F1(a+1; c+1; x), the series the
    parameter-shift rule sums, so D6 checks only rounding order and the
    stopping point: it is not an independent computation.
    """
    a, c, x = complex(a), complex(c), complex(x)
    m = _check_lower_parameter(a, c)
    coeff = a / c  # (a)_1/(c)_1
    if m == 0:
        return complex(0.0)
    if x == 0:
        return coeff
    total = term = coeff
    small_streak = 0
    for k in range(1, max_terms):
        if m is not None and k >= m:
            return total
        term *= (a + k) * x / ((c + k) * k)
        total += term
        if abs(term) <= tol * max(1.0, abs(total)):
            small_streak += 1
            if small_streak >= 2:
                return total
        else:
            small_streak = 0
    raise NonConvergenceError(
        f"1F1'({a}; {c}; {x}) did not reach tol={tol} within {max_terms} terms"
    )


def identity_residual(identity_id: str, a, c, x) -> float:
    """Relative residual |LHS - RHS| / max(1, |LHS|, |RHS|) of a recurrence
    identity at (a, c, x).

    Derivatives on the left-hand sides are term-wise series sums; for D6
    both sides sum the same terms (see _series_derivative). Shifted
    functions use the same x.
    """
    a, c, x = complex(a), complex(c), complex(x)
    F = eval_1f1(a, c, x)
    if identity_id == "D6":
        lhs = _series_derivative(a, c, x)
        rhs = (a / c) * eval_1f1(a + 1, c + 1, x)
    elif identity_id == "R14":
        # shifts both parameters down by one
        lhs = x * (_series_derivative(a, c, x) - F)
        rhs = (c - 1) * (eval_1f1(a - 1, c - 1, x) - F)
    elif identity_id == "R27":
        lhs = x * _series_derivative(a, c, x)
        rhs = a * (eval_1f1(a + 1, c, x) - F)
    elif identity_id == "R28":
        lhs = x * F
        rhs = (
            (a - c) * eval_1f1(a - 1, c, x)
            + (c - 2 * a) * F
            + a * eval_1f1(a + 1, c, x)
        )
    elif identity_id == "R29":
        lhs = x * x * _series_derivative(a, c, x)
        rhs = a * (
            (a + 1) * eval_1f1(a + 2, c, x)
            + (c - 3 * a - 2) * eval_1f1(a + 1, c, x)
            + (3 * a - 2 * c + 1) * F
            + (c - a) * eval_1f1(a - 1, c, x)
        )
    elif identity_id == "R46":
        lhs = x * _series_derivative(a, c, x)
        rhs = (c - 1) * (eval_1f1(a, c - 1, x) - F)
    elif identity_id == "R47":
        lhs = _series_derivative(a, c, x)
        rhs = F - (1 - a / c) * eval_1f1(a, c + 1, x)
    else:
        raise ValueError(f"unknown identity id {identity_id!r}; expected one of {IDENTITY_IDS}")
    return abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))

