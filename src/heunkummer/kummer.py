"""Kummer confluent hypergeometric function 1F1 and its recurrence identities.

Everything here is double-precision complex, computed by the direct power
series. Callers in this package do not all stay at small argument: the
spectrum ladders evaluate at |x| of order 1, the two-state closed form
reaches |x| of about 20, and a wide two-state window reaches 100. Accuracy
degrades as |x| grows, most at Re x < 0 where the terms cancel; a
LargeArgumentWarning is issued beyond LARGE_X, though digits are already
lost below it. No asymptotic branch is provided.

eval_1f1 also takes an ndarray of x, as the two-state closed form does for
its sample times: numpy sums the same series over every point, with the
same checks and the same per-point stop, and one LargeArgumentWarning per
call covers every point beyond LARGE_X. A scalar x never loads numpy.
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
    ValueError where tol is not positive or max_terms is below 1, and
    naming the argument where a, c or x is not finite.
    LargeArgumentWarning beyond LARGE_X, after those checks and the pole
    rule.

    x may be an ndarray (ndim >= 1): the result is then an array of its
    shape, each point summed until its own two consecutive terms fall
    below tol and frozen there (see _sum_array). A call warns once,
    naming how many points lie beyond LARGE_X and the largest |x|.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    array = getattr(x, "ndim", 0) != 0  # numpy scalars and 0-d arrays are scalars
    if array:
        shape = x.shape
        a, c, x, m = _array_arguments(a, c, x)
        size = abs(x)
        over = (size > LARGE_X).sum()
        large = over and (f"{over} of {size.size} points have |x| > {LARGE_X}, "
                          f"up to {size.max():.3g}")
    else:
        a, c, x = complex(a), complex(c), complex(x)
        if not (cmath.isfinite(a) and cmath.isfinite(c) and cmath.isfinite(x)):
            bad = next(n for n, v in zip("acx", (a, c, x)) if not cmath.isfinite(v))
            raise ValueError(f"1F1 argument {bad} is not finite: {a=}, {c=}, {x=}")
        m = _check_lower_parameter(a, c)
        large = abs(x) > LARGE_X and f"|x|={abs(x):.3g} > {LARGE_X}"
    if large:
        warnings.warn(
            f"{large}: direct 1F1 series may lose accuracy",
            LargeArgumentWarning,
            stacklevel=2,
        )
    if array:
        return _sum_array(a, c, x, m, tol, max_terms).reshape(shape)
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


def _array_arguments(a, c, x):
    """(a, c, x, m) for the array path: complex a and c, x as a flat
    complex array, the scalar path's finiteness checks (a point by its flat
    index) and its pole rule's m."""
    import numpy as np

    a, c, x = complex(a), complex(c), np.asarray(x, dtype=complex).ravel()
    if not (cmath.isfinite(a) and cmath.isfinite(c)):
        bad = "a" if not cmath.isfinite(a) else "c"
        raise ValueError(f"1F1 argument {bad} is not finite: {a=}, {c=}")
    if not np.isfinite(x).all():
        i = int(np.flatnonzero(~np.isfinite(x))[0])
        raise ValueError(f"1F1 argument x is not finite: {a=}, {c=}, x[{i}]={x[i]}")
    return a, c, x, _check_lower_parameter(a, c)


def _sum_array(a: complex, c: complex, x, m, tol: float, max_terms: int):
    """The scalar path's series at every point of the 1-D array x, in one
    numpy pass.

    Each step multiplies the terms of the points still running by
    (a+k)/((c+k)(k+1)) x. A point stops, and its sum is frozen, after two
    consecutive terms below tol max(1, |sum|); the pass goes on with the
    rest. x = 0 stops at exactly 1, after two zero terms.
    """
    import numpy as np

    total, term = np.ones_like(x), np.ones_like(x)
    # an overflow is reported below as NonConvergenceError, not as numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        if m is not None:
            # exact polynomial of degree m; no tolerance involved
            for k in range(m):
                term *= (a + k) / ((c + k) * (k + 1)) * x
                total += term
            out = total
        else:
            out = np.empty_like(x)
            live = np.arange(x.size)  # the points still summing, and their x
            xs, was_small = x, np.zeros(x.size, dtype=bool)
            for k in range(max_terms):
                if not live.size:
                    break
                term *= (a + k) / ((c + k) * (k + 1)) * xs
                total += term
                small = np.abs(term) <= tol * np.maximum(1.0, np.abs(total))
                done = small & was_small
                if done.any():
                    out[live[done]] = total[done]
                    keep = ~done
                    live, xs, small = live[keep], xs[keep], small[keep]
                    term, total = term[keep], total[keep]
                was_small = small
            if live.size:
                raise NonConvergenceError(
                    f"1F1({a}; {c}; x) did not reach tol={tol} within {max_terms} "
                    f"terms at {live.size} of {x.size} points, first x={xs[0]}")
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NonConvergenceError(
            f"1F1({a}; {c}; x) overflows at {bad.size} of {x.size} points, "
            f"first x={x[bad[0]]}: {out[bad[0]]}")
    return out


def _series_derivative(a, c, x, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS):
    """Term-wise derivative sum_{k>=1} (a)_k/(c)_k x^{k-1}/(k-1)!.

    Term k is a/c times term k-1 of 1F1(a+1; c+1; x), the series the
    parameter-shift rule sums, so D6 checks only rounding order and the
    stopping point: it is not an independent computation.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
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

