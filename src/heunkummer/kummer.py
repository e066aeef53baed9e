"""Kummer confluent hypergeometric function 1F1 and its recurrence identities.

Everything here is double-precision complex, computed by the direct power
series; every scalar sum, 1F1 and its term-wise derivative alike, runs
through the one loop _sum_scalar. Callers in this package do not all stay
at small argument: the spectrum ladders evaluate at |x| of order 1, the
two-state closed form reaches |x| of about 20, and a wide two-state window
reaches 100. Accuracy degrades as |x| grows, most at Re x < 0 where the
terms cancel; a LargeArgumentWarning is issued beyond LARGE_X, though
digits are already lost below it. No asymptotic branch is provided.

eval_1f1 also takes an ndarray of x, as the two-state closed form does for
its sample times: numpy sums the same series over every point, with the
same checks and the same per-point stop, every point running until the
last one stops, and one LargeArgumentWarning per call covers every point
beyond LARGE_X. A point's value does not depend on the other points in its
array, except that a one-point array may round differently in the last
bits from the same point in a longer one. A scalar x never loads numpy.
Both paths refuse the polynomial of a = -m where m exceeds max_terms.
"""

from __future__ import annotations

import cmath
import functools
import warnings

from .errors import LargeArgumentWarning, NonConvergenceError, PoleAtLowerParameterError

INT_TOL = 1e-9          # |value - m| below this treats value as the integer m
DEFAULT_TOL = 1e-14     # relative tail target of the power series
DEFAULT_MAX_TERMS = 10000
LARGE_X = 30.0          # beyond this the direct series loses digits; warn
_BLOCK = 16             # series steps of the array pass per stop test


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
    polynomial is returned. NonConvergenceError where the sum overflows,
    does not stop within max_terms terms, or where m exceeds max_terms;
    ValueError where tol is not positive (or NaN), max_terms is below 1, and
    naming the argument where a, c or x is not finite.
    LargeArgumentWarning beyond LARGE_X, after those checks and the pole
    rule.

    x may be an ndarray (ndim >= 1): the result is then an array of its
    shape, each point summed until its own two consecutive terms fall
    below tol and frozen there (see _sum_array). A call warns once,
    naming how many points lie beyond LARGE_X and the largest |x|.
    A point's value is the same in any array of two or more points; a
    one-point array is the exception, rounded by numpy's one-element loop.
    """
    _check_budget(tol, max_terms)
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
    return _sum_scalar(1 + 0j, 0, a, c, x, m, tol, max_terms)


def _check_budget(tol: float, max_terms: int) -> None:
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")


def _sum_scalar(first, k0: int, a, c, x, m, tol: float, max_terms: int) -> complex:
    """The one scalar series loop: t_{k0} = first, t_{k+1} = t_k (a+k) x/((c+k)(k+1-k0)),
    summed through k = m where a = -m (the exact polynomial), else until two
    consecutive terms fall below tol max(1, |sum|); x = 0 gives first. k0 = 0,
    first = 1 sums 1F1(a; c; x); k0 = 1, first = a/c its term-wise derivative.
    NonConvergenceError where m exceeds max_terms, or the sum does not stop or
    is not finite. t <= tol or t <= tol |sum| is t <= tol max(1, |sum|), NaN too."""
    series = m is None
    if not series and m > max_terms:
        raise NonConvergenceError("1F1" + "'" * k0 + f"({a}; {c}; {x}): a = -{m} gives a "
                                  f"polynomial of degree {m}, above max_terms={max_terms}")
    if x == 0:
        return first
    d = 1 - k0
    total = term = first
    small = False
    for k in range(k0, max_terms if series else m):
        term *= (a + k) * x / ((c + k) * (k + d))
        total += term
        if series:
            t = abs(term)
            if t <= tol or t <= tol * abs(total):
                if small:
                    break
                small = True
            else:
                small = False
    else:
        if series:
            raise NonConvergenceError("1F1" + "'" * k0 + f"({a}; {c}; {x}) did not reach "
                                      f"tol={tol} within {max_terms} terms")
    if not cmath.isfinite(total):
        raise NonConvergenceError("1F1" + "'" * k0 + f"({a}; {c}; {x}) overflows to {total}")
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
    rectangular numpy pass: every point runs every step until the last one
    stops.

    Each step multiplies the terms by (a+k)/((c+k)(k+1)) x. A point stops,
    and its sum is frozen, after two consecutive terms below tol max(1,
    |sum|); x = 0 stops at exactly 1, after two zero terms. The stop is
    tested once per block of _BLOCK steps; a = -m runs its m steps through
    the same blocks with no stop test, and raises before the first step
    where m is above max_terms. numpy rounds each point of two or more alike
    wherever it sits, so a point's value does not depend on the others; a
    one-point array takes numpy's one-element loop, without the fused
    multiply-add.
    """
    import numpy as np

    series = m is None
    if not series and m > max_terms:
        raise NonConvergenceError(f"1F1({a}; {c}; x): a = -{m} gives a polynomial "
                                  f"of degree {m}, above max_terms={max_terms}")
    steps = max_terms if series else m
    total, term = np.ones_like(x), np.ones_like(x)
    out = np.empty_like(x)
    running, was_small = np.ones(x.size, dtype=bool), np.zeros(x.size, dtype=bool)
    start = 0
    # an overflow is reported below as NonConvergenceError, not as numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        while start < steps and running.any():
            terms = np.empty((min(_BLOCK, steps - start), x.size), dtype=complex)
            totals = np.empty_like(terms)
            for row, k in enumerate(range(start, start + len(terms))):
                term *= (a + k) / ((c + k) * (k + 1)) * x
                terms[row] = term
                total = np.add(total, term, out=totals[row])
            start += len(terms)
            if series:
                small = np.abs(terms) <= tol * np.maximum(1.0, np.abs(totals))
                # each point's first stopping row, len(terms) where it runs on
                stops = np.vstack((small & np.vstack((was_small, small[:-1])),
                                   np.ones_like(was_small))).argmax(axis=0)
                new = np.flatnonzero(running & (stops < len(terms)))
                out[new] = totals[stops[new], new]
                running[new], was_small = False, small[-1]
    if not series:
        out = total
    elif running.any():
        raise NonConvergenceError(
            f"1F1({a}; {c}; x) did not reach tol={tol} within {max_terms} terms at "
            f"{np.count_nonzero(running)} of {x.size} points, first x={x[running][0]}")
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
    _check_budget(tol, max_terms)
    a, c, x = complex(a), complex(c), complex(x)
    m = _check_lower_parameter(a, c)
    coeff = a / c  # (a)_1/(c)_1
    if m == 0:
        return complex(0.0)
    return _sum_scalar(coeff, 1, a, c, x, m, tol, max_terms)


# Each identity as (lhs, rhs) at (a, c, x) from F(a', c') = 1F1(a'; c'; x) and
# dF(), the term-wise derivative of 1F1(a; c; x). R14 shifts both parameters down.
_IDENTITIES = {
    "D6": lambda a, c, x, F, dF: (dF(), (a / c) * F(a + 1, c + 1)),
    "R14": lambda a, c, x, F, dF: (x * (dF() - F(a, c)), (c - 1) * (F(a - 1, c - 1) - F(a, c))),
    "R27": lambda a, c, x, F, dF: (x * dF(), a * (F(a + 1, c) - F(a, c))),
    "R28": lambda a, c, x, F, dF: (x * F(a, c), (a - c) * F(a - 1, c) + (c - 2 * a) * F(a, c)
                                   + a * F(a + 1, c)),
    "R29": lambda a, c, x, F, dF: (x * x * dF(), a * (
        (a + 1) * F(a + 2, c) + (c - 3 * a - 2) * F(a + 1, c)
        + (3 * a - 2 * c + 1) * F(a, c) + (c - a) * F(a - 1, c))),
    "R46": lambda a, c, x, F, dF: (x * dF(), (c - 1) * (F(a, c - 1) - F(a, c))),
    "R47": lambda a, c, x, F, dF: (dF(), F(a, c) - (1 - a / c) * F(a, c + 1)),
}
IDENTITY_IDS = tuple(_IDENTITIES)


def identity_residuals(a, c, x, ids=IDENTITY_IDS) -> dict[str, float]:
    """identity_residual of each id in ids at one (a, c, x). Each distinct
    1F1 value and the derivative is summed once, 1F1(a; c; x) first and the
    rest when an identity first reads them; one no listed identity reads is
    never summed."""
    unknown = [i for i in ids if i not in _IDENTITIES]
    if unknown:
        raise ValueError(f"unknown identity id {unknown[0]!r}; expected one of {IDENTITY_IDS}")
    a, c, x = complex(a), complex(c), complex(x)
    F = functools.cache(lambda ap, cp: eval_1f1(ap, cp, x))
    dF = functools.cache(lambda: _series_derivative(a, c, x))
    F(a, c)
    residuals = {}
    for i in ids:
        lhs, rhs = _IDENTITIES[i](a, c, x, F, dF)
        residuals[i] = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return residuals


def identity_residual(identity_id: str, a, c, x) -> float:
    """Relative residual |LHS - RHS| / max(1, |LHS|, |RHS|) of one recurrence
    identity at (a, c, x). D6 sums the same terms on both sides (see
    _series_derivative): it is no independent check."""
    return identity_residuals(a, c, x, (identity_id,))[identity_id]
