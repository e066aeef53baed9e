"""Kummer confluent hypergeometric function 1F1 and its recurrence identities.

Everything here is double-precision complex, computed by the direct power
series. eval_1f1 is the one door: it runs every check once and hands the
sum to the scalar loop _sum_scalar or, for an ndarray of x, to the array
pass _sum_array, which the two-state closed form uses for its sample times
and which sums values only. One pass of the scalar loop sums 1F1 and, on
request, its first two derivatives from the same terms: t_k k/x and
t_k k(k-1)/x^2 of the term t_k of 1F1, carried as running products so that
nothing is divided by x. One call thus gives 1F1 and both its derivatives
from one series, where the parameter-shift rule (DLMF 13.3.15) sums three;
the basis ladders of expansions sum only two seeds and a check per walk
and reach the other basis functions through contiguous relations.
A scalar x never loads numpy. Callers in this package do not all stay at
small argument: the spectrum ladders evaluate at |x| of order 1, the
two-state closed form reaches |x| of about 20, and a wide two-state window
reaches 100. Accuracy degrades as |x| grows, most at Re x < 0 where the
terms cancel; a LargeArgumentWarning is issued beyond LARGE_X, though
digits are already lost below it. No asymptotic branch is provided.
"""

from __future__ import annotations

import cmath
import functools
import math
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


def eval_1f1(a, c, x, tol: float = DEFAULT_TOL, max_terms: int = DEFAULT_MAX_TERMS,
             derivatives: bool = False):
    """Sum 1F1(a; c; x) = sum_k (a)_k/(c)_k x^k/k!.

    Truncates when the relative tail estimate (two consecutive terms) falls
    below tol. If a is a non-positive integer -m the exact degree-m
    polynomial is returned. NonConvergenceError where the sum overflows,
    does not stop within max_terms terms, or where m exceeds max_terms;
    ValueError where tol is not positive (or NaN), max_terms is below 1, and
    naming the argument where a, c or x is not finite.
    LargeArgumentWarning beyond LARGE_X, after those checks and the pole
    rule, and before the degree cap.

    With derivatives the result is (F, F', F''), 1F1 and its first two
    derivatives in x, from one pass over the same terms (see _sum_scalar):
    F is the same bits as without, and each derivative stops under the same
    rule measured on its own scale. The checks and the one warning are the
    same.

    x may be an ndarray (ndim >= 1): the result is then an array of its
    shape, each point summed and frozen at its own stop (see _sum_array);
    derivatives are refused there with a ValueError. A call warns once,
    naming how many points lie beyond LARGE_X and the largest |x|.
    """
    if not tol > 0:  # NaN too
        raise ValueError("tol must be positive")
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    array = getattr(x, "ndim", 0) != 0  # numpy scalars and 0-d arrays are scalars
    if array:
        if derivatives:
            raise ValueError("1F1 derivatives are summed for a scalar x only")
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
        try:  # costs nothing until it raises
            size = abs(x)
        except OverflowError:  # finite parts whose modulus passes the double range
            size = math.inf
        large = size > LARGE_X and f"|x|={size:.3g} > {LARGE_X}"
    if large:
        warnings.warn(
            f"{large}: direct 1F1 series may lose accuracy",
            LargeArgumentWarning,
            stacklevel=2,
        )
    if m is not None and m > max_terms:
        raise NonConvergenceError(f"1F1({a}; {c}; {'x' if array else x}): a = -{m:.15g} gives "
                                  f"a polynomial of degree {m:.15g}, above max_terms={max_terms}")
    if array:
        return _sum_array(a, c, x, m, tol, max_terms).reshape(shape)
    try:  # costs nothing until it raises: the loop tests no modulus for overflow
        return _sum_scalar(a, c, x, m, tol, max_terms, derivatives)
    except OverflowError:  # abs() of finite parts whose modulus passes the double range
        raise NonConvergenceError(f"1F1({a}; {c}; {x}) overflows past the double range") from None


def _sum_scalar(a, c, x, m, tol: float, max_terms: int, derivatives: bool = False):
    """The one scalar series loop. Its terms t_0 = 1, t_{k+1} = t_k (a+k) x/((c+k)(k+1))
    sum F = 1F1(a; c; x). With derivatives the same steps also sum
    F' = sum_k t_k k/x and F'' = sum_k t_k k(k-1)/x^2 (DLMF 13.3.15 term by
    term), whose terms are carried as the running products d_{k+1} = t_k r_k
    and e_{k+1} = d_k r_k, r_k = (a+k)/(c+k): nothing is divided by x, so a
    zero or subnormal x needs no branch. The result is then (F, F', F'').

    Where a = -m each sum runs m steps, its exact polynomial (degrees m, m-1
    and m-2); eval_1f1 has refused m above max_terms. Else each sum stops,
    and is frozen, after two consecutive terms below tol max(s, |sum|), its
    scale s being its first nonzero term: 1, |a/c| and |a(a+1)/(c(c+1))|;
    the loop runs until all have stopped, and F's term update and stop are
    those of the plain sum, so F is the same bits with or without
    derivatives. x = 0 gives 1, or with derivatives _at_zero's sums for a
    series, before the loop: for any max_terms. NonConvergenceError where a
    sum does not stop or is not finite. Every stop test reads "not
    (t > tol and t > tol |sum|)", which is t <= tol max(1, |sum|) on finite
    values and counts a NaN term as small, so a sum that has overflowed
    stops and is reported as such."""
    series = m is None
    if x == 0 and (series or not derivatives):
        return _at_zero(a, c) if derivatives else 1 + 0j
    plain = series and not derivatives
    total = term = 1 + 0j
    small = False
    if derivatives:
        last, term1, total1, total2 = term, 0j, 0j, 0j
        run = run1 = run2 = 0  # each sum's count of consecutive small terms, to 2
        names = ("1F1", "1F1'", "1F1''")  # in errors
        if series:
            tol1, tol2 = tol * abs(a / c), tol * abs(a * (a + 1) / (c * (c + 1)))
    for k in range(max_terms if series else m):
        term *= (a + k) * x / ((c + k) * (k + 1))
        total += term
        if plain:
            t = abs(term)
            if not (t > tol and t > tol * abs(total)):  # a NaN term is small
                if small:
                    break
                small = True
            else:
                small = False
        elif derivatives:
            r = (a + k) / (c + k)
            term2 = term1 * r
            term1 = last * r
            last = term
            total1 += term1
            total2 += term2
            if series:
                if run < 2:
                    t = abs(term)
                    run = 0 if t > tol and t > tol * abs(total) else run + 1
                    value = total
                if run1 < 2:
                    t = abs(term1)
                    run1 = 0 if t > tol1 and t > tol * abs(total1) else run1 + 1
                    value1 = total1
                if run2 < 2:
                    t = abs(term2)
                    run2 = 0 if t > tol2 and t > tol * abs(total2) else run2 + 1
                    value2 = total2
                if run == run1 == run2 == 2:
                    break
    else:
        if series:
            # with derivatives, the sum furthest from its stop
            name = names[(run, run1, run2).index(min(run, run1, run2))] if derivatives else "1F1"
            raise NonConvergenceError(f"{name}({a}; {c}; {x}) did not reach "
                                      f"tol={tol} within {max_terms} terms")
    if not derivatives:
        if not cmath.isfinite(total):
            raise NonConvergenceError(f"1F1({a}; {c}; {x}) overflows to {total}")
        return total
    sums = (value, value1, value2) if series else (total, total1, total2)
    for name, value in zip(names, sums):
        if not cmath.isfinite(value):
            raise NonConvergenceError(f"{name}({a}; {c}; {x}) overflows to {value}")
    return sums


def _at_zero(a, c):
    """(F, F', F'') of a series (c no pole) at x = 0: 1, a/c and
    a(a+1)/(c(c+1)), rounded as the terms of _sum_scalar's loop give them,
    which needs four steps to stop there."""
    r = a / c
    return 1 + 0j, 0j + r, 0j + r * ((a + 1) / (c + 1))


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
    """The scalar path's plain sum at every point of the 1-D array x, in
    one rectangular numpy pass: every point runs every step until the last
    one stops. Each step multiplies the terms by (a+k)/((c+k)(k+1)) x. A
    point stops, and is frozen there, after two consecutive terms below
    tol max(1, |sum|), a NaN term counting as below as in the scalar loop;
    a series at a point x = 0 is settled to 1 before the loop. The stop is
    tested once per block of _BLOCK steps; a = -m runs its m steps through
    the same blocks with no stop test (eval_1f1 has refused m above
    max_terms). numpy rounds each point of two or more alike wherever it
    sits, so a point's value does not depend on the others; a one-point
    array takes numpy's one-element loop, without the fused multiply-add.
    """
    import numpy as np

    series = m is None
    steps = max_terms if series else m
    term, total = np.ones_like(x), np.ones_like(x)
    out = np.empty_like(x)
    running, was_small = np.ones(x.size, dtype=bool), np.zeros(x.size, dtype=bool)
    if series:
        zero = x == 0
        out[zero], running[zero] = 1, False
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
                small = ~(np.abs(terms) > tol * np.maximum(1.0, np.abs(totals)))  # NaN too
                # each point's first stopping row, len(terms) where it runs on
                stops = np.vstack((small & np.vstack((was_small, small[:-1])),
                                   np.ones_like(was_small))).argmax(axis=0)
                new = np.flatnonzero(running & (stops < len(terms)))
                out[new] = totals[stops[new], new]
                running[new], was_small = False, small[-1]
    if not series:
        out = total
    elif running.any():
        left = np.flatnonzero(running)
        raise NonConvergenceError(
            f"1F1({a}; {c}; x) did not reach tol={tol} within {max_terms} terms at "
            f"{left.size} of {x.size} points, first x={x[left[0]]}")
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NonConvergenceError(
            f"1F1({a}; {c}; x) overflows at {bad.size} of {x.size} points, "
            f"first x={x[bad[0]]}: {out[bad[0]]}")
    return out


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
    dF = functools.cache(lambda: eval_1f1(a, c, x, derivatives=True)[1])
    F(a, c)
    residuals = {}
    for i in ids:
        lhs, rhs = _IDENTITIES[i](a, c, x, F, dF)
        residuals[i] = abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs))
    return residuals


def identity_residual(identity_id: str, a, c, x) -> float:
    """Relative residual |LHS - RHS| / max(1, |LHS|, |RHS|) of one recurrence
    identity at (a, c, x). D6 is no independent check: the derivative's
    term k is t_{k-1} (a+k-1)/(c+k-1) of 1F1(a; c; x) (see _sum_scalar),
    where the parameter-shift rule sums 1F1(a+1; c+1; x), the same terms
    rounded in another order, so it checks only rounding and the stopping
    point."""
    return identity_residuals(a, c, x, (identity_id,))[identity_id]
