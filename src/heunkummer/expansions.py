"""Series solutions of the confluent Heun equation in a Kummer-function basis.

A solution is written u(z) = sum_n a_n 1F1(alpha_n; gamma_n; s0 z) where the
parameter walk (alpha_n, gamma_n) and the step constant s0 depend on the
family:

  A1_TwoTerm    alpha_n = alpha0+n, gamma_n = gamma0+n, s0 = -eps, two-term
  A2_ThreeTerm  alpha_n = alpha0+n, gamma_n = gamma0+n, s0 = -eps, three-term
  B4_FourTerm   alpha_n = alpha0+n, gamma_n = gamma (const), s0 free, four-term
  B3_ThreeTerm  B4 at s0 = -eps, three-term
  C_ThreeTerm   alpha_n = alpha0 (const), gamma_n = gamma0+n, s0 = -eps

Coefficients come from forward recurrences with R_0 = 0 (left-terminated
series only; the doubly infinite variants are not built). All recurrences
are homogeneous, so a_0 = 1 throughout and callers renormalize at a common
point when comparing solutions.

Known numerical limitations, by design left visible rather than patched:
forward recurrence picks the dominant coefficient solution, so families with
algebraically decaying coefficients (A2 and C on generic parameters, B4 on
any s0 != -eps) reach small tails only for terminating parameter choices.
eval_series reports the tail honestly and raises when asked for more than
the series can give.

Basis memo: the walk and s0 do not depend on q, so every root of one
q-spectrum, and every repeated z, reads the same basis values. Evaluation
at |s0 z| <= LARGE_X takes them from a bounded LRU memo of _LADDER_MEMO
points: F_n = 1F1(alpha_n; gamma_n; s0 z) at the n with a_n != 0, and
with derivatives also F_n' and F_n'' in x. A miss makes one eval_1f1 call
per nonzero term in every family, which sums F_n, F_n' and F_n'' in one
pass; then u' = sum (a_n s0) F_n' and u'' = sum ((a_n s0) s0) F_n''.
Beyond LARGE_X, where eval_1f1 warns, nothing is memoized; an array of z
bypasses the memo, with the same one eval_1f1 call per basis function.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
from itertools import repeat
from operator import mul
from typing import Optional

from .che_core import CheParams
from .errors import (
    ApplicabilityError,
    LeadingCoefficientVanishesError,
    NonConvergenceError,
    TailTooLargeError,
)
from .kummer import INT_TOL, LARGE_X, eval_1f1, nonpositive_int

# R_n and the recurrence numerator both scale like n^2: a step with
# |R_n| <= ZERO_TOL (1+n)^2 vanishes in build_series, unless the numerator
# vanishes too, which marks a terminated resonance.
ZERO_TOL = 1e-9

# Bound of the basis memo, in points: the roots of one spectrum evaluated
# at P points share P entries of up to three columns each, whatever N.
_LADDER_MEMO = 86


class Family(enum.Enum):
    A1_TwoTerm = "a1"
    A2_ThreeTerm = "a2"
    B4_FourTerm = "b4"
    B3_ThreeTerm = "b3"
    C_ThreeTerm = "c"

    @classmethod
    def from_string(cls, s: str) -> "Family":
        for fam in cls:
            if s.lower() in (fam.value, fam.name.lower()):
                return fam
        raise ValueError(f"unknown family {s!r}; expected one of "
                         f"{[f.value for f in cls]}")


ALPHA_OVER_EPS = "alpha-over-eps"
GAMMA_CHOICE = "gamma"


@dataclass(frozen=True)
class SeriesSolution:
    """A built expansion: parameter walk plus coefficients a_0..a_N.

    terminated=True means the sum is exact (trailing coefficients are
    structural zeros); terminal_index is then the last contributing index.
    """

    params: CheParams
    family: Family
    alpha0: complex
    gamma0: complex
    s0: complex
    coefficients: tuple
    terminated: bool = False
    terminal_index: Optional[int] = None

    def basis_parameters(self, n: int):
        """(alpha_n, gamma_n) of the n-th basis function."""
        return _basis_parameters(self.family, self.alpha0, self.gamma0, n)


def _basis_parameters(family: Family, alpha0, gamma0, n: int):
    if family in (Family.B4_FourTerm, Family.B3_ThreeTerm):
        return alpha0 + n, gamma0
    if family is Family.C_ThreeTerm:
        return alpha0, gamma0 + n
    return alpha0 + n, gamma0 + n


def applicability(params: CheParams, family: Family) -> list[str]:
    """Complete list of violated applicability conditions for the family.

    Empty list means the family's series can be built for these parameters;
    ValueError where gamma + delta overflows.
    """
    g, d, e, al, q = params.gamma, params.delta, params.epsilon, params.alpha, params.q
    out = []
    if e == 0:
        out.append("EpsilonZero")
        return out  # every later test divides by eps
    if family is Family.A1_TwoTerm:
        if abs(q - (al - d * e)) > INT_TOL * max(1.0, abs(al), abs(d * e)):
            out.append("QConstraintViolated")
        # a left-terminated two-term series only solves the equation when
        # the n=0 boundary function vanishes, which pins delta to 0
        if abs(d) > INT_TOL:
            out.append("DeltaNonZero")
    elif family in (Family.A2_ThreeTerm, Family.C_ThreeTerm):
        if not cmath.isfinite(g + d):
            raise ValueError(f"gamma + delta = {g + d} is not finite")
        if nonpositive_int(g + d) is not None:
            out.append("GammaDeltaNonPositiveInt")
        # alpha/eps == gamma+delta collapses every basis function onto
        # exp(s0 z); builds still run, only multi-term structure degenerates
        if family is Family.C_ThreeTerm and al == 0:
            out.append("AlphaZero")
    else:  # B families
        if nonpositive_int(g) is not None:
            out.append("GammaNonPositiveInt")
    return out


def check_applicable(params: CheParams, family: Family) -> None:
    """ApplicabilityError naming every violated condition, if any."""
    if violations := applicability(params, family):
        raise ApplicabilityError(f"family {family.name} not applicable: {', '.join(violations)}")


def recurrence_coeffs(params: CheParams, family: Family, alpha0, s0, n: int):
    """Recurrence coefficients (R_n, Q_n, P_n, S_n) entering

        R_n a_n + Q_{n-1} a_{n-1} + P_{n-2} a_{n-2} + S_{n-3} a_{n-3} = 0.

    S_n is None for the three-term (and two-term) families. For A1 the
    encoding is R_n = 1, Q_n = -alpha_n/gamma_n, P = 0, so relation n pairs
    R_n with Q_{n-1} = -alpha_{n-1}/gamma_{n-1} and the same relation shape
    drives the two-term build. ValueError naming the family and n where a
    coefficient overflows.
    """
    g, d, e, al, q = params.gamma, params.delta, params.epsilon, params.alpha, params.q
    S = None
    if family is Family.A1_TwoTerm:
        a_n = alpha0 + n
        c_n = (1 + g + d) + n  # gamma0 = 1+alpha0+gamma+delta-alpha/eps at alpha0=alpha/eps
        if c_n == 0:
            raise ZeroDivisionError(f"two-term ratio undefined: gamma_{n} = 0")
        R, Q, P = 1.0 + 0j, -a_n / c_n, 0j
    elif family is Family.A2_ThreeTerm:
        gd = g + d
        if gd + n == 0:
            raise ZeroDivisionError(f"P_{n} denominator gamma+delta+{n} = 0")
        R = -n * (gd + n - 1)
        Q = n * (gd + n - 1) + (e * n + al) - q
        P = -(d + n) * (e * n + al) / (gd + n)
    elif family is Family.C_ThreeTerm:
        gd = g + d
        if gd + n == 0:
            raise ZeroDivisionError(f"P_{n} denominator gamma+delta+{n} = 0")
        R = -n * (gd + n - 1)
        Q = n * (gd + n - 1) - e * (d + n) + al - q
        P = (d + n) * (e - al / (gd + n))
    elif family is Family.B3_ThreeTerm:
        an, ae = alpha0 + n, al / e
        R = (an - g) * (an - ae)
        Q = (an - ae) * (g - 2 * an) + an * (e - d) - q
        P = an * (an + d - ae)
    elif family is Family.B4_FourTerm:
        an, es = alpha0 + n, e + s0
        R = (an - g) * (an * e - al)
        Q = (an * e - al) * (g - 2 * an) - s0 * (an * (e - d) - q) + an * (g - 1 - an) * es
        P = an * ((an + d) * e - al + (2 * an + 2 - g - d - e) * es + es * es)
        S = -an * (1 + an) * es
    else:
        raise ValueError(f"unknown family {family}")
    if not (cmath.isfinite(R) and cmath.isfinite(Q) and cmath.isfinite(P)
            and (S is None or cmath.isfinite(S))):
        raise ValueError(f"recurrence coefficients of family {family.name} overflow "
                         f"at n = {n}: (R, Q, P, S) = {(R, Q, P, S)}")
    return R, Q, P, S


def ladder(params: CheParams, family: Family, alpha0, s0, upto: int) -> list:
    """[recurrence_coeffs(..., n) for n = 0..upto]: the family's ladder,
    built once and indexed by every reader of the recurrence."""
    return [recurrence_coeffs(params, family, alpha0, s0, n) for n in range(upto + 1)]


def check_alpha0_choice(family: Family, alpha0_choice) -> None:
    """ValueError unless alpha0_choice is None or, for the b families, one
    of their two alpha0 branches; no other family reads it."""
    b_family = family in (Family.B4_FourTerm, Family.B3_ThreeTerm)
    allowed = (None, ALPHA_OVER_EPS, GAMMA_CHOICE) if b_family else (None,)
    if alpha0_choice not in allowed:
        raise ValueError(f"family {family.name} takes alpha0_choice "
                         f"{' or '.join(map(repr, allowed))}, got {alpha0_choice!r}")


def resolve_alpha0_gamma0(params: CheParams, family: Family, alpha0_choice):
    check_alpha0_choice(family, alpha0_choice)
    g, d, e, al = params.gamma, params.delta, params.epsilon, params.alpha
    if family is Family.A1_TwoTerm:
        return al / e, 1 + g + d
    if family in (Family.A2_ThreeTerm, Family.C_ThreeTerm):
        return al / e, g + d
    # B families: gamma_n is the constant gamma; alpha0 has two branches
    if alpha0_choice == GAMMA_CHOICE:
        return g, g
    return al / e, g


def build_series(params: CheParams, family: Family, N: int,
                 alpha0_choice=None, s0=None) -> SeriesSolution:
    """Run the family's forward recurrence and return a_0..a_N (a_0 = 1).

    R_n = 0 steps are tolerated only when the accumulated numerator also
    vanishes (a terminated series being extended past its end); otherwise
    LeadingCoefficientVanishesError is raised.
    """
    if N < 0:
        raise ValueError("N must be nonnegative")
    check_applicable(params, family)
    if (s0 is None) == (family is Family.B4_FourTerm):
        raise ValueError(f"family B4 requires an explicit s0 and no other "
                         f"family reads one; got s0 = {s0} for {family.name}")
    s0 = -complex(params.epsilon) if s0 is None else complex(s0)
    alpha0, gamma0 = resolve_alpha0_gamma0(params, family, alpha0_choice)

    # a_0 alone reads no step (an A1 pole at gamma_0 = 0 must not raise)
    steps = ladder(params, family, alpha0, s0, N) if N else []
    return solve_ladder(params, family, alpha0, gamma0, s0, steps, N, 0)


def solve_ladder(params: CheParams, family: Family, alpha0, gamma0, s0,
                 steps: list, N: int, q) -> SeriesSolution:
    """build_series's a_0..a_N from steps[0..N], each Q_n less q. The
    three-term families subtract q last in Q_n and read it nowhere else, so
    steps at q = 0 less params.q give the same series bit for bit.
    NonConvergenceError naming n where a coefficient a_n is not finite."""
    coeffs = [1.0 + 0j]
    scale = 1.0
    for n in range(1, N + 1):
        R = steps[n][0]
        num = 0j
        num += (steps[n - 1][1] - q) * coeffs[n - 1]
        if n >= 2:
            num += steps[n - 2][2] * coeffs[n - 2]
        if n >= 3 and family is Family.B4_FourTerm:
            num += steps[n - 3][3] * coeffs[n - 3]
        nsq = float((1 + n) ** 2)
        if abs(R) <= ZERO_TOL * nsq:
            if abs(num) <= ZERO_TOL * nsq * scale:
                coeffs.append(0j)  # terminated resonance
                continue
            raise LeadingCoefficientVanishesError(
                f"R_{n} = {R} vanishes with non-negligible numerator "
                f"|{abs(num):.3e}| for family {family.name}")
        a_n = -num / R
        coeffs.append(a_n)
        # abs(a_n) first: max() then keeps a NaN, and a NaN a_n makes every
        # later one NaN, so scale ends non-finite if any a_n is
        scale = max(abs(a_n), scale)
    if not scale < math.inf:
        n = next(n for n, a_n in enumerate(coeffs) if not cmath.isfinite(a_n))
        raise NonConvergenceError(f"the {family.name} recurrence overflows: "
                                  f"a_{n} = {coeffs[n]} is not finite")

    # A trailing run of exact zeros one shorter than the recurrence order
    # forces every later coefficient to vanish identically, so the sum is a
    # finite one whatever produced the zeros (structural P_N = 0 with q on a
    # spectrum root, or the resonance path above).
    need = {Family.A1_TwoTerm: 1, Family.B4_FourTerm: 3}.get(family, 2)
    run = 0
    for a_n in reversed(coeffs):
        if a_n != 0:
            break
        run += 1
    terminated = run >= need
    return SeriesSolution(params=params, family=family, alpha0=complex(alpha0),
                          gamma0=complex(gamma0), s0=s0,
                          coefficients=tuple(coeffs), terminated=terminated,
                          terminal_index=len(coeffs) - 1 - run if terminated else None)


def eval_series(sol: SeriesSolution, z, tol: float = 1e-10):
    """(value, tail_estimate) of the expansion at z.

    tail_estimate is |last included nonzero term| / |partial sum|, or exactly
    0 for a terminated solution. Raises TailTooLargeError when the estimate
    exceeds tol on a non-terminated solution, ValueError at a NaN tol, and
    NonConvergenceError where the value is not finite.

    z may be an ndarray: value is then an array of its shape, each basis
    function summed over every point by one eval_1f1 call (no memo), and
    tail_estimate is the largest over the points.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    value, _, _, tail = _eval_series_impl(sol, z, derivatives=False)
    if not sol.terminated and tail > tol:
        raise TailTooLargeError(
            f"tail estimate {tail:.3e} exceeds tol={tol:.3e}; "
            f"the series is not terminated")
    return value, tail


def eval_series_with_derivatives(sol: SeriesSolution, z):
    """(u, u', u'', tail_estimate) at one point z, each 1F1 summed with its
    first two derivatives in one pass (eval_1f1 sums derivatives for a
    scalar x only). No tail gate is applied; callers inspect the tail.
    NonConvergenceError naming the first of u, u', u'' that is not finite."""
    return _eval_series_impl(sol, z, derivatives=True)


def _eval_series_impl(sol: SeriesSolution, z, derivatives: bool):
    array = getattr(z, "ndim", 0) > 0  # an ndarray of points
    if not array:
        z = complex(z)
    s0 = sol.s0
    x = s0 * z
    # from a list, not a generator: CPython builds a tuple from a generator
    # by resizing it, and each resized tuple joins the free list of its new
    # size (up to 2000 a size), so those free lists grew on every call
    nonzero = tuple([n for n, a_n in enumerate(sol.coefficients) if a_n != 0])
    coeffs = [sol.coefficients[n] for n in nonzero]
    # a ladder that warns is not memoized, so every evaluation warns; an
    # array of points is summed afresh, one eval_1f1 call per basis function
    memo = not array and abs(x) <= LARGE_X
    f0, *derivs = (_basis_ladder if memo else _basis_ladder.__wrapped__)(
        sol.family, sol.alpha0, sol.gamma0, x, nonzero, derivatives)
    # sum from 0j adds left to right, and the chains keep the per-term order
    # a_n s0 F1 and a_n s0 s0 F2: bit-identical to a loop over n
    if array:  # no derivatives: eval_1f1 sums those at a scalar x only
        import numpy as np

        # an overflow is reported below as NonConvergenceError, not as numpy's warning
        with np.errstate(over="ignore", invalid="ignore"):
            u = sum(map(mul, coeffs, f0), 0j)
            tail = 0.0 if sol.terminated or not nonzero else float(
                (abs(coeffs[-1] * f0[-1]) / abs(u).clip(1e-300)).max(initial=0.0))
    else:
        u = sum(map(mul, coeffs, f0), 0j)
        tail = 0.0 if sol.terminated or not nonzero else (
            abs(coeffs[-1] * f0[-1]) / max(1e-300, abs(u)))
    u1 = u2 = None
    if derivatives:
        f1, f2 = derivs
        as0 = list(map(mul, coeffs, repeat(s0)))
        u1 = sum(map(mul, as0, f1), 0j)
        u2 = sum(map(mul, map(mul, as0, repeat(s0)), f2), 0j)
    # finite basis values can still overflow in a_n s0 F_n, and inf times 0 is NaN
    for name, value in zip(("u", "u'", "u''"), (u, u1, u2)[:3 if derivatives else 1]):
        at = z
        if array:  # its first point that is not finite, else its first point
            i = np.isfinite(value).argmin()
            value, at = value.flat[i], z.flat[i]
        if not cmath.isfinite(value):
            raise NonConvergenceError(f"{name} of the {sol.family.name} series is not "
                                      f"finite at z={at}: {value}")
    return u, u1, u2, tail


@functools.lru_cache(maxsize=_LADDER_MEMO)
def _basis_ladder(family: Family, alpha0, gamma0, x: complex, nonzero: tuple,
                  derivatives: bool) -> tuple:
    """(f0,) or (f0, f1, f2): 1F1(alpha_n; gamma_n; x) and its first two
    derivatives in x, n in nonzero, one eval_1f1 call per n."""
    sums = [eval_1f1(an, cn, x, derivatives=derivatives)
            for an, cn in (_basis_parameters(family, alpha0, gamma0, n) for n in nonzero)]
    return (tuple(zip(*sums)) or ((), (), ())) if derivatives else (tuple(sums),)
