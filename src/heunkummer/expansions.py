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
q-spectrum, and every repeated z, reads the same basis values. A scalar z
at |s0 z| <= LARGE_X takes them from a bounded LRU memo of _LADDER_MEMO
points: F_n = 1F1(alpha_n; gamma_n; s0 z), F_n' and F_n'' in x at the n
with a_n != 0; then u' = sum (a_n s0) F_n', u'' = sum ((a_n s0) s0) F_n''
and eval_series is eval_series_with_derivatives's u. A miss on more than
three terms sums two seed basis functions and fills the rest of the ladder
by the walk's three-term contiguous relation, checked against a direct sum
at its far end (_contiguous_ladder): three eval_1f1 calls whatever N. On
three terms or fewer, where the walk meets a pole or an eval_1f1 error or
the check fails, and beyond LARGE_X, where eval_1f1 warns and nothing is
memoized, one eval_1f1 call per nonzero term sums F_n, F_n' and F_n'' in
one pass (_basis_sums). An array of z bypasses the memo: one values-only
eval_1f1 call per basis function.
"""

from __future__ import annotations

import cmath
import enum
import functools
import math
from dataclasses import dataclass
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
# at P points share P entries of up to three columns each, whatever N; a
# miss on a contiguous ladder sums three 1F1 series, whatever N.
_LADDER_MEMO = 86

# A contiguous ladder stands where its far-end rung, summed directly, agrees
# with the recurrence to within this relative error in every column. Over
# the 1940 ladders of the first 434 seed-1 spectrum_solve ops the check's
# largest disagreement is 9.7e-12 (b3), 1.1e-12 (c) and 1.8e-13 (a2).
_LADDER_CHECK = 1e-11


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
        return _basis_walk(self.family, self.alpha0, self.gamma0, (n,))[0]

    @functools.cached_property
    def _terms(self) -> tuple:
        """(the n with a_n != 0, and over them a_n, a_n s0 and (a_n s0) s0):
        what every evaluation reads, formed once per solution."""
        # from a list, not a generator: CPython builds a tuple from a generator
        # by resizing it, and each resized tuple joins the free list of its new
        # size (up to 2000 a size), so those free lists grew on every call
        nonzero = tuple([n for n, a_n in enumerate(self.coefficients) if a_n != 0])
        coeffs = [self.coefficients[n] for n in nonzero]
        as0 = [a_n * self.s0 for a_n in coeffs]
        return nonzero, coeffs, as0, [a_s * self.s0 for a_s in as0]


def _basis_walk(family: Family, alpha0, gamma0, ns) -> list:
    """[(alpha_n, gamma_n) for n in ns]: the family's parameter walk."""
    if family in (Family.B4_FourTerm, Family.B3_ThreeTerm):
        return [(alpha0 + n, gamma0) for n in ns]
    if family is Family.C_ThreeTerm:
        return [(alpha0, gamma0 + n) for n in ns]
    return [(alpha0 + n, gamma0 + n) for n in ns]


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
    [(coeffs, error)] = solve_ladder(family, steps, N, (0,))
    if error is not None:
        raise error

    # A trailing run of exact zeros one shorter than the recurrence order
    # forces every later coefficient to vanish identically, so the sum is a
    # finite one whatever produced the zeros (structural P_N = 0 with q on a
    # spectrum root, or the resonance path of solve_ladder).
    need = {Family.A1_TwoTerm: 1, Family.B4_FourTerm: 3}.get(family, 2)
    run = 0
    for a_n in reversed(coeffs):
        if a_n != 0:
            break
        run += 1
    terminated = run >= need
    return SeriesSolution(params=params, family=family, alpha0=complex(alpha0),
                          gamma0=complex(gamma0), s0=s0, coefficients=coeffs,
                          terminated=terminated,
                          terminal_index=len(coeffs) - 1 - run if terminated else None)


def solve_ladder(family: Family, steps: list, N: int, qs) -> list:
    """The forward recurrence over steps[0..N], each Q_n less q, at every q
    of the column qs: [(a_0..a_n, error)] in the order of qs, a_0 = 1.

    At an R_n = 0 step (|R_n| <= ZERO_TOL (1+n)^2) a_n = 0 where the
    numerator vanishes too; else the q's coefficients stop at a_{n-1} with
    LeadingCoefficientVanishesError. An a_n that is not finite gives
    NonConvergenceError. Errors are recorded, not raised. Each q keeps a
    one-q build's arithmetic and order, so its series is that build's bit
    for bit; three-term steps at q = 0 less q give build_series's at q.
    """
    col = list(qs)                # the q that still run
    live = list(range(len(col)))  # their places in qs
    rows = [None] * len(col)
    rungs = [[1.0 + 0j] * len(col)]  # rungs[n][k]: a_n at col[k]
    solved = []  # the n whose R_n does not vanish; the resonance zeros are not
    four = family is Family.B4_FourTerm
    for n in range(1, N + 1):
        R, Q = steps[n][0], steps[n - 1][1]
        if n == 1:
            nums = [0j + (Q - q) * a1 for q, a1 in zip(col, rungs[0])]
        elif n == 2 or not four:
            P = steps[n - 2][2]
            nums = [0j + (Q - q) * a1 + P * a2
                    for q, a1, a2 in zip(col, rungs[n - 1], rungs[n - 2])]
        else:
            P, S = steps[n - 2][2], steps[n - 3][3]
            nums = [0j + (Q - q) * a1 + P * a2 + S * a3
                    for q, a1, a2, a3 in zip(col, rungs[n - 1], rungs[n - 2], rungs[n - 3])]
        nsq = float((1 + n) ** 2)
        if not abs(R) <= ZERO_TOL * nsq:
            solved.append(n)
            rungs.append([-num / R for num in nums])
            continue
        keep = []
        for k, num in enumerate(nums):
            scale = 1.0  # a one-q build's running max(abs(a_m), scale)
            for m in solved:
                scale = max(abs(rungs[m][k]), scale)
            if abs(num) <= ZERO_TOL * nsq * scale:
                keep.append(k)
            else:
                rows[live[k]] = (tuple([a[k] for a in rungs]), LeadingCoefficientVanishesError(
                    f"R_{n} = {R} vanishes with non-negligible numerator "
                    f"|{abs(num):.3e}| for family {family.name}"))
        if len(keep) < len(col):
            col, live = [col[k] for k in keep], [live[k] for k in keep]
            rungs = [[a[k] for k in keep] for a in rungs]
        rungs.append([0j] * len(col))
    for i, coeffs in zip(live, zip(*rungs)):
        error = None
        if not all(map(cmath.isfinite, coeffs)):
            n = next(n for n, a_n in enumerate(coeffs) if not cmath.isfinite(a_n))
            error = NonConvergenceError(f"the {family.name} recurrence overflows: "
                                        f"a_{n} = {coeffs[n]} is not finite")
        rows[i] = (coeffs, error)
    return rows


def eval_series(sol: SeriesSolution, z, tol: float = 1e-10):
    """(value, tail_estimate) of the expansion at z.

    tail_estimate is |last included nonzero term| / |partial sum|, or exactly
    0 for a terminated solution. Raises TailTooLargeError when the estimate
    exceeds tol on a non-terminated solution, ValueError at a NaN tol, and
    NonConvergenceError where the value is not finite.

    At a scalar z the result is u and the tail of
    eval_series_with_derivatives: only u must be finite, but a basis
    function whose own derivative sum fails raises NonConvergenceError
    naming 1F1' or 1F1''. z may be an ndarray: value is then an array of its
    shape, each basis function summed over every point by one values-only
    eval_1f1 call (no memo), and tail_estimate is the largest over the
    points, 0 over none.
    """
    if math.isnan(tol):
        raise ValueError("tol must not be NaN")
    value, *_, tail = (_eval_points(sol, z) if getattr(z, "ndim", 0) > 0  # an ndarray of points
                       else _eval_scalar(sol, complex(z), ("u",)))
    if not sol.terminated and tail > tol:
        raise TailTooLargeError(
            f"tail estimate {tail:.3e} exceeds tol={tol:.3e}; "
            f"the series is not terminated")
    return value, tail


def eval_series_with_derivatives(sol: SeriesSolution, z):
    """(u, u', u'', tail_estimate) at one point z, each 1F1 summed with its
    first two derivatives in one pass (eval_1f1 sums derivatives for a
    scalar x only: an array z is a TypeError). No tail gate is applied.
    NonConvergenceError naming the first of u, u', u'' that is not finite."""
    return _eval_scalar(sol, complex(z), ("u", "u'", "u''"))


def _eval_scalar(sol: SeriesSolution, z: complex, checked: tuple):
    """(u, u', u'', tail) at z; NonConvergenceError naming the first checked sum not finite."""
    x = sol.s0 * z
    nonzero, coeffs, as0, as0s0 = sol._terms
    # a ladder that warns is not memoized, so every evaluation warns
    f0, f1, f2 = (_basis_ladder if _modulus(x) <= LARGE_X else _basis_sums)(
        sol.family, sol.alpha0, sol.gamma0, x, nonzero)
    # sum from 0j adds left to right, and the products keep the per-term
    # order a_n s0 F1 and a_n s0 s0 F2: bit-identical to a loop over n
    sums = (sum(map(mul, coeffs, f0), 0j), sum(map(mul, as0, f1), 0j),
            sum(map(mul, as0s0, f2), 0j))
    # finite basis values can still overflow in a_n s0 F_n, and inf times 0 is
    # NaN; a modulus past the double range counts as not finite
    for name, value in zip(checked, sums):
        if not _modulus(value) < math.inf:  # NaN fails too
            raise NonConvergenceError(f"{name} of the {sol.family.name} series is not "
                                      f"finite at z={z}: {value}")
    tail = 0.0 if sol.terminated or not nonzero else (
        _modulus(coeffs[-1] * f0[-1]) / max(1e-300, abs(sums[0])))
    return (*sums, tail)


def _modulus(v: complex) -> float:
    """abs(v), or inf where v's finite parts have a modulus past the double
    range (abs() raises there)."""
    try:
        return abs(v)
    except OverflowError:
        return math.inf


def _eval_points(sol: SeriesSolution, z):
    """(u, tail) over the ndarray z; NonConvergenceError at its first u not finite."""
    import numpy as np

    nonzero, coeffs, _, _ = sol._terms
    f0 = [eval_1f1(an, cn, sol.s0 * z)
          for an, cn in _basis_walk(sol.family, sol.alpha0, sol.gamma0, nonzero)]
    # an overflow is reported below as NonConvergenceError, not as numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        u = sum(map(mul, coeffs, f0), 0j)
        tail = 0.0 if sol.terminated or not nonzero else float(
            (abs(coeffs[-1] * f0[-1]) / abs(u).clip(1e-300)).max(initial=0.0))
    bad = np.flatnonzero(~np.isfinite(u))
    if bad.size:
        raise NonConvergenceError(f"u of the {sol.family.name} series is not finite "
                                  f"at z={z.flat[bad[0]]}: {u.flat[bad[0]]}")
    return u, tail


@functools.lru_cache(maxsize=_LADDER_MEMO)
def _basis_ladder(family: Family, alpha0, gamma0, x: complex, nonzero: tuple) -> tuple:
    """_basis_sums's columns at n in nonzero, by the walk's contiguous
    relation (_contiguous_ladder) where that passes its check, else by
    _basis_sums itself; two seeds and a check save nothing on three."""
    if len(nonzero) > 3:
        columns = _contiguous_ladder(family, alpha0, gamma0, x, nonzero)
        if columns is not None:
            return columns
    return _basis_sums(family, alpha0, gamma0, x, nonzero)


def _basis_sums(family: Family, alpha0, gamma0, x, nonzero: tuple) -> tuple:
    """(f0, f1, f2): 1F1(alpha_n; gamma_n; x) and its first two derivatives
    in x, n in nonzero, one eval_1f1 call per n."""
    sums = [eval_1f1(an, cn, x, derivatives=True)
            for an, cn in _basis_walk(family, alpha0, gamma0, nonzero)]
    return tuple(zip(*sums)) or ((), (), ())


def _relations(family: Family, walk: list, x, forward: bool) -> list:
    """(D, K1, K2) at each rung i of walk: the family's contiguous relation
    D F_{i-1} + K1 F_i + K2 F_{i+1} = 0 between 1F1(alpha; gamma; x) at
    walk[i-1], walk[i] and walk[i+1], the walk taken in reverse where
    forward. On the alpha walk only K1 depends on x, as K1' = 1: the
    relation differentiated once holds for F' with F_i added, twice for F''
    with 2 F_i' added."""
    if family is Family.C_ThreeTerm:  # DLMF 13.3.2
        return [(c * (c - 1), c * (1 - c - x), x * (c - a)) for a, c in walk]
    if family in (Family.B4_FourTerm, Family.B3_ThreeTerm):  # DLMF 13.3.1
        if forward:
            return [(-a, 2 * a - c + x, c - a) for a, c in walk]
        return [(c - a, 2 * a - c + x, -a) for a, c in walk]
    # alpha and gamma both step (DLMF 13.3(i))
    return [(c * (c - 1), c * (1 - c + x), -a * x) for a, c in walk]


def _contiguous_ladder(family: Family, alpha0, gamma0, x: complex, nonzero: tuple):
    """_basis_sums's columns from two seed sums and the walk's contiguous
    relation, or None where the per-n sums must decide: a non-finite
    parameter, a pole on the walk, an eval_1f1 error, or a check that fails.

    Each walk runs where 1F1 is the stable solution of its relation. Where
    gamma_n steps (a1 and a2, where alpha_n steps too, and c), 1F1 is
    minimal as gamma_n grows: backward from the top. Where alpha_n alone
    steps (b3, b4): forward from lo, or backward from the top where
    alpha_top is a non-positive integer and every rung is a polynomial.
    The gamma walks read both derivatives off two more rungs of plain sums:
    F_n' is (alpha_n/gamma_n) F_{n+1} where alpha_n steps too (DLMF
    13.3.15) and F_n - (1 - alpha/gamma_n) F_{n+1} on the c walk (kummer's
    identity R47), and F_n'' is the same rule applied to F'. The alpha walk
    sums its seeds with derivatives and runs the relation differentiated,
    which divides nothing by x. The far-end rung is also summed directly:
    it must agree with the recurrence to within _LADDER_CHECK relative, in
    every column, and then replaces it.
    """
    if not (cmath.isfinite(alpha0) and cmath.isfinite(gamma0)):
        return None
    lo, top = nonzero[0], nonzero[-1]
    gamma_walk = family not in (Family.B4_FourTerm, Family.B3_ThreeTerm)
    walk = _basis_walk(family, alpha0, gamma0, range(lo, top + (3 if gamma_walk else 1)))
    # gamma_n is lowest at lo, so one test finds any pole on the walk
    if nonpositive_int(walk[0][1]) is not None:
        return None
    forward = not gamma_walk and nonpositive_int(walk[-1][0]) is None
    if forward:
        # the recurrence divides by alpha_n, lo < n < top, which vanishes
        # only if alpha_{lo+1} is a non-positive integer
        if nonpositive_int(walk[1][0]) is not None:
            return None
        walk.reverse()
    # from here the seeds are the last two rungs and the far end is rung 0
    rungs = [[0j] * len(walk) for _ in range(1 if gamma_walk else 3)]
    F = rungs[0]
    try:
        for i in (-1, -2):
            sums = eval_1f1(*walk[i], x, derivatives=not gamma_walk)
            for col, v in zip(rungs, (sums,) if gamma_walk else sums):
                col[i] = v
        relations = _relations(family, walk, x, forward)
        G, H = (None, None) if gamma_walk else rungs[1:]
        for i in range(len(walk) - 2, 0, -1):
            D, K1, K2 = relations[i]
            F[i - 1] = -(K1 * F[i] + K2 * F[i + 1]) / D
            if G:
                G[i - 1] = -(K1 * G[i] + K2 * G[i + 1] + F[i]) / D
                H[i - 1] = -(K1 * H[i] + K2 * H[i + 1] + 2 * G[i]) / D
        check = eval_1f1(*walk[0], x, derivatives=not gamma_walk)
    except NonConvergenceError:  # a polynomial above max_terms, or an overflow
        return None
    for col, v in zip(rungs, (check,) if gamma_walk else check):
        if not abs(col[0] - v) < _LADDER_CHECK * abs(v):  # NaN too
            return None
        col[0] = v
    if forward:
        for col in rungs:
            col.reverse()
    pick = [n - lo for n in nonzero]
    if not gamma_walk:
        return tuple(tuple([col[i] for i in pick]) for col in rungs)
    f0 = tuple([F[i] for i in pick])
    if family is Family.C_ThreeTerm:
        s = [1 - a / c for a, c in walk]
        F1 = [F[i] - s[i] * F[i + 1] for i in range(len(walk) - 1)]
        return (f0, tuple([F1[i] for i in pick]),
                tuple([F1[i] - s[i] * F1[i + 1] for i in pick]))
    r = [a / c for a, c in walk]
    return (f0, tuple([r[i] * F[i + 1] for i in pick]),
            tuple([r[i] * r[i + 1] * F[i + 2] for i in pick]))
