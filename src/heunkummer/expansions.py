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
ladders, (1F1(alpha_n + k; gamma_n + k; s0 z) for the n with a_n != 0),
keyed by the family, alpha0, gamma0, s0 z, the shift k in {0, 1, 2} and
those indices; beyond LARGE_X, where eval_1f1 warns, nothing is memoized.
Values are bit-identical to one eval_1f1 call per term. An array of z
bypasses the memo: each basis function is one eval_1f1 call over all of
its points.
"""

from __future__ import annotations

import enum
import functools
from dataclasses import dataclass
from typing import Optional

from .che_core import CheParams
from .errors import (
    ApplicabilityError,
    LeadingCoefficientVanishesError,
    TailTooLargeError,
)
from .kummer import INT_TOL, LARGE_X, eval_1f1, nonpositive_int

# R_n and the recurrence numerator both scale like n^2: a step with
# |R_n| <= ZERO_TOL (1+n)^2 vanishes in build_series, unless the numerator
# vanishes too, which marks a terminated resonance.
ZERO_TOL = 1e-9

# Bound of the basis memo, in ladders: the roots of one spectrum evaluated
# with derivatives at P points share 3P ladders, whatever N.
_LADDER_MEMO = 256


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

    Empty list means the family's series can be built for these parameters.
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
    drives the two-term build.
    """
    g, d, e, al, q = params.gamma, params.delta, params.epsilon, params.alpha, params.q
    if family is Family.A1_TwoTerm:
        a_n = alpha0 + n
        c_n = (1 + g + d) + n  # gamma0 = 1+alpha0+gamma+delta-alpha/eps at alpha0=alpha/eps
        if c_n == 0:
            raise ZeroDivisionError(f"two-term ratio undefined: gamma_{n} = 0")
        return 1.0 + 0j, -a_n / c_n, 0j, None
    if family is Family.A2_ThreeTerm:
        gd = g + d
        if gd + n == 0:
            raise ZeroDivisionError(f"P_{n} denominator gamma+delta+{n} = 0")
        R = -n * (gd + n - 1)
        Q = n * (gd + n - 1) + (e * n + al) - q
        P = -(d + n) * (e * n + al) / (gd + n)
        return R, Q, P, None
    if family is Family.C_ThreeTerm:
        gd = g + d
        if gd + n == 0:
            raise ZeroDivisionError(f"P_{n} denominator gamma+delta+{n} = 0")
        R = -n * (gd + n - 1)
        Q = n * (gd + n - 1) - e * (d + n) + al - q
        P = (d + n) * (e - al / (gd + n))
        return R, Q, P, None
    an = alpha0 + n
    if family is Family.B3_ThreeTerm:
        ae = al / e
        R = (an - g) * (an - ae)
        Q = (an - ae) * (g - 2 * an) + an * (e - d) - q
        P = an * (an + d - ae)
        return R, Q, P, None
    if family is Family.B4_FourTerm:
        R = (an - g) * (an * e - al)
        Q = (an * e - al) * (g - 2 * an) - s0 * (an * (e - d) - q) \
            + an * (g - 1 - an) * (s0 + e)
        P = an * ((an + d) * e - al
                  + (2 * an + 2 - g - d - e) * (e + s0) + (e + s0) ** 2)
        S = -an * (1 + an) * (s0 + e)
        return R, Q, P, S
    raise ValueError(f"unknown family {family}")


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
    coeffs = [1.0 + 0j]
    scale = 1.0
    for n in range(1, N + 1):
        R = steps[n][0]
        num = 0j
        num += steps[n - 1][1] * coeffs[n - 1]
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
        scale = max(scale, abs(a_n))

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
    exceeds tol on a non-terminated solution.

    z may be an ndarray: value is then an array of its shape, each basis
    function summed over every point by one eval_1f1 call (no memo), and
    tail_estimate is the largest over the points.
    """
    value, _, _, tail = _eval_series_impl(sol, z, derivatives=False)
    if not sol.terminated and tail > tol:
        raise TailTooLargeError(
            f"tail estimate {tail:.3e} exceeds tol={tol:.3e}; "
            f"the series is not terminated")
    return value, tail


def eval_series_with_derivatives(sol: SeriesSolution, z):
    """(u, u', u'', tail_estimate) at z, each 1F1 differentiated through its
    parameter-shift rule. No tail gate is applied; callers inspect the tail."""
    return _eval_series_impl(sol, z, derivatives=True)


def _eval_series_impl(sol: SeriesSolution, z, derivatives: bool):
    array = getattr(z, "ndim", 0) > 0  # an ndarray of points
    if not array:
        z = complex(z)
    s0 = sol.s0
    x = s0 * z
    a = sol.coefficients
    # from a list, not a generator: CPython builds a tuple from a generator
    # by resizing it, and each resized tuple joins the free list of its new
    # size (up to 2000 a size), so those free lists grew on every call
    nonzero = tuple([n for n, a_n in enumerate(a) if a_n != 0])
    family, alpha0, gamma0 = sol.family, sol.alpha0, sol.gamma0
    # a ladder that warns is not memoized, so every evaluation warns; an
    # array of points is summed afresh, one eval_1f1 call per basis function
    memo = not array and abs(x) <= LARGE_X
    basis = _basis_ladder if memo else _basis_ladder.__wrapped__
    u = u1 = u2 = 0j
    last_nonzero = None
    for n, f in zip(nonzero, basis(family, alpha0, gamma0, x, 0, nonzero)):
        last_nonzero = a[n] * f
        u += last_nonzero
    if derivatives:
        for n, f1, f2 in zip(nonzero,
                             basis(family, alpha0, gamma0, x, 1, nonzero),
                             basis(family, alpha0, gamma0, x, 2, nonzero)):
            an, cn = _basis_parameters(family, alpha0, gamma0, n)
            u1 += a[n] * s0 * (an / cn) * f1
            u2 += a[n] * s0 * s0 * (an * (an + 1)) / (cn * (cn + 1)) * f2
    if sol.terminated or last_nonzero is None:
        tail = 0.0
    elif array:
        tail = float((abs(last_nonzero) / abs(u).clip(1e-300)).max(initial=0.0))
    else:
        tail = abs(last_nonzero) / max(1e-300, abs(u))
    if derivatives:
        return u, u1, u2, tail
    return u, None, None, tail


@functools.lru_cache(maxsize=_LADDER_MEMO)
def _basis_ladder(family: Family, alpha0, gamma0, x: complex, k: int,
                  nonzero: tuple) -> tuple:
    """(1F1(alpha_n + k; gamma_n + k; x) for n in nonzero)."""
    ladder = []
    for n in nonzero:
        an, cn = _basis_parameters(family, alpha0, gamma0, n)
        ladder.append(eval_1f1(an + k, cn + k, x) if k else eval_1f1(an, cn, x))
    return tuple(ladder)
