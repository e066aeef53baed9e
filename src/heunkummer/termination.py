"""Termination of the Kummer-basis expansions and accessory-parameter spectra.

A series right-terminates at index N when P_N = 0 (a parameter coincidence,
detected here as an integer condition) together with a_{N+1} = 0, which is a
polynomial equation of degree N+1 in q. Its roots are the q-spectrum; for
each root the recurrence then keeps every later coefficient at zero.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .che_core import CheParams
from .errors import (ConditionNotMetError, IllConditionedRootsError,
                     LeadingCoefficientVanishesError)
from .expansions import (
    GAMMA_CHOICE,
    ZERO_TOL,
    Family,
    SeriesSolution,
    build_series,
    check_alpha0_choice,
    check_applicable,
    ladder,
    resolve_alpha0_gamma0,
)
from .kummer import nonpositive_int

if TYPE_CHECKING:  # numpy loads on first use, in the functions that need it
    import numpy as np

KIND_ALPHA_OVER_EPS = "AlphaOverEps"
KIND_DELTA_INT = "DeltaInt"
KIND_GAMMA_DELTA_ALPHA = "GammaDeltaAlpha"

VERIFY_TOL = 1e-9          # |a_{N+1}|..|a_{N+5}| relative to max|a_0..a_N|
POLISH_TOL = 1e-8          # polished root must satisfy the polynomial this well
MAX_N = 80                 # readers build N-step ladders (delta = -1e20 would never
                           # finish); a_{N+1}(q) overflows double from about N = 94


@dataclass(frozen=True)
class TerminationCondition:
    family: Family
    kind: str
    N: int

    def __post_init__(self):
        if not 0 <= self.N <= MAX_N:
            raise ValueError(f"termination index N must be in 0..{MAX_N}, got N = {self.N}")


@dataclass(frozen=True)
class QSpectrum:
    """Roots of a_{N+1}(q) = 0 with per-root rebuild verification.

    polynomial holds ascending coefficients of a_{N+1}(q); roots are its
    N+1 roots (counted with multiplicity); verified[i] is _rebuild's
    verdict at roots[i], the one terminated_solution acts on, so it is
    False where the rebuild cannot reach a_{N+5}; root_residuals[i] is
    |a_{N+1}(root)| from the rebuilt recurrence.
    """

    condition: TerminationCondition
    polynomial: tuple
    roots: tuple
    verified: tuple
    root_residuals: tuple


def admissible_kinds(family: Family, alpha0_choice):
    check_alpha0_choice(family, alpha0_choice)
    if family is Family.B3_ThreeTerm and alpha0_choice == GAMMA_CHOICE:
        return [KIND_GAMMA_DELTA_ALPHA]
    if family in (Family.A2_ThreeTerm, Family.B3_ThreeTerm):
        return [KIND_ALPHA_OVER_EPS, KIND_DELTA_INT]
    if family is Family.C_ThreeTerm:
        return [KIND_GAMMA_DELTA_ALPHA, KIND_DELTA_INT]
    raise ValueError(
        f"family {family.name} has no right-termination rules here "
        f"(two-term series terminate through their Pochhammer zeros; "
        f"four-term with free s0 has no known condition)")


def _kind_value(params: CheParams, kind: str):
    if kind == KIND_ALPHA_OVER_EPS:
        return params.alpha / params.epsilon
    if kind == KIND_DELTA_INT:
        return params.delta
    return params.gamma + params.delta - params.alpha / params.epsilon  # GammaDeltaAlpha


def enumerate_termination_conditions(params: CheParams, family: Family,
                                     alpha0_choice=None) -> list[TerminationCondition]:
    """All admissible integer coincidences for the family, smallest N first;
    ApplicabilityError at eps = 0, where no family applies."""
    if params.epsilon == 0:
        check_applicable(params, family)  # EpsilonZero
    found = []
    for kind in admissible_kinds(family, alpha0_choice):
        m = nonpositive_int(_kind_value(params, kind))
        if m is not None:
            found.append(TerminationCondition(family=family, kind=kind, N=m))
    found.sort(key=lambda c: c.N)
    return found


def ladder_polynomial(steps, slopes, N: int) -> np.ndarray:
    """a_{N+1}(lam) as ascending coefficients, with a_0 = 1.

    steps is a three-term ladder [(R_n, Q_n, P_n, ...) for n = 0..N+1]
    taken at lam = 0; Q_n moves by slopes[n] * lam while R_n and P_n stay
    fixed, so deg a_n = n wherever no slope vanishes. IllConditionedRootsError
    where a coefficient overflows double, as it can near MAX_N.
    """
    import numpy as np
    from numpy.polynomial import polynomial as npoly

    prev, cur = None, np.array([1.0 + 0j])
    for n in range(1, N + 2):
        R = steps[n][0]
        if abs(R) <= ZERO_TOL * (1 + n) ** 2:  # build_series' vanishing step
            raise LeadingCoefficientVanishesError(
                f"R_{n} = {R} vanishes; termination polynomial cannot be built")
        num = npoly.polymul(cur, np.array([steps[n - 1][1], slopes[n - 1]]))
        if n >= 2:
            num = npoly.polyadd(num, steps[n - 2][2] * prev)
        prev, cur = cur, -num / R
        if not np.all(np.isfinite(cur)):
            raise IllConditionedRootsError(
                f"the termination polynomial overflows at step n = {n} of "
                f"{N + 1}: the coefficients of a_{n} are not finite")
    return cur


def q_spectrum(params: CheParams, family: Family,
               condition: TerminationCondition, alpha0_choice=None) -> QSpectrum:
    """All N+1 accessory-parameter values terminating the series at N.

    The q field of params is ignored; ConditionNotMetError unless the
    parameters meet condition. Roots of a_{N+1}(q) come from numpy's
    polyroots, then one Newton step (value from an N+1 rebuild at the root,
    derivative from the polynomial). _rebuild at each polished root gives
    its residual |a_{N+1}| and verdict; where that build fails, an N+1
    build gives the residual and the root is unverified.
    """
    from numpy.polynomial import polynomial as npoly

    p0 = dataclasses.replace(params, q=0)
    check_condition(p0, family, condition, alpha0_choice)
    N = condition.N
    alpha0, _ = resolve_alpha0_gamma0(p0, family, alpha0_choice)
    steps = ladder(p0, family, alpha0, -p0.epsilon, N + 1)
    target = ladder_polynomial(steps, [-1] * (N + 1), N)  # dQ_n/dq = -1
    roots = npoly.polyroots(target)
    dpoly = npoly.polyder(target)
    found = []  # (polished root, _rebuild's verdict, |a_{N+1}| there)
    for r in roots:
        fval = build_series(dataclasses.replace(params, q=r), family, N + 1,
                            alpha0_choice=alpha0_choice).coefficients[N + 1]
        fder = npoly.polyval(r, dpoly)
        if abs(fder) > 1e-12 * max(1.0, abs(fval)):
            r = r - fval / fder  # one Newton step; multiple roots skip it
        p = dataclasses.replace(params, q=r)
        sol, terminates = _rebuild(p, family, N, alpha0_choice)
        if sol is None:  # no steps up to N+5 to check: polished but unverified
            sol = build_series(p, family, N + 1, alpha0_choice=alpha0_choice)
        fval = sol.coefficients[N + 1]
        scale = max(abs(c) * max(1.0, abs(r)) ** k for k, c in enumerate(target))
        if abs(fval) > POLISH_TOL * scale:
            raise IllConditionedRootsError(
                f"polished root {r} leaves |a_{N + 1}| = {abs(fval):.3e} "
                f"above {POLISH_TOL:.0e} of the polynomial scale {scale:.3e}")
        found.append((complex(r), terminates, abs(fval)))
    found.sort(key=lambda f: (f[0].real, f[0].imag))
    return QSpectrum(condition=condition,
                     polynomial=tuple(complex(c) for c in target),
                     roots=tuple(f[0] for f in found),
                     verified=tuple(f[1] for f in found),
                     root_residuals=tuple(f[2] for f in found))


def check_condition(params: CheParams, family: Family,
                    condition: TerminationCondition, alpha0_choice=None) -> None:
    """The one place that decides whether a condition holds: the family must
    apply (else ApplicabilityError) and the condition's family, kind, N and
    alpha0 branch must be among the enumerated ones (else ConditionNotMetError)."""
    check_applicable(params, family)
    held = enumerate_termination_conditions(params, family, alpha0_choice)
    if condition not in held:
        raise ConditionNotMetError(
            f"{condition.family.name} {condition.kind} N = {condition.N} does not "
            f"hold: the {family.name} parameters (alpha0_choice {alpha0_choice!r}) "
            f"meet {[(c.kind, c.N) for c in held]}")


def _rebuild(params: CheParams, family: Family, N: int, alpha0_choice):
    """The one termination verdict: (the series at params.q built to N+5,
    whether a_{N+1}..a_{N+5} all stay within VERIFY_TOL of max|a_0..a_N|).
    (None, False) where the build cannot take those steps (an R_n = 0 with
    a non-negligible numerator)."""
    try:
        sol = build_series(params, family, N + 5, alpha0_choice=alpha0_choice)
    except (LeadingCoefficientVanishesError, ZeroDivisionError):
        return None, False
    a = sol.coefficients
    bound = VERIFY_TOL * max(abs(a[n]) for n in range(N + 1))
    return sol, all(abs(a[n]) <= bound for n in range(N + 1, N + 6))


def terminated_solution(params: CheParams, family: Family,
                        condition: TerminationCondition,
                        alpha0_choice=None) -> SeriesSolution:
    """The series truncated to a_0..a_N, N = condition.N, where _rebuild
    finds that it terminates there.

    check_condition's errors unless the parameters meet condition; ValueError
    where params.q is not a spectrum root or the rebuild cannot reach N+5.
    """
    check_condition(params, family, condition, alpha0_choice)
    N = condition.N
    sol, terminates = _rebuild(params, family, N, alpha0_choice)
    if not terminates:
        why = ("is q a spectrum root?" if sol is not None
               else f"the rebuild cannot reach a_{N + 5}")
        raise ValueError(f"series does not terminate at N={N} for q={params.q}; {why}")
    return dataclasses.replace(sol, coefficients=sol.coefficients[:N + 1],
                               terminated=True, terminal_index=N)


def finite_solution(params: CheParams, family: Family,
                    alpha0_choice=None) -> SeriesSolution:
    """terminated_solution at the first enumerated condition whose spectrum
    holds params.q: the exact finite sum. ConditionNotMetError where none
    does, as at eps = 0 and for a1 and b4, which have no rule here."""
    conditions = []
    if params.epsilon != 0 and family not in (Family.A1_TwoTerm, Family.B4_FourTerm):
        conditions = enumerate_termination_conditions(params, family, alpha0_choice)
    for cond in conditions:
        try:
            return terminated_solution(params, family, cond, alpha0_choice)
        except ValueError:
            continue  # q not in this condition's spectrum; try the next
    raise ConditionNotMetError(
        f"the {family.name} series does not terminate at q = {params.q}")
