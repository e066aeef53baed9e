"""Termination of the Kummer-basis expansions and accessory-parameter spectra.

A series right-terminates at index N when P_N = 0 (a parameter coincidence,
detected here as an integer condition) together with a_{N+1} = 0, which is a
polynomial equation of degree N+1 in q. Its roots are the q-spectrum; for
each root the recurrence then keeps every later coefficient at zero. The
roots are eigenvalues of the equation's own power-series tridiagonal
(recurrence_tridiagonal), each checked by rebuilding its Kummer series.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .che_core import CheParams, transform_1_minus_z
from .errors import ConditionNotMetError, LeadingCoefficientVanishesError
from .expansions import (
    GAMMA_CHOICE,
    Family,
    SeriesSolution,
    build_series,
    check_alpha0_choice,
    check_applicable,
)
from .kummer import nonpositive_int

if TYPE_CHECKING:  # numpy loads on first use, in the functions that need it
    import numpy as np

KIND_ALPHA_OVER_EPS = "AlphaOverEps"
KIND_DELTA_INT = "DeltaInt"
KIND_GAMMA_DELTA_ALPHA = "GammaDeltaAlpha"

VERIFY_TOL = 1e-9          # |a_{N+1}|..|a_{N+5}| relative to max|a_0..a_N|
MAX_N = 80                 # readers build N-step ladders and (N+1)x(N+1)
                           # eigenproblems (delta = -1e20 would never finish)


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

    roots are the N+1 eigenvalues (counted with multiplicity) of the
    condition's tridiagonal, shifted back to q, ascending by real then
    imaginary part; verified[i] is _rebuild's verdict at roots[i], the one
    terminated_solution acts on, so it is False where the rebuild cannot
    reach a_{N+5}; root_residuals[i] is |a_{N+1}(root)| from the rebuilt
    recurrence.
    """

    condition: TerminationCondition
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


def recurrence_tridiagonal(params: CheParams, N: int) -> np.ndarray:
    """The (N+1)x(N+1) tridiagonal T of the power-series recurrence at z = 0.

    Row k of the equation times z(z-1) on sum c_k z^k reads

        [eps(k-1) + alpha] c_{k-1} + [k(k-1) + k(gamma+delta-eps)] c_k
            - (k+1)(k+gamma) c_{k+1} = q c_k,

    so where c_{N+1} drops out of rows 0..N, q is an eigenvalue of T. Built
    here, not through che_core's Frobenius oracle, which stays independent.
    params.q is not read.
    """
    import numpy as np

    g, d, e, al = params.gamma, params.delta, params.epsilon, params.alpha
    k = np.arange(N + 1)
    return (np.diag(k * (k - 1) + k * (g + d - e))
            + np.diag(e * (k[1:] - 1) + al, -1)
            + np.diag(-(k[:-1] + 1) * (k[:-1] + g), 1))


def _eigenproblem(params: CheParams, kind: str):
    """(p, shift): the spectrum of the condition kind is shift plus the
    eigenvalues of recurrence_tridiagonal(p, N).

    AlphaOverEps: alpha = -N eps cuts row N+1's coupling to c_N, so
    c_{N+1} = 0 ends a degree-N polynomial solution. GammaDeltaAlpha:
    u = exp(-eps z) v makes it AlphaOverEps at the same N. DeltaInt: the
    series terminates where the solution has no logarithm at z = 1; after
    z -> 1-z, gamma' = -N cuts row N's coupling to c_{N+1}.
    """
    if kind == KIND_ALPHA_OVER_EPS:
        return params, 0
    if kind == KIND_DELTA_INT:
        return transform_1_minus_z(params), params.alpha
    g, d, e = params.gamma, params.delta, params.epsilon  # GammaDeltaAlpha
    return CheParams(g, d, -e, params.alpha - e * (g + d), 0), e * g


def q_spectrum(params: CheParams, family: Family,
               condition: TerminationCondition, alpha0_choice=None) -> QSpectrum:
    """All N+1 accessory-parameter values terminating the series at N.

    The q field of params is ignored; ConditionNotMetError unless the
    parameters meet condition. The roots are numpy's eigenvalues of the
    condition's recurrence_tridiagonal. _rebuild at each root gives its
    residual |a_{N+1}| and verdict; where that build fails, an N+1 build
    gives the residual and the root is unverified, and where that fails too
    (an R_n = 0 step up to N+1), its LeadingCoefficientVanishesError stops
    the spectrum.
    """
    import numpy as np

    p0 = dataclasses.replace(params, q=0)
    check_condition(p0, family, condition, alpha0_choice)
    N = condition.N
    p_eig, shift = _eigenproblem(p0, condition.kind)
    found = []  # (root, _rebuild's verdict, |a_{N+1}| there)
    for lam in np.linalg.eigvals(recurrence_tridiagonal(p_eig, N)):
        r = complex(lam + shift)
        p = dataclasses.replace(params, q=r)
        sol, terminates = _rebuild(p, family, N, alpha0_choice)
        if sol is None:  # no steps up to N+5 to check: unverified
            sol = build_series(p, family, N + 1, alpha0_choice=alpha0_choice)
        found.append((r, terminates, abs(sol.coefficients[N + 1])))
    found.sort(key=lambda f: (f[0].real, f[0].imag))
    return QSpectrum(condition=condition,
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
