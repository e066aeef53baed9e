"""Termination of the Kummer-basis expansions and accessory-parameter spectra.

A series right-terminates at index N when P_N = 0 (a parameter coincidence,
detected here as an integer condition) together with a_{N+1} = 0, which is a
polynomial equation of degree N+1 in q. Its roots are the q-spectrum; for
each root the recurrence then keeps every later coefficient at zero. The
roots are eigenvalues of the equation's own power-series tridiagonal
(recurrence_tridiagonal), each checked by a memoized rebuild of its Kummer
series, the very one terminated_solution and finite_solution read there.
q enters the three-term ladders only as Q_n - q and no condition reads q, so a
spectrum checks and builds its ladder once: a root's rebuild runs the recurrence.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .che_core import CheParams, transform_1_minus_z
from .errors import (ConditionNotMetError, LeadingCoefficientVanishesError,
                     NonConvergenceError)
from .expansions import (
    GAMMA_CHOICE,
    Family,
    SeriesSolution,
    check_alpha0_choice,
    check_applicable,
    ladder,
    resolve_alpha0_gamma0,
    solve_ladder,
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
_REBUILD_MEMO = 256        # rebuilds kept: every root of a spectrum, N <= MAX_N
_PARTS = struct.Struct("10d")  # gamma, delta, eps, alpha, q: real, imag


@dataclass(frozen=True)
class TerminationCondition:
    family: Family
    kind: str
    N: int

    def __post_init__(self):
        if not 0 <= self.N <= MAX_N:
            raise ValueError(f"termination index N must be in 0..{MAX_N}, got N = {self.N:.15g}")


@dataclass(frozen=True)
class QSpectrum:
    """Roots of a_{N+1}(q) = 0 with per-root rebuild verification.

    roots are the N+1 eigenvalues (counted with multiplicity) of the
    condition's tridiagonal, shifted back to q, ascending by real then
    imaginary part; verified[i] is the memoized rebuild's verdict at roots[i],
    the one terminated_solution reads, so it is False where the rebuild cannot
    reach a_{N+5}; root_residuals[i] is |a_{N+1}(root)| from the rebuilt
    recurrence, inf where a coefficient up to a_{N+1} overflows.
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
    ApplicabilityError at eps = 0 and ValueError where a kind's value overflows."""
    if params.epsilon == 0:
        check_applicable(params, family)  # EpsilonZero
    found = []
    for kind in admissible_kinds(family, alpha0_choice):
        value = _kind_value(params, kind)
        if not cmath.isfinite(value):
            raise ValueError(f"the {kind} value {value} is not finite")
        m = nonpositive_int(value)
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

    The q field of params is ignored; check_condition's errors unless the
    parameters meet condition. The roots are numpy's eigenvalues of the
    condition's recurrence_tridiagonal. The rebuild at each root gives its
    residual |a_{N+1}| and verdict; where that build fails, an N+1 build
    gives the residual and the root is unverified, and where that fails too
    (an R_n = 0 step up to N+1), its LeadingCoefficientVanishesError stops
    the spectrum; an overflow up to a_{N+1} leaves the root unverified, its
    residual inf. A tridiagonal that overflows raises ValueError.
    """
    import numpy as np

    q_free = _q_free_ladder(_bits(params)[:-16], family, condition, alpha0_choice)
    N = condition.N
    p_eig, shift = _eigenproblem(dataclasses.replace(params, q=0), condition.kind)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        T = recurrence_tridiagonal(p_eig, N)
    if not np.isfinite(T).all():
        raise ValueError(f"the {family.name} {condition.kind} N = {N} spectrum overflows: "
                         f"its recurrence tridiagonal is not finite")
    found = []  # (root, the rebuild's verdict, |a_{N+1}| there)
    for lam in np.linalg.eigvals(T):
        r = complex(lam + shift)
        p = dataclasses.replace(params, q=r)
        sol, terminates = _rebuild_memo(_bits(p), p, family, condition, alpha0_choice)
        if sol is None:  # no steps up to N+5 to check: unverified
            try:
                sol = solve_ladder(p, family, *q_free, N + 1, p.q)
            except NonConvergenceError:  # a coefficient up to a_{N+1} overflows
                found.append((r, False, math.inf))
                continue
        found.append((r, terminates, abs(sol.coefficients[N + 1])))
    found.sort(key=lambda f: (f[0].real, f[0].imag))
    return QSpectrum(condition=condition,
                     roots=tuple(f[0] for f in found),
                     verified=tuple(f[1] for f in found),
                     root_residuals=tuple(f[2] for f in found))


def check_condition(params: CheParams, family: Family,
                    condition: TerminationCondition, alpha0_choice=None) -> None:
    """The one place that decides whether a condition holds: enumerated (else
    ConditionNotMetError) for a family that applies (else ApplicabilityError).
    Enumeration first refuses a1 and b4, whose applicability reads q: no q is read."""
    held = enumerate_termination_conditions(params, family, alpha0_choice)
    check_applicable(params, family)
    if condition not in held:
        raise ConditionNotMetError(
            f"{condition.family.name} {condition.kind} N = {condition.N} does not "
            f"hold: the {family.name} parameters (alpha0_choice {alpha0_choice!r}) "
            f"meet {[(c.kind, c.N) for c in held]}")


def _bits(params: CheParams) -> bytes:
    """The ten real parts, q's last: r+0j and r-0j compare equal, their series do not."""
    g, d, e, al, q = params.gamma, params.delta, params.epsilon, params.alpha, params.q
    return _PARTS.pack(g.real, g.imag, d.real, d.imag, e.real, e.imag,
                       al.real, al.imag, q.real, q.imag)


@functools.lru_cache(maxsize=_REBUILD_MEMO)
def _rebuild_memo(key: bytes, params: CheParams, family: Family,
                  condition: TerminationCondition, alpha0_choice):
    """The one termination verdict, memoized: (the series at params.q built to
    N+5, whether a_{N+1}..a_{N+5} all stay within VERIFY_TOL of max|a_0..a_N|),
    or (None, False) where an R_n = 0 with a non-negligible numerator, or an
    overflowing coefficient, stops it.
    key = _bits(params). A miss solves the checked q-free ladder at params.q
    (build_series's series bit for bit); errors are not memoized: a hit is checked."""
    N = condition.N
    steps = _q_free_ladder(key[:-16], family, condition, alpha0_choice)
    try:
        sol = solve_ladder(params, family, *steps, N + 5, params.q)
    except (LeadingCoefficientVanishesError, NonConvergenceError):
        return None, False
    a = sol.coefficients
    bound = VERIFY_TOL * max(abs(a[n]) for n in range(N + 1))
    return sol, all(abs(a[n]) <= bound for n in range(N + 1, N + 6))


@functools.lru_cache(maxsize=8)  # one per spectrum, for the last few spectra
def _q_free_ladder(parts: bytes, family: Family, cond: TerminationCondition, alpha0_choice):
    """(alpha0, gamma0, s0, steps to N+5 at q = 0) at _bits(params)[:-16], once cond holds."""
    re_im = struct.unpack("8d", parts)
    p0 = CheParams(*map(complex, re_im[0::2], re_im[1::2]), 0)
    check_condition(p0, family, cond, alpha0_choice)
    alpha0, gamma0 = resolve_alpha0_gamma0(p0, family, alpha0_choice)
    return alpha0, gamma0, -p0.epsilon, ladder(p0, family, alpha0, -p0.epsilon, cond.N + 5)


def terminated_solution(params: CheParams, family: Family,
                        condition: TerminationCondition,
                        alpha0_choice=None) -> SeriesSolution:
    """The series truncated to a_0..a_N, N = condition.N, where the memoized
    rebuild finds that it terminates there.

    check_condition's errors unless the parameters meet condition; ValueError
    where params.q is not a spectrum root or the rebuild cannot reach N+5.
    """
    N = condition.N
    sol, terminates = _rebuild_memo(_bits(params), params, family, condition, alpha0_choice)
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
