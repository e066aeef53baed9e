"""Termination of the Kummer-basis expansions and accessory-parameter spectra.

A series right-terminates at index N when P_N = 0 (a parameter coincidence,
detected here as an integer condition) together with a_{N+1} = 0, which is a
polynomial equation of degree N+1 in q. Its roots are the q-spectrum; for
each root the recurrence then keeps every later coefficient at zero. The
roots are eigenvalues of the equation's own power-series tridiagonal
(condition_tridiagonal). q enters the three-term ladders only as Q_n - q and
no condition reads q, so a spectrum checks and builds its ladder once, and one
solve_ladder pass runs the recurrence over the column of its roots. Each
root's row, its coefficients and verdict, goes into the spectrum's root
table, which terminated_solution and finite_solution read there.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .che_core import CheParams
from .errors import ConditionNotMetError
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
_PARTS = struct.Struct("8d")  # gamma, delta, eps, alpha: real, imag
_Q = struct.Struct("2d")      # q: real, imag


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
    """Roots of a_{N+1}(q) = 0, each verified by the recurrence run at it.

    roots are the N+1 eigenvalues (counted with multiplicity) of the
    condition's tridiagonal, shifted back to q, ascending by real then
    imaginary part; verified[i] is the verdict at roots[i] that the root
    table keeps for terminated_solution, so it is False where the recurrence
    cannot reach a_{N+5}; root_residuals[i] is |a_{N+1}(root)| from that
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


def condition_tridiagonal(params: CheParams, condition: TerminationCondition):
    """(T, shift): the condition's q-spectrum is shift + eig(T), T a
    recurrence_tridiagonal (ValueError where it overflows); reads no q.

    AlphaOverEps: alpha = -N eps cuts row N+1's coupling to c_N, so
    c_{N+1} = 0 ends a degree-N polynomial solution. GammaDeltaAlpha:
    u = exp(-eps z) v makes it AlphaOverEps at the same N. DeltaInt: the
    series terminates where the solution has no logarithm at z = 1; after
    z -> 1-z, gamma' = -N cuts row N's coupling to c_{N+1}.
    """
    import numpy as np

    g, d, e, al = params.gamma, params.delta, params.epsilon, params.alpha
    p, shift = params, 0  # AlphaOverEps
    if condition.kind == KIND_DELTA_INT:  # z -> 1-z as che_core.transform_1_minus_z
        p, shift = CheParams(d, g, -e, -al, 0), al
    elif condition.kind == KIND_GAMMA_DELTA_ALPHA:
        p, shift = CheParams(g, d, -e, al - e * (g + d), 0), e * g
    with np.errstate(over="ignore", invalid="ignore"):  # reported below instead
        T = recurrence_tridiagonal(p, condition.N)
    if not np.isfinite(T).all():
        raise ValueError(f"the {condition.family.name} {condition.kind} N = {condition.N} "
                         f"spectrum overflows: its recurrence tridiagonal is not finite")
    return T, shift


def q_spectrum(params: CheParams, family: Family,
               condition: TerminationCondition, alpha0_choice=None) -> QSpectrum:
    """All N+1 accessory-parameter values terminating the series at N.

    The q field of params is ignored; check_condition's errors unless the
    parameters meet condition. The roots are numpy's eigenvalues of the
    condition_tridiagonal, shifted. One solve_ladder pass over the
    column of roots runs each to a_{N+5} and gives its residual |a_{N+1}|
    and verdict, which the spectrum's root table keeps for
    terminated_solution. An R_n = 0 step up to N+1 stops the spectrum with
    its LeadingCoefficientVanishesError; a root whose pass stops later, or
    overflows, is unverified, its residual inf where a coefficient up to
    a_{N+1} overflows. A tridiagonal that overflows raises ValueError.
    """
    import numpy as np

    *_, steps, table = _q_free_ladder(_parts(params), family, condition, alpha0_choice)
    N = condition.N
    T, shift = condition_tridiagonal(params, condition)
    roots = [complex(lam + shift) for lam in np.linalg.eigvals(T)]
    found = []  # (root, its verdict, |a_{N+1}| there)
    for r, (a, error) in zip(roots, solve_ladder(family, steps, N + 5, roots)):
        if len(a) < N + 2:  # an R_n = 0 step up to a_{N+1}
            raise error
        terminates = error is None and _terminates(a, N)
        table[_q_key(r)] = (None if error else a, terminates)
        finite = error is None or all(map(cmath.isfinite, a[:N + 2]))
        found.append((r, terminates, abs(a[N + 1]) if finite else math.inf))
    roots, verified, residuals = zip(*sorted(found, key=lambda f: (f[0].real, f[0].imag)))
    return QSpectrum(condition, roots, verified, residuals)


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


def _parts(params: CheParams) -> bytes:
    """The eight real parts of gamma, delta, eps and alpha: the q-free
    ladder's key. Bits, not values: +0.0 and -0.0 compare equal, their
    series do not."""
    g, d, e, al = params.gamma, params.delta, params.epsilon, params.alpha
    return _PARTS.pack(g.real, g.imag, d.real, d.imag, e.real, e.imag, al.real, al.imag)


def _q_key(q: complex) -> bytes:
    """The root table's key: the bits of q, so a real root passed as r-0j
    keeps its own row."""
    return _Q.pack(q.real, q.imag)


def _terminates(a: tuple, N: int) -> bool:
    """The one termination verdict on a series built to a_{N+5}: whether
    a_{N+1}..a_{N+5} all stay within VERIFY_TOL of max|a_0..a_N|."""
    return max(map(abs, a[N + 1:N + 6])) <= VERIFY_TOL * max(map(abs, a[:N + 1]))


@functools.lru_cache(maxsize=8)  # one per spectrum, for the last few spectra
def _q_free_ladder(parts: bytes, family: Family, cond: TerminationCondition, alpha0_choice):
    """(alpha0, gamma0, s0, steps to N+5 at q = 0, root table) at
    _parts(params), once cond holds. q_spectrum fills the root table:
    _q_key of each root -> (a_0..a_{N+5}, or None where the pass stopped
    or overflowed; the verdict)."""
    re_im = _PARTS.unpack(parts)
    p0 = CheParams(*map(complex, re_im[0::2], re_im[1::2]), 0)
    check_condition(p0, family, cond, alpha0_choice)
    alpha0, gamma0 = resolve_alpha0_gamma0(p0, family, alpha0_choice)
    steps = ladder(p0, family, alpha0, -p0.epsilon, cond.N + 5)
    return complex(alpha0), complex(gamma0), -p0.epsilon, steps, {}


def terminated_solution(params: CheParams, family: Family,
                        condition: TerminationCondition,
                        alpha0_choice=None) -> SeriesSolution:
    """The series truncated to a_0..a_N, N = condition.N, where it terminates
    there: the row of the spectrum's root table at a root, else the same
    solve_ladder pass on the one-element column params.q.

    check_condition's errors unless the parameters meet condition; ValueError
    where params.q is not a spectrum root or the pass cannot reach N+5.
    """
    N = condition.N
    alpha0, gamma0, s0, steps, table = _q_free_ladder(_parts(params), family, condition,
                                                      alpha0_choice)
    row = table.get(_q_key(params.q))
    if row is None:
        [(a, error)] = solve_ladder(family, steps, N + 5, (params.q,))
        row = (None, False) if error else (a, _terminates(a, N))
    a, terminates = row
    if not terminates:
        why = ("is q a spectrum root?" if a is not None
               else f"the rebuild cannot reach a_{N + 5}")
        raise ValueError(f"series does not terminate at N={N} for q={params.q}; {why}")
    return SeriesSolution(params=params, family=family, alpha0=alpha0, gamma0=gamma0,
                          s0=s0, coefficients=a[:N + 1], terminated=True, terminal_index=N)


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
