import cmath
import dataclasses
import math
import random

import mpmath
import pytest

from heunkummer import (
    ApplicabilityError,
    CheParams,
    ConditionNotMetError,
    LeadingCoefficientVanishesError,
    Family,
    GAMMA_CHOICE,
    TerminationCondition,
    enumerate_termination_conditions,
    eval_series,
    q_spectrum,
    terminated_solution,
)
from heunkummer.termination import (
    KIND_ALPHA_OVER_EPS,
    KIND_DELTA_INT,
    KIND_GAMMA_DELTA_ALPHA,
    MAX_N,
    admissible_kinds,
    finite_solution,
)

from conftest import (SPECTRUM_COMBOS, draw_on_condition, polynomial_certificate,
                      series_residual)


def params(g, d, e, al, q=0.0) -> CheParams:
    return CheParams(gamma=g, delta=d, epsilon=e, alpha=al, q=q)


# ---------------------------------------------------------------------------
# detection

def test_delta_coincidence_detected():
    conds = enumerate_termination_conditions(params(2.3, -2.0, 1.1, 0.7),
                                             Family.A2_ThreeTerm)
    assert conds == [TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 2)]


def test_alpha_over_eps_coincidence_detected():
    [cond] = enumerate_termination_conditions(params(2.3, 0.4, 1.1, -3.3),
                                              Family.A2_ThreeTerm)
    assert cond.kind == KIND_ALPHA_OVER_EPS and cond.N == 3


def test_generic_parameters_have_no_condition():
    assert enumerate_termination_conditions(
        params(2.3, 0.4, 1.1, 0.7), Family.A2_ThreeTerm) == []
    assert enumerate_termination_conditions(
        params(2.3, 0.4, 1.1, 0.7), Family.C_ThreeTerm) == []


def test_detection_enumerates_and_keeps_the_smallest():
    # both coincidences at once: delta = -1 and alpha/eps = -2
    p = params(2.3, -1.0, 1.1, -2.2)
    conds = enumerate_termination_conditions(p, Family.A2_ThreeTerm)
    assert [(c.kind, c.N) for c in conds] == [(KIND_DELTA_INT, 1),
                                              (KIND_ALPHA_OVER_EPS, 2)]


def test_admissible_kinds_by_family():
    assert admissible_kinds(Family.A2_ThreeTerm, None) == \
        [KIND_ALPHA_OVER_EPS, KIND_DELTA_INT]
    assert admissible_kinds(Family.B3_ThreeTerm, None) == \
        [KIND_ALPHA_OVER_EPS, KIND_DELTA_INT]
    assert admissible_kinds(Family.B3_ThreeTerm, GAMMA_CHOICE) == \
        [KIND_GAMMA_DELTA_ALPHA]
    assert admissible_kinds(Family.C_ThreeTerm, None) == \
        [KIND_GAMMA_DELTA_ALPHA, KIND_DELTA_INT]
    with pytest.raises(ValueError):
        admissible_kinds(Family.A1_TwoTerm, None)
    with pytest.raises(ValueError):
        admissible_kinds(Family.B4_FourTerm, None)


def test_gamma_delta_alpha_coincidence_on_the_gamma_branch():
    # gamma + delta - alpha/eps = -1
    p = params(1.2, 0.7, 1.1, 1.1 * (1.2 + 0.7 + 1))
    [cond] = enumerate_termination_conditions(p, Family.B3_ThreeTerm, GAMMA_CHOICE)
    assert cond.kind == KIND_GAMMA_DELTA_ALPHA and cond.N == 1


# ---------------------------------------------------------------------------
# spectra against hand-solved quadratics
#
# For every N = 1 case below, a_2(q) = 0 reduces to a quadratic whose
# coefficients follow from two recurrence steps: with a_1 = -Q_0/R_1,
# the condition R_2 a_2 = -(Q_1 a_1 + P_0 a_0) = 0 is Q_1 Q_0 = P_0 R_1.

def spectrum(g, d, e, al, family, kind, N, choice=None):
    cond = TerminationCondition(family=family, kind=kind, N=N)
    return q_spectrum(params(g, d, e, al), family, cond, choice)


def test_a2_delta_spectrum_matches_hand_roots():
    # (2.5, -1, 1, 1): Q_1 Q_0 = P_0 R_1 gives q^2 - 4.5 q + 4.5 = 0
    spec = spectrum(2.5, -1.0, 1.0, 1.0, Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
    expected = sorted([(4.5 - 1.5) / 2, (4.5 + 1.5) / 2])
    assert len(spec.roots) == 2
    for root, want in zip(spec.roots, expected):
        assert root == pytest.approx(want, abs=1e-12)
    assert all(spec.verified)


def test_b3_alpha_spectrum_matches_hand_roots():
    # (2.5, 0.3, 1, -1): q^2 - 1.8 q - 2.5 = 0
    spec = spectrum(2.5, 0.3, 1.0, -1.0, Family.B3_ThreeTerm,
                    KIND_ALPHA_OVER_EPS, 1)
    s = math.sqrt(13.24)
    expected = sorted([(1.8 - s) / 2, (1.8 + s) / 2])
    for root, want in zip(spec.roots, expected):
        assert root == pytest.approx(want, abs=1e-12)
    assert all(spec.verified)


def test_c_gamma_delta_alpha_spectrum_matches_hand_roots():
    # (1.3, 0.4, 1, 2.7): q^2 - 5.3 q + 6.5 = 0
    spec = spectrum(1.3, 0.4, 1.0, 2.7, Family.C_ThreeTerm,
                    KIND_GAMMA_DELTA_ALPHA, 1)
    s = math.sqrt(2.09)
    expected = sorted([(5.3 - s) / 2, (5.3 + s) / 2])
    for root, want in zip(spec.roots, expected):
        assert root == pytest.approx(want, abs=1e-12)
    assert all(spec.verified)


def test_complex_conjugate_spectrum():
    # (1.6, -1, 0.9, 1.1): q^2 - 3.7 q + 3.96 = 0 has negative discriminant;
    # the terminating q values come as a conjugate pair and still verify
    spec = spectrum(1.6, -1.0, 0.9, 1.1, Family.C_ThreeTerm, KIND_DELTA_INT, 1)
    s = cmath.sqrt(3.7 ** 2 - 4 * 3.96)
    expected = sorted([(3.7 - s) / 2, (3.7 + s) / 2], key=lambda z: (z.real, z.imag))
    assert len(spec.roots) == 2
    for root, want in zip(spec.roots, expected):
        assert abs(root - want) <= 1e-12
    assert spec.verified == (True, True)


def test_a2_alpha_spectrum_matches_hand_roots():
    # (1.4, 0.6, 1.3, -1.3): q^2 - 0.7 q - 1.82 = 0
    spec = spectrum(1.4, 0.6, 1.3, -1.3, Family.A2_ThreeTerm,
                    KIND_ALPHA_OVER_EPS, 1)
    s = math.sqrt(7.77)
    expected = sorted([(0.7 - s) / 2, (0.7 + s) / 2])
    for root, want in zip(spec.roots, expected):
        assert root == pytest.approx(want, abs=1e-12)


def test_gamma_branch_linear_spectrum():
    # N = 0 on the gamma branch: the single root lands at gamma * eps
    p = params(1.2, 0.7, 1.1, 1.1 * (1.2 + 0.7))
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, 0)
    spec = q_spectrum(p, Family.B3_ThreeTerm, cond, GAMMA_CHOICE)
    assert len(spec.roots) == 1
    assert spec.roots[0] == pytest.approx(1.2 * 1.1, abs=1e-13)


def test_delta_zero_pins_the_root_at_alpha():
    rng = random.Random(17)
    for _ in range(5):
        g = rng.uniform(1.2, 2.8)
        e = rng.uniform(0.8, 1.3)
        al = complex(rng.uniform(-2, 2), rng.uniform(-0.5, 0.5))
        [cond] = enumerate_termination_conditions(params(g, 0.0, e, al),
                                                  Family.A2_ThreeTerm)
        assert cond == TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 0)
        spec = q_spectrum(params(g, 0.0, e, al), Family.A2_ThreeTerm, cond)
        assert len(spec.roots) == 1
        assert abs(spec.roots[0] - al) <= 1e-12 * max(1.0, abs(al))


def test_double_root_spectrum():
    # (2, -1, 1, 1) collapses the quadratic to (q - 2)^2, a defective
    # eigenvalue that double precision finds only to about 1e-8
    spec = spectrum(2.0, -1.0, 1.0, 1.0, Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
    assert len(spec.roots) == 2
    for root in spec.roots:
        assert abs(root - 2.0) <= 1e-6
    assert all(spec.verified)


def test_spectrum_ignores_incoming_q():
    p1 = params(2.5, -1.0, 1.0, 1.0, q=0.0)
    p2 = params(2.5, -1.0, 1.0, 1.0, q=99.0)
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
    assert q_spectrum(p1, Family.A2_ThreeTerm, cond).roots == \
        q_spectrum(p2, Family.A2_ThreeTerm, cond).roots


def test_root_whose_rebuild_cannot_take_step_n_plus_2_is_unverified():
    # gamma - alpha/eps = N+2 makes R_{N+2} vanish. The rebuild takes that
    # step only where its numerator vanishes too, which it does at an
    # accurate root, so all 17 verify
    p = params(19.8, -16.0, 1.0, 1.8)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 16)
    spec = q_spectrum(p, Family.B3_ThreeTerm, cond)
    assert len(spec.roots) == len(spec.root_residuals) == 17
    assert spec.verified == tuple(accepted(p, Family.B3_ThreeTerm, cond, r)
                                  for r in spec.roots)
    assert spec.verified.count(True) == 17


def accepted(p, family, cond, root, choice=None) -> bool:
    """Whether terminated_solution takes root as a spectrum root."""
    try:
        terminated_solution(dataclasses.replace(p, q=root), family, cond, choice)
    except ValueError:
        return False
    return True


def test_verified_means_terminated_solution_accepts_the_root():
    # a_{N+1} and a_{N+2} are small at the root near 106.968, a_{N+3} is not
    p = params(2.488656140836074, 0.7578407694474133, 0.865815372621563,
               10.603205285685917)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, 9)
    spec = q_spectrum(p, Family.B3_ThreeTerm, cond, GAMMA_CHOICE)
    i = min(range(len(spec.roots)), key=lambda k: abs(spec.roots[k] - 106.968))
    assert abs(spec.roots[i] - 106.968) <= 1e-3
    assert not accepted(p, Family.B3_ThreeTerm, cond, spec.roots[i], GAMMA_CHOICE)
    assert spec.verified == tuple(
        accepted(p, Family.B3_ThreeTerm, cond, r, GAMMA_CHOICE) for r in spec.roots)


# ---------------------------------------------------------------------------
# spectra against a 60-digit eigensolve

def reference_spectrum(p, kind, N) -> list:
    """The condition's q-spectrum as mpmath.eig of its tridiagonal at 60
    digits, the tridiagonal and the change of parameters for the kind
    written out here from the equation, apart from termination.py."""
    with mpmath.workdps(60):
        g, d, e, al = (mpmath.mpc(x) for x in (p.gamma, p.delta, p.epsilon, p.alpha))
        shift = 0
        if kind == KIND_DELTA_INT:  # z -> 1-z
            g, d, e, al, shift = d, g, -e, -al, al
        elif kind == KIND_GAMMA_DELTA_ALPHA:  # u = exp(-eps z) v
            e, al, shift = -e, al - e * (g + d), e * g
        T = mpmath.matrix(N + 1, N + 1)
        for k in range(N + 1):
            T[k, k] = k * (k - 1) + k * (g + d - e)
            if k > 0:
                T[k, k - 1] = e * (k - 1) + al
            if k < N:
                T[k, k + 1] = -(k + 1) * (k + g)
        return [complex(v + shift) for v in mpmath.eig(T, left=False, right=False)]


def root_error(roots, reference) -> float:
    """Worst distance, relative to max(1, |root|), from a root to the
    nearest reference value and from a reference value to the nearest root."""
    return max(max(min(abs(r - x) for x in reference) / max(1.0, abs(r)) for r in roots),
               max(min(abs(r - x) for r in roots) / max(1.0, abs(x)) for x in reference))


@pytest.mark.parametrize("family, kind, choice", SPECTRUM_COMBOS,
                         ids=[f"{f.value}-{k}" for f, k, _ in SPECTRUM_COMBOS])
def test_roots_match_a_60_digit_eigensolve(family, kind, choice):
    rng = random.Random(f"{family.value}-{kind}")
    p = draw_on_condition(rng, kind, 10)
    spec = q_spectrum(p, family, TerminationCondition(family, kind, 10), choice)
    assert len(spec.roots) == 11
    assert root_error(spec.roots, reference_spectrum(p, kind, 10)) <= 1e-10


def test_large_n_roots_match_a_60_digit_eigensolve():
    # a2 AlphaOverEps at N = 29 (op 103 of the seed-1 spectrum_solve
    # benchmark), which roots of the monomial coefficients of a_30(q) get
    # percent-level wrong
    p = params(1.509408898139863, 0.6467454114271587, 0.9522793160785461,
               -27.616100166277835)
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, 29)
    spec = q_spectrum(p, Family.A2_ThreeTerm, cond)
    assert len(spec.roots) == 30
    assert root_error(spec.roots, reference_spectrum(p, KIND_ALPHA_OVER_EPS, 29)) <= 1e-10


def test_ill_conditioned_roots_raise():
    # b3 delta = -12 is ill-conditioned in the monomial coefficients of
    # a_13(q), not in the tridiagonal: its roots are accurate and all verify
    p = params(1.696368786063189, -12.0, 1.3394384208195445, 1.3188064519439089)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 12)
    spec = q_spectrum(p, Family.B3_ThreeTerm, cond)
    assert root_error(spec.roots, reference_spectrum(p, KIND_DELTA_INT, 12)) <= 1e-10
    assert spec.verified == (True,) * 13


def test_vanishing_ladder_step_stops_the_polynomial():
    # alpha0 = alpha/eps = 0.5 puts alpha0 + 2 on gamma, so R_2 = 0
    p = params(2.5, -3.0, 1.0, 0.5)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 3)
    with pytest.raises(LeadingCoefficientVanishesError, match="R_2"):
        q_spectrum(p, Family.B3_ThreeTerm, cond)


def test_near_vanishing_ladder_step_stops_the_polynomial():
    # R_1 = -(gamma - alpha/eps - 1) = -1e-10 is below the 1e-9 (1+n)^2 at
    # which build_series treats a step as vanishing, so the rebuild at a
    # root stops there, and the spectrum with it
    p = params(1.5 + 1e-10, -3.0, 1.0, 0.5)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 3)
    with pytest.raises(LeadingCoefficientVanishesError, match="R_1 = "):
        q_spectrum(p, Family.B3_ThreeTerm, cond)


@pytest.mark.parametrize("N", [-1, -2, -3])
def test_condition_rejects_negative_index(N):
    with pytest.raises(ValueError, match=f"N = {N}"):
        TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, N)


def test_condition_rejects_an_index_above_the_bound():
    # a huge N would ask the ladder for that many steps
    TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, MAX_N)
    for N in (MAX_N + 1, 10 ** 20):
        with pytest.raises(ValueError, match=f"N = {N}"):
            TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, N)
    with pytest.raises(ValueError, match=f"N = {10 ** 20}"):
        enumerate_termination_conditions(params(2.3, -1e20, 1.0, 1.0),
                                         Family.B3_ThreeTerm)


def test_spectrum_respects_applicability():
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 1)
    with pytest.raises(ApplicabilityError):
        q_spectrum(params(-1.0, -1.0, 1.0, 0.7), Family.B3_ThreeTerm, cond)


# the first q of the a2 DeltaInt N = 1 spectrum below, and a b3 AlphaOverEps
# N = 1 root on the alpha/eps branch
ON_A2 = params(2.5, -1.0, 1.0, 1.0, 1.5)
ON_B3 = params(2.5, 0.3, 1.0, -1.0, (1.8 - math.sqrt(13.24)) / 2)


@pytest.mark.parametrize("p, family, cond, choice", [
    (ON_A2, Family.A2_ThreeTerm,
     TerminationCondition(Family.C_ThreeTerm, KIND_DELTA_INT, 1), None),
    (ON_A2, Family.A2_ThreeTerm,
     TerminationCondition(Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, 1), None),
    (ON_A2, Family.A2_ThreeTerm,
     TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 2), None),
    (ON_B3, Family.B3_ThreeTerm,
     TerminationCondition(Family.B3_ThreeTerm, KIND_ALPHA_OVER_EPS, 1), GAMMA_CHOICE),
], ids=["family", "kind", "N", "alpha0-branch"])
def test_a_condition_must_hold_for_its_parameters(p, family, cond, choice):
    with pytest.raises(ConditionNotMetError):
        q_spectrum(p, family, cond, choice)
    with pytest.raises(ConditionNotMetError):
        terminated_solution(p, family, cond, choice)


def test_root_whose_rebuild_meets_a_vanishing_step_is_refused():
    # R_18 = 0: at the root near 187.5 its numerator vanishes and the
    # rebuild steps past it, but 1e-3 off the root it does not, and the
    # rebuild stops short of a_21
    p = params(19.8, -16.0, 1.0, 1.8)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 16)
    spec = q_spectrum(p, Family.B3_ThreeTerm, cond)
    root = min(spec.roots, key=lambda r: abs(r - 187.5))
    with pytest.raises(ValueError, match="cannot reach a_21"):
        terminated_solution(dataclasses.replace(p, q=root + 1e-3),
                            Family.B3_ThreeTerm, cond)


# ---------------------------------------------------------------------------
# verification and truncation

def test_terminated_solution_truncates_exactly():
    p = params(2.5, -1.0, 1.0, 1.0, 3.0)  # the other root of the quadratic
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
    sol = terminated_solution(p, Family.A2_ThreeTerm, cond)
    assert sol.terminated and sol.terminal_index == 1
    assert len(sol.coefficients) == 2
    assert series_residual(sol, 0.3) <= 1e-12
    _, tail = eval_series(sol, 0.3)
    assert tail == 0.0


def test_terminated_solution_rejects_off_spectrum_q():
    p = params(2.5, -1.0, 1.0, 1.0, 1.4)
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
    with pytest.raises(ValueError):
        terminated_solution(p, Family.A2_ThreeTerm, cond)


# ---------------------------------------------------------------------------
# the finite-sum lookup

# alpha/eps = -1 gives AlphaOverEps N = 1 ahead of DeltaInt N = 3, and q is
# a root of the N = 3 spectrum only
PAST_THE_FIRST = params(2.3, -3.0, 1.0, -1.0, 2.4762260797143)


def test_finite_solution_takes_the_condition_whose_spectrum_holds_q():
    conds = enumerate_termination_conditions(PAST_THE_FIRST, Family.A2_ThreeTerm)
    assert [(c.kind, c.N) for c in conds] == [(KIND_ALPHA_OVER_EPS, 1),
                                              (KIND_DELTA_INT, 3)]
    sol = finite_solution(PAST_THE_FIRST, Family.A2_ThreeTerm)
    assert sol == terminated_solution(PAST_THE_FIRST, Family.A2_ThreeTerm, conds[1])
    assert sol.terminal_index == 3 and len(sol.coefficients) == 4


@pytest.mark.parametrize("p, family", [
    (params(2.5, 0.0, 1.0, -1.7, -1.7), Family.A1_TwoTerm),
    (params(2.5, 0.5, 1.0, 1.0, 0.5), Family.B4_FourTerm),
    (dataclasses.replace(PAST_THE_FIRST, q=2.5), Family.A2_ThreeTerm),
    (dataclasses.replace(PAST_THE_FIRST, epsilon=0.0), Family.A2_ThreeTerm),
], ids=["a1", "b4", "generic-q", "eps-zero"])
def test_finite_solution_without_a_finite_sum(p, family):
    with pytest.raises(ConditionNotMetError):
        finite_solution(p, family)


# ---------------------------------------------------------------------------
# polynomial certificates

def test_certificate_confirms_polynomial_solutions():
    # alpha/eps = -1 walks the upper parameter to a non-positive integer at
    # every term of the finite sum, so u is a polynomial of degree <= 1
    p = params(1.4, 0.6, 1.3, -1.3)
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, 1)
    spec = q_spectrum(p, Family.A2_ThreeTerm, cond)
    for root in spec.roots:
        sol = terminated_solution(dataclasses.replace(p, q=root),
                                  Family.A2_ThreeTerm, cond)
        assert polynomial_certificate(sol, 1) <= 1e-9


def test_certificate_denies_non_polynomial_solutions():
    # a delta coincidence terminates the sum without making u a polynomial
    p = params(2.5, -1.0, 1.0, 1.0, 1.5)
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
    sol = terminated_solution(p, Family.A2_ThreeTerm, cond)
    assert polynomial_certificate(sol, 1) > 1e-4
