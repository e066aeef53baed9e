import functools
import math
import random
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from heunkummer import expansions
from heunkummer import (
    ALPHA_OVER_EPS,
    GAMMA_CHOICE,
    ApplicabilityError,
    CheParams,
    Family,
    LargeArgumentWarning,
    LeadingCoefficientVanishesError,
    NonConvergenceError,
    PoleAtLowerParameterError,
    SeriesSolution,
    TailTooLargeError,
    applicability,
    build_series,
    eval_series,
    eval_1f1,
    eval_series_with_derivatives,
    frobenius_coefficients,
    frobenius_eval,
    ladder,
    recurrence_coeffs,
)
from heunkummer.kummer import LARGE_X, nonpositive_int
from heunkummer.termination import TerminationCondition, q_spectrum

from conftest import SPECTRUM_COMBOS, complex_box, draw_on_condition, series_residual

THREE_TERM = (Family.A2_ThreeTerm, Family.B3_ThreeTerm, Family.C_ThreeTerm)


def params(g, d, e, al, q) -> CheParams:
    return CheParams(gamma=g, delta=d, epsilon=e, alpha=al, q=q)


def draw_params(rng: random.Random) -> CheParams:
    # comfortably inside every family's applicability region
    return params(complex_box(rng, 1.2, 2.8, -0.3, 0.3),
                  complex_box(rng, 0.2, 0.9, -0.3, 0.3),
                  complex_box(rng, 0.8, 1.4, -0.2, 0.2),
                  complex_box(rng, 0.5, 2.0, -0.3, 0.3),
                  complex_box(rng, -1.0, 1.0, -0.5, 0.5))


def resubstitution_residual(sol: SeriesSolution, n: int) -> float:
    """|R_n a_n + Q_{n-1} a_{n-1} + P_{n-2} a_{n-2} (+ S_{n-3} a_{n-3})|
    relative to the largest participating term. Checks a built solution
    against its own recurrence."""
    a = sol.coefficients
    if not 1 <= n < len(a):
        raise IndexError(f"n={n} out of range for {len(a)} coefficients")
    steps = ladder(sol.params, sol.family, sol.alpha0, sol.s0, n)
    terms = [steps[n][0] * a[n], steps[n - 1][1] * a[n - 1]]
    if n >= 2:
        terms.append(steps[n - 2][2] * a[n - 2])
    if n >= 3 and sol.family is Family.B4_FourTerm:
        terms.append(steps[n - 3][3] * a[n - 3])
    big = max(abs(t) for t in terms)
    return abs(sum(terms)) / max(1e-300, big)


# ---------------------------------------------------------------------------
# recurrence coefficients

def test_leading_coefficient_vanishes_at_n0():
    p = params(1.0, 1.0, 1.0, 1.0, 0.5)
    for fam in THREE_TERM:
        R, _, _, _ = recurrence_coeffs(p, fam, p.alpha / p.epsilon, -p.epsilon, 0)
        assert R == 0


def test_known_coefficient_values():
    p = params(1.0, 1.0, 1.0, 1.0, 0.5)
    R, _, _, S = recurrence_coeffs(p, Family.A2_ThreeTerm, 1.0, -1.0, 1)
    assert R == -2
    assert S is None
    p2 = params(1.0, 2.0, 1.0, 3.0, 0.5)
    _, _, P0, _ = recurrence_coeffs(p2, Family.A2_ThreeTerm, 3.0, -1.0, 0)
    assert P0 == -2


def test_a2_and_c_share_the_leading_coefficient():
    rng = random.Random(3)
    for _ in range(20):
        p = draw_params(rng)
        a0 = p.alpha / p.epsilon
        for n in range(12):
            Ra, _, _, _ = recurrence_coeffs(p, Family.A2_ThreeTerm, a0, -p.epsilon, n)
            Rc, _, _, _ = recurrence_coeffs(p, Family.C_ThreeTerm, a0, -p.epsilon, n)
            assert Ra == Rc


def test_b3_middle_branch_closes_at_termination_index():
    # alpha = -N eps makes P_N vanish identically for the alpha/eps walk
    rng = random.Random(11)
    for N in range(4):
        g = complex_box(rng, 1.3, 2.7)
        d = complex_box(rng, 0.3, 0.9)
        e = complex_box(rng, 0.8, 1.3)
        p = params(g, d, e, -N * e, 0.4)
        # alpha/eps only hits -N up to rounding when eps is complex
        _, _, P, _ = recurrence_coeffs(p, Family.B3_ThreeTerm, p.alpha / p.epsilon,
                                       -p.epsilon, N)
        assert abs(P) <= 1e-13 * max(1.0, abs(d) + N)
        _, _, P_exact, _ = recurrence_coeffs(p, Family.B3_ThreeTerm, -N,
                                             -p.epsilon, N)
        assert P_exact == 0


def test_four_term_degenerates_to_three_term():
    # s0 = -eps scales every surviving branch by eps and kills the fourth
    rng = random.Random(23)
    for _ in range(20):
        p = draw_params(rng)
        a0 = p.alpha / p.epsilon
        for n in range(8):
            R4, Q4, P4, S4 = recurrence_coeffs(p, Family.B4_FourTerm, a0,
                                               -p.epsilon, n)
            R3, Q3, P3, _ = recurrence_coeffs(p, Family.B3_ThreeTerm, a0,
                                              -p.epsilon, n)
            e = p.epsilon
            scale = max(1.0, abs(R3), abs(Q3), abs(P3))
            assert abs(R4 - e * R3) <= 1e-12 * scale
            assert abs(Q4 - e * Q3) <= 1e-12 * scale
            assert abs(P4 - e * P3) <= 1e-12 * scale
            assert S4 == 0


def test_two_term_ratio_encoding():
    p = params(1.0, 0.0, 1.0, 1.0, 1.0)
    R, Q, P, S = recurrence_coeffs(p, Family.A1_TwoTerm, 1.0, -1.0, 1)
    assert R == 1 and P == 0 and S is None
    assert Q == pytest.approx(-2.0 / 3.0)  # -(alpha0+1)/(gamma0+1) at gamma0 = 2


# ---------------------------------------------------------------------------
# applicability

def test_eps_zero_rejected_everywhere():
    p = params(1.0, 1.0, 0.0, 1.0, 0.5)
    for fam in (Family.A1_TwoTerm,) + THREE_TERM + (Family.B4_FourTerm,):
        assert applicability(p, fam) == ["EpsilonZero"]


def test_a1_constraints():
    ok = params(2.2, 0.0, 0.8, -2.5, -2.5)
    assert applicability(ok, Family.A1_TwoTerm) == []
    off_q = params(2.2, 0.0, 0.8, -2.5, -2.4)
    assert "QConstraintViolated" in applicability(off_q, Family.A1_TwoTerm)
    with_delta = params(2.2, 0.5, 0.8, -2.5, -2.5 - 0.5 * 0.8)
    assert applicability(with_delta, Family.A1_TwoTerm) == ["DeltaNonZero"]


def test_gamma_plus_delta_pole():
    p = params(1.0, -2.0, 1.0, 1.0, 0.5)
    assert applicability(p, Family.A2_ThreeTerm) == ["GammaDeltaNonPositiveInt"]
    with pytest.raises(ApplicabilityError):
        build_series(p, Family.A2_ThreeTerm, 5)


def test_c_family_needs_nonzero_alpha():
    p = params(1.5, 0.5, 1.0, 0.0, 0.5)
    assert applicability(p, Family.C_ThreeTerm) == ["AlphaZero"]
    assert applicability(p, Family.A2_ThreeTerm) == []


def test_b_families_need_gamma_off_the_poles():
    p = params(-2.0, 0.5, 1.0, 1.0, 0.5)
    assert applicability(p, Family.B3_ThreeTerm) == ["GammaNonPositiveInt"]
    assert applicability(p, Family.B4_FourTerm) == ["GammaNonPositiveInt"]


# ---------------------------------------------------------------------------
# forward builds

def test_build_rejects_negative_length():
    with pytest.raises(ValueError):
        build_series(params(1, 1, 1, 1, 0.5), Family.A2_ThreeTerm, -1)


def test_b4_needs_explicit_s0():
    with pytest.raises(ValueError):
        build_series(params(1.5, 0.5, 1.0, 1.0, 0.5), Family.B4_FourTerm, 5)


def test_bad_alpha0_choice_rejected():
    with pytest.raises(ValueError):
        build_series(params(1.5, 0.5, 1.0, 1.0, 0.5), Family.B3_ThreeTerm, 5,
                     alpha0_choice="middle")


@pytest.mark.parametrize("family, option", [
    (Family.A2_ThreeTerm, {"s0": 0.4}),
    (Family.B3_ThreeTerm, {"s0": 0.4}),
    (Family.A2_ThreeTerm, {"alpha0_choice": GAMMA_CHOICE}),
    (Family.C_ThreeTerm, {"alpha0_choice": ALPHA_OVER_EPS}),
], ids=["a2-s0", "b3-s0", "a2-alpha0-choice", "c-alpha0-choice"])
def test_option_the_family_does_not_read_is_refused(family, option):
    with pytest.raises(ValueError):
        build_series(params(1.5, 0.5, 1.0, 1.0, 0.5), family, 5, **option)


def test_b3_alpha0_branches():
    p = params(1.5, 0.5, 1.1, 0.9, 0.5)
    s_ae = build_series(p, Family.B3_ThreeTerm, 4, alpha0_choice=ALPHA_OVER_EPS)
    s_g = build_series(p, Family.B3_ThreeTerm, 4, alpha0_choice=GAMMA_CHOICE)
    assert s_ae.alpha0 == p.alpha / p.epsilon
    assert s_g.alpha0 == p.gamma
    assert s_ae.gamma0 == s_g.gamma0 == p.gamma
    assert s_ae.coefficients != s_g.coefficients


def test_two_term_coefficients_close_form():
    # gamma0 = 2 makes a_n = (1)_n/(2)_n = 1/(n+1)
    sol = build_series(params(1.0, 0.0, 1.0, 1.0, 1.0), Family.A1_TwoTerm, 6)
    assert sol.coefficients[2] == pytest.approx(1.0 / 3.0, rel=1e-14)
    for n, a_n in enumerate(sol.coefficients):
        assert a_n == pytest.approx(1.0 / (n + 1), rel=1e-13)
        closed = complex(mpmath.rf(sol.alpha0, n) / mpmath.rf(sol.gamma0, n))
        assert a_n == pytest.approx(closed, rel=1e-13)


def test_resubstitution_closes_for_every_family():
    rng = random.Random(5)
    for _ in range(10):
        p = draw_params(rng)
        sols = [build_series(p, fam, 12) for fam in THREE_TERM]
        sols.append(build_series(p, Family.B4_FourTerm, 12, s0=0.4 + 0.1j))
        for sol in sols:
            assert max(resubstitution_residual(sol, n) for n in range(1, 12)) <= 1e-12


def test_build_series_reads_each_ladder_index_once(monkeypatch):
    import heunkummer.expansions as expansions

    calls = []
    formula = expansions.recurrence_coeffs

    def counted(params, family, alpha0, s0, n):
        calls.append(n)
        return formula(params, family, alpha0, s0, n)

    monkeypatch.setattr(expansions, "recurrence_coeffs", counted)
    p = draw_params(random.Random(8))
    build_series(p, Family.B4_FourTerm, 12, s0=0.4 + 0.1j)
    assert calls == list(range(13))
    assert expansions.ladder(p, Family.A2_ThreeTerm, 0.5, -1.0, 3) == \
        [formula(p, Family.A2_ThreeTerm, 0.5, -1.0, n) for n in range(4)]


def test_resubstitution_rejects_bad_indices():
    sol = build_series(params(1.5, 0.5, 1.0, 1.0, 0.5), Family.A2_ThreeTerm, 5)
    with pytest.raises(IndexError):
        resubstitution_residual(sol, 0)
    with pytest.raises(IndexError):
        resubstitution_residual(sol, 6)


def test_b4_at_minus_eps_reproduces_b3_build():
    p = params(1.7, 0.6, 1.2, 0.9, 0.3)
    s3 = build_series(p, Family.B3_ThreeTerm, 10)
    s4 = build_series(p, Family.B4_FourTerm, 10, s0=-p.epsilon)
    for a3, a4 in zip(s3.coefficients, s4.coefficients):
        assert a4 == pytest.approx(a3, rel=1e-12)


def test_vanishing_leading_coefficient_raises():
    # alpha/eps = gamma - 2 zeroes R_2 while the numerator stays generic
    p = params(2.3, 0.4, 1.0, 0.3, 0.7)
    with pytest.raises(LeadingCoefficientVanishesError):
        build_series(p, Family.B3_ThreeTerm, 5)


def test_vanishing_leading_coefficient_tolerated_past_termination():
    # q = 1.5 terminates this series at n = 1, and R_4 = 0 is then reached
    # with an identically zero numerator: the build must carry on with zeros
    p = params(2.5, -1.0, 1.0, -1.5, 1.5)
    sol = build_series(p, Family.B3_ThreeTerm, 8)
    assert sol.terminated and sol.terminal_index == 1
    assert sol.coefficients[1] == pytest.approx(-1.5)
    assert all(c == 0 for c in sol.coefficients[2:])


def test_a_coefficient_that_overflows_is_refused():
    # alpha = 1e200: every ladder step is finite, but a_2 is about 1e400; the
    # build returned (1, 3.6e199, inf+nanj, nan+nanj, ...) without an error
    with pytest.raises(NonConvergenceError,
                       match=r"A2_ThreeTerm recurrence overflows: a_2 = .* is not finite"):
        build_series(params(2.3, 0.5, 1.0, 1e200, 0.7), Family.A2_ThreeTerm, 5)


@pytest.mark.parametrize("p, family, s0, n", [
    # built (1, 3.6e307, inf+nanj, nan+nanj, ...) without an error
    (params(2.3, 0.5, 1.0, 1e308, 0.7), Family.A2_ThreeTerm, None, 2),
    # built (1, 0.31, nan+nanj, ...) without an error
    (params(2.3, 0.5, 1e308, 0.7, 0.3), Family.B4_FourTerm, -1e308, 1),
    # raised OverflowError("complex exponentiation")
    (params(2.3, 0.5, 1e308, 0.7, 0.3), Family.B4_FourTerm, 1.0, 0),
], ids=["a2", "b4-nan", "b4-power"])
def test_recurrence_coefficients_that_overflow_are_refused(p, family, s0, n):
    with pytest.raises(ValueError, match=rf"family {family.name} overflow at n = {n}:"):
        build_series(p, family, 4, s0=s0)


# ---------------------------------------------------------------------------
# termination marking

def test_structural_zero_tail_marks_termination():
    # q = 1.5 is a root of the delta = -1 spectrum for these parameters
    sol = build_series(params(2.5, -1.0, 1.0, 1.0, 1.5), Family.A2_ThreeTerm, 10)
    assert sol.terminated
    assert sol.terminal_index == 1
    assert all(c == 0 for c in sol.coefficients[2:])
    _, tail = eval_series(sol, 0.3)
    assert tail == 0.0


def test_alpha_and_q_zero_is_the_constant_solution():
    sol = build_series(params(1.7, 0.4, 1.1, 0.0, 0.0), Family.A2_ThreeTerm, 8)
    assert sol.terminated and sol.terminal_index == 0
    u, tail = eval_series(sol, 0.3)
    assert u == 1.0 and tail == 0.0
    assert series_residual(sol, 0.3) == 0.0


def test_generic_build_is_not_marked_terminated():
    sol = build_series(params(1, 1, 1, 1, 0.5), Family.A2_ThreeTerm, 30)
    assert not sol.terminated
    assert sol.terminal_index is None


# ---------------------------------------------------------------------------
# what a build means (and does not mean)

def test_terminated_sum_is_proportional_to_the_power_series():
    p = params(2.5, -1.0, 1.0, 1.0, 1.5)
    sol = build_series(p, Family.A2_ThreeTerm, 10)
    fro = frobenius_coefficients(p, 60)
    ratios = [eval_series(sol, z)[0] / frobenius_eval(fro, z)[0]
              for z in (0.1, 0.2, 0.3)]
    assert abs(ratios[1] / ratios[0] - 1) <= 1e-12
    assert abs(ratios[2] / ratios[0] - 1) <= 1e-12
    assert series_residual(sol, 0.3) <= 1e-12


def test_terminated_derivatives_match_finite_differences():
    sol = build_series(params(2.5, -1.0, 1.0, 1.0, 1.5), Family.A2_ThreeTerm, 10)
    u, u1, _, _ = eval_series_with_derivatives(sol, 0.3)
    h = 1e-6
    up = eval_series_with_derivatives(sol, 0.3 + h)[0]
    um = eval_series_with_derivatives(sol, 0.3 - h)[0]
    assert u1 == pytest.approx((up - um) / (2 * h), abs=1e-9)


def test_untermininated_build_fails_the_tail_gate():
    sol = build_series(params(1, 1, 1, 1, 0.5), Family.A2_ThreeTerm, 30)
    with pytest.raises(TailTooLargeError):
        eval_series(sol, 0.3)


def test_a_nan_tol_is_refused():
    # this series' tail is 0.030: tol = 1e-10 refuses it, and a NaN tol, which
    # no tail exceeds, must not let it pass silently
    sol = build_series(params(2.3, 0.4, 1.1, 0.7, 0.3), Family.A2_ThreeTerm, 3)
    with pytest.raises(TailTooLargeError):
        eval_series(sol, 0.3, tol=1e-10)
    for s in (sol, replace(sol, terminated=True, terminal_index=3)):
        with pytest.raises(ValueError, match="tol"):
            eval_series(s, 0.3, tol=float("nan"))


@pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's overflow warning too
def test_a_sum_that_is_not_finite_is_refused():
    # every basis value is finite, but (a_0 s0) s0 overflows to inf at
    # eps = 3e200, and inf times F'' is NaN: u'' came back as nan+nanj
    sol = build_series(params(3e200, -1, 3e200, -1, 0.5), Family.C_ThreeTerm, 1)
    with pytest.warns(LargeArgumentWarning), pytest.raises(
            NonConvergenceError, match=r"^u'' of the C_ThreeTerm series is not finite at z="):
        eval_series_with_derivatives(sol, 0.47)
    # on an array of z, the first point where u is not finite
    sol = build_series(params(0.5, -2.0, 1e154, 2.3, 1.0), Family.C_ThreeTerm, 3)
    with pytest.warns(LargeArgumentWarning), pytest.raises(
            NonConvergenceError, match=r"^u of the C_ThreeTerm series is not finite at z=0\.3: "):
        eval_series(sol, np.array([0.3, 0.47]), tol=math.inf)


def test_untermininated_build_is_a_formal_object():
    # the partial sum is NOT proportional to the actual solution: the ratio
    # drifts at the percent level between nearby points
    p = params(1, 1, 1, 1, 0.5)
    sol = build_series(p, Family.A2_ThreeTerm, 30)
    fro = frobenius_coefficients(p, 80)
    r1 = eval_series_with_derivatives(sol, 0.1)[0] / frobenius_eval(fro, 0.1)[0]
    r3 = eval_series_with_derivatives(sol, 0.3)[0] / frobenius_eval(fro, 0.3)[0]
    mismatch = abs(r3 / r1 - 1)
    assert 1e-3 <= mismatch <= 0.1
    tail = eval_series_with_derivatives(sol, 0.3)[3]
    assert 1e-6 <= tail <= 1e-3


def test_untermininated_residual_plateaus_instead_of_converging():
    # adding terms does not drive the equation residual down
    p = params(2.3, -1.0, 1.1, 0.7, 0.9)
    res = [series_residual(build_series(p, Family.A2_ThreeTerm, N), 0.3)
           for N in (200, 400)]
    assert res[0] > 0.5 and res[1] > 0.5
    assert abs(res[0] - res[1]) < 0.05


def test_two_term_series_solves_the_equation():
    # left-terminated two-term case: delta = 0 and q = alpha
    p = params(2.2, 0.0, 0.8, -2.5, -2.5)
    sol = build_series(p, Family.A1_TwoTerm, 400)
    u, tail = eval_series(sol, 0.25)
    assert tail <= 1e-12
    assert series_residual(sol, 0.25) <= 1e-10


# ---------------------------------------------------------------------------
# plumbing

def test_family_from_string():
    assert Family.from_string("a2") is Family.A2_ThreeTerm
    assert Family.from_string("B3_ThreeTerm") is Family.B3_ThreeTerm
    with pytest.raises(ValueError):
        Family.from_string("a7")


def test_basis_parameter_walks():
    p = params(1.5, 0.5, 1.0, 0.9, 0.5)
    a0 = p.alpha / p.epsilon
    s_a2 = build_series(p, Family.A2_ThreeTerm, 3)
    assert s_a2.basis_parameters(2) == (a0 + 2, p.gamma + p.delta + 2)
    s_c = build_series(p, Family.C_ThreeTerm, 3)
    assert s_c.basis_parameters(2) == (a0, p.gamma + p.delta + 2)
    s_b3 = build_series(p, Family.B3_ThreeTerm, 3)
    assert s_b3.basis_parameters(2) == (a0 + 2, p.gamma)


# ---------------------------------------------------------------------------
# the basis memo: the per-term loop where it still sums, a 30-digit bound on
# the contiguous ladders, the same warnings and errors

def reference_eval(sol: SeriesSolution, z):
    """(u, u', u'', tail) from the per-term loop: one eval_1f1 with
    derivatives per basis function, for every nonzero coefficient, on every
    call."""
    z = complex(z)
    s0 = sol.s0
    x = s0 * z
    u = u1 = u2 = 0j
    last_nonzero = None
    for n, a_n in enumerate(sol.coefficients):
        if a_n == 0:
            continue
        f0, f1, f2 = eval_1f1(*sol.basis_parameters(n), x, derivatives=True)
        term = a_n * f0
        u += term
        last_nonzero = term
        u1 += a_n * s0 * f1
        u2 += a_n * s0 * s0 * f2
    if sol.terminated or last_nonzero is None:
        tail = 0.0
    else:
        tail = abs(last_nonzero) / max(1e-300, abs(u))
    return u, u1, u2, tail


@functools.cache
def mp_basis(a, c, x):
    """1F1(a; c; x) and its first two x-derivatives at 30 digits, as mpc;
    a within INT_TOL of a non-positive integer is taken as that integer,
    as eval_1f1 takes it."""
    m = nonpositive_int(a)
    with mpmath.workdps(30):
        a = mpmath.mpc(-m if m is not None else a)
        c, x = mpmath.mpc(c), mpmath.mpc(x)
        return (mpmath.hyp1f1(a, c, x), a / c * mpmath.hyp1f1(a + 1, c + 1, x),
                a * (a + 1) / (c * (c + 1)) * mpmath.hyp1f1(a + 2, c + 2, x))


# a contiguous ladder's u, u' and u'' against the 30-digit sum, relative to
# sum_n |a_n s0^k F_n^(k)|: on the memo cases the ladders reach 1.1e-13 of
# it, the per-term sums 1.3e-14
LADDER_TOL = 1e-12


def assert_within_ladder_bound(sol: SeriesSolution, z, got):
    """Each of got = (u, u', u'')[:k] within LADDER_TOL of the 30-digit sum."""
    x = sol.s0 * complex(z)
    exact = [0] * 3
    scale = [0.0] * 3
    for n, a_n in enumerate(sol.coefficients):
        if a_n == 0:
            continue
        with mpmath.workdps(30):
            for k, f in enumerate(mp_basis(*sol.basis_parameters(n), x)):
                term = mpmath.mpc(a_n) * mpmath.mpc(sol.s0) ** k * f
                exact[k] += term
                scale[k] += float(abs(term))
    for k, v in enumerate(got):
        assert abs(v - complex(exact[k])) <= LADDER_TOL * scale[k], (k, v, complex(exact[k]))


def spectrum_solutions(rng: random.Random, family, kind, choice, N: int) -> list:
    """The series truncated at N at every root of one seeded q-spectrum:
    N+1 solutions sharing their basis walk and s0, as in one q-spectrum
    evaluation. Every root is taken, verified or not, so each spectrum
    gives N+1 solutions."""
    p = draw_on_condition(rng, kind, N)
    roots = q_spectrum(p, family, TerminationCondition(family, kind, N), choice).roots
    return [replace(build_series(replace(p, q=r), family, N, alpha0_choice=choice),
                    terminated=True, terminal_index=N) for r in roots]


def memo_cases() -> list:
    rng = random.Random(808)
    cases = [pytest.param(spectrum_solutions(rng, fam, kind, choice, N),
                          id=f"{fam.value}-{kind}-N{N}")
             for fam, kind, choice in SPECTRUM_COMBOS for N in (0, 5, 15)]
    # alpha0 = 1/3, whose walk alpha0 + n rounds in the last bit at n = 1,
    # 3, 7, ...; alone, the n = 1 basis function shows that in the sum
    a1 = build_series(params(2.6, 0, 1.5, 0.5, 0.5), Family.A1_TwoTerm, 60)
    a2 = build_series(params(2.6, 0.5, 1.5, 0.5, 0.5), Family.A2_ThreeTerm, 12)
    cases.append(pytest.param([a2], id="a2-third"))
    # alpha0 with a -0.0 component shares the memo key of alpha0 itself
    cases.append(pytest.param([a1, replace(a1, coefficients=(0j, 1 + 0j)),
                               replace(a1, alpha0=complex(a1.alpha0.real, -0.0))],
                              id="a1"))
    p = draw_params(rng)
    cases.append(pytest.param([build_series(p, Family.B4_FourTerm, 12, s0=s0)
                               for s0 in (-0.7 + 0.2j, 0.4 - 0.1j)], id="b4-free-s0"))
    # alpha_n = alpha0 for c and gamma_n = gamma0 for b3 carry a -0.0 part
    # into the 1F1 parameters, under a memo key equal to +0.0's
    for fam, kind, choice in (SPECTRUM_COMBOS[5], SPECTRUM_COMBOS[2]):
        sol = spectrum_solutions(rng, fam, kind, choice, 5)[0]
        cases.append(pytest.param(
            [sol, replace(sol, alpha0=complex(sol.alpha0.real, -0.0),
                          gamma0=complex(sol.gamma0.real, -0.0))],
            id=f"{fam.value}-signed-zero"))
    # q = alpha zeroes Q_0, so a_1 = 0 in a series that does not terminate
    gapped = build_series(params(2.3, 0.4, 1.1, 0.7, 0.7), Family.A2_ThreeTerm, 8)
    assert gapped.coefficients[1] == 0 and not gapped.terminated
    cases.append(pytest.param([gapped], id="a2-gapped"))
    return cases


def beyond_large_x(sol: SeriesSolution) -> complex:
    """A z with |s0 z| > LARGE_X, where the series is not memoized."""
    return complex(1.1 * LARGE_X / abs(sol.s0), 0.7)


@pytest.mark.filterwarnings("ignore::heunkummer.LargeArgumentWarning")
@pytest.mark.parametrize("sols", memo_cases())
def test_memoized_evaluation_is_bit_identical_to_the_per_term_loop(sols):
    """Bit for bit where the per-term sums remain: three or fewer terms, or
    a point beyond LARGE_X (None below). A longer ladder at small |x| runs
    its contiguous relation, within LADDER_TOL of 30-digit mpmath."""
    # 0.3+0j and 0.3-0j give memo keys that compare equal; back to back,
    # each must still give its uncached result
    for z0 in (0.3 + 0j, complex(0.3, -0.0), 0.3 + 0j, 0.12, 0.47, None):
        for sol in sols:
            z = beyond_large_x(sol) if z0 is None else z0
            expect = reference_eval(sol, z)
            got = eval_series_with_derivatives(sol, z)
            value, tail = eval_series(sol, z, tol=math.inf)
            if z0 is None or sum(1 for a_n in sol.coefficients if a_n != 0) <= 3:
                assert repr(got) == repr(expect)
                assert repr((value, tail)) == repr((expect[0], expect[3]))
            else:
                assert_within_ladder_bound(sol, z, got[:3])
                assert_within_ladder_bound(sol, z, (value,))
                assert got[3] == pytest.approx(expect[3], rel=1e-9)
                assert tail == pytest.approx(expect[3], rel=1e-9)


@pytest.mark.parametrize("evaluate", [eval_series, eval_series_with_derivatives])
def test_large_argument_warns_on_every_call(evaluate):
    # d = 0 and q = alpha: a_1 = a_2 = 0, a terminated sum at |x| = 33
    sol = build_series(params(2.3, 0, 1.1, 0.7, 0.7), Family.A2_ThreeTerm, 2)
    assert sol.terminated
    z = 30.0
    with pytest.warns(LargeArgumentWarning) as direct:
        eval_1f1(1, 2, sol.s0 * z)
    for _ in range(2):
        with pytest.warns(LargeArgumentWarning) as caught:
            evaluate(sol, z)
        assert {str(w.message) for w in caught} == {str(direct[0].message)}
        # one warning per 1F1 call: a_0 alone, whose one call with
        # derivatives sums all three
        assert len(caught) == 1


def test_nothing_beyond_large_x_is_memoized():
    sol = build_series(params(2.3, 0.4, 1.1, 0.7, 0.3), Family.A2_ThreeTerm, 6)
    before = expansions._basis_ladder.cache_info()
    with pytest.warns(LargeArgumentWarning):
        eval_series_with_derivatives(sol, beyond_large_x(sol))
    assert expansions._basis_ladder.cache_info() == before


def test_a_failing_ladder_fails_on_every_call():
    # a1 with gamma0 = 1 + gamma = -1: the n = 0 basis function sits on a pole
    sol = build_series(params(-2.0, 0, 1.0, 0.5, 0.5), Family.A1_TwoTerm, 0)
    for evaluate in (eval_series, eval_series_with_derivatives, eval_series):
        with pytest.raises(PoleAtLowerParameterError):
            evaluate(sol, 0.3)


def test_basis_memo_stays_within_its_bound():
    sol = build_series(params(2.3, 0.4, 1.1, 0.7, 0.3), Family.A2_ThreeTerm, 2)
    for i in range(expansions._LADDER_MEMO + 10):
        eval_series_with_derivatives(sol, 0.1 + 1e-3 * i)
    info = expansions._basis_ladder.cache_info()
    assert info.maxsize == expansions._LADDER_MEMO
    assert info.currsize <= expansions._LADDER_MEMO


@pytest.mark.parametrize("family", THREE_TERM, ids=[f.value for f in THREE_TERM])
def test_a_cold_evaluation_sums_each_distinct_1f1_once(monkeypatch, family):
    """A miss on a ladder of N+1 terms makes three eval_1f1 calls, two seeds
    and the far-end check: plain sums at N+2, N+1 and 0 on the a2 and c
    walks, which read both derivatives off the two extra rungs; sums with
    derivatives at 0, 1 and N on the b3 walk, which runs forward."""
    calls = []
    real = expansions.eval_1f1

    def counted(a, c, x, derivatives):
        calls.append(repr((a, c, derivatives)))
        return real(a, c, x, derivatives=derivatives)

    monkeypatch.setattr(expansions, "eval_1f1", counted)
    N = 12
    sol = build_series(params(1.25, 0.5, 1.0, 0.5, 0.3), family, N)
    assert all(a_n != 0 for a_n in sol.coefficients)
    expansions._basis_ladder.cache_clear()
    eval_series_with_derivatives(sol, 0.3)
    b3 = family is Family.B3_ThreeTerm
    rungs = (0, 1, N) if b3 else (N + 2, N + 1, 0)
    assert calls == [repr((*sol.basis_parameters(n), b3)) for n in rungs]


def test_a_memo_hit_makes_no_per_term_calls(monkeypatch):
    """A hit reads the 1F1 values and their derivatives from the memo: no
    eval_1f1 call and no walk through _basis_walk. The miss takes one walk
    and three sums."""
    calls = []

    def counting(name):
        real = getattr(expansions, name)

        def counted(*args, **kwargs):
            calls.append(name)
            return real(*args, **kwargs)
        return counted

    for name in ("eval_1f1", "_basis_walk"):
        monkeypatch.setattr(expansions, name, counting(name))
    sol = build_series(params(2.3, 0.4, 1.1, 0.7, 0.7), Family.A2_ThreeTerm, 8)
    expansions._basis_ladder.cache_clear()
    miss = eval_series_with_derivatives(sol, 0.3)
    assert sorted(calls) == ["_basis_walk"] + ["eval_1f1"] * 3
    calls.clear()
    assert repr(eval_series_with_derivatives(sol, 0.3)) == repr(miss)
    assert calls == []


def test_an_array_of_points_is_one_1f1_call_per_term_and_skips_the_memo():
    sol = build_series(params(2.3, 0.4, 1.1, 0.7, 0.7), Family.A2_ThreeTerm, 8)
    zs = np.array([0.12, 0.3 - 0.2j, 0.47, 0.0])
    expansions._basis_ladder.cache_clear()
    values, tail = eval_series(sol, zs, tol=math.inf)
    assert expansions._basis_ladder.cache_info().currsize == 0
    scalar = [eval_series(sol, z, tol=math.inf) for z in zs.tolist()]
    assert values.shape == zs.shape
    for v, (f, _) in zip(values.tolist(), scalar):
        assert v == pytest.approx(f, rel=1e-14)
    # the tail of an array is the largest over its points
    assert tail == pytest.approx(max(t for _, t in scalar), rel=1e-12)
    with pytest.raises(TailTooLargeError):
        eval_series(sol, zs, tol=0.5 * tail)


# ---------------------------------------------------------------------------
# contiguous ladders: each walk against 30-digit mpmath, and the per-term
# sums bit for bit wherever the ladder does not run

# one basis value of a ladder against 30-digit mpmath, relative
WALK_TOL = 1e-11


def walk_draws(family, kind, choice, gapped=False):
    """(alpha0, gamma0, x, nonzero) of the family's walk on draws from the
    spectrum box at N = 4, 12 and 25, at real and complex z; gapped drops
    n = 1 from nonzero, as a_1 = 0 does."""
    rng = random.Random(f"ladder:{family.value}:{kind}")
    for N in (4, 12, 25):
        p = draw_on_condition(rng, kind, N)
        alpha0, gamma0 = expansions.resolve_alpha0_gamma0(p, family, choice)
        nonzero = tuple(n for n in range(N + 1) if not (gapped and n == 1))
        for z in (0.12, 0.47, 0.3 + 0.2j):
            yield alpha0, gamma0, -p.epsilon * z, nonzero


WALKS = [pytest.param(fam, kind, choice, False, id=f"{fam.value}-{kind}")
         for fam, kind, choice in SPECTRUM_COMBOS]
WALKS.append(pytest.param(*SPECTRUM_COMBOS[1], True, id="a2-DeltaInt-gapped"))


@pytest.mark.parametrize("family, kind, choice, gapped", WALKS)
def test_each_walk_matches_mpmath(family, kind, choice, gapped):
    """F, F' and F'' of every rung, and F alone without derivatives, within
    WALK_TOL of 30-digit mpmath; each ladder passes its check."""
    for alpha0, gamma0, x, nonzero in walk_draws(family, kind, choice, gapped):
        walk = expansions._basis_walk(family, alpha0, gamma0, nonzero)
        for derivatives in (True, False):
            columns = expansions._contiguous_ladder(family, alpha0, gamma0, x, nonzero,
                                                    derivatives)
            assert columns is not None and len(columns) == (3 if derivatives else 1)
            for i, (a, c) in enumerate(walk):
                for got, exact in zip(columns, mp_basis(a, c, x)):
                    exact = complex(exact)
                    assert abs(got[i] - exact) <= WALK_TOL * abs(exact), (a, c, x, got[i], exact)


EVAL_SERIES_UNGATED = functools.partial(eval_series, tol=math.inf)


def ladder_solutions() -> list:
    """One spectrum root's solution of each spectrum combination at N = 12,
    and the a2 series whose a_1 is 0: every one runs a ladder."""
    rng = random.Random(909)
    sols = [spectrum_solutions(rng, fam, kind, choice, 12)[0]
            for fam, kind, choice in SPECTRUM_COMBOS]
    return sols + [build_series(params(2.3, 0.4, 1.1, 0.7, 0.7), Family.A2_ThreeTerm, 8)]


def test_a_memo_hit_is_bit_identical_to_its_miss():
    for sol in ladder_solutions():
        for evaluate in (eval_series_with_derivatives, EVAL_SERIES_UNGATED):
            expansions._basis_ladder.cache_clear()
            miss = evaluate(sol, 0.3)
            hit = evaluate(sol, 0.3)
            assert expansions._basis_ladder.cache_info()[:2] == (1, 1)
            assert repr(hit) == repr(miss)


def test_a_failed_check_falls_back_to_the_per_term_sums(monkeypatch):
    monkeypatch.setattr(expansions, "_LADDER_CHECK", 0.0)
    for sol in ladder_solutions():
        expansions._basis_ladder.cache_clear()
        assert repr(eval_series_with_derivatives(sol, 0.3)) == repr(reference_eval(sol, 0.3))
        nonzero = tuple(n for n, a_n in enumerate(sol.coefficients) if a_n != 0)
        key = (sol.family, sol.alpha0, sol.gamma0, sol.s0 * 0.47, nonzero)
        for derivatives in (True, False):
            assert expansions._contiguous_ladder(*key, derivatives) is None
            assert (repr(expansions._basis_ladder(*key, derivatives))
                    == repr(expansions._basis_sums(*key, derivatives)))


def test_an_array_of_points_keeps_the_per_term_sums():
    for sol in ladder_solutions():
        zs = np.array([0.12, 0.3 - 0.2j, 0.47])
        x = sol.s0 * zs
        expect = 0j
        for n, a_n in enumerate(sol.coefficients):
            if a_n != 0:
                expect = expect + a_n * eval_1f1(*sol.basis_parameters(n), x)
        assert eval_series(sol, zs, tol=math.inf)[0].tobytes() == expect.tobytes()


def test_every_term_beyond_large_x_still_warns():
    sol = ladder_solutions()[-1]
    with pytest.warns(LargeArgumentWarning) as caught:
        eval_series_with_derivatives(sol, beyond_large_x(sol))
    assert len(caught) == sum(1 for a_n in sol.coefficients if a_n != 0)


def test_three_terms_keep_the_per_term_sums():
    rng = random.Random(910)
    for fam, kind, choice in SPECTRUM_COMBOS:
        for sol in spectrum_solutions(rng, fam, kind, choice, 2):
            expansions._basis_ladder.cache_clear()
            assert repr(eval_series_with_derivatives(sol, 0.3)) == repr(reference_eval(sol, 0.3))
            assert expansions._basis_ladder.cache_info().misses == 1


def outcome(evaluate, *args):
    """repr of what evaluate returns, or the type and message of its error."""
    try:
        return repr(evaluate(*args))
    except Exception as e:
        return type(e), str(e)


@pytest.mark.parametrize("change", [
    # gamma0 = -2: the c walk meets poles at n = 0, 1 and 2
    pytest.param((6, {"gamma0": -2.0 + 0j}), id="c-pole"),
    # alpha_2 = 0 inside a forward b3 walk, whose relation divides by it
    pytest.param((3, {"alpha0": -2.0 + 0j}), id="b3-alpha-zero"),
    # the b3 walk as polynomials of degree about 20000, above max_terms
    pytest.param((3, {"alpha0": -20000.0 + 0j}), id="b3-degree-cap"),
    pytest.param((1, {"alpha0": complex(math.inf, 0)}), id="a2-alpha0-not-finite"),
])
def test_a_walk_that_meets_a_pole_a_zero_or_an_error_keeps_the_per_term_result(change):
    which, fields = change
    sol = replace(ladder_solutions()[which], **fields)
    expansions._basis_ladder.cache_clear()
    expect = outcome(reference_eval, sol, 0.3)
    assert outcome(eval_series_with_derivatives, sol, 0.3) == expect
    if isinstance(expect, str):
        u, _, _, tail = reference_eval(sol, 0.3)
        expect = repr((u, tail))
    assert outcome(EVAL_SERIES_UNGATED, sol, 0.3) == expect
