import math
import random
from dataclasses import replace

import mpmath
import pytest
from numpy.polynomial import polynomial as npoly

from heunkummer import expansions
from heunkummer import (
    ALPHA_OVER_EPS,
    GAMMA_CHOICE,
    ApplicabilityError,
    CheParams,
    Family,
    LargeArgumentWarning,
    LeadingCoefficientVanishesError,
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
from heunkummer.expansions import resolve_alpha0_gamma0
from heunkummer.kummer import LARGE_X
from heunkummer.termination import (KIND_ALPHA_OVER_EPS, KIND_DELTA_INT,
                                    KIND_GAMMA_DELTA_ALPHA, ladder_polynomial)

from conftest import complex_box, series_residual

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
# the basis memo: bit-identical to the per-term loop, same warnings and errors

def reference_eval(sol: SeriesSolution, z):
    """(u, u', u'', tail) from the per-term loop the basis memo replaced: one
    eval_1f1 per basis function and shift, for every nonzero coefficient,
    on every call."""
    z = complex(z)
    s0 = sol.s0
    x = s0 * z
    u = u1 = u2 = 0j
    last_nonzero = None
    for n, a_n in enumerate(sol.coefficients):
        if a_n == 0:
            continue
        an, cn = sol.basis_parameters(n)
        term = a_n * eval_1f1(an, cn, x)
        u += term
        last_nonzero = term
        u1 += a_n * s0 * (an / cn) * eval_1f1(an + 1, cn + 1, x)
        u2 += a_n * s0 * s0 * (an * (an + 1)) / (cn * (cn + 1)) \
            * eval_1f1(an + 2, cn + 2, x)
    if sol.terminated or last_nonzero is None:
        tail = 0.0
    else:
        tail = abs(last_nonzero) / max(1e-300, abs(u))
    return u, u1, u2, tail


SPECTRUM_COMBOS = (
    (Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, None),
    (Family.A2_ThreeTerm, KIND_DELTA_INT, None),
    (Family.B3_ThreeTerm, KIND_ALPHA_OVER_EPS, ALPHA_OVER_EPS),
    (Family.B3_ThreeTerm, KIND_DELTA_INT, ALPHA_OVER_EPS),
    (Family.B3_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, GAMMA_CHOICE),
    (Family.C_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, None),
    (Family.C_ThreeTerm, KIND_DELTA_INT, None),
)


def spectrum_solutions(rng: random.Random, family, kind, choice, N: int) -> list:
    """The series truncated at N at every root of one seeded q-spectrum:
    N+1 solutions sharing their basis walk and s0, as in one q-spectrum
    evaluation. The roots are those of the termination polynomial, so an
    ill-conditioned spectrum still gives N+1 solutions."""
    g = complex(rng.uniform(1.3, 2.7))
    if abs(g.real - round(g.real)) < 0.2:
        g += 0.23
    d, e, al = (complex(rng.uniform(*box)) for box in ((0.25, 0.85), (0.8, 1.4), (0.6, 1.8)))
    if kind == KIND_ALPHA_OVER_EPS:
        al = -N * e
    elif kind == KIND_DELTA_INT:
        d = complex(-N)
    else:
        al = e * (g + d + N)
    p = CheParams(g, d, e, al, 0)
    alpha0, _ = resolve_alpha0_gamma0(p, family, choice)
    steps = ladder(p, family, alpha0, -p.epsilon, N + 1)
    roots = npoly.polyroots(ladder_polynomial(steps, [-1] * (N + 1), N)) if N else \
        [steps[0][1]]  # N = 0: a_1 = 0 at Q_0(q) = 0, Q_0 = Q_0(0) - q
    return [replace(build_series(replace(p, q=r), family, N, alpha0_choice=choice),
                    terminated=True, terminal_index=N) for r in roots]


def memo_cases() -> list:
    rng = random.Random(808)
    cases = [pytest.param(spectrum_solutions(rng, fam, kind, choice, N),
                          id=f"{fam.value}-{kind}-N{N}")
             for fam, kind, choice in SPECTRUM_COMBOS for N in (0, 5, 15)]
    # alpha0 = 1/3: (alpha0 + n) + 1 and alpha0 + (n + 1) differ in the last
    # bit at n = 1, 3, 7, ..., so a shifted ladder may not stand in for k > 0;
    # alone, the n = 1 basis function shows that in the sum
    a1 = build_series(params(2.6, 0, 1.5, 0.5, 0.5), Family.A1_TwoTerm, 60)
    # alpha0 with a -0.0 component shares the memo key of alpha0 itself
    cases.append(pytest.param([a1, replace(a1, coefficients=(0j, 1 + 0j)),
                               replace(a1, alpha0=complex(a1.alpha0.real, -0.0))],
                              id="a1"))
    p = draw_params(rng)
    cases.append(pytest.param([build_series(p, Family.B4_FourTerm, 12, s0=s0)
                               for s0 in (-0.7 + 0.2j, 0.4 - 0.1j)], id="b4-free-s0"))
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
    # 0.3+0j and 0.3-0j give memo keys that compare equal; back to back,
    # each must still give its uncached result. None stands for a point
    # beyond LARGE_X.
    for z0 in (0.3 + 0j, complex(0.3, -0.0), 0.3 + 0j, 0.12, 0.47, None):
        for sol in sols:
            z = beyond_large_x(sol) if z0 is None else z0
            expect = reference_eval(sol, z)
            assert repr(eval_series_with_derivatives(sol, z)) == repr(expect)
            value, tail = eval_series(sol, z, tol=math.inf)
            assert repr((value, tail)) == repr((expect[0], expect[3]))


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
        # one warning per 1F1 call: a_0 alone, with and without derivatives
        assert len(caught) == (3 if evaluate is eval_series_with_derivatives else 1)


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
