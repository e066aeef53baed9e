import cmath
import dataclasses
import functools
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
    applicability,
    build_series,
    enumerate_termination_conditions,
    eval_series,
    q_spectrum,
    terminated_solution,
)
from heunkummer import termination
from heunkummer.expansions import ZERO_TOL
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
    # a huge N is printed in exponent form, not in its 21 digits
    for N, text in ((MAX_N + 1, "N = 81"), (10 ** 20, r"N = 1e\+20")):
        with pytest.raises(ValueError, match=text):
            TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, N)
    with pytest.raises(ValueError, match=r"N = 1e\+20"):
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
# the column pass and the root table

def outcome(call) -> str:
    """repr of call(), or the type and text of the error it raises."""
    try:
        return repr(call())
    except (ValueError, ConditionNotMetError) as err:
        return f"{type(err).__name__}: {err}"


def cold(call) -> str:
    termination._q_free_ladder.cache_clear()
    return outcome(call)


def rebuild(p, family, cond, choice):
    """(a_0..a_{N+5}, or None where the pass stops or overflows; the verdict)
    at p.q, as terminated_solution reads it: the root table's row, else a
    one-element pass."""
    *_, steps, table = termination._q_free_ladder(termination._parts(p), family, cond, choice)
    if termination._q_key(p.q) in table:
        return table[termination._q_key(p.q)]
    [(a, error)] = termination.solve_ladder(family, steps, cond.N + 5, (p.q,))
    return (None, False) if error else (a, termination._terminates(a, cond.N))


@pytest.mark.parametrize("family, kind, choice", SPECTRUM_COMBOS,
                         ids=[f"{f.value}-{k}" for f, k, _ in SPECTRUM_COMBOS])
def test_memoized_rebuilds_are_repr_identical_to_cold_ones(family, kind, choice):
    rng = random.Random(4242)
    for N in (0, 5, 15):
        p = draw_on_condition(rng, kind, N)
        cond = TerminationCondition(family, kind, N)
        spectrum = functools.partial(q_spectrum, p, family, cond, choice)
        spec = spectrum()
        # a real root also comes back with a -0.0 imaginary part: a q that
        # compares equal to the root, whose series must carry the caller's q
        signed = [(complex(r.real, -0.0), ok)
                  for r, ok in zip(spec.roots, spec.verified) if r.imag == 0]
        calls = [spectrum]
        for r in (*spec.roots, *(r for r, _ in signed)):
            p_r = dataclasses.replace(p, q=r)
            calls += [functools.partial(terminated_solution, p_r, family, cond, choice),
                      functools.partial(finite_solution, p_r, family, choice)]
        expect = [cold(call) for call in calls]
        termination._q_free_ladder.cache_clear()
        assert [outcome(call) for call in calls] == expect
        for r, verified in signed:
            if not verified:
                continue
            spectrum()
            for q in (r.conjugate(), r):  # +0.0 first, then -0.0 on a warm memo
                sol = terminated_solution(dataclasses.replace(p, q=q), family, cond, choice)
                assert repr(sol.params.q) == repr(q)


def test_terminated_solution_at_every_root_reuses_the_spectrum_builds(monkeypatch):
    """q_spectrum runs one solve_ladder pass over its roots; terminated_solution
    at every root reads the root table and runs none."""
    calls = []
    real = termination.solve_ladder

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(termination, "solve_ladder", counted)
    N = 5
    p = draw_on_condition(random.Random(11), KIND_DELTA_INT, N)
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, N)
    termination._q_free_ladder.cache_clear()
    spec = q_spectrum(p, Family.A2_ThreeTerm, cond)
    # one pass over the column of all N+1 roots, to N+5
    [(_, steps, upto, roots)] = calls
    assert all(spec.verified) and upto == N + 5 and len(roots) == N + 1
    calls.clear()
    for root in spec.roots:
        terminated_solution(dataclasses.replace(p, q=root), Family.A2_ThreeTerm, cond)
    assert calls == []


def count_recurrence_coeffs(monkeypatch) -> list:
    """The n of every recurrence_coeffs call, through the name the ladder reads."""
    import heunkummer.expansions as expansions

    calls = []
    formula = expansions.recurrence_coeffs

    def counted(params, family, alpha0, s0, n):
        calls.append(n)
        return formula(params, family, alpha0, s0, n)

    monkeypatch.setattr(expansions, "recurrence_coeffs", counted)
    return calls


# every combination at N = 5, and a b3 spectrum whose column pass stops at
# R_25 = 0 (gamma - alpha/eps = N+4) on four roots, which keep their
# residual |a_{N+1}| from the same pass
LADDER_CASES = [pytest.param(f, k, c, draw_on_condition(random.Random(13), k, 5), 5,
                             id=f"{f.value}-{k}") for f, k, c in SPECTRUM_COMBOS] + [
    pytest.param(Family.B3_ThreeTerm, KIND_DELTA_INT, None, params(29.0, -21.0, 0.5, 2.0),
                 21, id="b3-fallback")]


@pytest.mark.parametrize("family, kind, choice, p, N", LADDER_CASES)
def test_a_spectrum_builds_its_ladder_once(monkeypatch, family, kind, choice, p, N):
    """q enters the three-term ladders only as Q_n - q: a cold spectrum
    builds its N+6 steps once, not once per root, and terminated_solution
    at every root after it builds none."""
    calls = count_recurrence_coeffs(monkeypatch)
    cond = TerminationCondition(family, kind, N)
    termination._q_free_ladder.cache_clear()
    spec = q_spectrum(p, family, cond, choice)
    assert sorted(calls) == list(range(N + 6))
    calls.clear()
    for root, verified in zip(spec.roots, spec.verified):
        try:
            terminated_solution(dataclasses.replace(p, q=root), family, cond, choice)
        except ValueError:
            assert not verified
    assert calls == []
    rebuilt = [rebuild(dataclasses.replace(p, q=r), family, cond, choice)[0]
               for r in spec.roots]
    assert (rebuilt.count(None) == 4) == (N == 21)


@pytest.mark.parametrize("family, kind, choice", SPECTRUM_COMBOS,
                         ids=[f"{f.value}-{k}" for f, k, _ in SPECTRUM_COMBOS])
def test_a_rebuild_from_the_q_free_ladder_is_build_series_bit_for_bit(family, kind, choice):
    """The recurrence over the ladder at q = 0, less the root, to N+5 and to
    N+1 repr-equals a build at the root, and terminated_solution there is
    that build to N+5 cut to a_0..a_N, every field; a real root is also
    passed back as r-0j."""
    def solved(build) -> str:
        try:
            return repr(build())
        except LeadingCoefficientVanishesError as err:
            return f"raises {err}"

    rng = random.Random(2121)
    solved_at = []  # (root, q's imaginary part) where terminated_solution returned
    for N in (0, 1, 5, 15, 30):
        p = draw_on_condition(rng, kind, N)
        try:
            roots = q_spectrum(p, family, TerminationCondition(family, kind, N), choice).roots
        except LeadingCoefficientVanishesError:  # a fallback stopped too
            continue
        cond = TerminationCondition(family, kind, N)
        for r in (*roots, *(complex(r.real, -0.0) for r in roots if r.imag == 0)):
            p_r = dataclasses.replace(p, q=r)
            *_, steps, _ = termination._q_free_ladder(termination._parts(p_r),
                                                      family, cond, choice)
            for upto in (N + 1, N + 5):
                build = functools.partial(build_series, p_r, family, upto, alpha0_choice=choice)
                expect = solved(build)
                [(a, error)] = termination.solve_ladder(family, steps, upto, (p_r.q,))
                if expect.startswith("raises"):
                    assert f"raises {error}" == expect
                else:
                    assert error is None and repr(a) == repr(build().coefficients)
            # the root table's row at a root, a one-element pass at r-0j
            rebuilt, verdict = rebuild(p_r, family, cond, choice)
            solution = functools.partial(terminated_solution, p_r, family, cond, choice)
            assert (rebuilt is None) == expect.startswith("raises")
            if rebuilt is None:
                with pytest.raises(ValueError, match=f"cannot reach a_{N + 5}"):
                    solution()
                continue
            full = build_series(p_r, family, N + 5, alpha0_choice=choice)
            assert repr(rebuilt) == repr(full.coefficients)
            assert verdict == termination._terminates(full.coefficients, N)
            if not verdict:
                with pytest.raises(ValueError, match="is q a spectrum root"):
                    solution()
                continue
            # params (the sign of q's zero imaginary part too), alpha0,
            # gamma0, s0, coefficients, terminated and terminal_index
            assert repr(solution()) == repr(dataclasses.replace(
                full, coefficients=full.coefficients[:N + 1], terminated=True,
                terminal_index=N))
            solved_at.append((r, repr(r.imag)))
    # the field check ran at roots and at a real root passed as r-0j
    assert any(im == "-0.0" for _, im in solved_at) and len(solved_at) > 2


def test_rebuild_memo_stays_within_its_bound():
    """The root tables live in the q-free ladder memo of 8 spectra, and each
    holds its spectrum's N+1 roots: a q off the table is not stored."""
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1)
    for i in range(12):
        p = params(2.5 + 1e-3 * i, -1.0, 1.0, 1.0)
        q_spectrum(p, Family.A2_ThreeTerm, cond)
        for j in range(300):
            rebuild(dataclasses.replace(p, q=1e-3 * j), Family.A2_ThreeTerm, cond, None)
        *_, table = termination._q_free_ladder(termination._parts(p),
                                               Family.A2_ThreeTerm, cond, None)
        assert len(table) == 2
    info = termination._q_free_ladder.cache_info()
    assert info.maxsize == 8 and info.currsize <= 8


def test_a_failing_rebuild_fails_on_every_call():
    # gamma + delta = 0 is no a2 series: raised, not memoized, every time
    bad = params(1.0, -1.0, 1.0, 1.0)
    termination._q_free_ladder.cache_clear()
    for _ in range(3):
        with pytest.raises(ApplicabilityError):
            rebuild(bad, Family.A2_ThreeTerm,
                    TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 1), None)
    info = termination._q_free_ladder.cache_info()
    assert info.misses == 3 and info.currsize == 0
    # a build stopped by a vanishing step is the verdict "not a root",
    # (None, False), on every call, off the table and on it
    p = params(19.8, -16.0, 1.0, 1.8, 187.5)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 16)
    for _ in range(2):
        assert rebuild(p, Family.B3_ThreeTerm, cond, None) == (None, False)
        with pytest.raises(ValueError, match="cannot reach a_21"):
            terminated_solution(p, Family.B3_ThreeTerm, cond)
    spec = q_spectrum(p, Family.B3_ThreeTerm, cond)
    *_, table = termination._q_free_ladder(termination._parts(p),
                                           Family.B3_ThreeTerm, cond, None)
    assert len(table) == len(spec.roots) == 17


def reference_ladder(family, steps, N, q):
    """(a_0..a_N, error text or None) at one q: the per-root loop the column
    pass replaced, three-term families only."""
    coeffs, scale = [1.0 + 0j], 1.0
    for n in range(1, N + 1):
        R = steps[n][0]
        num = 0j
        num += (steps[n - 1][1] - q) * coeffs[n - 1]
        if n >= 2:
            num += steps[n - 2][2] * coeffs[n - 2]
        nsq = float((1 + n) ** 2)
        if abs(R) <= ZERO_TOL * nsq:
            if abs(num) <= ZERO_TOL * nsq * scale:
                coeffs.append(0j)
                continue
            return tuple(coeffs), (f"R_{n} = {R} vanishes with non-negligible numerator "
                                   f"|{abs(num):.3e}| for family {family.name}")
        a_n = -num / R
        coeffs.append(a_n)
        scale = max(abs(a_n), scale)
    return tuple(coeffs), None if scale < math.inf else "overflows"


@pytest.mark.parametrize("family, kind, choice", SPECTRUM_COMBOS,
                         ids=[f"{f.value}-{k}" for f, k, _ in SPECTRUM_COMBOS])
def test_the_condition_tridiagonal_gives_the_spectrum_roots(family, kind, choice):
    """shift + eig(T) is q_spectrum's roots, bit for bit, as a multiset, and
    params.q is not read."""
    import numpy as np
    rng = random.Random(f"condition-tridiagonal-{family.value}-{kind}")
    for N in (0, 5, 15):
        cond = TerminationCondition(family, kind, N)
        for _ in range(3):
            p = draw_on_condition(rng, kind, N)
            T, shift = termination.condition_tridiagonal(
                dataclasses.replace(p, q=rng.uniform(-1e300, 1e300)), cond)
            assert T.shape == (N + 1, N + 1)
            roots = [complex(lam + shift) for lam in np.linalg.eigvals(T)]
            spec = q_spectrum(p, family, cond, choice)
            assert sorted(map(repr, roots)) == sorted(map(repr, spec.roots))


def test_a_condition_tridiagonal_that_overflows_is_refused():
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, 3)
    with pytest.raises(ValueError, match=r"^the A2_ThreeTerm AlphaOverEps N = 3 spectrum "
                                         r"overflows: its recurrence tridiagonal is not finite$"):
        termination.condition_tridiagonal(params(1.5, 0.5, 1e308, -0.75e308), cond)


DIFFERENTIAL_CASES = [
    pytest.param(f, k, c, draw_on_condition(random.Random(3100 + N), k, N), N,
                 id=f"{f.value}-{k}-N{N}")
    for f, k, c in SPECTRUM_COMBOS for N in (0, 1, 5, 15, 30)] + [
    pytest.param(Family.B3_ThreeTerm, KIND_DELTA_INT, None, params(29.0, -21.0, 0.5, 2.0),
                 21, id="b3-R25-vanishes"),
    pytest.param(Family.A2_ThreeTerm, KIND_DELTA_INT, None, params(2.3, -80.0, 1e6, 0.7),
                 80, id="a2-N80-overflows")]


@pytest.mark.parametrize("family, kind, choice, p, N", DIFFERENTIAL_CASES)
def test_the_column_pass_is_the_per_root_loop_bit_for_bit(family, kind, choice, p, N):
    """At every root: coefficients, verdict and residual equal (==, repr) a
    per-root reference loop, and a one-element column off the table equals
    the row the table holds for the same q."""
    cond = TerminationCondition(family, kind, N)
    termination._q_free_ladder.cache_clear()
    try:
        spec = q_spectrum(p, family, cond, choice)
    except LeadingCoefficientVanishesError:
        spec = None
    *_, steps, table = termination._q_free_ladder(termination._parts(p),
                                                  family, cond, choice)
    T, shift = termination.condition_tridiagonal(p, cond)
    import numpy as np
    roots = [complex(lam + shift) for lam in np.linalg.eigvals(T)]
    columns = termination.solve_ladder(family, steps, N + 5, roots)
    stops = []
    for r, (a, error) in zip(roots, columns):
        ref, why = reference_ladder(family, steps, N + 5, r)
        assert repr(a) == repr(ref)
        assert (error is None) == (why is None)
        if why is not None and why != "overflows":
            assert str(error) == why
        if len(ref) < N + 2:
            stops.append(why)
            continue
        verdict = why is None and termination._terminates(ref, N)
        finite = all(cmath.isfinite(a_n) for a_n in ref[:N + 2])
        residual = abs(ref[N + 1]) if finite else math.inf
        [(one, one_error)] = termination.solve_ladder(family, steps, N + 5, (r,))
        assert repr(one) == repr(a) and str(one_error) == str(error)
        if spec is not None:
            i = spec.roots.index(r)
            assert (spec.verified[i], spec.root_residuals[i]) == (verdict, residual)
            assert table[termination._q_key(r)] == (
                None if why else ref, verdict)
    # the spectrum stops exactly where a root's pass stops by a_{N+1}
    assert (spec is None) == bool(stops)
    if N == 21:
        assert spec.verified.count(False) == 4
    if N == 80:
        assert math.inf in spec.root_residuals


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
# one check per spectrum

def count_checks(monkeypatch) -> dict:
    """Calls of the two halves of check_condition, through the names it reads."""
    counts = {"enumerate": 0, "applicable": 0}
    enumerate_real, applicable_real = (termination.enumerate_termination_conditions,
                                       termination.check_applicable)

    def enumerate_counted(*args):
        counts["enumerate"] += 1
        return enumerate_real(*args)

    def applicable_counted(*args):
        counts["applicable"] += 1
        return applicable_real(*args)

    monkeypatch.setattr(termination, "enumerate_termination_conditions", enumerate_counted)
    monkeypatch.setattr(termination, "check_applicable", applicable_counted)
    return counts


def test_a_spectrum_and_its_roots_check_the_condition_once(monkeypatch):
    # the condition reads no q: it was checked N+2 and 2N+3 times, once by
    # the spectrum and again for every root
    N = 15
    p = draw_on_condition(random.Random(25), KIND_DELTA_INT, N)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, N)
    termination._q_free_ladder.cache_clear()
    counts = count_checks(monkeypatch)
    spec = q_spectrum(p, Family.B3_ThreeTerm, cond)
    assert all(spec.verified) and len(spec.roots) == N + 1
    for root in spec.roots:
        terminated_solution(dataclasses.replace(p, q=root), Family.B3_ThreeTerm, cond)
    assert counts == {"enumerate": 1, "applicable": 1}


@pytest.mark.parametrize("family, cond, choice", [
    (Family.B3_ThreeTerm, TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 14),
     None),
    (Family.B3_ThreeTerm, TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 15),
     GAMMA_CHOICE),
    (Family.C_ThreeTerm, TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 15),
     None),
], ids=["condition", "alpha0-branch", "family"])
def test_a_warm_spectrum_vouches_for_no_other_condition(family, cond, choice):
    p = draw_on_condition(random.Random(25), KIND_DELTA_INT, 15)
    held = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 15)
    spec = q_spectrum(p, Family.B3_ThreeTerm, held)
    for root in spec.roots:
        p_r = dataclasses.replace(p, q=root)
        terminated_solution(p_r, Family.B3_ThreeTerm, held)  # warm
        with pytest.raises(ConditionNotMetError):
            terminated_solution(p_r, family, cond, choice)


@pytest.mark.parametrize("family", [Family.A1_TwoTerm, Family.B4_FourTerm],
                         ids=lambda f: f.value)
def test_a1_and_b4_conditions_get_the_enumeration_error_at_every_q(family):
    # a1's applicability reads q (QConstraintViolated at q = 0.5, not at
    # q = -1.7), and gamma = -1 makes b4 inapplicable: enumeration refuses both first
    cond = TerminationCondition(family, KIND_DELTA_INT, 0)
    g = -1.0 if family is Family.B4_FourTerm else 2.5
    for q in (0.5, -1.7):
        p = params(g, 0.0, 1.0, -1.7, q)
        for call in (q_spectrum, terminated_solution):
            with pytest.raises(ValueError, match="no right-termination rules"):
                call(p, family, cond)


@pytest.mark.parametrize("p, choice, text", [
    (params(2.0, -3.0, 1.0, 0.7), GAMMA_CHOICE, "takes alpha0_choice"),
    (params(3.0, -100.0, 1.0, 0.7), None, "N = 100"),
    (params(2.0, -3.0, 1e-320, 0.7), None, "AlphaOverEps value"),
], ids=["alpha0-choice", "N-above-bound", "overflowed-kind-value"])
def test_enumeration_errors_come_before_applicability(p, choice, text):
    # gamma + delta is a non-positive integer, so the a2 family does not
    # apply either; the check reports what enumeration finds first
    assert applicability(p, Family.A2_ThreeTerm) == ["GammaDeltaNonPositiveInt"]
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 3)
    for call in (termination.check_condition, q_spectrum, terminated_solution):
        with pytest.raises(ValueError, match=text):
            call(p, Family.A2_ThreeTerm, cond, choice)


@pytest.mark.parametrize("p, family, text", [
    (params(2.3, -3.0, 1e-320, 0.7), Family.A2_ThreeTerm, "AlphaOverEps value"),
    (params(2.3, -3.0, 1e-320, 0.7), Family.C_ThreeTerm, "GammaDeltaAlpha value"),
], ids=["alpha-over-eps", "gamma-delta-alpha"])
def test_an_overflowed_kind_value_is_a_value_error(p, family, text):
    # alpha/eps overflows double: round(inf) raised OverflowError
    with pytest.raises(ValueError, match=f"{text} .* is not finite"):
        enumerate_termination_conditions(p, family)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_spectrum_whose_tridiagonal_overflows_names_its_condition():
    # gamma = 1e308 overflows the tridiagonal's entries: numpy's eigvals
    # raised LinAlgError "Array must not contain infs or NaNs", naming no
    # family, kind or N
    p = params(1e308, -2.0, 2.3, 3e200)
    cond = TerminationCondition(Family.B3_ThreeTerm, KIND_DELTA_INT, 2)
    assert cond in enumerate_termination_conditions(p, Family.B3_ThreeTerm)
    with pytest.raises(ValueError, match=r"^the B3_ThreeTerm DeltaInt N = 2 spectrum "
                                         r"overflows") as info:
        q_spectrum(p, Family.B3_ThreeTerm, cond)
    assert len(str(info.value)) < 300


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
