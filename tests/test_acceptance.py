"""Release gates.

Each test pins one end-to-end contract of the package at its shipped
tolerance, so ``pytest -v tests/test_acceptance.py`` reads as a checklist:
one line per gate. Randomized gates seed their own generator and draw from
boxes chosen (and guarded) to stay inside the documented applicability
regions; the guards are part of the contract, not tuning.
"""

import math
import random
import subprocess
import sys

import mpmath

from heunkummer import (
    CheParams,
    Family,
    IDENTITY_IDS,
    LorentzianModel,
    build_series,
    eval_1f1,
    eval_series,
    eval_series_with_derivatives,
    frobenius_coefficients,
    frobenius_eval,
    identity_residual,
    locate_return_delta0,
    match_against_rk,
    q_spectrum,
    recurrence_coeffs,
    relative_residual,
    terminated_solution,
    transform_1_minus_z,
)
from heunkummer.expansions import ALPHA_OVER_EPS, GAMMA_CHOICE
from heunkummer.termination import (
    KIND_ALPHA_OVER_EPS,
    KIND_DELTA_INT,
    KIND_GAMMA_DELTA_ALPHA,
    TerminationCondition,
)

from conftest import (complex_box, disk_draw, dyadic_complex,
                      polynomial_certificate, subprocess_env)


def test_kummer_identities_hold_on_random_draws():
    """All seven shipped identities stay below 1e-10 over 200 draws with
    parameter real parts in [0.5, 3], imaginary parts in [-0.5, 0.5], and
    the argument anywhere in the disk |x| <= 5."""
    rng = random.Random(101)
    worst = 0.0
    for _ in range(200):
        a = complex_box(rng, 0.5, 3.0)
        c = complex_box(rng, 0.5, 3.0)
        while abs(c - 1.0) <= 1e-6:  # identities that lower c hit the c = 1 pole
            c = complex_box(rng, 0.5, 3.0)
        x = disk_draw(rng, 5.0)
        for identity in IDENTITY_IDS:
            worst = max(worst, identity_residual(identity, a, c, x))
    assert worst <= 1e-10


def test_four_term_ladder_degenerates_to_three_term():
    """At s0 = -eps the four-term recurrence is eps times the three-term one
    with its fourth coefficient identically zero (1e-12 relative, n = 0..20,
    50 draws), and the a2 and c ladders share R_n = -n(gamma+delta+n-1)
    bitwise."""
    rng = random.Random(202)
    worst = 0.0
    for _ in range(50):
        p = CheParams(*(complex_box(rng, 0.5, 3.0, -0.4, 0.4) for _ in range(5)))
        ae = p.alpha / p.epsilon
        gd = p.gamma + p.delta
        for n in range(21):
            r4, q4, p4, s4 = recurrence_coeffs(p, Family.B4_FourTerm, ae, -p.epsilon, n)
            r3, q3, p3, _ = recurrence_coeffs(p, Family.B3_ThreeTerm, ae, -p.epsilon, n)
            scale = max(1.0, abs(r3), abs(q3), abs(p3))
            worst = max(worst,
                        abs(r4 / p.epsilon - r3) / scale,
                        abs(q4 / p.epsilon - q3) / scale,
                        abs(p4 / p.epsilon - p3) / scale)
            assert s4 == 0
            ra = recurrence_coeffs(p, Family.A2_ThreeTerm, ae, -p.epsilon, n)[0]
            rc = recurrence_coeffs(p, Family.C_ThreeTerm, ae, -p.epsilon, n)[0]
            assert ra == rc == -n * (gd + n - 1)
    assert worst <= 1e-12


def test_terminating_builds_match_the_power_series_oracle():
    """20 admissible parameter sets on termination lines (delta a nonpositive
    integer, q on the matching spectrum root): a2, b3 and c builds with 30
    terms agree with the Frobenius solution at z = 0.2, 0.3, 0.4 to 1e-8
    relative after both are normalized at z = 0.1, with series tails below
    1e-10."""
    rng = random.Random(303)
    worst = 0.0
    for _ in range(20):
        n_t = rng.randrange(4)
        while True:
            g = complex_box(rng, 1.2, 2.8, -0.3, 0.3)
            e = complex_box(rng, 0.8, 1.5, -0.3, 0.3)
            al = complex_box(rng, 0.5, 2.0, -0.3, 0.3)
            # keep gamma - alpha/eps away from integers (b3 resonance) and
            # gamma + delta = gamma - n_t away from nonpositive integers
            gd = g - n_t
            ratio = (g - al / e).real
            if (abs(ratio - round(ratio)) > 0.15
                    and (gd.real > 0.2 or abs(gd.real - round(gd.real)) > 0.2)):
                break
        for family in (Family.A2_ThreeTerm, Family.B3_ThreeTerm, Family.C_ThreeTerm):
            cond = TerminationCondition(family, KIND_DELTA_INT, n_t)
            spec = q_spectrum(CheParams(g, -n_t, e, al, 0), family, cond)
            root = spec.roots[rng.randrange(len(spec.roots))]
            p = CheParams(g, -n_t, e, al, root)
            sol = build_series(p, family, 30)
            frob = frobenius_coefficients(p, 80)
            anchor_s = eval_series(sol, 0.1, tol=1e-10)[0]
            anchor_f = frobenius_eval(frob, 0.1)[0]
            for z in (0.2, 0.3, 0.4):
                u_s, tail = eval_series(sol, z, tol=1e-10)
                assert tail <= 1e-10
                ref = frobenius_eval(frob, z)[0] / anchor_f
                worst = max(worst, abs(u_s / anchor_s - ref) / abs(ref))
    assert worst <= 1e-8


def test_a2_on_the_delta_zero_line_is_a_single_kummer_function():
    """delta = 0 with q = alpha: the a2 series terminates at its first
    coefficient, the sum reproduces 1F1(alpha/eps; gamma; -eps z) exactly,
    and the equation residual at z = 0.3 stays below 1e-10 (10 draws)."""
    rng = random.Random(404)
    worst = 0.0
    for _ in range(10):
        g = complex_box(rng, 0.8, 2.5, -0.4, 0.4)
        e = complex_box(rng, 0.8, 1.5, -0.3, 0.3)
        al = complex_box(rng, 0.5, 2.5, -0.4, 0.4)
        p = CheParams(g, 0, e, al, al)
        cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 0)
        sol = terminated_solution(p, Family.A2_ThreeTerm, cond)
        assert sol.terminated and sol.terminal_index == 0
        z = 0.3
        value, _ = eval_series(sol, z)
        assert value == eval_1f1(al / e, g, -e * z)
        u, u1, u2, _ = eval_series_with_derivatives(sol, z)
        worst = max(worst, relative_residual(p, u, u1, u2, z))
    assert worst <= 1e-10


def test_two_term_ladder_matches_the_pochhammer_closed_form():
    """On the constraint line q = alpha - delta*eps the two-term coefficients
    match the rising-factorial ratio to 1e-12; with 400 terms the tail at
    z = 0.25 clears 1e-10 and the sum solves the equation to 1e-8
    (10 draws, delta = 0)."""
    rng = random.Random(505)
    worst_closed = worst_res = 0.0
    for _ in range(10):
        g = rng.uniform(2.2, 3.0)
        al = rng.uniform(-2.5, -1.0)
        e = rng.uniform(0.8, 1.2)
        p = CheParams(g, 0, e, al, al)
        sol = build_series(p, Family.A1_TwoTerm, 400)
        a0, g0 = al / e, 1 + g
        with mpmath.workdps(30):
            for n, a_n in enumerate(sol.coefficients):
                closed = complex(mpmath.rf(a0, n) / mpmath.rf(g0, n))
                worst_closed = max(worst_closed,
                                   abs(a_n - closed) / max(1.0, abs(closed)))
        u, u1, u2, tail = eval_series_with_derivatives(sol, 0.25)
        assert tail <= 1e-10
        worst_res = max(worst_res, relative_residual(p, u, u1, u2, 0.25))
    assert worst_closed <= 1e-12
    assert worst_res <= 1e-8


def test_spectra_give_full_verified_root_sets():
    """Seven family/condition combinations at N = 0..3: the q-spectrum holds
    exactly N+1 roots, every root passes the truncation check, the truncated
    sums solve the equation to 1e-8 at five points with |z| <= 0.5, and the
    alpha/eps-terminated a2 sums pass the polynomial certificate at 1e-9."""
    rng = random.Random(606)
    combos = (
        (Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, None),
        (Family.A2_ThreeTerm, KIND_DELTA_INT, None),
        (Family.B3_ThreeTerm, KIND_ALPHA_OVER_EPS, ALPHA_OVER_EPS),
        (Family.B3_ThreeTerm, KIND_DELTA_INT, ALPHA_OVER_EPS),
        (Family.B3_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, GAMMA_CHOICE),
        (Family.C_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, None),
        (Family.C_ThreeTerm, KIND_DELTA_INT, None),
    )
    worst = cert_worst = 0.0
    for family, kind, choice in combos:
        for n_stop in range(4):
            g = complex(rng.uniform(1.3, 2.7))
            if abs(g.real - round(g.real)) < 0.2:
                g += 0.23
            d = complex(rng.uniform(0.25, 0.85))
            e = complex(rng.uniform(0.8, 1.4))
            if kind == KIND_ALPHA_OVER_EPS:
                al = -n_stop * e
            elif kind == KIND_DELTA_INT:
                d = complex(-n_stop)
                al = complex(rng.uniform(0.6, 1.8))
                while (family is Family.B3_ThreeTerm
                       and abs((g - al / e).real - round((g - al / e).real)) < 0.15):
                    al = complex(rng.uniform(0.6, 1.8))  # b3 R_n vanishes there
            else:
                al = e * (g + d + n_stop)
            cond = TerminationCondition(family, kind, n_stop)
            spec = q_spectrum(CheParams(g, d, e, al, 0), family, cond,
                              alpha0_choice=choice)
            assert len(spec.roots) == n_stop + 1
            assert all(spec.verified)
            for root in spec.roots:
                p = CheParams(g, d, e, al, root)
                sol = terminated_solution(p, family, cond, alpha0_choice=choice)
                for z in (0.12, 0.22, 0.31, 0.41, 0.47):
                    u, u1, u2, _ = eval_series_with_derivatives(sol, z)
                    worst = max(worst, relative_residual(p, u, u1, u2, z))
                if family is Family.A2_ThreeTerm and kind == KIND_ALPHA_OVER_EPS:
                    cert_worst = max(cert_worst, polynomial_certificate(sol, n_stop))
    assert worst <= 1e-8
    assert cert_worst <= 1e-9


def test_delta_zero_spectrum_collapses_to_alpha():
    """delta = 0, N = 0: the first coefficient's numerator is alpha - q, so
    the spectrum is the single root q = alpha, recovered to 1e-12
    (10 draws)."""
    rng = random.Random(707)
    cond = TerminationCondition(Family.A2_ThreeTerm, KIND_DELTA_INT, 0)
    for _ in range(10):
        g = complex_box(rng, 0.8, 2.5, -0.4, 0.4)
        e = complex_box(rng, 0.8, 1.5, -0.3, 0.3)
        al = complex_box(rng, 0.5, 2.5, -0.4, 0.4)
        spec = q_spectrum(CheParams(g, 0, e, al, 0), Family.A2_ThreeTerm, cond)
        assert len(spec.roots) == 1
        assert abs(spec.roots[0] - al) <= 1e-12


def test_return_resonance_is_located_and_matches_the_integrator():
    """R = 1 pulse: the scan finds the detuning offset where the return
    relation drops below 1e-8, and there the terminated closed form tracks
    the integrator on [-5, 5] to 1e-6 after the two-basis anchor match,
    with norm drift below 1e-10."""
    u0 = math.sqrt(0.75)  # R = sqrt(u0^2 + delta1^2/4) = 1, so N = 0
    d0, relation = locate_return_delta0(u0, -1.0, 0, -0.3, 0.7)
    assert relation < 1e-8
    result = match_against_rk(LorentzianModel(u0, d0, -1.0))
    assert result.max_deviation <= 1e-6
    assert result.norm_drift <= 1e-10


def test_reflection_map_round_trips_and_maps_solutions():
    """Applying the z -> 1-z parameter map twice returns every field bitwise
    on 100 random draws; a single application is confirmed by solving the
    mapped equation with the power-series oracle and checking the reflected
    values against the original operator to 1e-9."""
    rng = random.Random(909)
    for _ in range(100):
        # drawn on a dyadic grid: q maps through (q - alpha) + alpha, which
        # is rounding-free there, so the round trip is bitwise by
        # construction rather than by luck
        p = CheParams(*(dyadic_complex(rng) for _ in range(5)))
        assert transform_1_minus_z(transform_1_minus_z(p)) == p
    worst = 0.0
    for _ in range(5):
        p = CheParams(complex_box(rng, 0.8, 2.5, -0.4, 0.4),
                      complex_box(rng, 0.8, 2.5, -0.4, 0.4),
                      complex_box(rng, 0.5, 1.5, -0.4, 0.4),
                      complex_box(rng, 0.5, 2.0, -0.4, 0.4),
                      complex_box(rng, 0.3, 1.5, -0.4, 0.4))
        series = frobenius_coefficients(transform_1_minus_z(p), 200)
        w = 0.3
        v, v1, v2 = frobenius_eval(series, w)
        # v solves the mapped equation at w, so u(z) = v(1-z) solves the
        # original one at z = 1 - w, with the sign flip on u'
        worst = max(worst, relative_residual(p, v, -v1, v2, 1 - w))
    assert worst <= 1e-9


def test_cli_runs_are_byte_identical():
    """Repeating an invocation in a fresh process reproduces stdout byte for
    byte, for a series evaluation and for a spectrum listing."""
    series_cmd = [sys.executable, "-m", "heunkummer.cli", "che-series",
                  "--family", "a2", "--gamma", "1", "--delta", "0",
                  "--eps", "1", "--alpha", "1", "--q", "1", "--z", "0.3"]
    spectrum_cmd = [sys.executable, "-m", "heunkummer.cli", "q-spectrum",
                    "--family", "a2", "--gamma", "2.3", "--delta=-2",
                    "--eps", "1.1", "--alpha", "0.7"]
    for cmd in (series_cmd, spectrum_cmd):
        runs = [subprocess.run(cmd, capture_output=True, check=True,
                               env=subprocess_env()).stdout
                for _ in range(2)]
        assert runs[0] and runs[0] == runs[1]
