import cmath
import math
import re

import mpmath
import numpy as np
import pytest

from heunkummer import (
    ConditionNotMetError,
    LorentzianModel,
    StepTooCoarseError,
    closed_form_solution,
    equation_residual_in_t,
    frobenius_coefficients,
    frobenius_eval,
    integrate_rk,
    locate_return_delta0,
    match_against_rk,
    reduce_to_che,
    return_points,
    return_spectrum_relation,
    scan_return_delta0,
)
from heunkummer import expansions, twostate

from conftest import abs_term_sum

# R = sqrt(U0^2 + Delta1^2/4) = 2 exactly: the series right-terminates at
# n = 1 and the closed form is a genuine finite sum valid for all t
TERMINATING = LorentzianModel(U0=math.sqrt(3.0), Delta0=2.0, Delta1=-2.0)

# generic pulse, R irrational: no finite closed form exists
GENERIC = LorentzianModel(U0=2.0, Delta0=0.5, Delta1=1.0)

# R = 2 natural but Delta0 off the return spectrum: the B3 build cannot take
# its step past the termination index (R_3 = 0 with a nonzero numerator)
OFF_SPECTRUM = LorentzianModel(U0=math.sqrt(3.0), Delta0=0.7, Delta1=-2.0)


class ConstantPulse(LorentzianModel):
    """Resonant flat drive: its pulse shape methods return scalars, so the
    integrator broadcasts them over the time grid."""

    def coupling(self, t):
        return self.U0

    def detuning_rate(self, t):
        return 0.0

    def phase(self, t):
        return 0.0


FLAT = ConstantPulse(U0=1.3, Delta0=0.0, Delta1=0.0)


# ---------------------------------------------------------------------------
# the model and its reduction

def test_model_requires_positive_coupling():
    with pytest.raises(ValueError):
        LorentzianModel(U0=0.0, Delta0=0.5, Delta1=1.0)
    with pytest.raises(ValueError):
        LorentzianModel(U0=-1.0, Delta0=0.5, Delta1=1.0)


@pytest.mark.parametrize("pulse, name", [((1.0, math.nan, 1.0), "Delta0"),
                                         ((1.0, 0.3, math.inf), "Delta1"),
                                         ((math.inf, 0.3, 1.0), "U0"),
                                         ((math.nan, 0.3, 1.0), "U0")])
def test_model_refuses_non_finite_parameters(pulse, name):
    # accepted, such a pulse reached integrate_rk and failed there as a
    # StepTooCoarseError about a nan endpoint
    with pytest.raises(ValueError, match=f"parameter {name} = .* is not finite"):
        LorentzianModel(*pulse)


def test_pulse_shapes():
    m = GENERIC
    assert m.coupling(0.0) == 2.0
    assert m.coupling(1.0) == 1.0
    assert m.detuning_rate(0.0) == 1.5
    # the phase is the exact integral of the detuning rate
    h = 1e-6
    rate_fd = (m.phase(0.4 + h) - m.phase(0.4 - h)) / (2 * h)
    assert rate_fd == pytest.approx(m.detuning_rate(0.4), abs=1e-9)


def test_reduction_parameters():
    red = reduce_to_che(GENERIC)
    R = math.sqrt(4.0 + 0.25)
    assert red.R == pytest.approx(R, rel=1e-15)
    p = red.che
    assert p.gamma == pytest.approx(1 + R)
    assert p.delta == pytest.approx(1 - R)
    assert p.epsilon == -1.0  # -2 Delta0
    assert p.alpha == 0.0
    assert p.q == pytest.approx(-(R + 0.5) * 0.5)
    assert p.gamma + p.delta == pytest.approx(2.0)
    assert red.exp_alpha2 == -red.exp_alpha1


@pytest.mark.parametrize("model, text", [
    (LorentzianModel(1e200, 2.0, -2.0), "overflows"),  # U0^2
    (LorentzianModel(1.3e154, 2.0, 1.3e154), "parameter gamma "),  # R = inf
    (LorentzianModel(3.0, 8.9e307, 0.0), "parameter q "),  # -(R + Delta1/2) Delta0
], ids=["U0-squared", "R-infinite", "q"])
def test_reduction_refuses_overflowing_parameters(model, text):
    with pytest.raises(ValueError, match=text):
        reduce_to_che(model)


def test_reduction_exponent_solves_the_indicial_quadratic():
    m = GENERIC
    red = reduce_to_che(m)
    a1 = red.exp_alpha1
    assert abs(a1 * a1 - (m.Delta1 / 2) * a1 - m.U0 ** 2 / 4) <= 1e-14


def test_time_to_plane_map():
    red = reduce_to_che(GENERIC)
    assert red.z_of_t(0.0) == 0.5
    assert red.z_of_t(2.0) == 0.5 + 1.0j


# ---------------------------------------------------------------------------
# the RK oracle

def reference_rk4(model, t_start, t_end, steps, init):
    """Classical RK4 one step at a time, on y' = pair(t) * y[..., ::-1]:
    the reference for integrate_rk's product of step matrices. Returns
    (times, amplitudes) with amplitudes shaped (stack..., time, component)."""
    def pair(t):
        u = model.coupling(t)
        ph = cmath.exp(1j * model.phase(t))
        return np.array([-1j * u / ph, -1j * u * ph])

    h = (t_end - t_start) / steps
    times = t_start + h * np.arange(steps + 1)
    y = np.array(init, dtype=complex)
    a = [y]
    for t in times[:-1]:
        mid = pair(t + h / 2)
        k1 = pair(t) * y[..., ::-1]
        k2 = mid * (y + h / 2 * k1)[..., ::-1]
        k3 = mid * (y + h / 2 * k2)[..., ::-1]
        k4 = pair(t + h) * (y + h * k3)[..., ::-1]
        y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        a.append(y)
    return times, np.moveaxis(np.array(a), 0, -2)


@pytest.mark.parametrize("init", [(1 + 0j, 0j), np.eye(2)],
                         ids=["single", "stacked"])
@pytest.mark.parametrize("t_start, t_end", [(-5.0, 5.0), (5.0, -5.0)],
                         ids=["forward", "reversed"])
def test_rk_matches_the_step_by_step_reference(t_start, t_end, init):
    # the product of step matrices reorders roundoff, nothing more
    traj = integrate_rk(GENERIC, t_start, t_end, 2000, init=init)
    times, a = reference_rk4(GENERIC, t_start, t_end, 2000, init)
    assert traj.a1.shape == a[..., 0].shape
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.a1 - a[..., 0])) <= 1e-12
    assert np.max(np.abs(traj.a2 - a[..., 1])) <= 1e-12


def test_rk_preserves_the_norm():
    traj = integrate_rk(GENERIC, -5.0, 5.0, 8000)
    assert traj.norm_drift() <= 1e-10


def test_rk_is_reversible():
    fwd = integrate_rk(GENERIC, -5.0, 5.0, 8000)
    back = integrate_rk(GENERIC, 5.0, -5.0, 8000,
                        init=(fwd.a1[-1], fwd.a2[-1]))
    assert abs(back.a1[-1] - 1.0) <= 1e-9
    assert abs(back.a2[-1]) <= 1e-9


def test_stacked_run_repeats_each_single_run_exactly():
    stacked = integrate_rk(GENERIC, -5.0, 5.0, 2000, init=np.eye(2))
    for k, init in enumerate(((1 + 0j, 0j), (0j, 1 + 0j))):
        single = integrate_rk(GENERIC, -5.0, 5.0, 2000, init=init)
        assert np.array_equal(stacked.a1[k], single.a1)
        assert np.array_equal(stacked.a2[k], single.a2)


def test_rk_rejects_bad_grids():
    with pytest.raises(ValueError):
        integrate_rk(GENERIC, -5.0, 5.0, 50)
    with pytest.raises(ValueError):
        integrate_rk(GENERIC, -math.inf, 5.0, 8000)
    with pytest.raises(ValueError):
        integrate_rk(GENERIC, 1.0, 1.0, 8000)  # a window of zero length


def test_rk_detects_a_coarse_grid():
    with pytest.raises(StepTooCoarseError):
        integrate_rk(GENERIC, -5.0, 5.0, 100)


def test_rk_detects_a_run_that_blows_up():
    # U0 h = 1e4 per step: the endpoints overflow to NaN, which no
    # step-halving difference may pass as small
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(StepTooCoarseError, match="nan"):
        integrate_rk(LorentzianModel(1000000.5, 0.3, 1.0), -5.0, 5.0, 100)


@pytest.mark.parametrize("init", [(1, 0, 0), (1,), 1.0, np.ones((2, 3))],
                         ids=["three", "one", "scalar", "stack-of-three"])
def test_rk_refuses_an_init_of_the_wrong_width(init):
    # a third component was dropped without a word, a single one raised a
    # bare IndexError
    shape = np.shape(init)
    with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
        integrate_rk(GENERIC, -5.0, 5.0, 2000, init=init)


@pytest.mark.parametrize("init", [(math.nan, 0), (1, complex(0, math.inf)),
                                  [[1, 0], [0, math.nan]]],
                         ids=["nan", "inf", "stacked-nan"])
def test_rk_refuses_a_non_finite_init(init):
    # reported before as a step-halving failure that moved the endpoint by nan
    with pytest.raises(ValueError, match="init must be finite"):
        integrate_rk(GENERIC, -5.0, 5.0, 2000, init=init)


@pytest.mark.parametrize("steps", [8000.0, 100.5, "8000"])
def test_rk_refuses_a_non_integral_step_count(steps):
    with pytest.raises(ValueError, match="steps must be an integer"):
        integrate_rk(GENERIC, -5.0, 5.0, steps)


def test_rk_takes_a_numpy_integer_step_count():
    traj = integrate_rk(GENERIC, -5.0, 5.0, np.int64(2000))
    assert np.array_equal(traj.a2, integrate_rk(GENERIC, -5.0, 5.0, 2000).a2)


def two_run_delta(model, t_start, t_end, steps, init):
    """max |endpoint(steps) - endpoint(2 steps)| from two separate runs."""
    coarse = integrate_rk(model, t_start, t_end, steps, init=init)
    fine = integrate_rk(model, t_start, t_end, 2 * steps, init=init)
    return max(np.max(np.abs(coarse.a1[..., -1] - fine.a1[..., -1])),
               np.max(np.abs(coarse.a2[..., -1] - fine.a2[..., -1])))


@pytest.mark.parametrize("init", [(1 + 0j, 0j), np.eye(2)],
                         ids=["single", "stacked"])
def test_halving_delta_is_the_difference_of_two_runs(init):
    # the halving run inside integrate_rk is RK4 at h/2 over the same window
    steps = twostate.DEFAULT_STEPS
    traj = integrate_rk(GENERIC, -5.0, 5.0, steps, init=init)
    assert 0 < traj.halving_delta <= twostate.HALVING_TOL
    assert abs(traj.halving_delta
               - two_run_delta(GENERIC, -5.0, 5.0, steps, init)) <= 1e-14


@pytest.mark.parametrize("steps", [101, twostate._CHUNK + 1,
                                   3 * twostate._CHUNK - 1],
                         ids=["101", "chunk+1", "3chunks-1"])
@pytest.mark.parametrize("model, t_start, t_end", [(GENERIC, -0.5, 0.5),
                                                   (FLAT, 0.0, 1.0)],
                         ids=["lorentzian", "flat"])
def test_rk_runs_that_end_inside_a_chunk(model, t_start, t_end, steps):
    # step counts that leave a part-filled last chunk, and halving runs
    # whose pairwise products meet an odd count of matrices
    init = np.eye(2)
    traj = integrate_rk(model, t_start, t_end, steps, init=init)
    _, a = reference_rk4(model, t_start, t_end, steps, init)
    assert np.max(np.abs(traj.a1 - a[..., 0])) <= 1e-12
    assert np.max(np.abs(traj.a2 - a[..., 1])) <= 1e-12
    assert abs(traj.halving_delta
               - two_run_delta(model, t_start, t_end, steps, init)) <= 1e-14


def test_constant_pulse_reproduces_rabi_oscillations():
    # |a2|^2 = sin^2(U0 t): with the pulse shape replaced, the integrator
    # itself is what gets checked
    traj = integrate_rk(FLAT, 0.0, 4.0, 4000)
    worst = max(abs(abs(a2) ** 2 - math.sin(1.3 * t) ** 2)
                for t, a2 in zip(traj.times, traj.a2))
    assert worst <= 1e-10


def test_vanishing_coupling_freezes_the_populations():
    m = LorentzianModel(U0=1e-8, Delta0=0.3, Delta1=0.7)
    traj = integrate_rk(m, -5.0, 5.0, 2000)
    assert np.max(np.abs(traj.a2)) <= 1e-7
    assert np.max(np.abs(np.abs(traj.a1) - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# the closed form on the termination manifold

def test_terminating_model_reaches_a_finite_sum():
    cf = closed_form_solution(TERMINATING)
    assert cf.sol.terminated
    assert cf.sol.terminal_index == 1


def test_return_spectrum_relation_vanishes_on_the_manifold():
    assert return_spectrum_relation(TERMINATING, 1) <= 1e-12


def test_return_spectrum_relation_off_the_manifold():
    # same R = 2 coincidence, wrong detuning slope
    off = LorentzianModel(U0=math.sqrt(3.0), Delta0=0.9, Delta1=-2.0)
    assert return_spectrum_relation(off, 1) > 1e-2


def test_return_spectrum_relation_needs_natural_R():
    with pytest.raises(ConditionNotMetError):
        return_spectrum_relation(GENERIC, 0)
    with pytest.raises(ConditionNotMetError):
        return_spectrum_relation(TERMINATING, 0)  # R = 2 but N + 1 = 1


def test_closed_form_matches_the_integrator():
    match = match_against_rk(TERMINATING)
    assert match.max_deviation <= 1e-9
    assert match.norm_drift <= 1e-10
    assert match.closed_form.sol.terminal_index == 1


@pytest.mark.parametrize("samples", [0, -3])
def test_match_refuses_fewer_than_one_sample(samples):
    with pytest.raises(ValueError, match="samples must be at least 1"):
        match_against_rk(TERMINATING, samples=samples)


def test_closed_form_satisfies_the_time_domain_equation():
    cf = closed_form_solution(TERMINATING)
    worst = max(equation_residual_in_t(TERMINATING, cf, float(t))
                for t in np.linspace(-3.0, 3.0, 20))
    assert worst <= 1e-10


def test_closed_form_value_is_branch_stable_at_zero():
    cf = closed_form_solution(TERMINATING)
    assert abs(cf.value(1e-12) - cf.value(-1e-12)) <= 1e-10
    for t in (-4.0, -1e-12, 0.3, 2.5):
        assert cf.value(t) == cf.value_and_derivatives(t)[0]


def wide_terminating_model():
    """N = 3 at the return point Delta0 = -3.35: on t in [-5, 5] the basis
    functions reach |x| = 2 |Delta0| |z| of about 17, and Re x < 0."""
    u0 = math.sqrt(16 - 1.2 ** 2 / 4)
    return LorentzianModel(u0, min(return_points(u0, -1.2, 3)), -1.2)


@pytest.mark.parametrize("model", [TERMINATING, wide_terminating_model()],
                         ids=["N=1", "N=3"])
def test_closed_form_value_takes_an_array_of_times(model):
    # numpy rounds complex * and / differently from CPython, so the array
    # agrees with the scalar values to the rounding scale of the sum,
    # |prefactor| sum_n |a_n| sum_k |terms of 1F1_n|, not bit for bit
    cf = closed_form_solution(model)
    sol = cf.sol
    ts = np.linspace(-5.0, 5.0, 101)
    values = cf.value(ts)
    assert values.shape == ts.shape and values.dtype == complex
    for t, v in zip(ts, values.tolist()):
        scalar = cf.value(t)  # a numpy float is a scalar time
        assert scalar == cf.value_and_derivatives(t)[0]
        x = sol.s0 * cf.reduction.z_of_t(t)
        scale = abs(cmath.exp(cf._prefactor_log(t))) * sum(
            abs(a_n) * abs_term_sum(*sol.basis_parameters(n), x)
            for n, a_n in enumerate(sol.coefficients) if a_n != 0)
        assert abs(v - scalar) <= 1e-13 * scale


def test_match_sums_each_basis_function_once_over_the_samples(monkeypatch):
    """The tracer counts 1F1 calls through the name bound in `expansions`:
    per nonzero term, one array call over all samples and three scalar
    calls (value and two derivatives) at the anchor."""
    calls = []
    real = expansions.eval_1f1

    def counted(*args, **kwargs):
        calls.append(np.ndim(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(expansions, "eval_1f1", counted)
    for model in (TERMINATING, wide_terminating_model()):
        calls.clear()
        expansions._basis_ladder.cache_clear()
        match = match_against_rk(model, samples=101)
        nonzero = sum(1 for a_n in match.closed_form.sol.coefficients if a_n != 0)
        assert sorted(calls) == [0] * (3 * nonzero) + [1] * nonzero
        assert match.max_deviation <= 1e-9


def test_generic_model_has_no_finite_closed_form():
    with pytest.raises(ConditionNotMetError):
        closed_form_solution(GENERIC)


def test_natural_R_off_the_return_spectrum_has_no_finite_closed_form():
    with pytest.raises(ConditionNotMetError):
        closed_form_solution(OFF_SPECTRUM)


# ---------------------------------------------------------------------------
# the reduction checked against the power-series oracle
#
# The chain rule below repeats the one inside the closed form on purpose:
# u comes from the plain power series of the reduced equation, so the
# time-domain equation is verified with no Kummer series involved. The
# power series only converges for |z(t)| < 1, i.e. |t| < sqrt(3); the
# terminated case above covers the window beyond that.

class PowerSeriesForm:
    def __init__(self, model, K=160):
        self.model = model
        self.red = reduce_to_che(model)
        self.series = frobenius_coefficients(self.red.che, K)

    def value_and_derivatives(self, t):
        red = self.red
        z = red.z_of_t(t)
        u, u1, u2 = frobenius_eval(self.series, z)
        r = math.sqrt(1 + t * t) / 2
        th = math.atan(t)
        log_z = complex(math.log(r), th)
        log_zm1 = complex(math.log(r), -math.pi - th)
        pref = cmath.exp(red.exp_alpha1 * log_z + red.exp_alpha2 * log_zm1)
        zdot = 0.5j
        g = (red.exp_alpha1 / z + red.exp_alpha2 / (z - 1)) * zdot
        gp = (-red.exp_alpha1 / z ** 2 - red.exp_alpha2 / (z - 1) ** 2) * zdot * zdot
        return (pref * u,
                pref * (g * u + zdot * u1),
                pref * ((g * g + gp) * u + 2 * g * zdot * u1 + zdot * zdot * u2))


def test_reduction_verified_by_the_power_series():
    cf = PowerSeriesForm(GENERIC)
    worst = max(equation_residual_in_t(GENERIC, cf, float(t))
                for t in np.linspace(-1.4, 1.4, 15))
    assert worst <= 1e-7


def test_power_series_form_agrees_with_rk():
    cf = PowerSeriesForm(GENERIC)
    traj_a = integrate_rk(GENERIC, -1.4, 1.4, 2000, init=(1 + 0j, 0j))
    traj_b = integrate_rk(GENERIC, -1.4, 1.4, 2000, init=(0j, 1 + 0j))
    c0, c0dot, _ = cf.value_and_derivatives(-1.4)
    coupling0 = -1j * GENERIC.coupling(-1.4) * cmath.exp(1j * GENERIC.phase(-1.4))
    m = np.array([[traj_a.a2[0], traj_b.a2[0]],
                  [coupling0 * traj_a.a1[0], coupling0 * traj_b.a1[0]]],
                 dtype=complex)
    lam, mu = np.linalg.solve(m, np.array([c0, c0dot], dtype=complex))
    idx = np.linspace(0, 2000, 11).astype(int)
    worst = max(abs(cf.value_and_derivatives(float(traj_a.times[i]))[0]
                    - (lam * traj_a.a2[i] + mu * traj_b.a2[i]))
                for i in idx)
    assert worst <= 1e-8


# ---------------------------------------------------------------------------
# locating return points

def test_relation_is_small_at_a_zero_slope_return_point():
    # R = 1 (N = 0): the return point sits at Delta0 = 0; probe just off it
    m = LorentzianModel(U0=math.sqrt(0.75), Delta0=1e-10, Delta1=-1.0)
    assert return_spectrum_relation(m, 0) <= 1e-8


def test_locate_return_delta0_finds_the_point():
    d0, res = locate_return_delta0(math.sqrt(0.75), -1.0, 0, -0.3, 0.7)
    assert abs(d0) <= 1e-3
    assert res <= 1e-8


def test_scan_refuses_a_reversed_bracket():
    with pytest.raises(ValueError):
        scan_return_delta0(math.sqrt(0.75), -1.0, 0, 0.7, -0.3)


@pytest.mark.parametrize("bracket", [(math.nan, 2.5), (1.5, math.inf),
                                     (-math.inf, 2.5)])
def test_locate_refuses_a_non_finite_bracket(bracket):
    with pytest.raises(ValueError, match="must be finite"):
        locate_return_delta0(math.sqrt(3.0), -2.0, 1, *bracket)


def test_scan_without_a_return_point_raises():
    # R = 3 (N = 2), and no return point lies in [1, 2]: the refined minimum
    # is the bracket edge with a relation of 0.39
    with pytest.raises(ConditionNotMetError):
        scan_return_delta0(2.9795133830879164, 0.7, 2, 1.0, 2.0, points=41)


def determinant_return_points(N: int, delta1: float) -> list[float]:
    """Nonzero real Delta0 with det(T0 + Delta0 diag(B)) = 0, at 40 digits.

    With R = N+1 and alpha = 0 the reduced b3 ladder has R_n = n(n-N-2),
    P_n = n(n-N) and Q_n = 2n(N+1-n) + Delta0 (N+1+Delta1/2-2n), so the
    points are the eigenvalues of -diag(B)^-1 T0.
    """
    with mpmath.workdps(40):
        B = [N + 1 + mpmath.mpf(delta1) / 2 - 2 * m for m in range(N + 1)]
        M = mpmath.matrix(N + 1, N + 1)
        for m in range(N + 1):
            M[m, m] = -2 * m * (N + 1 - m) / B[m]
            if m < N:
                M[m, m + 1] = -(m + 1) * (m - 1 - N) / B[m]
            if m > 0:
                M[m, m - 1] = -(m - 1) * (m - 1 - N) / B[m]
        values = mpmath.eig(M, left=False, right=False)
        return sorted(float(mpmath.re(v)) for v in values
                      if abs(mpmath.im(v)) < 1e-20 and abs(v) > 1e-20)


@pytest.mark.parametrize("N", [1, 2, 3])
def test_return_points_match_the_determinant_oracle(N):
    for delta1 in (-1.5, -0.7, 0.3, 0.9, 1.6):
        u0 = math.sqrt((N + 1) ** 2 - delta1 ** 2 / 4)
        points = return_points(u0, delta1, N)
        assert len(points) == N + 1 and min(map(abs, points)) <= 1e-12
        nontrivial = [d0 for d0 in points if abs(d0) > 1e-12]
        expected = determinant_return_points(N, delta1)
        assert len(nontrivial) == len(expected)
        for got, want in zip(nontrivial, expected):
            assert abs(got - want) <= 1e-12 * abs(want)


def test_return_points_where_a_delta0_slope_vanishes():
    # B_k = N+1+Delta1/2-2k, the Delta0 slope of the tridiagonal's diagonal,
    # is 0 at k = 1 for both (to rounding for sqrt(8)); the oracle above
    # divides by it. At N = 1 the condition is 4 Delta0 = 0, the trivial
    # point alone
    assert return_points(2.0, 0.0, 1) == [0.0]
    points = return_points(math.sqrt(8.0), -2.0, 2)
    # R rounds to 3 + 4e-16, so B_1 is 4e-16, not 0: its eigenvalue of order
    # 1e-16 is B' singular to rounding (Delta0 = inf), not a point near -8e15
    assert len(points) == 2
    assert points[0] == 0.0
    assert abs(points[1] - 1.5) <= 1e-12


def test_return_points_need_a_natural_R():
    with pytest.raises(ConditionNotMetError):
        return_points(2.0, 1.0, 1)


def test_locate_evaluates_the_relation_only_at_roots(monkeypatch):
    calls = []
    relation = twostate.return_spectrum_relation

    def counted(model, N):
        calls.append(model.Delta0)
        return relation(model, N)

    monkeypatch.setattr(twostate, "return_spectrum_relation", counted)
    u0 = math.sqrt(9 - 0.3 ** 2 / 4)
    d0, res = locate_return_delta0(u0, 0.3, 2, 3.9, 4.4)
    assert calls == [d0]
    assert abs(d0 - determinant_return_points(2, 0.3)[-1]) <= 1e-12 * d0
    assert res <= 1e-8
