import cmath
import math
import random
import re
import tracemalloc

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
    # step-error estimate may pass as small
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
    # reported before as a failed step check with an endpoint moved by nan
    with pytest.raises(ValueError, match="init must be finite"):
        integrate_rk(GENERIC, -5.0, 5.0, 2000, init=init)


@pytest.mark.parametrize("steps", [8000.0, 100.5, "8000"])
def test_rk_refuses_a_non_integral_step_count(steps):
    with pytest.raises(ValueError, match="steps must be an integer"):
        integrate_rk(GENERIC, -5.0, 5.0, steps)


def test_rk_takes_a_numpy_integer_step_count():
    traj = integrate_rk(GENERIC, -5.0, 5.0, np.int64(2000))
    assert np.array_equal(traj.a2, integrate_rk(GENERIC, -5.0, 5.0, 2000).a2)


def doubled_run_error(model, t_start, t_end, steps, init):
    """max |endpoint(h) - endpoint(2h)| / 15 from two step-by-step reference
    runs: the coarse one takes steps // 2 steps of 2h and, at an odd step
    count, the run's own last h-step."""
    h = (t_end - t_start) / steps
    _, fine = reference_rk4(model, t_start, t_end, steps, init)
    pairs = steps // 2
    _, coarse = reference_rk4(model, t_start, t_start + 2 * pairs * h, pairs, init)
    if steps % 2:
        _, coarse = reference_rk4(model, t_start + 2 * pairs * h, t_end, 1,
                                  coarse[..., -1, :])
    return np.max(np.abs(fine[..., -1, :] - coarse[..., -1, :])) / 15


@pytest.mark.parametrize("init", [(1 + 0j, 0j), np.eye(2)],
                         ids=["single", "stacked"])
def test_step_error_is_the_doubled_step_difference(init):
    # at an even step count the coarse run inside integrate_rk is RK4 at 2h
    # over the same window, that is a run of half the steps
    steps = twostate.DEFAULT_STEPS
    traj = integrate_rk(GENERIC, -5.0, 5.0, steps, init=init)
    half = integrate_rk(GENERIC, -5.0, 5.0, steps // 2, init=init)
    doubled = max(np.max(np.abs(traj.a1[..., -1] - half.a1[..., -1])),
                  np.max(np.abs(traj.a2[..., -1] - half.a2[..., -1])))
    assert 0 < traj.step_error <= twostate.STEP_ERROR_TOL
    assert abs(traj.step_error - doubled / 15) <= 1e-14


@pytest.mark.parametrize("steps", [101, twostate._CHUNK + 1,
                                   twostate._CHUNK + twostate._TAIL - 1,
                                   twostate._CHUNK + twostate._TAIL,
                                   twostate._CHUNK + twostate._TAIL + 1,
                                   3 * twostate._CHUNK - 1],
                         ids=["101", "chunk+1", "chunk+tail-1", "chunk+tail",
                              "chunk+tail+1", "3chunks-1"])
@pytest.mark.parametrize("model, t_start, t_end, tol", [(GENERIC, -0.5, 0.5, None),
                                                        (FLAT, 0.0, 1.0, 2.0 ** -53)],
                         ids=["lorentzian", "flat"])
def test_rk_runs_that_end_inside_a_chunk(model, t_start, t_end, tol, steps):
    # step counts that leave a part-filled last chunk, odd ones whose last
    # h-step has no partner in the coarse run, coarse runs whose pairwise
    # products meet an odd count of matrices, and last chunks on both sides
    # of the scan's one-loop tail (_TAIL). The reference is one step at a
    # time; the flat pulse's paired products round by up to steps x 2^-53
    # (see test_the_scan_matches_a_sequential_product), which the estimate
    # reads over 15 (1.5e-14 at 4127 steps, where the Lorentzian pulse
    # stays within 7e-16)
    init = np.eye(2)
    traj = integrate_rk(model, t_start, t_end, steps, init=init)
    _, a = reference_rk4(model, t_start, t_end, steps, init)
    assert np.max(np.abs(traj.a1 - a[..., 0])) <= 1e-12
    assert np.max(np.abs(traj.a2 - a[..., 1])) <= 1e-12
    error_tol = 1e-14 if tol is None else steps * tol / 15
    assert abs(traj.step_error
               - doubled_run_error(model, t_start, t_end, steps, init)) <= error_tol


@pytest.mark.parametrize("steps", [1000, twostate.DEFAULT_STEPS])
def test_rk_reads_the_pulse_on_the_half_step_grid_alone(steps):
    # the step-error check reads the run's own pulse samples: one call reads
    # coupling and phase at the 2 steps + 1 points t_start + k h/2, each
    # once but for the point two chunks share
    reads = {"coupling": [], "phase": []}

    class CountingPulse(LorentzianModel):
        def coupling(self, t):
            reads["coupling"].append(np.array(t))
            return super().coupling(t)

        def phase(self, t):
            reads["phase"].append(np.array(t))
            return super().phase(t)

    integrate_rk(CountingPulse(2.0, 0.5, 1.0), -5.0, 5.0, steps)
    chunks = -(-steps // twostate._CHUNK)
    grid = -5.0 + np.arange(2 * steps + 1) * (10.0 / steps / 2)
    for t in reads.values():
        t = np.concatenate(t)
        assert len(t) == 2 * steps + chunks
        assert np.array_equal(np.unique(t), grid)


def seeded_pulses(seed=12, count=12):
    """`count` seeded random real pulses, U0 in [0.2, 3], Delta0 in [-3, 3],
    Delta1 in [-2, 2]."""
    rng = random.Random(seed)
    return [LorentzianModel(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0),
                            rng.uniform(-2.0, 2.0)) for _ in range(count)]


@pytest.mark.parametrize("steps", [800, 2000])
@pytest.mark.parametrize("model", seeded_pulses(), ids=[f"pulse{k}" for k in range(12)])
def test_step_error_estimates_the_endpoint_error(model, steps):
    # step_error against the true endpoint error, taken from a run at h/8:
    # within a factor of 2 wherever that error is above rounding (1e-12; the
    # seeded runs read 0.98-1.02). A run refused as too coarse estimated
    # more than STEP_ERROR_TOL, so its true error is above half of it
    init = np.eye(2)
    fine = integrate_rk(model, -5.0, 5.0, 8 * steps, init=init)
    try:
        traj = integrate_rk(model, -5.0, 5.0, steps, init=init)
    except StepTooCoarseError:
        _, a = reference_rk4(model, -5.0, 5.0, steps, init)
        true = max(np.max(np.abs(a[..., -1, 0] - fine.a1[..., -1])),
                   np.max(np.abs(a[..., -1, 1] - fine.a2[..., -1])))
        assert true >= twostate.STEP_ERROR_TOL / 2
        return
    true = max(np.max(np.abs(traj.a1[..., -1] - fine.a1[..., -1])),
               np.max(np.abs(traj.a2[..., -1] - fine.a2[..., -1])))
    if true > 1e-12:
        assert true / 2 <= traj.step_error <= 2 * true


def half_step_pulse(model, t_start, t_end, steps):
    """(h, p): the step and the pulse p = -i U e^{-i delta} on the whole
    half-step grid t_start + k h/2, the grid integrate_rk reads: the run
    takes p at h, the coarse run every other point at 2h."""
    h = (t_end - t_start) / steps
    t = t_start + np.arange(2 * steps + 1) * (h / 2)
    return h, np.broadcast_to(-1j * model.coupling(t) * np.exp(-1j * model.phase(t)), t.shape)


def coarse_grid(p):
    """Every other point of a half-step grid, up to the last whole 2h step."""
    return p[:len(p) - 2 * (len(p) // 2 % 2):2]


def k_stage_step_matrices(p, h):
    """Top rows of M = I + h/6 (K1 + 2 K2 + 2 K3 + K4), A = [[0, p], [-p*, 0]],
    from the four stages as RK4 states them: K1 = A(t_n),
    K2 = A(t_n + h/2)(I + h/2 K1), K3 = A(t_n + h/2)(I + h/2 K2) and
    K4 = A(t_n + h)(I + h K3), each kept as its top row (a lower entry of
    [[a, b], [-b*, a*]] is -b* or a*). The reference for the closed form of
    twostate._step_matrices."""
    k = (0.0, p[:-1:2])
    total = k
    for pa, c, w in ((p[1::2], h / 2, 2), (p[1::2], h / 2, 2), (p[2::2], h, 1)):
        k = (pa * (c * -k[1].conjugate()), pa * (1 + c * k[0].conjugate()))
        total = tuple(t + w * kk for t, kk in zip(total, k))
    return tuple(e + h / 6 * t for e, t in zip((1, 0), total))


def sequential_product(m):
    """Top rows of m[i] @ ... @ m[0], i = 0..n-1, multiplied one matrix at
    a time from the left."""
    a, b = 1 + 0j, 0j
    out = []
    for x, y in zip(*(e.tolist() for e in m)):
        a, b = x * a - y * b.conjugate(), x * b + y * a.conjugate()
        out.append((a, b))
    return np.array(out).T


def sequential_propagators(model, t_start, t_end, steps):
    """(P, C): the top rows of the run's P_n = M_{n-1} ... M_0, n = 1..steps,
    and of the coarse run's propagator over the window (steps of 2h, and
    at an odd step count the run's last matrix), one step at a time from
    step matrices of the four stages: the reference for the scan."""
    h, p = half_step_pulse(model, t_start, t_end, steps)
    m = k_stage_step_matrices(p, h)
    doubled = k_stage_step_matrices(coarse_grid(p), 2 * h)
    if steps % 2:
        doubled = [np.append(d, e[-1]) for d, e in zip(doubled, m)]
    return sequential_product(m), sequential_product(doubled)[:, -1:]


@pytest.mark.parametrize("steps", [twostate._TAIL - 1, twostate._TAIL, twostate._TAIL + 1,
                                   100, 101, 127, 128, twostate._CHUNK - 1, twostate._CHUNK,
                                   twostate._CHUNK + 1, twostate._CHUNK + twostate._TAIL - 1,
                                   twostate._CHUNK + twostate._TAIL,
                                   twostate._CHUNK + twostate._TAIL + 1,
                                   2 * twostate._CHUNK + 1, 3 * twostate._CHUNK - 1])
@pytest.mark.parametrize("model, tol", [(GENERIC, None), (TERMINATING, None), (FLAT, 2.0 ** -53)],
                         ids=["generic", "terminating", "flat"])
def test_the_scan_matches_a_sequential_product(model, tol, steps):
    # the prefix product pairs neighbours, scans the pairs and fills the
    # even entries: odd lengths at every level, part-filled and several
    # chunks, each started from the last propagator of the chunk before.
    # A level of at most _TAIL matrices is one loop: _TAIL +- 1 steps, alone
    # or in a last chunk, put the run's levels on both sides of that edge,
    # and odd counts leave the coarse run an unpaired last h-step.
    # A flat pulse repeats one step matrix, so a product formed by pairing
    # repeats the rounding of each pair in every factor: at 8193 steps the
    # run is 3.8e-13 off an extended-precision product, one step at a time
    # 6e-15. It gets the worst-case bound, steps x 2^-53; the Lorentzian
    # pulses stay within 2.5e-14. The coarse run's endpoint, a product of
    # half the steps, gets the same bound.
    run_tol = 1e-13 if tol is None else steps * tol
    for t_start, t_end in ((-5.0, 5.0), (5.0, -5.0)):
        h = (t_end - t_start) / steps
        chunks = list(twostate._propagators(model, t_start, h, steps))
        assert [(start, stop) for start, stop, _, _ in chunks] == [
            (start, min(start + twostate._CHUNK, steps))
            for start in range(0, steps, twostate._CHUNK)]
        run = np.concatenate([np.array(P) for _, _, P, _ in chunks], axis=1)
        reference, coarse = sequential_propagators(model, t_start, t_end, steps)
        assert np.max(np.abs(run - reference)) <= run_tol
        assert np.max(np.abs(np.array(chunks[-1][3]) - coarse)) <= run_tol


@pytest.mark.parametrize("k", [5, 10, 13])
def test_pairing_2k_plus_1_matrices_matches_the_running_product(k):
    # 2^k + 1 matrices are odd at every level down to 3: each level carries
    # its last matrix bit for bit, and the pairwise tree and the prefix scan
    # end at the product that _running takes one matrix at a time, within
    # the worst-case rounding n x 2^-53
    n = 2 ** k + 1
    rng = np.random.default_rng(k)
    th, ph, ps = rng.uniform(0.0, 2 * np.pi, (3, n))
    m = [np.cos(th) * np.exp(1j * ph), np.sin(th) * np.exp(1j * ps)]  # unitary
    level = m
    while len(level[0]) > 1:
        paired = twostate._pairs(level)
        assert len(paired[0]) == (len(level[0]) + 1) // 2
        if len(level[0]) % 2:
            assert all(v[-1:].tobytes() == e[-1:].tobytes() for v, e in zip(paired, level))
        level = paired
    running = np.array(twostate._running(m))
    assert np.max(np.abs(np.array(level)[:, 0] - running[:, -1])) <= n * 2.0 ** -53
    assert np.max(np.abs(np.array(twostate._prefix(m)) - running)) <= n * 2.0 ** -53


def test_rk_memory_stays_within_a_chunk():
    # past the arrays it returns, a run holds one chunk's temporaries: a
    # whole-window pass, or a propagator kept for every step, holds
    # memory in proportion to the step count
    steps = 20 * twostate._CHUNK
    for init in ((1 + 0j, 0j), np.eye(2)):
        tracemalloc.start()
        try:
            traj = integrate_rk(FLAT, 0.0, 4.0, steps, init=init)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        returned = traj.times.nbytes + traj.a1.nbytes + traj.a2.nbytes
        assert peak - returned <= 32 * twostate._CHUNK * 16


def random_pulse_runs(seed=23, count=6):
    """(model, t_start, t_end, steps, init) for `count` seeded random real
    pulses, U0 in [0.2, 3], Delta0 in [-3, 3], Delta1 in [-2, 2], on windows
    inside [-5, 5], every other one reversed. Steps are 200-1500, at h of
    0.001-0.004 so that the step-error check passes; the last run takes
    _CHUNK + 1-300 steps, so it crosses a chunk. Inits cycle through single,
    stacked and a general stack."""
    rng = random.Random(seed)
    inits = [(1 + 0j, 0j), np.eye(2),
             np.array([[0.6, 0.8j], [0.3 - 0.1j, -0.2 + 0.9j]])]
    runs = []
    for k in range(count):
        model = LorentzianModel(rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0),
                                rng.uniform(-2.0, 2.0))
        steps = (twostate._CHUNK + rng.randint(1, 300) if k == count - 1
                 else rng.randint(200, 1500))
        length = steps * (rng.uniform(0.001, 0.004) if k < count - 1 else 0.002)
        a = rng.uniform(-5.0, 5.0 - length)
        ends = (a, a + length) if k % 2 == 0 else (a + length, a)
        runs.append((model, *ends, steps, inits[k % 3]))
    return runs


@pytest.mark.parametrize("model, t_start, t_end, steps, init", random_pulse_runs(),
                         ids=[f"pulse{k}" for k in range(6)])
def test_rk_matches_the_reference_on_random_pulses(model, t_start, t_end, steps, init):
    traj = integrate_rk(model, t_start, t_end, steps, init=init)
    _, a = reference_rk4(model, t_start, t_end, steps, init)
    assert np.max(np.abs(traj.a1 - a[..., 0])) <= 1e-12
    assert np.max(np.abs(traj.a2 - a[..., 1])) <= 1e-12


STEP_MATRIX_RUNS = [(GENERIC, -5.0, 5.0, 8000), (GENERIC, 5.0, -5.0, 2000),
                    (TERMINATING, -5.0, 5.0, 8000), (FLAT, 0.0, 4.0, 4000)]


@pytest.mark.parametrize("model, t_start, t_end, steps",
                         STEP_MATRIX_RUNS + [run[:4] for run in random_pulse_runs()],
                         ids=["generic", "generic-reversed", "terminating", "flat"]
                         + [f"pulse{k}" for k in range(6)])
def test_step_matrices_match_the_four_stages(model, t_start, t_end, steps):
    # the closed form collapses the stages through A(t)^2 = -|p|^2 I; it
    # rounds differently, by a few ulps of |M| = sqrt(|m00|^2 + |m01|^2)
    h, p = half_step_pulse(model, t_start, t_end, steps)
    for grid, step in ((p, h), (coarse_grid(p), 2 * h)):
        m00, m01 = twostate._step_matrices(grid, step)
        r00, r01 = k_stage_step_matrices(grid, step)
        assert m00.shape == m01.shape == (len(grid) // 2,)
        tol = 4 * np.finfo(float).eps * np.hypot(abs(r00), abs(r01))
        assert np.all(abs(m00 - r00) <= tol)
        assert np.all(abs(m01 - r01) <= tol)


@pytest.mark.parametrize("steps", [twostate.DEFAULT_STEPS, twostate._CHUNK + 1],
                         ids=["8000", "chunk+1"])
@pytest.mark.parametrize("t_start, t_end", [(-5.0, 5.0), (5.0, -5.0)],
                         ids=["forward", "reversed"])
@pytest.mark.parametrize("model", [GENERIC, TERMINATING, FLAT],
                         ids=["generic", "terminating", "flat"])
def test_propagators_keep_the_form_of_a_real_pulse(model, t_start, t_end, steps):
    # for a real pulse every propagator is [[a, b], [-b*, a*]], so the run
    # from (0, 1) is the conjugate partner of the run from (1, 0): the
    # integrator keeps only each propagator's top row on this identity
    traj = integrate_rk(model, t_start, t_end, steps, init=np.eye(2))
    assert np.array_equal(traj.a1[1], -np.conj(traj.a2[0]))
    assert np.array_equal(traj.a2[1], np.conj(traj.a1[0]))


@pytest.mark.parametrize("name", ["coupling", "phase"])
def test_rk_refuses_a_complex_pulse(name):
    # a complex coupling or phase breaks that form: integrated from the top
    # row alone it would come out wrong, without a word
    real = getattr(LorentzianModel, name)
    pulse = type("ComplexPulse", (LorentzianModel,),
                 {name: lambda self, t: real(self, t) + 0j})(2.0, 0.5, 1.0)
    with pytest.raises(ValueError, match=f"the pulse's {name} must be real"):
        integrate_rk(pulse, -5.0, 5.0, 2000)


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


@pytest.mark.parametrize("samples", [1, 0, -3])
def test_match_refuses_fewer_than_one_sample(samples):
    # a lone sample is the anchor, where the fit matches by construction
    with pytest.raises(ValueError, match="samples must be at least 2"):
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
    per nonzero term, one array call over all samples; at the anchor, one
    scalar call per term, which sums the value and both derivatives. More
    than three terms first try a contiguous ladder, two seeds and a check:
    at the N = 3 anchor |x| is about 17, where the direct sums lose up to
    3e-9 to cancellation, so the check fails and the per-term sums follow."""
    calls = []
    real = expansions.eval_1f1

    def counted(*args, **kwargs):
        calls.append(np.ndim(args[2]))
        return real(*args, **kwargs)

    monkeypatch.setattr(expansions, "eval_1f1", counted)
    for model, scalar in ((TERMINATING, 2), (wide_terminating_model(), 3 + 4)):
        calls.clear()
        expansions._basis_ladder.cache_clear()
        match = match_against_rk(model, samples=101)
        nonzero = sum(1 for a_n in match.closed_form.sol.coefficients if a_n != 0)
        assert sorted(calls) == [0] * scalar + [1] * nonzero
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
