"""The two 1F1 kernels against frozen step-by-step copies of themselves.

`kummer._sum_scalar` tests its stop as not (t > tol and t > tol |sum|),
which counts a NaN term as small, and `kummer._sum_array` tests it once per
block of steps. The loops below test it at every step, and are the
reference; the array one runs every point at full width until the last one
stops, and the scalar pass with derivatives keeps its three sums in lists.
Every value must agree bit for bit, and every error in type and message,
including the count of points left and the first x. 1F1 summed with its
derivatives is the same bits as 1F1 summed alone.
Inputs with a polynomial beyond max_terms are left out: the kernels refuse
those (tests/test_kummer.py), where the frozen loops summed them.
"""

import cmath
import math
import random

import numpy as np
import pytest

from heunkummer import kummer
from heunkummer.errors import NonConvergenceError
from heunkummer.kummer import _check_lower_parameter, _sum_array, _sum_scalar

from conftest import complex_box


NAMES = ("1F1", "1F1'", "1F1''")


def frozen_sum_scalar(a, c, x, m, tol, max_terms):
    if x == 0:
        return 1 + 0j
    total = term = 1 + 0j
    small_streak = 0
    for k in range(max_terms if m is None else m):
        term *= (a + k) * x / ((c + k) * (k + 1))
        total += term
        t = abs(term)
        if m is None and not (t > tol and t > tol * abs(total)):  # NaN is small
            small_streak += 1
            if small_streak >= 2:
                break
        else:
            small_streak = 0
    if m is None and small_streak < 2:
        raise NonConvergenceError(f"1F1({a}; {c}; {x}) did not reach "
                                  f"tol={tol} within {max_terms} terms")
    if not cmath.isfinite(total):
        raise NonConvergenceError(f"1F1({a}; {c}; {x}) overflows to {total}")
    return total


def frozen_sum_with_derivatives(a, c, x, m, tol, max_terms):
    """1F1 and its terms times k/x and k(k-1)/x^2, each a running product
    of the one before; each sum frozen after two consecutive terms below tol
    max(its first nonzero term, |sum|), a NaN term counting as small. A
    series at x = 0, which stops after four steps, takes them whatever
    max_terms says."""
    terms, sums = [1 + 0j, 0j, 0j], [1 + 0j, 0j, 0j]
    if m is None:
        scales = [1.0, abs(a / c), abs(a * (a + 1) / (c * (c + 1)))]
        if x == 0:
            max_terms = max(max_terms, 4)
    streaks, frozen = [0, 0, 0], [None, None, None]
    for k in range(max_terms if m is None else m):
        r = (a + k) / (c + k)
        terms = [terms[0] * ((a + k) * x / ((c + k) * (k + 1))), terms[0] * r, terms[1] * r]
        for i in range(3):
            sums[i] += terms[i]
            if m is None and frozen[i] is None:
                t = abs(terms[i])
                big = t > tol * scales[i] and t > tol * abs(sums[i])
                streaks[i] = 0 if big else streaks[i] + 1
                if streaks[i] == 2:
                    frozen[i] = sums[i]
        if m is None and None not in frozen:
            break
    else:
        if m is None:
            raise NonConvergenceError(f"{NAMES[streaks.index(min(streaks))]}({a}; {c}; {x}) "
                                      f"did not reach tol={tol} within {max_terms} terms")
    for name, value in zip(NAMES, sums if m is not None else frozen):
        if not cmath.isfinite(value):
            raise NonConvergenceError(f"{name}({a}; {c}; {x}) overflows to {value}")
    return tuple(sums if m is not None else frozen)


def frozen_pass(a, c, x, m, tol, steps):
    """A step-by-step pass that never drops a point: each point's sum, frozen
    at its stopping step where m is None, and that step (steps where it has
    not stopped). a = -m sums the polynomial through m steps. A series at
    x = 0 is settled to 1 before the first step (its stopping step -1)."""
    total, term = np.ones_like(x), np.ones_like(x)
    out = np.empty_like(x)
    stop = np.full(x.size, steps)
    if m is None:
        out[x == 0], stop[x == 0] = 1, -1
    was_small = np.zeros(x.size, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps if m is None else m):
            if m is None and (stop < steps).all():
                break
            term *= (a + k) / ((c + k) * (k + 1)) * x
            total += term
            if m is None:
                small = ~(np.abs(term) > tol * np.maximum(1.0, np.abs(total)))  # NaN too
                done = (stop == steps) & small & was_small
                out[done], stop[done] = total[done], k
                was_small = small
    return (out if m is None else total), stop


def frozen_sum_array(a, c, x, m, tol, max_terms):
    out, stop = frozen_pass(a, c, x, m, tol, max_terms)
    left = np.flatnonzero(stop == max_terms)
    if m is None and left.size:
        raise NonConvergenceError(
            f"1F1({a}; {c}; x) did not reach tol={tol} within {max_terms} "
            f"terms at {left.size} of {x.size} points, first x={x[left[0]]}")
    bad = np.flatnonzero(~np.isfinite(out))
    if bad.size:
        raise NonConvergenceError(
            f"1F1({a}; {c}; x) overflows at {bad.size} of {x.size} points, "
            f"first x={x[bad[0]]}: {out[bad[0]]}")
    return out


def outcome(kernel, *args):
    """The bits of the result, or the type and message of the error."""
    try:
        value = kernel(*args)
    except NonConvergenceError as e:
        return type(e).__name__, str(e)
    if isinstance(value, np.ndarray):
        return "array", value.shape, value.view(np.uint64).tobytes()
    if isinstance(value, tuple):
        return "sums", *[(v.real.hex(), v.imag.hex()) for v in value]
    return "scalar", value.real.hex(), value.imag.hex()


def assert_scalar_kernels_agree(a, c, x, tol=kummer.DEFAULT_TOL,
                                max_terms=kummer.DEFAULT_MAX_TERMS):
    """1F1 alone, and with its two derivatives, at one point; 1F1 is the
    same bits both ways wherever both return."""
    a, c, x = complex(a), complex(c), complex(x)
    args = (a, c, x, _check_lower_parameter(a, c), tol, max_terms)
    alone, fused = outcome(_sum_scalar, *args), outcome(_sum_scalar, *args, True)
    assert alone == outcome(frozen_sum_scalar, *args), args
    assert fused == outcome(frozen_sum_with_derivatives, *args), args
    if alone[0] == "scalar" and fused[0] == "sums":
        assert fused[1] == alone[1:], args


def assert_array_kernels_agree(a, c, x, tol=kummer.DEFAULT_TOL,
                               max_terms=kummer.DEFAULT_MAX_TERMS):
    a, c = complex(a), complex(c)
    x = np.asarray(x, dtype=complex)
    args = (a, c, x, _check_lower_parameter(a, c), tol, max_terms)
    assert outcome(_sum_array, *args) == outcome(frozen_sum_array, *args), (a, c, x, max_terms)


def box_point(rng):
    """A kummer_points draw: a and c in [0.5, 3] x [-0.5, 0.5]i, |x| <= 50."""
    a, c = complex_box(rng, 0.5, 3.0), complex_box(rng, 0.5, 3.0)
    while abs(c - 1.0) <= 1e-6:
        c = complex_box(rng, 0.5, 3.0)
    return a, c, cmath.rect(50.0 * rng.random(), 2 * math.pi * rng.random())


# ---------------------------------------------------------------------------
# the scalar loop

def test_scalar_loop_is_bit_identical_over_the_point_box():
    rng = random.Random(22)
    for _ in range(400):
        assert_scalar_kernels_agree(*box_point(rng))


def test_scalar_loop_is_bit_identical_on_small_x_ladders():
    # the spectrum ladders: a = a0 + n and c = c0 + n for n up to 30 at |x|
    # of order 1, both sums, and a non-positive integer a0 (polynomials)
    rng = random.Random(23)
    for _ in range(12):
        a0, c0 = complex_box(rng, -3.0, 3.0), complex_box(rng, 0.5, 3.0)
        x = complex(rng.uniform(-1.5, 1.5), rng.choice([0.0, rng.uniform(-1.0, 1.0)]))
        for n in range(31):
            assert_scalar_kernels_agree(a0 + n, c0 + n, x)
    for m in range(31):
        for x in (0.0, 0.3, -1.2 + 0.4j, 7.0):
            assert_scalar_kernels_agree(-m, 2.5 + 0.25j, x)
            assert_scalar_kernels_agree(-m, 2.5, x, max_terms=max(m, 1))


def test_scalar_loop_is_bit_identical_at_its_edges():
    cases = [
        (1.0, 2.0, 0.0),          # x = 0 returns the first term
        (1.3, 2.1, 1e-300),       # terms underflow to zero
        (1.0, 2.0, 800.0),        # overflow
        (1.0, 2.0, -800.0),
        (2.0, 3.0, 8.0),          # max_terms runs out
    ]
    for a, c, x in cases:
        for max_terms in (1, 2, 5, 16, 17, kummer.DEFAULT_MAX_TERMS):
            for tol in (kummer.DEFAULT_TOL, 1e-3, 1.0, 10.0):
                assert_scalar_kernels_agree(a, c, x, tol, max_terms)


# ---------------------------------------------------------------------------
# the array pass

BLOCK = kummer._BLOCK


def boundary_points(rng, a, c, wanted):
    """Points x whose stopping steps, at (a, c), cover each step in wanted."""
    found = {}
    for _ in range(40):
        x = np.array([cmath.rect(10 ** rng.uniform(-8.0, 1.0), rng.uniform(0, 2 * math.pi))
                      for _ in range(400)])
        stops = frozen_pass(a, c, x, None, kummer.DEFAULT_TOL, 80)[1]
        for k, point in zip(stops.tolist(), x.tolist()):
            if k in wanted:
                found.setdefault(k, point)
        if set(found) == set(wanted):
            return found
    raise AssertionError(f"no points stop at {set(wanted) - set(found)}")


def test_array_pass_is_bit_identical_over_the_point_box():
    rng = random.Random(24)
    for _ in range(60):
        a, c, _ = box_point(rng)
        x = np.array([box_point(rng)[2] for _ in range(rng.randint(1, 40))])
        assert_array_kernels_agree(a, c, x)


def test_array_pass_is_bit_identical_on_two_state_grids():
    # the closed form's sample points x = 2 Delta0 z(t), z = (1 + i t)/2
    t = np.linspace(-5.0, 5.0, 101)
    rng = random.Random(25)
    for delta0 in (1.0, 2.0, 4.0, -2.5):
        a, c = complex_box(rng, 0.5, 3.0), complex_box(rng, 1.2, 3.0)
        assert_array_kernels_agree(a, c, 2 * delta0 * (1 + 1j * t) / 2)
        assert_array_kernels_agree(1.3, 3.0, 2 * delta0 * (1 + 1j * t) / 2)


def test_array_points_stopping_around_a_block_boundary_are_bit_identical():
    rng = random.Random(26)
    a, c = 1.3 + 0.2j, 2.4 - 0.1j
    wanted = [k for edge in (BLOCK, 2 * BLOCK) for k in range(edge - 2, edge + 2)]
    found = boundary_points(rng, a, c, wanted)
    x = np.array([found[k] for k in wanted])
    assert frozen_pass(a, c, x, None, kummer.DEFAULT_TOL, 80)[1].tolist() == wanted
    assert_array_kernels_agree(a, c, x)
    assert_array_kernels_agree(a, c, x[::-1])
    # pairs whose earlier point stops inside a block, at its end, or in the
    # step after it, and is frozen there while the later one runs on
    for k in wanted:
        for late in wanted:
            if late > k:
                assert_array_kernels_agree(a, c, np.array([found[k], found[late]]))
                assert_array_kernels_agree(a, c, np.array([found[late], 0.0, found[k]]))


def test_array_pass_is_bit_identical_where_max_terms_ends_inside_a_block():
    rng = random.Random(27)
    a, c = 1.3 + 0.2j, 2.4 - 0.1j
    wanted = [3, BLOCK - 1, BLOCK, BLOCK + 5, 2 * BLOCK + 1]
    found = boundary_points(rng, a, c, wanted)
    x = np.array([found[k] for k in wanted] + [0.0])
    for max_terms in range(1, 2 * BLOCK + 4):
        assert_array_kernels_agree(a, c, x, max_terms=max_terms)
        assert_array_kernels_agree(a, c, x[::-1], max_terms=max_terms)


def test_array_pass_is_bit_identical_where_points_overflow():
    x = np.array([1.0, 800.0, -800.0 + 3j, 0.5j, 750.0, 0.0])
    for max_terms in (5, BLOCK, 40, kummer.DEFAULT_MAX_TERMS):
        assert_array_kernels_agree(1.0, 2.0, x, max_terms=max_terms)
        assert_array_kernels_agree(1.0, 2.0, x[1:2], max_terms=max_terms)
    with pytest.raises(NonConvergenceError, match="overflows at 3 of 6 points"):
        _sum_array(1 + 0j, 2 + 0j, x.astype(complex), None, kummer.DEFAULT_TOL,
                   kummer.DEFAULT_MAX_TERMS)


def test_array_pass_is_bit_identical_at_loose_tolerances_and_polynomials():
    rng = random.Random(28)
    for tol in (1e-3, 0.5, 10.0):
        a, c, _ = box_point(rng)
        x = np.array([box_point(rng)[2] for _ in range(30)] + [0.0])
        assert_array_kernels_agree(a, c, x, tol=tol)
    # a polynomial runs its m steps through every block, whatever tol says
    for m in (0, 1, 7, 30, 40):
        x = np.array([box_point(rng)[2] / 10 for _ in range(9)] + [0.0])
        for tol in (kummer.DEFAULT_TOL, 10.0):
            assert_array_kernels_agree(-m, 2.5 + 0.25j, x, tol=tol, max_terms=max(m, 1))
