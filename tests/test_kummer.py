import math
import random
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from heunkummer import (
    IDENTITY_IDS,
    LargeArgumentWarning,
    NonConvergenceError,
    PoleAtLowerParameterError,
    eval_1f1,
    identity_residual,
)
from heunkummer.kummer import _series_derivative, nonpositive_int

from conftest import abs_term_sum, complex_box, disk_draw


def kummer_ode_residual(a, c, x) -> float:
    """Relative residual of u'' + (c/x - 1) u' - (a/x) u = 0 for
    u = 1F1(a; c; x), derivatives via parameter shifts. x must be nonzero."""
    if x == 0:
        raise ZeroDivisionError("ODE residual is not defined at x = 0")
    a, c, x = complex(a), complex(c), complex(x)
    u = eval_1f1(a, c, x)
    u1 = (a / c) * eval_1f1(a + 1, c + 1, x)
    u2 = (a * (a + 1)) / (c * (c + 1)) * eval_1f1(a + 2, c + 2, x)
    res = u2 + (c / x - 1) * u1 - (a / x) * u
    return abs(res) / max(1.0, abs(u), abs(u1), abs(u2))


# ---------------------------------------------------------------------------
# direct values

def test_at_origin_is_one():
    assert eval_1f1(2.3, 1.7, 0.0) == 1.0


def test_exponential_special_case():
    # a = c collapses the ratio (a)_k/(c)_k, leaving exp
    assert eval_1f1(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)
    assert eval_1f1(0.7, 0.7, -2.0) == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_degree_one_polynomial():
    # a = -1 truncates after the linear term: 1 - x/c
    assert eval_1f1(-1.0, 2.0, 1.0) == 0.5


def test_polynomial_is_exact_not_tolerance_driven():
    # a non-positive integer: the sum has m+1 terms regardless of tol
    val_loose = eval_1f1(-3, 2.2, 1.7, tol=1e-2)
    val_tight = eval_1f1(-3, 2.2, 1.7, tol=1e-15)
    assert val_loose == val_tight
    with mpmath.workdps(30):
        expected = complex(sum(mpmath.rf(-3, k) / mpmath.rf(2.2, k)
                               * mpmath.mpf(1.7) ** k / math.factorial(k)
                               for k in range(4)))
    assert val_tight == pytest.approx(expected, rel=1e-15)


def test_against_mpmath_oracle():
    rng = random.Random(101)
    worst = 0.0
    for _ in range(40):
        a = complex_box(rng, -2.0, 3.0, -1.0, 1.0)
        c = complex_box(rng, 0.5, 3.0)
        x = disk_draw(rng, 4.0)
        ours = eval_1f1(a, c, x)
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp1f1(a, c, x))
        worst = max(worst, abs(ours - ref) / max(1.0, abs(ref)))
    assert worst <= 1e-12


def test_large_x_against_mpmath():
    # still summable at |x| slightly beyond the warning threshold
    with pytest.warns(LargeArgumentWarning):
        ours = eval_1f1(1.5, 2.5, 35.0)
    with mpmath.workdps(40):
        ref = complex(mpmath.hyp1f1(1.5, 2.5, 35.0))
    assert abs(ours - ref) / abs(ref) <= 1e-9


# ---------------------------------------------------------------------------
# parameter edge rules

def test_lower_parameter_pole_raises():
    with pytest.raises(PoleAtLowerParameterError):
        eval_1f1(0.5, -2.0, 0.3)


def test_pole_masked_by_earlier_termination():
    # a = -1 stops the sum at k = 1, before (c)_k with c = -2 hits zero
    assert eval_1f1(-1.0, -2.0, 1.0) == pytest.approx(1.5)


def test_pole_not_masked_when_numerator_terminates_too_late():
    with pytest.raises(PoleAtLowerParameterError):
        eval_1f1(-3.0, -2.0, 1.0)


def test_nonconvergence_raises():
    with pytest.raises(NonConvergenceError):
        eval_1f1(1.0, 2.0, 8.0, max_terms=5)


def test_overflowed_sum_is_not_returned():
    # the terms pass the double range near k = 800, so the sum is inf
    with pytest.warns(LargeArgumentWarning), pytest.raises(NonConvergenceError):
        eval_1f1(1.0, 2.0, 800.0)


def test_bad_tol_rejected():
    with pytest.raises(ValueError):
        eval_1f1(1.0, 2.0, 0.5, tol=0.0)


@pytest.mark.parametrize("max_terms", [0, -5])
@pytest.mark.parametrize("a, x", [(1.0, 1.0), (1.0, 0.0), (-2.0, 1.0)],
                         ids=["series", "x=0", "polynomial"])
def test_max_terms_below_one_rejected(max_terms, a, x):
    # refused before the sum, also where no series term would be needed
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        eval_1f1(a, 2.0, x, max_terms=max_terms)
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        _series_derivative(a, 2.0, x, max_terms=max_terms)


@pytest.mark.parametrize("a, c, x, name", [
    (math.nan, 2.0, 1.0, "a"),
    (1.0, complex(2.0, math.inf), 1.0, "c"),
    (1.0, 2.0, math.nan, "x"),
    (1.0, 2.0, -math.inf, "x"),
])
def test_non_finite_arguments_are_refused(a, c, x, name):
    # refused before the pole rule rounds a or c and before any term is summed
    with pytest.raises(ValueError, match=f"argument {name} is not finite"):
        eval_1f1(a, c, x)


def test_large_argument_warns():
    with pytest.warns(LargeArgumentWarning):
        eval_1f1(1.0, 2.0, 31.0)


# ---------------------------------------------------------------------------
# an array of x: one numpy pass, the scalar path's checks and values

def test_array_matches_the_scalar_path_over_the_point_box():
    # the kummer_points box: a and c in [0.5, 3] x [-0.5, 0.5]i, |x| <= 50.
    # Both paths round differently, so each value agrees to the rounding
    # scale of the sum, S = sum |terms|, not of |F| (Re x < 0 cancels)
    rng = random.Random(7)
    for _ in range(30):
        a, c = complex_box(rng, 0.5, 3.0), complex_box(rng, 0.5, 3.0)
        x = np.array([disk_draw(rng, 50.0) for _ in range(25)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", LargeArgumentWarning)
            values = eval_1f1(a, c, x)
            scalar = [eval_1f1(a, c, v) for v in x.tolist()]
        assert values.shape == x.shape and values.dtype == complex
        for v, f, xk in zip(values.tolist(), scalar, x.tolist()):
            assert abs(v - f) <= 1e-13 * abs_term_sum(a, c, xk)


def test_array_keeps_the_shape_polynomial_origin_and_empty_cases():
    x = np.array([[0.0, 1.7], [-2.5 + 1j, 0.0]])
    values = eval_1f1(-3, 2.2, x)
    assert values.shape == (2, 2)
    for v, xk in zip(values.ravel().tolist(), x.ravel().tolist()):
        assert v == pytest.approx(eval_1f1(-3, 2.2, xk), rel=1e-15)
    # the exact polynomial takes m terms whatever tol says
    assert np.array_equal(eval_1f1(-3, 2.2, x, tol=1e-2), values)
    values = eval_1f1(2.3, 1.7, np.array([0.0, 0.4, 0.0]))
    assert values[0] == 1.0 and values[2] == 1.0
    empty = eval_1f1(1.0, 2.0, np.array([]))
    assert empty.shape == (0,) and empty.dtype == complex


def test_zero_dimensional_x_takes_the_scalar_path():
    assert eval_1f1(1.3, 2.1, np.float64(0.7)) == eval_1f1(1.3, 2.1, 0.7)
    assert eval_1f1(1.3, 2.1, np.array(0.7)) == eval_1f1(1.3, 2.1, 0.7)
    assert type(eval_1f1(1.3, 2.1, np.array(0.7))) is complex


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0, -math.inf)])
def test_array_refuses_a_non_finite_point(bad):
    with pytest.raises(ValueError, match=r"argument x is not finite: .*x\[1\]"):
        eval_1f1(1.0, 2.0, np.array([0.5, bad, 1.0]))
    # a point of a 2-D array is named by its flat index
    with pytest.raises(ValueError, match=r"argument x is not finite: .*x\[3\]"):
        eval_1f1(1.0, 2.0, np.array([[0.5, 0.1], [1.0, bad]]))


def test_array_refuses_a_non_finite_parameter():
    with pytest.raises(ValueError, match="argument c is not finite"):
        eval_1f1(1.0, complex(2.0, math.inf), np.array([0.5]))


def test_array_keeps_the_pole_rule():
    with pytest.raises(PoleAtLowerParameterError):
        eval_1f1(0.5, -2.0, np.array([0.3, 0.4]))
    with pytest.raises(PoleAtLowerParameterError):
        eval_1f1(-3.0, -2.0, np.array([1.0]))
    values = eval_1f1(-1.0, -2.0, np.array([1.0, 2.0]))
    assert values.tolist() == pytest.approx([1.5, 2.0])


def test_array_raises_where_the_scalar_path_does():
    with pytest.raises(NonConvergenceError, match="did not reach tol"):
        eval_1f1(1.0, 2.0, np.array([0.1, 8.0]), max_terms=5)
    with pytest.warns(LargeArgumentWarning), pytest.raises(NonConvergenceError):
        eval_1f1(1.0, 2.0, np.array([1.0, 800.0]))
    with pytest.raises(ValueError, match="max_terms must be at least 1"):
        eval_1f1(1.0, 2.0, np.array([1.0]), max_terms=0)


def test_array_warns_once_per_call():
    x = np.array([31.0, 1.0, -35.0, 2j])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_1f1(1.5, 2.5, x)
    assert [w.category for w in caught] == [LargeArgumentWarning]
    assert "2 of 4 points" in str(caught[0].message)
    assert "up to 35" in str(caught[0].message)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_1f1(1.5, 2.5, np.array([30.0, -30.0, 30j]))
    assert caught == []


# ---------------------------------------------------------------------------
# derivative

def test_derivative_matches_central_difference():
    # the parameter-shift rule the series evaluation differentiates with
    h = 1e-6
    for a, c, x in [(1.3, 0.9, 0.4), (-0.7, 2.1, 1.2), (2.0, 1.5, -0.8)]:
        fd = (eval_1f1(a, c, x + h) - eval_1f1(a, c, x - h)) / (2 * h)
        assert (a / c) * eval_1f1(a + 1, c + 1, x) == pytest.approx(fd, abs=1e-8)


# ---------------------------------------------------------------------------
# differential equation

def test_ode_residual_small():
    for a, c, x in [(1.1, 1.7, 0.5), (-2.0, 1.3, 2.0), (0.4, 2.6, -1.1)]:
        assert kummer_ode_residual(a, c, x) <= 1e-13


def test_ode_residual_undefined_at_origin():
    with pytest.raises(ZeroDivisionError):
        kummer_ode_residual(1.0, 2.0, 0.0)


# ---------------------------------------------------------------------------
# recurrence identities

@pytest.mark.parametrize("identity_id", IDENTITY_IDS)
def test_identity_at_fixed_point(identity_id):
    assert identity_residual(identity_id, 1.3, 0.7, 0.4) <= 1e-12


def test_identity_with_complex_arguments():
    a, c, x = 1.1 + 0.3j, 2.2 - 0.1j, 0.8 + 0.5j
    for identity_id in IDENTITY_IDS:
        assert identity_residual(identity_id, a, c, x) <= 1e-12


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        identity_residual("R99", 1.0, 2.0, 0.5)


@settings(max_examples=60, deadline=None)
@given(
    ar=st.floats(0.5, 3.0), ai=st.floats(-0.5, 0.5),
    cr=st.floats(0.5, 3.0), ci=st.floats(-0.5, 0.5),
    xr=st.floats(-4.0, 4.0), xi=st.floats(-4.0, 4.0),
    ident=st.sampled_from(IDENTITY_IDS),
)
def test_identities_hold_generically(ar, ai, cr, ci, xr, xi, ident):
    a, c, x = complex(ar, ai), complex(cr, ci), complex(xr, xi)
    # R14/R46 shift the lower parameter down to c-1; keep it off the pole
    assume(abs(c - 1) > 1e-3)
    assert identity_residual(ident, a, c, x) <= 1e-10


# ---------------------------------------------------------------------------
# small numeric helpers

def test_nonpositive_int_detection():
    assert nonpositive_int(0.0) == 0
    assert nonpositive_int(-3.0) == 3
    assert nonpositive_int(-3.0 + 1e-12j) == 3
    assert nonpositive_int(-2.9999999999) == 3
    assert nonpositive_int(2.0) is None
    assert nonpositive_int(-0.5) is None
    assert nonpositive_int(-3.0 + 0.1j) is None
