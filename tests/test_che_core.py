import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heunkummer import (
    CheParams,
    NonConvergenceError,
    PoleAtGammaError,
    SingularPointError,
    TruncationWarning,
    frobenius_coefficients,
    frobenius_eval,
    relative_residual,
    residual,
    transform_1_minus_z,
)

from conftest import dyadic_complex


def params(g, d, e, al, q) -> CheParams:
    return CheParams(gamma=g, delta=d, epsilon=e, alpha=al, q=q)


# ---------------------------------------------------------------------------
# residual operator

def test_residual_of_exponential_solution():
    # u = exp(-z) solves the equation when delta = 0 and q = alpha = gamma*eps
    p = params(1.0, 0.0, 1.0, 1.0, 1.0)
    z = 0.3
    val = math.exp(-z)
    assert abs(residual(p, val, -val, val, z)) <= 1e-15


def test_residual_is_linear_in_u():
    p = params(1.3, 0.4, 0.9, 2.0, 0.7)
    r1 = residual(p, 1.0, 0.5, -0.2, 0.4)
    r2 = residual(p, 2.0, 1.0, -0.4, 0.4)
    assert r2 == pytest.approx(2 * r1, rel=1e-14)


def test_relative_residual_divides_by_the_largest_input():
    p = params(1.3, 0.4, 0.9, 2.0, 0.7)
    r = residual(p, 2.0, 1.0, -4.0, 0.4)
    assert relative_residual(p, 2.0, 1.0, -4.0, 0.4) == abs(r) / 4.0
    assert relative_residual(p, 0.1, 0.2, 0.3, 0.4) == \
        abs(residual(p, 0.1, 0.2, 0.3, 0.4))


@pytest.mark.parametrize("z", [0.0, 1.0, 1e-14, 1 + 1e-14])
def test_residual_refuses_singular_points(z):
    p = params(1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(SingularPointError):
        residual(p, 1.0, 0.0, 0.0, z)
    assert relative_residual(p, 1.0, 0.0, 0.0, z) is None


# ---------------------------------------------------------------------------
# power series at the origin

def test_first_coefficient_is_minus_q_over_gamma():
    series = frobenius_coefficients(params(1.0, 1.0, 1.0, 1.0, 0.5), 5)
    assert series.coefficients[0] == 1.0
    assert series.coefficients[1] == pytest.approx(-0.5)


def test_zero_alpha_and_q_freeze_the_series():
    # alpha = q = 0 admits u = 1; every higher coefficient vanishes
    series = frobenius_coefficients(params(1.7, 0.4, 1.1, 0.0, 0.0), 12)
    assert all(c == 0 for c in series.coefficients[1:])


def test_series_satisfies_equation():
    p = params(1.0, 1.0, 1.0, 1.0, 0.5)
    series = frobenius_coefficients(p, 40)
    u, u1, u2 = frobenius_eval(series, 0.3)
    assert relative_residual(p, u, u1, u2, 0.3) <= 1e-9


def test_series_satisfies_equation_complex_params():
    p = params(1.4 + 0.2j, 0.6 - 0.1j, 1.1, 0.8 + 0.3j, 0.5j)
    series = frobenius_coefficients(p, 60)
    z = 0.25 + 0.1j
    u, u1, u2 = frobenius_eval(series, z)
    assert relative_residual(p, u, u1, u2, z) <= 1e-10


@pytest.mark.parametrize("gamma", [0.0, -1.0, -3.0])
def test_nonpositive_integer_gamma_has_no_series(gamma):
    with pytest.raises(PoleAtGammaError):
        frobenius_coefficients(params(gamma, 1.0, 1.0, 1.0, 0.5), 10)


def test_k_must_be_positive():
    with pytest.raises(ValueError):
        frobenius_coefficients(params(1.0, 1.0, 1.0, 1.0, 0.5), 0)


def test_short_series_warns_about_truncation():
    series = frobenius_coefficients(params(1.0, 1.0, 1.0, 1.0, 0.5), 3)
    with pytest.warns(TruncationWarning):
        frobenius_eval(series, 0.6)


@pytest.mark.parametrize("K", [192, 200])
def test_overflowing_series_is_a_domain_error(K):
    # at z = 40 the sum of u'' overflows from K = 192 on, and |z|^K from 193
    series = frobenius_coefficients(params(1.0, 1.0, 1.0, 1.0, 0.5), K)
    with pytest.raises(NonConvergenceError, match="overflows"):
        frobenius_eval(series, 40.0)


def test_eval_at_origin():
    series = frobenius_coefficients(params(1.0, 1.0, 1.0, 1.0, 0.5), 10)
    u, u1, u2 = frobenius_eval(series, 0.0)
    assert u == 1.0
    assert u1 == series.coefficients[1]
    assert u2 == 2 * series.coefficients[2]


def test_derivatives_match_finite_differences():
    series = frobenius_coefficients(params(1.3, 0.7, 0.9, 1.8, 0.4), 60)
    u, u1, u2 = frobenius_eval(series, 0.3)
    h = 1e-6
    up, _, _ = frobenius_eval(series, 0.3 + h)
    um, _, _ = frobenius_eval(series, 0.3 - h)
    assert u1 == pytest.approx((up - um) / (2 * h), abs=1e-8)
    # the second difference is roundoff-limited near machine eps / h^2
    h = 1e-5
    up, _, _ = frobenius_eval(series, 0.3 + h)
    um, _, _ = frobenius_eval(series, 0.3 - h)
    assert u2 == pytest.approx((up - 2 * u + um) / (h * h), abs=1e-4)


# ---------------------------------------------------------------------------
# the z -> 1-z substitution

@pytest.mark.parametrize("name", ["gamma", "delta", "epsilon", "alpha", "q"])
@pytest.mark.parametrize("value", [math.inf, math.nan, complex(0, -math.inf)])
def test_parameters_must_be_finite(name, value):
    fields = dict(gamma=1, delta=1, epsilon=1, alpha=1, q=1)
    fields[name] = value
    with pytest.raises(ValueError, match=f"parameter {name} "):
        CheParams(**fields)


def test_transform_refuses_an_overflowing_parameter():
    with pytest.raises(ValueError, match="parameter q "):
        transform_1_minus_z(params(1e308, 1, 1e308, 1e308, -1e308))


def test_transform_examples():
    t1 = transform_1_minus_z(params(1, 2, 3, 0, 5))
    assert (t1.gamma, t1.delta, t1.epsilon, t1.alpha, t1.q) == (2, 1, -3, 0, 5)
    t2 = transform_1_minus_z(params(1, 1, 1, 1, 1))
    assert (t2.gamma, t2.delta, t2.epsilon, t2.alpha, t2.q) == (1, 1, -1, -1, 0)


def test_transform_is_an_involution():
    # q round-trips through (q - alpha) + alpha, which is only guaranteed
    # rounding-free when q and alpha sit on a common dyadic grid; drawing on
    # that grid lets the identity be asserted bitwise for every seed instead
    # of holding by luck for one
    rng = random.Random(7)
    for _ in range(25):
        p = params(*(dyadic_complex(rng) for _ in range(5)))
        assert transform_1_minus_z(transform_1_minus_z(p)) == p


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-3, 3, allow_nan=False), min_size=10, max_size=10))
def test_transform_involution_generic(vals):
    p = params(complex(vals[0], vals[1]), complex(vals[2], vals[3]),
               complex(vals[4], vals[5]), complex(vals[6], vals[7]),
               complex(vals[8], vals[9]))
    back = transform_1_minus_z(transform_1_minus_z(p))
    # gamma/delta swap twice and eps/alpha negate twice, so those four are
    # bitwise; q comes back as (q - alpha) + alpha, which can round when the
    # magnitudes are wildly mismatched
    assert (back.gamma, back.delta, back.epsilon, back.alpha) == \
        (p.gamma, p.delta, p.epsilon, p.alpha)
    assert abs(back.q - p.q) <= 1e-15 * max(1.0, abs(p.q), abs(p.alpha))


def test_transform_maps_solutions():
    # v solves the transformed equation near 0, so u(z) = v(1-z) must solve
    # the original near 1: u' = -v', u'' = v''
    p = params(0.9, 1.6, 1.2, 0.8, 0.35)
    pt = transform_1_minus_z(p)
    series = frobenius_coefficients(pt, 120)
    w = 0.3
    v, v1, v2 = frobenius_eval(series, w)
    rel = abs(residual(p, v, -v1, v2, 1 - w)) / max(1.0, abs(v), abs(v1), abs(v2))
    assert rel <= 1e-10
