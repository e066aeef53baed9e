"""1F1 summed with its first two derivatives in one pass:
eval_1f1(..., derivatives=True) against mpmath and against the
parameter-shift rule it replaces. Derivatives are summed for a scalar x
only; an array of x is refused."""

import random
import warnings

import mpmath
import numpy as np
import pytest

from heunkummer import LargeArgumentWarning, NonConvergenceError, build_series, eval_1f1

from conftest import SPECTRUM_COMBOS, complex_box, disk_draw, draw_on_condition


def reference(a, c, x):
    """F' and F'' at 40 digits, from the parameter-shift rule (DLMF 13.3.15)."""
    with mpmath.workdps(40):
        a, c, x = mpmath.mpc(a), mpmath.mpc(c), mpmath.mpc(x)
        return (complex(a / c * mpmath.hyp1f1(a + 1, c + 1, x)),
                complex(a * (a + 1) / (c * (c + 1)) * mpmath.hyp1f1(a + 2, c + 2, x)))


def shifted(a, c, x):
    """F' and F'' as two more double sums, shifted in both parameters."""
    a, c, x = complex(a), complex(c), complex(x)
    return ((a / c) * eval_1f1(a + 1, c + 1, x),
            (a * (a + 1)) / (c * (c + 1)) * eval_1f1(a + 2, c + 2, x))


def relative_error(values, refs) -> float:
    return max(abs(v - r) / abs(r) if r else abs(v) for v, r in zip(values, refs))


def differential_points(rng: random.Random) -> list:
    """(a, c, x): the basis walks of the seven spectrum combinations at
    |x| <= 1.5, the kummer_points box at |x| <= 5, exact polynomials, and
    x at zero, subnormal and tiny."""
    points = []
    for family, kind, choice in SPECTRUM_COMBOS:
        for _ in range(6):
            N = rng.randrange(31)
            sol = build_series(draw_on_condition(rng, kind, N), family, N, alpha0_choice=choice)
            points += [(*sol.basis_parameters(n), disk_draw(rng, 1.5)) for n in range(N + 1)]
    points += [(complex_box(rng, 0.5, 3.0), complex_box(rng, 0.5, 3.0), disk_draw(rng, 5.0))
               for _ in range(300)]
    points += [(-m, complex_box(rng, 0.5, 3.0), x)
               for m in range(12) for x in (0.3, -1.2 + 0.4j, 4.0)]
    points += [(a, c, x) for x in (0.0, 1e-320, 1e-200)
               for a, c in ((1.3 + 0.2j, 2.1 - 0.3j), (-2.5, 0.7), (-3.0, 2.2))]
    return points


def test_derivatives_match_mpmath_as_well_as_the_shifted_sums():
    points = differential_points(random.Random(26))
    fused, parent = [], []
    for a, c, x in points:
        refs = reference(a, c, x)
        f, d1, d2 = eval_1f1(a, c, x, derivatives=True)
        assert f == eval_1f1(a, c, x)
        fused.append(relative_error((d1, d2), refs))
        parent.append(relative_error(shifted(a, c, x), refs))
    assert len(points) > 1000
    assert max(fused) <= 1e-10
    assert np.quantile(fused, 0.99) <= 4 * np.quantile(parent, 0.99)


@pytest.mark.parametrize("x", [0.0, 1e-200, 1e-320, -1e-320j])
def test_derivatives_at_zero_and_subnormal_x_are_the_leading_terms(x):
    # nothing is divided by x, so these need no branch
    for a, c in ((1.3 + 0.2j, 2.1 - 0.3j), (-2.5, 0.7), (0.5, 1e10)):
        a, c = complex(a), complex(c)
        f, d1, d2 = eval_1f1(a, c, x, derivatives=True)
        assert f == pytest.approx(1.0, abs=1e-15)
        assert d1 == pytest.approx(a / c, rel=1e-15, abs=1e-300)
        assert d2 == pytest.approx(a * (a + 1) / (c * (c + 1)), rel=1e-15, abs=1e-300)


def test_polynomial_derivatives_are_exact_and_ignore_tol():
    # a = -m: degrees m, m - 1 and m - 2, each through its last term
    c, x = 2.2 + 0.25j, 1.7 - 0.3j
    for m in range(7):
        loose = eval_1f1(-m, c, x, tol=0.5, derivatives=True)
        assert loose == eval_1f1(-m, c, x, derivatives=True)
        with mpmath.workdps(30):
            p = [mpmath.rf(-m, k) / mpmath.rf(c, k) / mpmath.factorial(k) for k in range(m + 1)]
            exact = [complex(sum(p[k] * mpmath.ff(k, j) * mpmath.mpc(x) ** (k - j)
                                 for k in range(j, m + 1))) for j in range(3)]
        for value, ref in zip(loose, exact):
            assert value == pytest.approx(ref, rel=1e-14, abs=1e-300)
        assert (loose[1] == 0) == (m == 0) and (loose[2] == 0) == (m <= 1)


def test_a_polynomial_beyond_max_terms_is_refused_with_derivatives():
    with pytest.raises(NonConvergenceError, match="degree 20, above max_terms=19"):
        eval_1f1(-20.0, 2.0, 0.5, max_terms=19, derivatives=True)


def test_one_warning_per_call_with_derivatives():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        eval_1f1(1.5, 2.5, 35.0, derivatives=True)
    assert [w.category for w in caught] == [LargeArgumentWarning]


def test_an_overflowed_derivative_is_reported():
    with pytest.warns(LargeArgumentWarning), pytest.raises(NonConvergenceError,
                                                           match="overflows"):
        eval_1f1(1.0, 2.0, 800.0, derivatives=True)


def test_an_array_with_derivatives_is_refused():
    # the array pass sums values only: its one caller, the two-state closed
    # form, reads no derivative
    with pytest.raises(ValueError, match="scalar x only"):
        eval_1f1(1.5, 2.5, np.array([0.5, 0.25]), derivatives=True)

