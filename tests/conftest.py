"""Shared draw helpers, test-side oracles and the subprocess environment.
Every randomized test seeds its own generator so failures replay exactly."""

import math
import os
import random
from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import heunkummer
from heunkummer import (ALPHA_OVER_EPS, GAMMA_CHOICE, CheParams, Family, eval_series,
                        eval_series_with_derivatives, relative_residual)
from heunkummer.termination import (KIND_ALPHA_OVER_EPS, KIND_DELTA_INT,
                                    KIND_GAMMA_DELTA_ALPHA)

# the directory the test process imports heunkummer from; subprocesses put it
# first on PYTHONPATH so they run the same source
PACKAGE_PARENT = str(Path(heunkummer.__file__).resolve().parents[1])


def subprocess_env(**overrides) -> dict:
    """os.environ plus overrides, with PACKAGE_PARENT first on PYTHONPATH."""
    env = dict(os.environ, **overrides)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [PACKAGE_PARENT, env.get("PYTHONPATH")]))
    return env


def complex_box(rng: random.Random, re_lo, re_hi, im_lo=-0.5, im_hi=0.5) -> complex:
    return complex(rng.uniform(re_lo, re_hi), rng.uniform(im_lo, im_hi))


def disk_draw(rng: random.Random, radius: float) -> complex:
    # uniform over the disk, not the square
    r = radius * math.sqrt(rng.random())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(theta), r * math.sin(theta))


def abs_term_sum(a, c, x, tol: float = 1e-17) -> float:
    """S = sum_k |(a)_k/(c)_k x^k/k!|, the scale of the rounding error of
    the summed 1F1(a; c; x): where the terms cancel, |F| is far below S."""
    a, c, x = complex(a), complex(c), complex(x)
    total = term = 1.0
    for k in range(10000):
        term *= abs((a + k) * x / ((c + k) * (k + 1)))
        total += term
        if term <= tol * total and k > abs(x):
            return total
    raise AssertionError(f"sum of |terms| at {a=}, {c=}, {x=} did not settle")


def dyadic_complex(rng: random.Random, bits: int = 22, shift: int = 19) -> complex:
    """Random complex with both parts on the grid of multiples of 2**-shift.

    Sums and differences of grid numbers of comparable magnitude land back on
    the grid without rounding, so round-trip identities built from +, - and
    swaps can be asserted bitwise rather than to a tolerance. With the
    defaults the parts cover [-4, 4) in steps of 2**-19.
    """
    def part() -> float:
        return math.ldexp(rng.getrandbits(bits) - (1 << (bits - 1)), -shift)

    return complex(part(), part())


def series_residual(sol, z) -> float:
    """relative_residual of the equation for the evaluated series at z."""
    u, u1, u2, _ = eval_series_with_derivatives(sol, z)
    return relative_residual(sol.params, u, u1, u2, z)


def polynomial_certificate(sol, N: int) -> float:
    """Certify eval_series(sol, z) is a polynomial in z of degree <= N.

    Fits a degree-N polynomial through N+1 samples and returns the relative
    mismatch at a further sample point. Values <= 1e-9 certify; larger
    values deny (the solution genuinely is not a polynomial).
    """
    zs = np.linspace(0.05, 0.45, N + 1)
    vals = np.array([eval_series(sol, z)[0] for z in zs], dtype=complex)
    V = np.vander(zs, N + 1, increasing=True).astype(complex)
    coeffs = np.linalg.solve(V, vals)
    z_extra = 0.37 if N == 0 else 0.5 * (zs[0] + zs[1])
    actual = eval_series(sol, z_extra)[0]
    predicted = npoly.polyval(z_extra, coeffs)
    return abs(predicted - actual) / max(1.0, abs(actual))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)


# the seven (family, condition kind, alpha0 branch) combinations with a
# right-termination rule
SPECTRUM_COMBOS = (
    (Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, None),
    (Family.A2_ThreeTerm, KIND_DELTA_INT, None),
    (Family.B3_ThreeTerm, KIND_ALPHA_OVER_EPS, ALPHA_OVER_EPS),
    (Family.B3_ThreeTerm, KIND_DELTA_INT, ALPHA_OVER_EPS),
    (Family.B3_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, GAMMA_CHOICE),
    (Family.C_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, None),
    (Family.C_ThreeTerm, KIND_DELTA_INT, None),
)


def draw_on_condition(rng: random.Random, kind, N: int) -> CheParams:
    """Real parameters on the kind's condition at N, q = 0."""
    g = rng.uniform(1.3, 2.7)
    if abs(g - round(g)) < 0.2:
        g += 0.23
    d, e, al = (rng.uniform(*box) for box in ((0.25, 0.85), (0.8, 1.4), (0.6, 1.8)))
    if kind == KIND_ALPHA_OVER_EPS:
        al = -N * e
    elif kind == KIND_DELTA_INT:
        d = -N
    else:
        al = e * (g + d + N)
    return CheParams(g, d, e, al, 0)
