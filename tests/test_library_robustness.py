"""Seeded library robustness: calls drawn from the extreme and ordinary values
of tests/test_cli_robustness.py, made straight into the library. Every call
returns finite numbers or raises a domain error, HeunKummerError or
ValueError, with a message under 300 characters."""

import random
from dataclasses import replace

import numpy as np
import pytest

from heunkummer import (
    GAMMA_CHOICE,
    CheParams,
    Family,
    HeunKummerError,
    build_series,
    enumerate_termination_conditions,
    eval_1f1,
    eval_series_with_derivatives,
    frobenius_coefficients,
    frobenius_eval,
    q_spectrum,
    terminated_solution,
)

VALUES = (0.0, 1e-320, -1e-320, 1e308, -1e308, 1e154, 3e200,
          1.0, -1.0, -2.0, -3.0, 0.5, 2.3)
ZS = (0.3, 0.12 + 0.1j, 1e-320)
DOMAIN_ERRORS = (HeunKummerError, ValueError)


def draw_params(rng) -> CheParams:
    return CheParams(*(rng.choice(VALUES) for _ in range(5)))


def assert_finite(values, call):
    for value in values:
        assert np.isfinite(value).all(), (call, values)


def outcome(call, function, *args):
    """function(*args), or None where it raises a domain error, whose
    message must be short enough to read."""
    try:
        return function(*args)
    except DOMAIN_ERRORS as exc:
        assert len(str(exc)) < 300, (call, str(exc))
        return None


def build_and_evaluate(rng):
    p, family, N = draw_params(rng), rng.choice(list(Family)), rng.randrange(4)
    s0 = rng.choice(VALUES) if family is Family.B4_FourTerm else None
    call = ("build_series", p, family, N, s0)
    sol = outcome(call, build_series, p, family, N, None, s0)
    for z in ZS if sol is not None else ():
        result = outcome(call + (z,), eval_series_with_derivatives, sol, z)
        if result is not None:
            assert_finite(result[:3], call + (z,))


def one_1f1(rng):
    a, c = rng.choice(VALUES), rng.choice(VALUES)
    x = rng.choice(VALUES) if rng.random() < 0.5 else np.array(rng.sample(VALUES, 3))
    call = ("eval_1f1", a, c, x)
    value = outcome(call, eval_1f1, a, c, x)
    if value is not None:
        assert_finite([value], call)


def frobenius(rng):
    p, z = draw_params(rng), rng.choice(VALUES + ZS)
    call = ("frobenius", p, z)
    series = outcome(call, frobenius_coefficients, p, 20)
    if series is not None:
        result = outcome(call, frobenius_eval, series, z)
        if result is not None:
            assert_finite(result, call)


def spectra(rng):
    """Every enumerated condition's spectrum of one draw, and the terminated
    solution at each root evaluated at z = 0.3."""
    p = draw_params(rng)
    family = rng.choice((Family.A2_ThreeTerm, Family.B3_ThreeTerm, Family.C_ThreeTerm))
    choice = GAMMA_CHOICE if family is Family.B3_ThreeTerm and rng.random() < 0.3 else None
    call = ("enumerate", p, family, choice)
    conditions = outcome(call, enumerate_termination_conditions, p, family, choice) or []
    for cond in conditions:
        spectrum = outcome(call + (cond,), q_spectrum, p, family, cond, choice)
        if spectrum is None:
            continue
        assert_finite(spectrum.roots, call + (cond,))
        for root in spectrum.roots:
            at = call + (cond, root)
            sol = outcome(at, terminated_solution, replace(p, q=root), family, cond, choice)
            if sol is not None:
                assert_finite(sol.coefficients, at)
                result = outcome(at, eval_series_with_derivatives, sol, 0.3)
                if result is not None:
                    assert_finite(result[:3], at)


DRAWS = {build_and_evaluate: 750, one_1f1: 300, frobenius: 300, spectra: 2000}


@pytest.mark.filterwarnings("ignore::UserWarning", "ignore::RuntimeWarning")
def test_drawn_library_calls_return_finite_numbers_or_a_domain_error():
    rng = random.Random("library-robustness")
    for draw, count in DRAWS.items():
        for _ in range(count):
            draw(rng)
