"""Shared draw helpers and the subprocess environment. Every randomized
test seeds its own generator so failures replay exactly."""

import math
import os
import random
from pathlib import Path

import pytest

import heunkummer

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


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260816)
