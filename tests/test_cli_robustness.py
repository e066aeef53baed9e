"""Seeded CLI robustness: argv drawn from a fixed set of extreme and ordinary
values, run in-process through main. Every call returns an exit code, with
no traceback, and prints standard JSON (no NaN or Infinity token)."""

import json
import random

import pytest

from heunkummer.cli import main

VALUES = ("0", "1e-320", "-1e-320", "1e308", "-1e308", "1e154", "3e200",
          "1", "-1", "-2", "-3", "0.5", "2.3")
CHE = ("gamma", "delta", "eps", "alpha", "q")
FAMILIES = ("a1", "a2", "b3", "b4", "c")
KINDS = ("AlphaOverEps", "DeltaInt", "GammaDeltaAlpha")
DRAWS_PER_COMMAND = 38


def options(rng, names) -> list:
    return [f"--{name}={rng.choice(VALUES)}" for name in names]


def che_series(rng):
    family = rng.choice(FAMILIES)
    argv = ["che-series", f"--family={family}", *options(rng, CHE + ("z",))]
    return argv + options(rng, ["s0"]) if family == "b4" else argv


def q_spectrum(rng):
    argv = ["q-spectrum", f"--family={rng.choice(FAMILIES)}", *options(rng, CHE[:4])]
    if rng.random() < 0.5:
        argv += [f"--kind={rng.choice(KINDS)}", f"--n={rng.randrange(4)}"]
    return argv


DRAWS = {
    "che-series": che_series,
    "q-spectrum": q_spectrum,
    "detect-termination": lambda rng: ["detect-termination", "--all",
                                       f"--family={rng.choice(FAMILIES)}",
                                       *options(rng, CHE[:4])],
    "frobenius": lambda rng: ["frobenius", *options(rng, CHE + ("z",))],
    "transform": lambda rng: ["transform", *options(rng, CHE)],
    "eval-1f1": lambda rng: ["eval-1f1", *options(rng, "acx")],
    "verify-identities": lambda rng: ["verify-identities", *options(rng, "acx")],
    "two-state": lambda rng: ["two-state", "--steps=200", "--samples=3",
                              *options(rng, ("u0", "delta0", "delta1",
                                             "t-start", "t-end"))],
}


def refuse_constant(name):
    raise ValueError(f"{name} is not a JSON number")


@pytest.mark.parametrize("command", DRAWS)
def test_drawn_argv_exit_with_a_standard_json_record(capsys, command):
    rng = random.Random(f"cli-robustness-{command}")
    for _ in range(DRAWS_PER_COMMAND):
        argv = DRAWS[command](rng)
        code = main(argv)
        out = capsys.readouterr().out
        assert code in (0, 1, 2), argv
        if code == 2:  # usage errors go to stderr alone
            assert out == "", argv
            continue
        record = json.loads(out, parse_constant=refuse_constant)
        assert ("error" in record) == (code == 1), argv
