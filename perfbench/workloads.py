"""The four benchmark workloads.

Each workload derives op j's input from (seed, j) alone, runs the op
(timed), and checks its output (untimed) against an oracle that does not
run through the traced entry points. Every workload is a closed loop with
one caller: the next op starts when the previous one and its check end.

The generators reuse the parameter boxes and guards of the acceptance gates
in tests/test_acceptance.py and keep the ranges where the program is known
to fail at the seed (spectra from N = 15, 1F1 cancellation for Re x < 0).
"""

from __future__ import annotations

import cmath
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import mpmath
import numpy as np

import heunkummer as hk
from heunkummer import CheParams, Family, LorentzianModel
from heunkummer.che_core import frobenius_coefficients, frobenius_eval, residual
from heunkummer.expansions import ALPHA_OVER_EPS, GAMMA_CHOICE, applicability
from heunkummer.kummer import nonpositive_int
from heunkummer.termination import (KIND_ALPHA_OVER_EPS, KIND_DELTA_INT,
                                    KIND_GAMMA_DELTA_ALPHA, TerminationCondition,
                                    enumerate_termination_conditions)
from heunkummer.twostate import DELTA0_CLAMP

# errors the package documents for its inputs; the CLI maps the same three
# to exit code 1. Anything else escaping an op is a crash.
DOMAIN_ERRORS = (hk.HeunKummerError, ValueError, ZeroDivisionError)
MAX_DIGITS = 15.0


def digits(rel: float) -> float:
    """Correct significant digits of a relative error, clamped to [0, 15]."""
    if not math.isfinite(rel):
        return 0.0
    if rel <= 0:
        return MAX_DIGITS
    return max(0.0, min(MAX_DIGITS, -math.log10(rel)))


def op_rng(seed: int, j: int, salt: str = "") -> random.Random:
    return random.Random(f"{seed}:{j}:{salt}")


# Each workload class also sets:
#   cycle           ops after which the draw repeats its strata; metrics use
#                   whole cycles only
#   tail_pct        the op_tail_ms percentile: the highest with at least ten
#                   samples beyond it at the op counts of a 30 s run on
#                   the 2-vCPU machine in perfbench/RECORD.md, unless the
#                   class says otherwise
#   failure_budget  the largest share of ops that miss their check and
#                   still counts as correct: the share at the seed commit
#                   plus at least five standard deviations of its spread
#                   over seeds, rounded up (perfbench/RECORD.md)


@dataclass
class Outcome:
    ok: bool
    digits: float | None  # None where the workload has no numeric oracle
    reason: str = ""


# ---------------------------------------------------------------------------
# spectrum_solve

SPECTRUM_COMBOS = (
    (Family.A2_ThreeTerm, KIND_ALPHA_OVER_EPS, None),
    (Family.A2_ThreeTerm, KIND_DELTA_INT, None),
    (Family.B3_ThreeTerm, KIND_ALPHA_OVER_EPS, ALPHA_OVER_EPS),
    (Family.B3_ThreeTerm, KIND_DELTA_INT, ALPHA_OVER_EPS),
    (Family.B3_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, GAMMA_CHOICE),
    (Family.C_ThreeTerm, KIND_GAMMA_DELTA_ALPHA, None),
    (Family.C_ThreeTerm, KIND_DELTA_INT, None),
)
SPECTRUM_ZS = (0.12, 0.22, 0.31, 0.41, 0.47)
SPECTRUM_MAX_N = 30
RESIDUAL_TOL = 1e-8
ORACLE_DIGITS = 8.0      # 1e-8 agreement, the Frobenius gate's tolerance
FROBENIUS_TERMS = 150    # 0.47**150 < 1e-49


@dataclass(frozen=True)
class SpectrumInput:
    family: Family
    kind: str
    choice: str | None
    N: int
    params: CheParams  # q = 0; the spectrum supplies q


def draw_spectrum_params(rng: random.Random, family: Family, kind: str, N: int):
    """The box and guards of test_spectra_give_full_verified_root_sets."""
    g = complex(rng.uniform(1.3, 2.7))
    if abs(g.real - round(g.real)) < 0.2:
        g += 0.23
    d = complex(rng.uniform(0.25, 0.85))
    e = complex(rng.uniform(0.8, 1.4))
    if kind == KIND_ALPHA_OVER_EPS:
        al = -N * e
    elif kind == KIND_DELTA_INT:
        d = complex(-N)
        al = complex(rng.uniform(0.6, 1.8))
        while (family is Family.B3_ThreeTerm
               and abs((g - al / e).real - round((g - al / e).real)) < 0.15):
            al = complex(rng.uniform(0.6, 1.8))  # b3 R_n vanishes there
    else:
        al = e * (g + d + N)
    return CheParams(g, d, e, al, 0)


def _frobenius_mp(p: CheParams, zs):
    """The che_core power-series recurrence at 40 digits."""
    with mpmath.workdps(40):
        g, d, e, al, q = (mpmath.mpc(v) for v in (p.gamma, p.delta, p.epsilon, p.alpha, p.q))
        c = [mpmath.mpc(1)]
        gde = g + d - e
        for k in range(FROBENIUS_TERMS):
            prev = c[k - 1] if k >= 1 else 0
            c.append(((k * (k - 1) + k * gde - q) * c[k] + (e * (k - 1) + al) * prev)
                     / ((k + 1) * (k + g)))
        return [complex(mpmath.polyval(c[::-1], z)) for z in zs]


def frobenius_values(p: CheParams, zs):
    """u(z) of the solution analytic at 0 with c_0 = 1, in double
    precision, and the digits that survive the cancellation in its sum."""
    series = frobenius_coefficients(p, FROBENIUS_TERMS)
    values, bulk = [], 1.0
    for z in zs:
        u = frobenius_eval(series, z)[0]
        values.append(u)
        bulk = max(bulk, sum(abs(ck) * z ** k for k, ck in enumerate(series.coefficients))
                   / abs(u))
    return values, MAX_DIGITS - math.log10(bulk)


def oracle_digits(p: CheParams, us) -> float:
    """Worst digits of agreement of u(z) at SPECTRUM_ZS with the Frobenius
    solution, both normalized at the first point, up to the digits the
    double-precision oracle resolves. Where that is too few to judge the
    8-digit check, the 40-digit oracle decides."""
    def agreement(ref):
        if not us[0]:
            return 0.0
        scale = us[0] / ref[0]
        return min(digits(abs(u / scale - f) / abs(f)) for u, f in zip(us[1:], ref[1:]))

    ref, trusted = frobenius_values(p, SPECTRUM_ZS)
    found = agreement(ref)
    if found < trusted - 1:
        return found  # the disagreement is far above the oracle's own error
    if trusted >= ORACLE_DIGITS + 2:
        return min(found, trusted)
    return agreement(_frobenius_mp(p, SPECTRUM_ZS))


class SpectrumSolve:
    name = "spectrum_solve"
    entry_module = "heunkummer"
    # A cycle visits every (combination, N) once; N runs through 0..30 in
    # the order 19k + b (mod 31) and each N visits all seven combinations.
    cycle = 7 * (SPECTRUM_MAX_N + 1)
    tail_pct = 95.0
    failure_budget = 0.80

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict[int, SpectrumInput] = {}

    def input(self, j: int) -> SpectrumInput:
        if j not in self._cache:
            c, s = divmod(j, self.cycle)
            rng_c = op_rng(self.seed, c, "cycle")
            offset = rng_c.randrange(SPECTRUM_MAX_N + 1)
            combos = list(range(7))
            rng_c.shuffle(combos)
            N = (19 * (s // 7) + offset) % (SPECTRUM_MAX_N + 1)
            family, kind, choice = SPECTRUM_COMBOS[combos[s % 7]]
            params = draw_spectrum_params(op_rng(self.seed, j), family, kind, N)
            self._cache[j] = SpectrumInput(family, kind, choice, N, params)
        return self._cache[j]

    @staticmethod
    def run(inp: SpectrumInput):
        cond = TerminationCondition(inp.family, inp.kind, inp.N)
        spec = hk.q_spectrum(inp.params, inp.family, cond, alpha0_choice=inp.choice)
        evaluated = []
        for root in spec.roots:
            p = replace(inp.params, q=root)
            sol = hk.terminated_solution(p, inp.family, cond, alpha0_choice=inp.choice)
            evaluated.append((root, [hk.eval_series_with_derivatives(sol, z)[:3]
                                     for z in SPECTRUM_ZS]))
        return spec.verified, evaluated

    @staticmethod
    def check(inp: SpectrumInput, out) -> Outcome:
        verified, evaluated = out
        worst = MAX_DIGITS  # oracle digits over every root, stopping at 0
        residual_ok = True
        for root, values in evaluated:
            p = replace(inp.params, q=root)
            for z, (u, u1, u2) in zip(SPECTRUM_ZS, values):
                res = abs(residual(p, u, u1, u2, z)) / max(1.0, abs(u), abs(u1), abs(u2))
                residual_ok = residual_ok and res <= RESIDUAL_TOL  # False on NaN
            if worst > 0:
                worst = min(worst, oracle_digits(p, [v[0] for v in values]))
        for bad, reason in ((len(evaluated) != inp.N + 1, "root count"),
                            (not all(verified), "unverified root"),
                            (not residual_ok, "ode residual"),
                            (worst < ORACLE_DIGITS, "oracle digits")):
            if bad:
                return Outcome(False, worst, reason)
        return Outcome(True, worst)

    @staticmethod
    def perturb(out):
        verified, evaluated = out
        root, values = evaluated[0]
        return verified, [(root + 1e-6, values)] + evaluated[1:]

    @staticmethod
    def violations(inp: SpectrumInput) -> list[str]:
        out = list(applicability(inp.params, inp.family))
        conds = enumerate_termination_conditions(inp.params, inp.family, inp.choice)
        if not any(c.kind == inp.kind and c.N == inp.N for c in conds):
            out.append(f"no {inp.kind} condition at N={inp.N}")
        if nonpositive_int(inp.params.gamma) is not None:
            out.append("gamma pole (no Frobenius oracle)")
        return out


# ---------------------------------------------------------------------------
# kummer_points

KUMMER_TOL = 1e-10
KUMMER_MAX_ABS_X = 50.0
KUMMER_RINGS = 50
KUMMER_SECTORS = 20


def draw_identity_parameter(rng: random.Random) -> complex:
    """The box of test_kummer_identities_hold_on_random_draws."""
    return complex(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))


class KummerPoints:
    name = "kummer_points"
    entry_module = "heunkummer"
    # Every op draws a fresh point, so no point repeats within a run. A
    # cycle stratifies x: each of its ops takes one cell of a grid of
    # KUMMER_RINGS rings in |x| by KUMMER_SECTORS sectors in angle, in a
    # shuffled order, and a uniform point inside it.
    cycle = KUMMER_RINGS * KUMMER_SECTORS
    # p99 of single calls spreads by 10-14% over seeds: on a loaded host the
    # heavy calls slow while the calibration loop and the median do not
    tail_pct = 95.0
    failure_budget = 0.50

    def __init__(self, seed: int):
        self.seed = seed
        self._order: dict[int, list[int]] = {}

    def input(self, j: int) -> tuple:
        k, s = divmod(j, self.cycle)
        if k not in self._order:
            self._order = {k: list(range(self.cycle))}
            op_rng(self.seed, k, "cycle").shuffle(self._order[k])
        ring, sector = divmod(self._order[k][s], KUMMER_SECTORS)
        rng = op_rng(self.seed, j)
        a = draw_identity_parameter(rng)
        c = draw_identity_parameter(rng)
        while abs(c - 1.0) <= 1e-6:  # the gate's guard against the c = 1 pole
            c = draw_identity_parameter(rng)
        x = cmath.rect(KUMMER_MAX_ABS_X * (ring + rng.random()) / KUMMER_RINGS,
                       2 * math.pi * (sector + rng.random()) / KUMMER_SECTORS)
        return a, c, x

    @staticmethod
    def run(point: tuple):
        return hk.eval_1f1(*point)

    @staticmethod
    def check(point: tuple, value) -> Outcome:
        with mpmath.workdps(30):
            ref = complex(mpmath.hyp1f1(*point))
        rel = abs(value - ref) / abs(ref)
        return Outcome(rel <= KUMMER_TOL, digits(rel), "" if rel <= KUMMER_TOL else "accuracy")

    @staticmethod
    def perturb(value):
        return value * (1 + 1e-9)

    @staticmethod
    def violations(point: tuple) -> list[str]:
        a, c, x = point
        out = []
        if not (0.5 <= a.real <= 3 and 0.5 <= c.real <= 3
                and abs(a.imag) <= 0.5 and abs(c.imag) <= 0.5):
            out.append("parameter outside the identity-gate box")
        if nonpositive_int(c) is not None or abs(x) > KUMMER_MAX_ABS_X:
            out.append("pole in c or |x| > 50")
        return out


# ---------------------------------------------------------------------------
# two_state_match

RELATION_TOL = 1e-8
DEVIATION_TOL = 1e-6
DRIFT_TOL = 1e-10
DELTA0_TOL = 1e-8
# Return points with |Delta0| in this range. Below it sits the trivial root
# Delta0 = 0 and the clamp; above it the closed form on t in [-5, 5] needs
# 1F1 at |x| = 2|Delta0||z(t)| > 20, near kummer's documented LARGE_X = 30,
# which kummer_points covers.
DELTA0_RANGE = (1.0, 4.0)


@dataclass(frozen=True)
class TwoStateInput:
    N: int
    delta1: float
    u0: float
    delta0: float   # the oracle's return point
    bracket: tuple


def return_points(N: int, delta1: float) -> list[float]:
    """Real Delta0 where the reduced b3 ladder terminates at N, from the
    tridiagonal determinant at 40 digits (independent of q_spectrum).

    With gamma = N+2, delta = -N, eps = -2 Delta0, alpha = 0 and
    q = -(N+1+Delta1/2) Delta0, the b3 coefficients are R_n = n(n-N-2),
    P_n = n(n-N) and Q_n = 2n(N+1-n) + Delta0 (N+1+Delta1/2-2n), so the
    termination condition is det(T0 + Delta0 diag(B)) = 0.
    """
    with mpmath.workdps(40):
        B = [mpmath.mpf(N + 1) + mpmath.mpf(delta1) / 2 - 2 * i for i in range(N + 1)]
        if min(abs(b) for b in B) < 0.05:
            return []
        M = mpmath.matrix(N + 1, N + 1)
        for i in range(N + 1):
            M[i, i] = -2 * i * (N + 1 - i) / B[i]
            if i < N:
                M[i, i + 1] = -(i + 1) * (i + 1 - N - 2) / B[i]
            if i > 0:
                M[i, i - 1] = -(i - 1) * (i - 1 - N) / B[i]
        eig = mpmath.eig(M, left=False, right=False)
        return sorted(float(mpmath.re(v)) for v in eig
                      if abs(mpmath.im(v)) < 1e-20 and abs(v) > 1e-20)


class TwoStateMatch:
    name = "two_state_match"
    entry_module = "heunkummer"
    cycle = 3  # N = 1, 2, 3
    # 21 to 30 ops a run, so the tail with ten beyond is the median; the RK
    # part of an op costs the same for every input
    tail_pct = 50.0
    failure_budget = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self._cache: dict[int, TwoStateInput] = {}

    def input(self, j: int) -> TwoStateInput:
        if j not in self._cache:
            self._cache[j] = draw_two_state(op_rng(self.seed, j), 1 + j % 3)
        return self._cache[j]

    @staticmethod
    def run(inp: TwoStateInput):
        d0, relation = hk.locate_return_delta0(inp.u0, inp.delta1, inp.N, *inp.bracket)
        match = hk.match_against_rk(LorentzianModel(inp.u0, d0, inp.delta1))
        return d0, relation, match

    @staticmethod
    def check(inp: TwoStateInput, out) -> Outcome:
        d0, relation, match = out
        dev = float(np.max(np.abs(match.closed - match.combined)))
        loc = abs(d0 - inp.delta0) / abs(inp.delta0)
        worst = min(digits(loc), digits(dev / float(np.max(np.abs(match.closed)))))
        for bad, reason in ((not relation <= RELATION_TOL, "relation"),
                            (not loc <= DELTA0_TOL, "located Delta0"),
                            (not dev <= DEVIATION_TOL, "max deviation"),
                            (not match.norm_drift <= DRIFT_TOL, "norm drift")):
            if bad:
                return Outcome(False, worst, reason)
        return Outcome(True, worst)

    @staticmethod
    def perturb(out):
        d0, relation, match = out
        closed = match.closed.copy()
        closed[len(closed) // 2] *= 1 + 1e-5
        return d0, relation, replace(match, closed=closed)

    @staticmethod
    def violations(inp: TwoStateInput) -> list[str]:
        out = []
        if abs(math.hypot(inp.u0, inp.delta1 / 2) - (inp.N + 1)) > 1e-9:
            out.append("R != N+1")
        lo, hi = inp.bracket
        if lo * hi <= 0 or min(abs(lo), abs(hi)) <= 100 * DELTA0_CLAMP:
            out.append("bracket touches Delta0 = 0")
        inside = [r for r in return_points(inp.N, inp.delta1) if lo <= r <= hi]
        if inside != [inp.delta0]:
            out.append(f"bracket holds {len(inside)} return points")
        return out


def draw_two_state(rng: random.Random, N: int) -> TwoStateInput:
    while True:
        delta1 = rng.uniform(-2.0, 1.5)
        roots = return_points(N, delta1)
        usable = [r for r in roots if DELTA0_RANGE[0] <= abs(r) <= DELTA0_RANGE[1]]
        if usable:
            break
    target = rng.choice(usable)
    gap = min(abs(target - r) for r in roots + [0.0] if r != target)
    half = min(0.4, 0.45 * gap)
    pos = rng.uniform(0.25, 0.75)  # where the return point sits in the bracket
    bracket = (target - 2 * half * pos, target + 2 * half * (1 - pos))
    u0 = math.sqrt((N + 1) ** 2 - delta1 ** 2 / 4)
    return TwoStateInput(N, delta1, u0, target, bracket)


# ---------------------------------------------------------------------------
# cli_mix

CLI_COMMANDS = ("eval-1f1", "verify-identities", "che-series", "frobenius",
                "transform", "detect-termination", "q-spectrum",
                "return-spectrum-scan")
CLI_VARIANTS = 4
CLI_SPECTRUM_MAX_N = 6  # README scale; spectrum_solve covers N up to 30


def fmt(z) -> str:
    z = complex(z)
    return f"{z.real!r}{z.imag:+.17g}i"


def che_args(p: CheParams) -> list[str]:
    return [f"--gamma={fmt(p.gamma)}", f"--delta={fmt(p.delta)}", f"--eps={fmt(p.epsilon)}",
            f"--alpha={fmt(p.alpha)}", f"--q={fmt(p.q)}"]


def box(rng, lo, hi, im=0.4) -> complex:
    return complex(rng.uniform(lo, hi), rng.uniform(-im, im))


def cli_argv(rng: random.Random, command: str, variant: int, seed: int) -> list[str]:
    if command == "eval-1f1":
        a, c = draw_identity_parameter(rng), draw_identity_parameter(rng)
        x = cmath.rect(5.0 * math.sqrt(rng.random()), rng.uniform(0, 2 * math.pi))
        return [command, f"--a={fmt(a)}", f"--c={fmt(c)}", f"--x={fmt(x)}"]
    if command == "verify-identities":
        return [command, "--draws", "200", "--seed", str(seed * CLI_VARIANTS + variant)]
    if command == "che-series":
        if variant % 2:  # the two-term gate: 400 terms on the constraint line
            g, al, e = rng.uniform(2.2, 3.0), rng.uniform(-2.5, -1.0), rng.uniform(0.8, 1.2)
            return [command, "--family", "a1", *che_args(CheParams(g, 0, e, al, al)),
                    "--z=0.25", "--n-terms", "400"]
        g, e, al = box(rng, 0.8, 2.5), box(rng, 0.8, 1.5, 0.3), box(rng, 0.5, 2.5)
        return [command, "--family", "a2", *che_args(CheParams(g, 0, e, al, al)),
                f"--z={rng.uniform(0.1, 0.5)!r}"]
    if command in ("frobenius", "transform"):
        p = CheParams(box(rng, 0.8, 2.5), box(rng, 0.8, 2.5), box(rng, 0.5, 1.5),
                      box(rng, 0.5, 2.0), box(rng, 0.3, 1.5))
        extra = [f"--z={rng.uniform(0.1, 0.5)!r}"] if command == "frobenius" else []
        return [command, *che_args(p), *extra]
    if command == "detect-termination":
        n = rng.randrange(6)
        p = CheParams(box(rng, 1.3, 2.7, 0), -n, box(rng, 0.8, 1.4, 0), box(rng, 0.6, 1.8, 0), 0)
        return [command, "--family", "a2", *che_args(p), "--all"]
    if command == "q-spectrum":
        family, kind, choice = SPECTRUM_COMBOS[rng.randrange(7)]
        N = rng.randrange(CLI_SPECTRUM_MAX_N + 1)
        p = draw_spectrum_params(rng, family, kind, N)
        extra = ["--alpha0-choice", choice] if choice else []
        return [command, "--family", family.value, *che_args(p), *extra,
                "--kind", kind, "--n", str(N)]
    if command == "return-spectrum-scan":
        inp = draw_two_state(rng, 1 + variant % 3)
        lo, hi = inp.bracket
        return [command, f"--u0={inp.u0!r}", f"--delta1={inp.delta1!r}", "--n", str(inp.N),
                f"--delta0-min={lo!r}", f"--delta0-max={hi!r}", "--points", "41"]
    raise ValueError(command)


class CliMix:
    name = "cli_mix"
    entry_module = "heunkummer.cli"
    cycle = len(CLI_COMMANDS) * CLI_VARIANTS
    tail_pct = 80.0
    failure_budget = 0.0

    def __init__(self, seed: int, root: Path, env: dict, out_dir: Path):
        self.root = root
        self.env = env
        self.trace_file = out_dir / "child-trace.json"
        self.tracer = None  # set for the traced phase; children then run the bootstrap
        self.child_imports: list[tuple[float, float]] = []
        self.argvs = {(cmd, v): cli_argv(op_rng(seed, v, cmd), cmd, v, seed)
                      for cmd in CLI_COMMANDS for v in range(CLI_VARIANTS)}
        self.reference: dict[tuple, bytes] = {}
        self.refs_1f1 = {}
        with mpmath.workdps(30):
            for v in range(CLI_VARIANTS):
                argv = self.argvs[("eval-1f1", v)]
                a, c, x = (complex(arg.split("=", 1)[1].replace("i", "j")) for arg in argv[1:])
                self.refs_1f1[v] = complex(mpmath.hyp1f1(a, c, x))

    def input(self, j: int) -> tuple:
        return CLI_COMMANDS[j % len(CLI_COMMANDS)], (j // len(CLI_COMMANDS)) % CLI_VARIANTS

    def run(self, key: tuple):
        argv = self.argvs[key]
        if self.tracer is None:
            cmd = [sys.executable, "-m", "heunkummer.cli", *argv]
            env = self.env
        else:
            cmd = [sys.executable, str(Path(__file__).with_name("child.py")), *argv]
            env = dict(self.env, PERFBENCH_TRACE_OUT=str(self.trace_file))
        proc = subprocess.run(cmd, capture_output=True, env=env, cwd=self.root, check=False)
        return proc.returncode, proc.stdout

    def collect(self, op_id: int) -> None:
        """Merge the traced child's spans under its op span (untimed)."""
        with open(self.trace_file, encoding="utf-8") as fh:
            child = json.load(fh)
        os.unlink(self.trace_file)
        self.tracer.merge(child["trace"], parent=op_id)
        self.child_imports.append((child["numpy_import_s"], child["import_s"]))

    def check(self, key: tuple, out) -> Outcome:
        code, stdout = out
        if code != 0:
            return Outcome(False, None, f"exit code {code}")
        try:
            record = json.loads(stdout)
        except ValueError:
            return Outcome(False, None, "stdout is not JSON")
        first = self.reference.setdefault(key, stdout)
        if stdout != first:
            return Outcome(False, None, "stdout differs from the first run")
        if key[0] != "eval-1f1":
            return Outcome(True, None)
        value = complex(record["results"]["value"]["re"], record["results"]["value"]["im"])
        ref = self.refs_1f1[key[1]]
        return Outcome(True, digits(abs(value - ref) / abs(ref)))

    @staticmethod
    def perturb(out):
        code, stdout = out
        i = next(k for k, ch in enumerate(stdout) if chr(ch).isdigit())
        return code, stdout[:i] + (b"8" if stdout[i:i + 1] != b"8" else b"7") + stdout[i + 1:]

    def violations(self, key: tuple) -> list[str]:
        argv = self.argvs[key]
        opts = dict(arg[2:].split("=", 1) for arg in argv if arg.startswith("--") and "=" in arg)
        if key[0] in ("q-spectrum", "detect-termination"):
            p = CheParams(*(complex(opts[k].replace("i", "j"))
                            for k in ("gamma", "delta", "eps", "alpha", "q")))
            return applicability(p, Family.from_string(argv[argv.index("--family") + 1]))
        if key[0] == "return-spectrum-scan":
            n = int(argv[argv.index("--n") + 1])
            u0, d1 = float(opts["u0"]), float(opts["delta1"])
            lo, hi = float(opts["delta0-min"]), float(opts["delta0-max"])
            inside = [r for r in return_points(n, d1) if lo <= r <= hi]
            return [] if len(inside) == 1 and lo * hi > 0 and \
                abs(math.hypot(u0, d1 / 2) - (n + 1)) <= 1e-9 else ["bad scan bracket"]
        return []


WORKLOADS = {w.name: w for w in (SpectrumSolve, KummerPoints, TwoStateMatch, CliMix)}
