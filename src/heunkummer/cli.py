"""Command line front end.

Every subcommand prints one record to stdout: JSON by default, CSV with
--format csv. A record carries the resolved inputs next to the results and
diagnostics, so a saved record can be re-run byte-identically:

    heunkummer eval-1f1 --a 1 --c 2 --x 0.5
    heunkummer che-series --family a2 --gamma 1 --delta 0 --eps 1 --alpha 1 --q 1 --z 0.3
    heunkummer q-spectrum --family a2 --gamma 2.3 --delta=-2 --eps 1.1 --alpha 0.7
    heunkummer two-state --u0 2 --delta0 0.5 --delta1 1 --format csv
    heunkummer --replay saved_record.json

Complex values are written RE or RE+IMi (e.g. 1.5, 2+0.5i, -0.25i). Values
starting with a minus sign must use the --opt=value form. A config file in
flat "key = value" lines supplies defaults for any option; an explicit flag
beats a replayed record, which beats the config file. HEUN_LOG_LEVEL
(error|warn|info|debug) controls stderr logging.

Exit codes: 0 on success, 1 on a domain error (a structured error record is
still printed), 2 on usage errors, such as an inf or nan literal.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import csv
import io
import json
import logging
import math
import os
import random
import sys
import warnings
from typing import NamedTuple

from .che_core import (CheParams, frobenius_coefficients, frobenius_eval,
                       relative_residual, transform_1_minus_z)
from .errors import ConditionNotMetError, HeunKummerError, HeunKummerWarning
from .expansions import Family, build_series, eval_series_with_derivatives
from .kummer import (DEFAULT_MAX_TERMS, DEFAULT_TOL, IDENTITY_IDS, eval_1f1,
                     identity_residuals)
from .termination import (KIND_ALPHA_OVER_EPS, KIND_DELTA_INT,
                          KIND_GAMMA_DELTA_ALPHA, TerminationCondition,
                          admissible_kinds, enumerate_termination_conditions,
                          finite_solution, q_spectrum)
from .twostate import (LorentzianModel, equation_residual_in_t, integrate_rk,
                       match_against_rk, reduce_to_che, scan_return_delta0)

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

LOG = logging.getLogger("heunkummer.cli")

_LOG_LEVELS = {"error": logging.ERROR, "warn": logging.WARNING,
               "info": logging.INFO, "debug": logging.DEBUG}

REQUIRED = object()  # sentinel default for mandatory options

# a che-series sum whose relative ODE residual exceeds this is not a solution
_RESIDUAL_WARN = 1e-8
# a two-state closed form further than this from the integrator does not
# match it (the bound of the release gate on [-5, 5])
_DEVIATION_WARN = 1e-6


# ---------------------------------------------------------------------------
# value parsing and formatting

def parse_complex(text: str) -> complex:
    """Accept RE, IMi, or RE+IMi literals, e.g. '2', '-0.5i', '1+0.4i'."""
    cleaned = text.strip().replace(" ", "").replace("i", "j")
    return complex(cleaned)


def format_complex(z: complex) -> str:
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag > 0 else "-"
    return f"{repr(z.real)}{sign}{repr(abs(z.imag))}i"


def _json_default(v):
    if isinstance(v, complex):
        return {"re": v.real, "im": v.imag}
    raise TypeError(f"cannot serialize {type(v).__name__}")


def render_json(record: dict) -> str:
    # floats print as the shortest text that reads back to the same double
    return json.dumps(record, indent=2, default=_json_default) + "\n"


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, complex):
        return format_complex(v)
    if isinstance(v, str):
        return v
    return json.dumps(v, default=_json_default)  # as in the JSON record


def _flatten(v, prefix: str = ""):
    if isinstance(v, dict):
        for k, item in v.items():
            yield from _flatten(item, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(v, (list, tuple)):
        for i, item in enumerate(v):
            yield from _flatten(item, f"{prefix}.{i}")
    else:
        yield prefix, v


def render_csv(record: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    table = record.get("results", {}).get("table")
    if table:
        writer.writerow(table["columns"])
        for row in table["rows"]:
            writer.writerow([_csv_cell(cell) for cell in row])
    else:
        writer.writerow(["key", "value"])
        for path, value in _flatten(record):
            writer.writerow([path, _csv_cell(value)])
    return out.getvalue()


# ---------------------------------------------------------------------------
# option declarations

class Opt(NamedTuple):
    name: str       # long option name, kebab case
    conv: object    # "complex" | "float" | "int" | "flag" | choices tuple
    default: object
    help: str


def _finite(convert):
    """convert, refusing inf and nan, for which JSON has no number."""
    def finite(text: str):
        value = convert(text)
        if not cmath.isfinite(value):
            raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
        return value
    finite.__name__ = convert.__name__  # argparse names an unreadable literal by it
    return finite


_TYPES = {"complex": _finite(parse_complex), "float": _finite(float), "int": int}

COMMON_OPTS = (Opt("format", ("json", "csv"), "json", "output format"),)

_CHE_OPTS = (
    Opt("gamma", "complex", REQUIRED, "exponent parameter at z = 0"),
    Opt("delta", "complex", REQUIRED, "exponent parameter at z = 1"),
    Opt("eps", "complex", REQUIRED, "coefficient of u' (irregular point scale)"),
    Opt("alpha", "complex", REQUIRED, "coefficient of z u"),
    Opt("q", "complex", 0j, "accessory parameter"),
)

_FAMILY_OPT = Opt("family", ("a1", "a2", "b3", "b4", "c"), REQUIRED,
                  "expansion family")
_ALPHA0_OPT = Opt("alpha0-choice", ("alpha-over-eps", "gamma"), None,
                  "starting upper parameter for the b3 and b4 families")
_KIND_CHOICES = (KIND_ALPHA_OVER_EPS, KIND_DELTA_INT, KIND_GAMMA_DELTA_ALPHA)


class CommandSpec(NamedTuple):
    summary: str
    opts: tuple
    runner: object


def _params_from(ns) -> CheParams:
    return CheParams(ns.gamma, ns.delta, ns.eps, ns.alpha, ns.q)


# ---------------------------------------------------------------------------
# runners; each returns (results, diagnostics)

def run_eval_1f1(ns):
    value = eval_1f1(ns.a, ns.c, ns.x, ns.tol, ns.max_terms)
    # recheck against a tighter, longer sum of the same series (tol kept above 0)
    recheck = eval_1f1(ns.a, ns.c, ns.x, max(ns.tol / 100, math.ulp(0.0)),
                       ns.max_terms * 2)
    LOG.info("eval-1f1 value %s recheck delta %.3e", value, abs(value - recheck))
    results = {"value": value}
    diagnostics = {"recheck_delta": abs(value - recheck),
                   "tol": ns.tol, "max_terms": ns.max_terms}
    return results, diagnostics


def _near_nonpositive_int(z: complex, tol: float = 1e-3) -> bool:
    r = round(z.real)
    return r <= 0 and abs(z - r) < tol


def _draw_identity_point(rng: random.Random, radius: float):
    a = complex(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))
    while True:
        c = complex(rng.uniform(0.5, 3.0), rng.uniform(-0.5, 0.5))
        # identities shift the lower parameter down by one; keep it off poles
        if not _near_nonpositive_int(c - 1):
            break
    r = radius * math.sqrt(rng.random())
    theta = rng.uniform(0.0, 2.0 * math.pi)
    x = complex(r * math.cos(theta), r * math.sin(theta))
    return a, c, x


def run_verify_identities(ns):
    ids = IDENTITY_IDS if ns.identity == "all" else (ns.identity,)
    point_args = (ns.a, ns.c, ns.x)
    if any(v is not None for v in point_args):
        if any(v is None for v in point_args):
            raise ValueError("point mode needs all of --a, --c, --x")
        residuals = identity_residuals(ns.a, ns.c, ns.x, ids)
        results = {"residuals": residuals,
                   "max_residual": max(residuals.values())}
        return results, {"mode": "point"}

    if ns.draws < 1:
        raise ValueError(f"--draws must be at least 1, got {ns.draws}")
    if not ns.radius > 0:  # at x = 0 every identity holds trivially
        raise ValueError(f"--radius must be positive, got {ns.radius}")
    rng = random.Random(ns.seed)
    draws = [_draw_identity_point(rng, ns.radius) for _ in range(ns.draws)]

    per_draw = [identity_residuals(a, c, x, ids) for a, c, x in draws]
    sweep = {i: [found[i] for found in per_draw] for i in ids}
    residuals = {i: max(found) for i, found in sweep.items()}
    # the first maximum over identities, then draws, in order
    overall, worst_id, (wa, wc, wx) = max(
        ((res, i, point) for i in ids for res, point in zip(sweep[i], draws)),
        key=lambda t: t[0])
    LOG.info("identity sweep: %d draws, max residual %.3e", ns.draws, overall)
    results = {"residuals": residuals, "max_residual": overall}
    diagnostics = {"mode": "sweep", "draws": ns.draws, "seed": ns.seed,
                   "radius": ns.radius,
                   "worst_case": {"identity": worst_id,
                                  "a": wa, "c": wc, "x": wx}}
    return results, diagnostics


def run_che_series(ns):
    params = _params_from(ns)
    family = Family.from_string(ns.family)
    sol = None
    if ns.s0 is None:  # only b4 reads s0, and b4 has no termination rule
        with contextlib.suppress(ConditionNotMetError):
            sol = finite_solution(params, family, ns.alpha0_choice)
            LOG.info("series terminates at n = %d", sol.terminal_index)
    if sol is None:  # no finite sum: build --n-terms coefficients
        sol = build_series(params, family, ns.n_terms,
                           alpha0_choice=ns.alpha0_choice, s0=ns.s0)
    u, u1, u2, tail = eval_series_with_derivatives(sol, ns.z)
    residual = relative_residual(params, u, u1, u2, ns.z)
    if residual is not None and residual > _RESIDUAL_WARN:  # None at z = 0, 1
        warnings.warn(f"ode_residual {residual:.3g} exceeds {_RESIDUAL_WARN:g}: "
                      f"the series sum does not solve the equation at z",
                      HeunKummerWarning)
    results = {"value": u, "derivative": u1, "second_derivative": u2,
               "terminated": sol.terminated,
               "terminal_index": sol.terminal_index,
               "alpha0": sol.alpha0, "gamma0": sol.gamma0, "s0": sol.s0}
    diagnostics = {"tail_estimate": tail,
                   "ode_residual": residual,
                   "n_coefficients": len(sol.coefficients)}
    return results, diagnostics


def run_frobenius(ns):
    params = _params_from(ns)
    series = frobenius_coefficients(params, ns.k_terms)
    u, u1, u2 = frobenius_eval(series, ns.z)
    results = {"u": u, "du": u1, "d2u": u2}
    diagnostics = {"ode_residual": relative_residual(params, u, u1, u2, ns.z),
                   "k_terms": ns.k_terms,
                   "last_coefficient": series.coefficients[-1]}
    return results, diagnostics


def run_transform(ns):
    params = _params_from(ns)
    tp = transform_1_minus_z(params)
    back = transform_1_minus_z(tp)
    results = {"gamma": tp.gamma, "delta": tp.delta, "eps": tp.epsilon,
               "alpha": tp.alpha, "q": tp.q}
    diagnostics = {"involution_exact": back == params}
    return results, diagnostics


def run_detect_conditions(ns):
    params = _params_from(ns)
    family = Family.from_string(ns.family)
    conditions = enumerate_termination_conditions(params, family,
                                                  ns.alpha0_choice)
    if not ns.all:
        conditions = conditions[:1]
    results = {"found": bool(conditions),
               "conditions": [{"kind": c.kind, "N": c.N} for c in conditions]}
    diagnostics = {"admissible_kinds": list(admissible_kinds(family,
                                                             ns.alpha0_choice))}
    return results, diagnostics


def run_q_spectrum(ns):
    params = _params_from(ns)
    family = Family.from_string(ns.family)
    if (ns.kind is None) != (ns.n is None):
        raise ValueError("--kind and --n must be given together")
    if ns.kind is not None:
        condition = TerminationCondition(family=family, kind=ns.kind, N=ns.n)
    else:
        found = enumerate_termination_conditions(params, family, ns.alpha0_choice)
        if not found:
            raise ConditionNotMetError(
                "no integer coincidence detected for these parameters")
        condition = found[0]
    spectrum = q_spectrum(params, family, condition, ns.alpha0_choice)
    # a rebuild that overflows double has no residual, and JSON no NaN
    residuals = [res if math.isfinite(res) else None
                 for res in spectrum.root_residuals]
    rows = [[r.real, r.imag, v, res]
            for r, v, res in zip(spectrum.roots, spectrum.verified, residuals)]
    LOG.info("spectrum %s N=%d: %d roots, all verified: %s",
             condition.kind, condition.N, len(spectrum.roots),
             all(spectrum.verified))
    results = {"kind": condition.kind, "N": condition.N,
               "roots": list(spectrum.roots),
               "verified": list(spectrum.verified),
               "table": {"columns": ["root_re", "root_im", "verified",
                                     "rebuild_residual"],
                         "rows": rows}}
    diagnostics = {"degree": condition.N + 1,
                   "all_verified": all(spectrum.verified),
                   "root_residuals": residuals}
    return results, diagnostics


def run_two_state(ns):
    import numpy as np

    if ns.samples < 2:  # a lone sample is the anchor, matched by construction
        raise ValueError(f"--samples must be at least 2, got {ns.samples}")
    if ns.t_start == ns.t_end:
        raise ValueError(f"--t-start and --t-end must differ, both are "
                         f"{ns.t_start}")
    model = LorentzianModel(ns.u0, ns.delta0, ns.delta1)
    family = Family.from_string(ns.family)
    red = reduce_to_che(model)
    try:
        match = match_against_rk(model, family, ns.t_start, ns.t_end,
                                 ns.steps, ns.samples)
    except ConditionNotMetError:
        match = None
    che = red.che
    results = {"R": red.R,
               "che": {"gamma": che.gamma, "delta": che.delta,
                       "eps": che.epsilon, "alpha": che.alpha, "q": che.q},
               "exponents": {"alpha1": red.exp_alpha1,
                             "alpha2": red.exp_alpha2},
               "terminated": match is not None}
    diagnostics = {"steps": ns.steps, "z_map": red.z_map}
    if match is not None:
        # a genuine finite sum, compared against the RK basis
        cf = match.closed_form
        check_ts = np.linspace(ns.t_start, ns.t_end, 21)
        eq_residual = max(equation_residual_in_t(model, cf, float(t))
                          for t in check_ts)
        rows = [[float(t), float(p1), float(p2), float(abs(cl - co))]
                for t, p1, p2, cl, co in zip(match.sample_times, match.p1,
                                             match.p2, match.closed,
                                             match.combined)]
        if match.max_deviation > _DEVIATION_WARN:
            warnings.warn(f"max_deviation {match.max_deviation:.3g} exceeds "
                          f"{_DEVIATION_WARN:g}: the closed form does not match "
                          f"the integrator", HeunKummerWarning)
        results["max_deviation"] = match.max_deviation
        results["lam"] = match.lam
        results["mu"] = match.mu
        diagnostics["norm_drift"] = match.norm_drift
        diagnostics["step_error"] = match.step_error
        diagnostics["equation_residual_max"] = eq_residual
        diagnostics["anchor"] = match.anchor
    else:
        # off the termination manifold there is no finite closed form;
        # report the trajectory alone rather than a meaningless comparison
        LOG.info("series does not terminate; closed-form comparison skipped")
        traj = integrate_rk(model, ns.t_start, ns.t_end, ns.steps,
                            init=(1 + 0j, 0j))
        idx = np.linspace(0, len(traj.times) - 1,
                          ns.samples).round().astype(int)
        rows = [[float(traj.times[i]), float(abs(traj.a1[i]) ** 2),
                 float(abs(traj.a2[i]) ** 2), None] for i in idx]
        results["max_deviation"] = None
        diagnostics["norm_drift"] = traj.norm_drift()
        diagnostics["step_error"] = traj.step_error
        diagnostics["closed_form"] = ("series does not terminate at these "
                                      "parameters; deviation not computed")
    results["table"] = {"columns": ["t", "p1", "p2", "closed_rk_deviation"],
                        "rows": rows}
    return results, diagnostics


def run_return_spectrum_scan(ns):
    import numpy as np

    if ns.points < 1:
        raise ValueError(f"--points must be at least 1, got {ns.points}")
    probe = reduce_to_che(LorentzianModel(ns.u0, 1.0, ns.delta1))
    grid, values, best_delta0, best_residual = scan_return_delta0(
        ns.u0, ns.delta1, ns.n, ns.delta0_min, ns.delta0_max, points=ns.points)
    i_min = int(np.argmin(values))
    LOG.info("scan minimum %.6g at delta0 = %.6g, return point %.6g",
             values[i_min], grid[i_min], best_delta0)
    results = {"located": {"delta0": best_delta0, "residual": best_residual},
               "table": {"columns": ["delta0", "residual"],
                         "rows": [[float(d), float(v)]
                                  for d, v in zip(grid, values)]}}
    diagnostics = {"R": probe.R, "points": ns.points,
                   "grid_minimum": {"delta0": float(grid[i_min]),
                                    "residual": float(values[i_min])}}
    return results, diagnostics


COMMANDS = {
    "eval-1f1": CommandSpec(
        "evaluate the confluent hypergeometric function 1F1(a; c; x)",
        (Opt("a", "complex", REQUIRED, "upper parameter"),
         Opt("c", "complex", REQUIRED, "lower parameter"),
         Opt("x", "complex", REQUIRED, "argument"),
         Opt("tol", "float", DEFAULT_TOL, "relative tail target"),
         Opt("max-terms", "int", DEFAULT_MAX_TERMS, "series length cap")),
        run_eval_1f1),
    "verify-identities": CommandSpec(
        "check the derivative and contiguous-parameter identities",
        (Opt("identity", ("all",) + IDENTITY_IDS, "all", "which identity"),
         Opt("a", "complex", None, "upper parameter (point mode)"),
         Opt("c", "complex", None, "lower parameter (point mode)"),
         Opt("x", "complex", None, "argument (point mode)"),
         Opt("draws", "int", 200, "random draws in sweep mode"),
         Opt("seed", "int", 0, "RNG seed for the sweep"),
         Opt("radius", "float", 5.0, "argument disk radius for the sweep")),
        run_verify_identities),
    "che-series": CommandSpec(
        "build a Kummer-function series solution and evaluate it",
        (_FAMILY_OPT,) + _CHE_OPTS +
        (Opt("z", "complex", REQUIRED, "evaluation point"),
         Opt("n-terms", "int", 30, "number of coefficients to build"),
         _ALPHA0_OPT,
         Opt("s0", "complex", None, "scale factor (b4 family only)")),
        run_che_series),
    "frobenius": CommandSpec(
        "evaluate the analytic power-series solution at the origin",
        _CHE_OPTS +
        (Opt("z", "complex", REQUIRED, "evaluation point"),
         Opt("k-terms", "int", 60, "number of power-series coefficients")),
        run_frobenius),
    "transform": CommandSpec(
        "map the equation parameters under z -> 1 - z",
        _CHE_OPTS,
        run_transform),
    "detect-termination": CommandSpec(
        "find integer parameter coincidences that allow a finite series",
        (_FAMILY_OPT,) + _CHE_OPTS +
        (_ALPHA0_OPT,
         Opt("all", "flag", False, "list every admissible condition")),
        run_detect_conditions),
    "q-spectrum": CommandSpec(
        "accessory-parameter values that terminate the series (q is ignored)",
        (_FAMILY_OPT,) + _CHE_OPTS +
        (_ALPHA0_OPT,
         Opt("kind", _KIND_CHOICES, None, "kind of a condition the parameters meet"),
         Opt("n", "int", None, "N of that condition (give with --kind)")),
        run_q_spectrum),
    "two-state": CommandSpec(
        "solve the Lorentzian-pulse two-state problem both ways and compare",
        (Opt("u0", "float", REQUIRED, "coupling amplitude"),
         Opt("delta0", "float", REQUIRED, "constant detuning rate"),
         Opt("delta1", "float", REQUIRED, "Lorentzian detuning amplitude"),
         Opt("t-start", "float", -5.0, "window start"),
         Opt("t-end", "float", 5.0, "window end"),
         Opt("steps", "int", 8000, "RK grid steps"),
         Opt("samples", "int", 101, "comparison sample count"),
         Opt("family", ("a2", "b3"), "b3", "expansion family")),
        run_two_state),
    "return-spectrum-scan": CommandSpec(
        "scan the detuning rate for points where the series terminates",
        (Opt("u0", "float", REQUIRED, "coupling amplitude"),
         Opt("delta1", "float", REQUIRED, "Lorentzian detuning amplitude"),
         Opt("n", "int", REQUIRED, "termination level (needs R = n+1)"),
         Opt("delta0-min", "float", REQUIRED, "scan lower bound"),
         Opt("delta0-max", "float", REQUIRED, "scan upper bound"),
         Opt("points", "int", 41, "rows of the relation table")),
        run_return_spectrum_scan),
}


# ---------------------------------------------------------------------------
# argument plumbing

def _file_options() -> argparse.ArgumentParser:
    # no abbreviations, so eval-1f1's --c is never taken for --config
    files = argparse.ArgumentParser(prog="heunkummer", add_help=False,
                                    allow_abbrev=False)
    files.add_argument("--replay", metavar="RECORD",
                       help="re-run a saved output record byte-identically")
    files.add_argument("--config", metavar="FILE",
                       help="flat key = value file with option defaults")
    return files


def _build_parser(files: argparse.ArgumentParser) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heunkummer", parents=[files], allow_abbrev=False,
        description="Kummer-function series solutions of the confluent "
                    "Heun equation")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, spec in COMMANDS.items():
        sp = sub.add_parser(name, help=spec.summary, description=spec.summary)
        for opt in COMMON_OPTS + spec.opts:
            kwargs = {"help": opt.help}
            if opt.conv == "flag":
                kwargs["action"] = "store_true"
            elif isinstance(opt.conv, tuple):
                kwargs["choices"] = opt.conv
            else:
                kwargs.update(type=_TYPES[opt.conv], metavar=opt.conv.upper())
            if opt.default is REQUIRED:
                kwargs["required"] = True
            else:
                kwargs["default"] = opt.default
            sp.add_argument("--" + opt.name, **kwargs)
    return parser


def _read(files, path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        files.error(f"cannot read {what} file: {exc}")


def _splice_files(files, argv: list) -> list:
    """argv with the --config lines and the --replay record's inputs spliced
    in as --key=value tokens right after the command, in that order and
    ahead of the user's own flags. The later token wins, so an explicit flag
    beats the record and the record beats the config file."""
    given, rest = files.parse_known_args(argv)
    pairs = []  # (key, value, from_config)
    if given.config:
        lines = _read(files, given.config, "config").splitlines()
        for lineno, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                files.error(f"{given.config}:{lineno}: expected key = value")
            key, value = line.split("=", 1)
            pairs.append((key.strip().replace("_", "-"), value.strip(), True))
    if given.replay:
        try:
            record = json.loads(_read(files, given.replay, "replay"))
        except json.JSONDecodeError as exc:
            files.error(f"cannot read replay file: {exc}")
        if not isinstance(record, dict) \
                or not isinstance(record.get("command"), str) \
                or not isinstance(record.get("inputs"), dict):
            files.error("replay file must carry 'command' and 'inputs'")
        rest = [record["command"]] + rest
        pairs += [(key, value, False) for key, value in record["inputs"].items()]
    at = next((i for i, arg in enumerate(rest) if not arg.startswith("-")), None)
    if at is None:
        return rest
    spec = COMMANDS.get(rest[at])
    opts = {o.name: o for o in COMMON_OPTS + spec.opts} if spec else {}
    tokens = []
    for key, value, from_config in pairs:
        opt = opts.get(key)
        if opt is None and from_config:
            LOG.warning("config key %r is not an option of %s", key, rest[at])
        elif opt is not None and opt.conv == "flag":
            if str(value).strip().lower() in ("1", "true", "yes", "on"):
                tokens.append(f"--{key}")
        else:
            tokens.append(f"--{key}={value}")
    return rest[:at + 1] + tokens + rest[at + 1:]


def _setup_logging() -> None:
    name = os.environ.get("HEUN_LOG_LEVEL", "warn").strip().lower()
    level = _LOG_LEVELS.get(name)
    logging.basicConfig(stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    logging.getLogger("heunkummer").setLevel(
        level if level is not None else logging.WARNING)
    if level is None and name not in ("", "warn"):
        LOG.warning("HEUN_LOG_LEVEL %r not recognized; using warn", name)


def main(argv=None) -> int:
    _setup_logging()
    files = _file_options()
    parser = _build_parser(files)
    try:
        ns = parser.parse_args(_splice_files(
            files, list(sys.argv[1:] if argv is None else argv)))
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if ns.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    spec = COMMANDS[ns.command]
    inputs = {}
    for opt in COMMON_OPTS + spec.opts:
        value = getattr(ns, opt.name.replace("-", "_"))
        if value is not None:
            inputs[opt.name] = (format_complex(value) if opt.conv == "complex"
                                else value)
    record = {"command": ns.command, "inputs": inputs}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, diagnostics = spec.runner(ns)
        # each distinct text once, in the order it was first raised
        diagnostics["warnings"] = list(dict.fromkeys(
            f"{type(w.message).__name__}: {w.message}" for w in caught))
        fields = {"results": results, "diagnostics": diagnostics}
        for path, value in _flatten(fields):  # JSON has no number for inf or nan
            if isinstance(value, (float, complex)) and not cmath.isfinite(value):
                raise ValueError(f"{path} = {value} is not finite")
        record.update(fields)
    except (HeunKummerError, ZeroDivisionError, ValueError) as exc:
        LOG.error("%s: %s", type(exc).__name__, exc)
        record["error"] = {"type": type(exc).__name__, "message": str(exc)}
        sys.stdout.write(render_json(record))
        return EXIT_DOMAIN

    text = render_csv(record) if ns.format == "csv" else render_json(record)
    sys.stdout.write(text)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
