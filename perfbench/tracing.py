"""Span tracer for the traced benchmark run.

Spans are recorded from the benchmark's side: `install` replaces each
traced entry point of the heunkummer package, in every package module
namespace that binds it, with a wrapper that opens a span, calls the
original and closes the span. Spans (name, start, end, parent) live in
memory as flat columns and are written out once, when the run ends.

A span's self time is its duration minus the durations of its child
spans. `recurrence_coeffs` costs about a microsecond, so it is counted,
not spanned: its time stays in the self time of its caller.

This module imports only the standard library at import time, so the CLI
bootstrap (child.py) can load it before timing the numpy import.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

# span name -> (home module, attribute) of each traced entry point
SPANNED = {
    "kummer.eval_1f1": ("heunkummer.kummer", "eval_1f1"),
    "kummer.identity_residual": ("heunkummer.kummer", "identity_residual"),
    "expansions.build_series": ("heunkummer.expansions", "build_series"),
    "expansions.eval_series": ("heunkummer.expansions", "eval_series"),
    "expansions.eval_series_with_derivatives":
        ("heunkummer.expansions", "eval_series_with_derivatives"),
    "termination.q_spectrum": ("heunkummer.termination", "q_spectrum"),
    "termination.terminated_solution":
        ("heunkummer.termination", "terminated_solution"),
    "twostate.integrate_rk": ("heunkummer.twostate", "integrate_rk"),
    "twostate.closed_form": ("heunkummer.twostate", "closed_form_solution"),
    "twostate.return_spectrum_relation":
        ("heunkummer.twostate", "return_spectrum_relation"),
    "twostate.locate_return_delta0":
        ("heunkummer.twostate", "locate_return_delta0"),
    "twostate.match_against_rk": ("heunkummer.twostate", "match_against_rk"),
    "che_core.frobenius_coefficients":
        ("heunkummer.che_core", "frobenius_coefficients"),
}
COUNTED = {"expansions.recurrence_coeffs": ("heunkummer.expansions", "recurrence_coeffs")}
# evaluating the closed form along t is part of the closed-form layer
CLOSED_FORM_METHODS = ("value", "value_and_derivatives")
COLUMNS = ("name", "parent", "start", "end", "self", "error", "warned", "work")


def _indices_built(args, kwargs, result):
    return len(result.coefficients) - 1


def _nonzero_terms(args, kwargs, result):
    sol = args[0] if args else kwargs["sol"]
    stop = sol.terminal_index if sol.terminated and sol.terminal_index is not None \
        else len(sol.coefficients) - 1
    return sum(1 for a_n in sol.coefficients[:stop + 1] if a_n != 0)


def _roots_returned(args, kwargs, result):
    return len(result.roots)


def _rk_steps(args, kwargs, result):
    # computed, not counted: one run at `steps` plus the halving run at 2*steps
    steps = args[3] if len(args) > 3 else kwargs.get(
        "steps", sys.modules["heunkummer.twostate"].DEFAULT_STEPS)
    return 3 * steps


# per-span work count taken from a call's arguments and result
WORK = {
    "expansions.build_series": _indices_built,
    "expansions.eval_series_with_derivatives": _nonzero_terms,
    "termination.q_spectrum": _roots_returned,
    "twostate.integrate_rk": _rk_steps,
}


class Tracer:
    """In-memory span store with a stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.cols = {c: array("i") for c in ("name", "parent", "error", "warned", "work")}
        self.cols.update({c: array("d") for c in ("start", "end", "self")})
        self.counts: dict[str, int] = {}
        self.verified = 0  # verified roots over all returned spectra
        self._stack: list[list] = []  # [span id, time covered by children]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        c = self.cols
        sid = len(c["name"])
        c["name"].append(nid)
        c["parent"].append(self._stack[-1][0] if self._stack else -1)
        for col in ("error", "warned", "work"):
            c[col].append(0)
        for col in ("end", "self"):
            c[col].append(0.0)
        self._stack.append([sid, 0.0])
        c["start"].append(time.perf_counter())
        return sid

    def close(self, sid: int, error: bool = False) -> None:
        t = time.perf_counter()
        c = self.cols
        _, child_time = self._stack.pop()
        dur = t - c["start"][sid]
        c["end"][sid] = t
        c["self"][sid] = dur - child_time
        if error:
            c["error"][sid] = 1
        if self._stack:
            self._stack[-1][1] += dur

    def current(self) -> int:
        """Id of the innermost open span."""
        return self._stack[-1][0]

    def note_warning(self) -> None:
        if self._stack:
            self.cols["warned"][self._stack[-1][0]] += 1

    def spanned(self, name: str, fn):
        nid = self.name_id(name)
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(sid, error=True)
                raise
            self.close(sid)
            if work is not None:
                self.cols["work"][sid] = work(args, kwargs, result)
                if name == "termination.q_spectrum":
                    self.verified += sum(result.verified)
            return result
        return traced

    def counted(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def tally(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return tally

    def merge(self, child: dict, parent: int) -> None:
        """Append a child process's spans under the span `parent`."""
        base = len(self.cols["name"])
        remap = [self.name_id(n) for n in child["names"]]
        cols = child["cols"]
        self.cols["name"].extend(remap[i] for i in cols["name"])
        self.cols["parent"].extend(parent if p < 0 else p + base for p in cols["parent"])
        for col in ("start", "end", "self", "error", "warned", "work"):
            self.cols[col].extend(cols[col])
        for name, n in child["counts"].items():
            self.counts[name] = self.counts.get(name, 0) + n
        self.verified += child["verified"]

    def export(self) -> dict:
        return {"names": self.names, "counts": self.counts, "verified": self.verified,
                "cols": {c: self.cols[c].tolist() for c in COLUMNS}}

    def write(self, path) -> None:
        """Write every span as numpy columns (np.load reads them back)."""
        import numpy as np

        np.savez_compressed(path, names=np.array(self.names),
                            **{c: np.frombuffer(self.cols[c], dtype=self.cols[c].typecode)
                               for c in COLUMNS})


class _WarningsProxy:
    """Stands in for the `warnings` module inside a package module, so each
    warning is charged to the innermost open span before it is issued."""

    def __init__(self, tracer: Tracer, real):
        self._tracer = tracer
        self._real = real

    def __getattr__(self, attr):
        return getattr(self._real, attr)

    def warn(self, message, category=None, stacklevel=1, source=None):
        self._tracer.note_warning()
        self._real.warn(message, category, stacklevel + 1, source)


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every traced entry point in every loaded heunkummer module.
    Returns the patches as (object, attribute, original, wrapper), so that
    `switch` can take the wrappers out and put them back."""
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "heunkummer" or n.startswith("heunkummer."))]
    targets = {}
    for name, (home, attr) in SPANNED.items():
        fn = getattr(sys.modules[home], attr)
        targets[id(fn)] = tracer.spanned(name, fn)
    for name, (home, attr) in COUNTED.items():
        fn = getattr(sys.modules[home], attr)
        targets[id(fn)] = tracer.counted(name, fn)
    patches = []
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if callable(value) and id(value) in targets:
                patches.append((mod, attr, value, targets[id(value)]))
        if getattr(mod, "warnings", None) is sys.modules["warnings"]:
            patches.append((mod, "warnings", mod.warnings,
                            _WarningsProxy(tracer, sys.modules["warnings"])))
    closed_form = sys.modules["heunkummer.twostate"].ClosedForm
    for attr in CLOSED_FORM_METHODS:
        fn = vars(closed_form)[attr]
        patches.append((closed_form, attr, fn, tracer.spanned("twostate.closed_form", fn)))
    switch(patches, traced=True)
    return patches


def switch(patches: list[tuple], traced: bool) -> None:
    """Put the wrappers of `install` in place, or the originals back."""
    for obj, attr, original, wrapper in patches:
        setattr(obj, attr, wrapper if traced else original)


def layer_metrics(tracer: Tracer, op_ids: list[int], child_imports=(), scale=1.0):
    """Per-layer figures of a traced phase, and the base counts of its
    waste ratios. `op_ids` are the phase's op spans, `child_imports` the
    (numpy, package) import seconds of each CLI child and `scale` the
    phase's factor from raw to nominal seconds. A layer that did not run
    reports 0."""
    import numpy as np

    c = {k: np.frombuffer(v, dtype=v.typecode) for k, v in tracer.cols.items()}
    name, parent, work = c["name"], c["parent"], c["work"]
    self_s = scale * c["self"]
    dur = scale * (c["end"] - c["start"])
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)], -1)
    parent_error = np.where(parent >= 0, c["error"][np.maximum(parent, 0)], 0)
    ops = len(op_ids)
    op_wall = float(np.sum(dur[op_ids]))

    def sel(span):
        return name == tracer._ids.get(span, -1)

    def ratio(num, den):
        return float(num) / den if den else 0.0

    def calls(span):
        return int(sel(span).sum())

    def self_ms(span):
        return ratio(1e3 * self_s[sel(span)].sum(), ops)

    def child_of(span, of):
        return sel(span) & (parent_name == tracer._ids.get(of, -1))

    f11, esd = "kummer.eval_1f1", "expansions.eval_series_with_derivatives"
    qs, bs, rk = "termination.q_spectrum", "expansions.build_series", "twostate.integrate_rk"
    good_qs = sel(qs) & (c["error"] == 0)
    runner_wall = float(np.sum(dur[sel("cli.runner")]))
    render_wall = float(np.sum(dur[sel("cli.render")]))
    imports = scale * np.array(child_imports, dtype=float).reshape(-1, 2)
    bases = {
        "expansions.recurrence_coeffs.calls_per_index": {
            "kind": "counted", "recurrence_coeffs_calls": tracer.counts.get(
                "expansions.recurrence_coeffs", 0),
            "ladder_indices_built": int(work[sel(bs)].sum())},
        "termination.q_spectrum.builds_per_root": {
            "kind": "counted",
            "builds_inside_q_spectrum": int((child_of(bs, qs) & (parent_error == 0)).sum()),
            "roots_returned": int(work[good_qs].sum())},
        "expansions.eval_series_with_derivatives.f11_per_term": {
            "kind": "counted", "eval_1f1_calls_inside": int(child_of(f11, esd).sum()),
            "nonzero_terms": int(work[sel(esd)].sum())},
        "twostate.rk_steps_per_op": {
            "kind": "computed (3 x steps per integrate_rk call, halving run included)",
            "rk_steps": int(work[sel(rk)].sum()), "ops": ops},
    }
    metrics = {
        "kummer.eval_1f1.calls_per_op": ratio(calls(f11), ops),
        "kummer.eval_1f1.us_per_call": ratio(1e6 * self_s[sel(f11)].sum(), calls(f11)),
        "kummer.eval_1f1.share": ratio(self_s[sel(f11)].sum(), op_wall),
        "kummer.eval_1f1.warned_frac": ratio((c["warned"][sel(f11)] > 0).sum(), calls(f11)),
        "expansions.recurrence_coeffs.calls_per_index":
            ratio(tracer.counts.get("expansions.recurrence_coeffs", 0), work[sel(bs)].sum()),
        "expansions.build_series.calls_per_op": ratio(calls(bs), ops),
        "expansions.build_series.self_ms_per_op": self_ms(bs),
        "expansions.eval_series_with_derivatives.self_ms_per_op": self_ms(esd),
        "expansions.eval_series_with_derivatives.f11_per_term":
            ratio(child_of(f11, esd).sum(), work[sel(esd)].sum()),
        "termination.q_spectrum.self_ms_per_op": self_ms(qs),
        "termination.q_spectrum.builds_per_root":
            ratio((child_of(bs, qs) & (parent_error == 0)).sum(), work[good_qs].sum()),
        "termination.q_spectrum.verified_frac": ratio(tracer.verified, work[good_qs].sum()),
        "termination.q_spectrum.error_frac": ratio((sel(qs) & (c["error"] == 1)).sum(), calls(qs)),
        "termination.terminated_solution.self_ms_per_op": self_ms("termination.terminated_solution"),
        "twostate.integrate_rk.calls_per_op": ratio(calls(rk), ops),
        "twostate.integrate_rk.self_ms_per_op": self_ms(rk),
        "twostate.rk_steps_per_op": ratio(work[sel(rk)].sum(), ops),
        "twostate.closed_form.self_ms_per_op": self_ms("twostate.closed_form"),
        "twostate.return_spectrum_relation.calls_per_op":
            ratio(calls("twostate.return_spectrum_relation"), ops),
        "twostate.locate_return_delta0.self_ms_per_op": self_ms("twostate.locate_return_delta0"),
        "twostate.match_against_rk.self_ms_per_op": self_ms("twostate.match_against_rk"),
        "che_core.frobenius_coefficients.self_ms_per_op":
            self_ms("che_core.frobenius_coefficients"),
        "cli.numpy_import_ms": ratio(1e3 * imports[:, 0].sum(), len(imports)),
        "cli.import_ms": ratio(1e3 * imports[:, 1].sum(), len(imports)),
        "cli.runner_ms_per_op": ratio(1e3 * runner_wall, ops) if len(imports) else 0.0,
        "cli.render_ms_per_op": ratio(1e3 * render_wall, ops) if len(imports) else 0.0,
        "cli.process_other_ms_per_op": ratio(
            1e3 * (op_wall - imports[:, 1].sum() - runner_wall - render_wall), ops)
        if len(imports) else 0.0,
    }
    return metrics, bases
