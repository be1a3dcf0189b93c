"""Per-layer spans recorded from outside qidlab.

`Tracer.install()` wraps the public functions of each module (and two
private steps whose spans the per-layer metrics need) in every qidlab
namespace that bound them, and patches `CharFn.__call__` and
`CharFn.eval_grid` on the class. Spans stay in memory; `layer_metrics`
turns the spans of one job into the per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time

import numpy as np


def _natoms(cf) -> int:
    law = cf.law
    return len(law.discrete.atoms) if law.discrete is not None else 0


def _nodes(law) -> int:
    n = len(law.discrete.atoms) if law.discrete is not None else 0
    return n + (law.continuous.samples.size if law.continuous is not None else 0)


# (span name, defining module, attribute, counter(args, result) -> {count: n})
TARGETS = [
    ("jsonio.load", "qidlab.jsonio", "load_law", None),
    ("jsonio.dump", "qidlab.jsonio", "canonical_dumps", None),
    ("jsonio.dump", "qidlab.jsonio", "write_csv", None),
    ("pipelines.approximate", "qidlab.pipelines", "approximate_lattice", None),
    ("pipelines.approximate", "qidlab.pipelines", "approximate_abs_cont", None),
    ("pipelines.approximate", "qidlab.pipelines", "approximate_mixture", None),
    ("pipelines.truncate", "qidlab.pipelines", "truncate_lattice", None),
    ("pipelines.truncate", "qidlab.pipelines", "truncate_density", None),
    ("pipelines.smoothing", "qidlab.pipelines", "_choose_smoothing", None),
    ("zerofree.select_delta", "qidlab.zerofree", "select_delta", None),
    ("zerofree.bad_delta_set", "qidlab.zerofree", "bad_delta_set",
     lambda a, r: {"zerofree.bad_deltas": len(r)}),
    ("charfn.min_modulus_scan", "qidlab.charfn", "min_modulus_scan",
     lambda a, r: {"charfn.scan_points": int(math.ceil(a[1] / a[2])) + 1}),
    ("charfn.imag_zero_scan", "qidlab.charfn", "imag_zero_scan",
     lambda a, r: {"zerofree.roots": len(r)}),
    ("charfn.decay_window", "qidlab.charfn", "decay_window", None),
    ("dist.convolve", "qidlab.dist", "convolve",
     lambda a, r: {"dist.convolve_cells": r.continuous.samples.size
                   if r.continuous is not None else 0}),
    ("dist.tv_distance", "qidlab.dist", "tv_distance",
     lambda a, r: {"dist.tv_nodes": _nodes(a[0]) + _nodes(a[1])}),
    ("dist.mix", "qidlab.dist", "mix", None),
    ("dist.law_from_atoms", "qidlab.dist", "law_from_atoms", None),
    ("spectral.pair", "qidlab.spectral", "lattice_spectral_pair", None),
    ("spectral.roundtrip", "qidlab.spectral", "pair_roundtrip_error", None),
    ("spectral.branch", "qidlab.charfn", "_track_branch",
     lambda a, r: {"spectral.branch_points": len(r[0])}),
    ("impossibility.inf_scan", "qidlab.impossibility", "inf_scan", None),
    ("impossibility.kutlu", "qidlab.impossibility", "kutlu_zero_scan", None),
    ("impossibility.period_floor", "qidlab.impossibility", "one_period_floor", None),
    ("impossibility.cf", "qidlab.impossibility", "three_point_cf",
     lambda a, r: {"impossibility.cf_points": int(np.size(a[1]))}),
]

# (span name, method, counter(self, args) -> {count: n}) patched on CharFn
METHODS = [
    ("charfn.pointwise", "__call__",
     lambda s, a: {"charfn.pointwise_calls": 1,
                   "charfn.atom_point_products": int(np.size(a[0])) * _natoms(s)}),
    ("charfn.eval_grid", "eval_grid",
     lambda s, a: {"charfn.eval_grid_points": int(a[2]),
                   "charfn.atom_point_products": int(a[2]) * _natoms(s)}),
]

# per-layer time metric -> span name whose durations it sums
SPAN_TIMES = {
    "jsonio.load_s": "jsonio.load",
    "jsonio.dump_s": "jsonio.dump",
    "pipelines.truncate_s": "pipelines.truncate",
    "zerofree.select_delta_s": "zerofree.select_delta",
    "zerofree.bad_delta_set_s": "zerofree.bad_delta_set",
    "charfn.pointwise_s": "charfn.pointwise",
    "charfn.eval_grid_s": "charfn.eval_grid",
    "charfn.min_modulus_scan_s": "charfn.min_modulus_scan",
    "charfn.imag_zero_scan_s": "charfn.imag_zero_scan",
    "charfn.decay_window_s": "charfn.decay_window",
    "dist.convolve_s": "dist.convolve",
    "dist.tv_distance_s": "dist.tv_distance",
    "dist.mix_s": "dist.mix",
    "dist.law_from_atoms_s": "dist.law_from_atoms",
    "spectral.pair_s": "spectral.pair",
    "spectral.roundtrip_s": "spectral.roundtrip",
    "impossibility.inf_scan_s": "impossibility.inf_scan",
    "impossibility.kutlu_s": "impossibility.kutlu",
    "impossibility.period_floor_s": "impossibility.period_floor",
}
COUNTS = ["zerofree.roots", "zerofree.bad_deltas", "charfn.pointwise_calls",
          "charfn.eval_grid_points", "charfn.atom_point_products", "charfn.scan_points",
          "dist.convolve_cells", "dist.tv_nodes", "spectral.branch_points",
          "impossibility.cf_points",
          # counted from parent links: convolves under the smoothing ladder,
          # candidate scans under select_delta
          "pipelines.smoothing_convolves", "zerofree.candidates_tried"]
# pipelines.self_s: time in approximate_* not inside a wrapped call;
# cli.*: measured around the import and main() of a CLI process
OTHER_TIMES = ["pipelines.self_s", "cli.import_s", "cli.main_s"]


class Tracer:
    """Spans as [name, start, end, parent index, counts], kept in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counter, method=False):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == name:
                # a call inside a span of its own name (canonical_dumps recurses,
                # approximate_mixture calls approximate_lattice) is part of it
                return fn(*args, **kwargs)
            idx = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if counter is not None:
                span[4] = counter(args[0], args[1:]) if method else counter(args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Patch every qidlab namespace that bound a target function."""
        charfn = importlib.import_module("qidlab.charfn")
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "qidlab" or n.startswith("qidlab."))]
        for name, modname, attr, counter in TARGETS:
            orig = getattr(importlib.import_module(modname), attr)
            wrapper = self._wrap(name, orig, counter)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._patches.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        for name, meth, counter in METHODS:
            orig = charfn.CharFn.__dict__[meth]
            self._patches.append((charfn.CharFn, meth, orig))
            setattr(charfn.CharFn, meth, self._wrap(name, orig, counter, method=True))

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span, to cut the span list into jobs."""
        return len(self.spans)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def layer_metrics(spans: list[list], lo: int = 0, hi: int | None = None) -> dict:
    """Per-layer totals for the spans[lo:hi] of one job."""
    hi = len(spans) if hi is None else hi
    out = {k: 0.0 for k in list(SPAN_TIMES) + ["pipelines.self_s"]}
    out.update({k: 0 for k in COUNTS})
    span_of = {v: k for k, v in SPAN_TIMES.items()}
    child_time = [0.0] * (hi - lo)
    for i in range(lo, hi):
        name, start, end, parent, counts = spans[i]
        dur = end - start
        if parent >= lo:
            child_time[parent - lo] += dur
            pname = spans[parent][0]
            if name == "dist.convolve" and pname == "pipelines.smoothing":
                out["pipelines.smoothing_convolves"] += 1
            if name == "charfn.min_modulus_scan" and pname == "zerofree.select_delta":
                out["zerofree.candidates_tried"] += 1
        if name in span_of:
            out[span_of[name]] += dur
        for key, n in (counts or {}).items():
            out[key] += n
    for i in range(lo, hi):
        name, start, end = spans[i][:3]
        if name == "pipelines.approximate":
            out["pipelines.self_s"] += (end - start) - child_time[i - lo]
    return out


def metric_units() -> dict:
    units = {k: "s" for k in list(SPAN_TIMES) + OTHER_TIMES}
    units.update({k: "count" for k in COUNTS})
    return units
