"""Span tracing at the foldcodes layer boundaries, from outside the package.

The traced run replaces, in each package module, every function that the
module imports from another package module with a wrapper that records a
span (name, start, end, parent).  The benchmark's own top-level calls are
wrapped the same way.  Classes are left alone, so constructing or parsing
a CyclicArray counts toward the layer that does it.  Spans stay in memory
and are written out when the run ends.

A layer's self time is the time of its spans minus the time of their child
spans.  All per-layer metrics are totals per pass of the workload.
"""

from __future__ import annotations

import builtins
import inspect
import json
import time

from checks import LINEAR_KINDS

LAYERS = ("gf2poly", "lfsr", "folding", "arraycode", "constructions", "cli")

# Cross-module names the per-layer metrics are read from.  A traced run
# stops when one of them is gone, rather than report zero for its metric.
REQUIRED_IMPORTS = {
    "folding": ("is_irreducible", "pow_x_mod"),
    "constructions": (
        "verify", "min_distance", "canonical2d", "generate_cycles", "fold",
        "exponent", "is_irreducible", "enumerate_irreducible",
    ),
    "cli": (
        "verify", "fold", "unfold", "generate_cycles", "enumerate_irreducible",
        "exponent", "is_irreducible", "is_primitive", "perfect_factor",
        "construct_pmc_sd",
    ),
}

# Layers whose spans each workload's metrics rely on; a traced run of the
# workload fails when one of them records no span.
REQUIRED_SPANS = {
    "fold-linear": (
        "constructions.construct_prac_fold", "arraycode.verify",
        "arraycode.min_distance", "lfsr.generate_cycles", "folding.fold",
        "gf2poly.exponent",
    ),
    "compose-dbac": (
        "constructions.perfect_factor", "constructions.construct_pmc_sd",
        "arraycode.verify", "arraycode.canonical2d",
    ),
    "cli-session": (
        "cli.run", "gf2poly.enumerate_irreducible", "lfsr.generate_cycles",
        "folding.fold", "folding.unfold", "arraycode.verify",
    ),
}

ORDER_FUNCTIONS = ("exponent", "is_irreducible", "is_primitive")

PER_LAYER = (
    ("gf2poly.self_s", "s"),
    ("gf2poly.enumerate_s", "s"),
    ("gf2poly.order_s", "s"),
    ("gf2poly.calls", "count"),
    ("lfsr.self_s", "s"),
    ("lfsr.generate_cycles_s", "s"),
    ("lfsr.states", "count"),
    ("folding.self_s", "s"),
    ("folding.fold_s", "s"),
    ("folding.unfold_s", "s"),
    ("folding.cells", "count"),
    ("arraycode.self_s", "s"),
    ("arraycode.verify_linear_s", "s"),
    ("arraycode.verify_full_s", "s"),
    ("arraycode.verify_calls", "count"),
    ("arraycode.windows", "count"),
    ("arraycode.closure_pairs", "count"),
    ("arraycode.min_distance_s", "s"),
    ("arraycode.distance_words", "count"),
    ("arraycode.canonical2d_s", "s"),
    ("constructions.self_s", "s"),
    ("constructions.perfect_factor_s", "s"),
    ("constructions.words", "count"),
    ("constructions.keep_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("cli.bytes_read", "bytes"),
    ("cli.bytes_written", "bytes"),
)


class TraceError(RuntimeError):
    """The program no longer has a boundary the trace depends on."""


class Tracer:
    """Records spans and boundary counters for one traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # [name id, start, end, parent index or -1]
        self._stack = []
        self.totals = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        self.kept_arrays = 0

    def wrap(self, fn, layer: str):
        """fn wrapped so that each call records a span named layer.name."""
        name = f"{layer}.{fn.__name__}"
        name_id = self._name_ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        count = _COUNTERS.get(name)
        spans, stack, perf = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            result = None
            span[1] = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[2] = perf()
                stack.pop()
                if count is not None:
                    count(self, span[2] - span[1], args, result)

        traced.__wrapped__ = fn
        return traced

    def instrument(self, modules: dict) -> None:
        """Wrap every cross-module function import inside the package."""
        for importer, names in REQUIRED_IMPORTS.items():
            missing = [n for n in names if not inspect.isfunction(getattr(modules[importer], n, None))]
            if missing:
                raise TraceError(f"foldcodes.{importer} no longer imports {', '.join(missing)}")
        by_module = {f"foldcodes.{layer}": layer for layer in LAYERS}
        for layer in LAYERS:
            module = modules[layer]
            for attr, value in list(vars(module).items()):
                if not inspect.isfunction(value):
                    continue
                home = by_module.get(value.__module__)
                if home is not None and home != layer:
                    setattr(module, attr, self.wrap(value, home))
        cli = modules["cli"]
        cli.open = self._counting_open

    def _counting_open(self, path, mode="r", *args, **kwargs):
        return _CountingFile(builtins.open(path, mode, *args, **kwargs), self.totals)

    def count_stdout(self, text: str) -> None:
        self.totals["cli.bytes_written"] += len(text)

    def layer_times(self) -> dict:
        """Self time and per-name time of the recorded spans."""
        duration = [end - start for _, start, end, _ in self.spans]
        child = [0.0] * len(self.spans)
        for index, (_, _, _, parent) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += duration[index]
        self_time = dict.fromkeys(LAYERS, 0.0)
        by_name = {}
        calls = {}
        for index, (name_id, _, _, _) in enumerate(self.spans):
            name = self.names[name_id]
            self_time[name.split(".")[0]] += duration[index] - child[index]
            by_name[name] = by_name.get(name, 0.0) + duration[index]
            calls[name] = calls.get(name, 0) + 1
        return {"self": self_time, "time": by_name, "calls": calls}

    def metrics(self, passes: int, workload: str) -> dict:
        times = self.layer_times()
        missing = [n for n in REQUIRED_SPANS[workload] if n not in times["calls"]]
        if missing:
            raise TraceError(f"no span recorded for {', '.join(missing)}")
        out = dict(self.totals)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = times["self"][layer]
        t = times["time"]
        out["gf2poly.enumerate_s"] = t.get("gf2poly.enumerate_irreducible", 0.0)
        out["gf2poly.order_s"] = sum(t.get(f"gf2poly.{n}", 0.0) for n in ORDER_FUNCTIONS)
        out["gf2poly.calls"] = sum(c for n, c in times["calls"].items() if n.startswith("gf2poly."))
        out["lfsr.generate_cycles_s"] = t.get("lfsr.generate_cycles", 0.0)
        out["folding.fold_s"] = t.get("folding.fold", 0.0)
        out["folding.unfold_s"] = t.get("folding.unfold", 0.0)
        out["arraycode.min_distance_s"] = t.get("arraycode.min_distance", 0.0)
        out["arraycode.canonical2d_s"] = t.get("arraycode.canonical2d", 0.0)
        out["constructions.perfect_factor_s"] = t.get("constructions.perfect_factor", 0.0)
        words = times["calls"].get("arraycode.canonical2d", 0)
        out["constructions.words"] = words
        out["constructions.keep_ratio"] = self.kept_arrays / words if words else 0.0
        result = {}
        for name, unit in PER_LAYER:
            value = out[name] if name == "constructions.keep_ratio" else out[name] / passes
            result[name] = {"value": value, "unit": unit}
        return result

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "names": self.names,
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                },
                fh,
            )


class _CountingFile:
    """A text file that adds the characters it reads or writes to the
    cli byte counters (documents are ASCII, so characters are bytes)."""

    def __init__(self, fh, totals):
        self._fh = fh
        self._totals = totals

    def read(self, *args):
        data = self._fh.read(*args)
        self._totals["cli.bytes_read"] += len(data)
        return data

    def write(self, data):
        self._totals["cli.bytes_written"] += len(data)
        return self._fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._fh.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _count_verify(tracer, seconds, args, result):
    code = args[0]
    windows = len(code.arrays) * code.r * code.t
    tracer.totals["arraycode.verify_calls"] += 1
    tracer.totals["arraycode.windows"] += windows
    if code.kind in LINEAR_KINDS:
        tracer.totals["arraycode.verify_linear_s"] += seconds
        tracer.totals["arraycode.closure_pairs"] += len(code.arrays) * windows
    else:
        tracer.totals["arraycode.verify_full_s"] += seconds


def _count_min_distance(tracer, seconds, args, result):
    code = args[0]
    tracer.totals["arraycode.distance_words"] += len(code.arrays) * code.r * code.t


def _count_cycles(tracer, seconds, args, result):
    tracer.totals["lfsr.states"] += (1 << args[0].degree) - 1


def _count_fold(tracer, seconds, args, result):
    tracer.totals["folding.cells"] += args[1] * args[2]


def _count_unfold(tracer, seconds, args, result):
    tracer.totals["folding.cells"] += args[0].rows * args[0].cols


def _count_kept(tracer, seconds, args, result):
    if result is not None:
        tracer.kept_arrays += len(result.produced.arrays)


_COUNTERS = {
    "arraycode.verify": _count_verify,
    "arraycode.min_distance": _count_min_distance,
    "lfsr.generate_cycles": _count_cycles,
    "folding.fold": _count_fold,
    "folding.unfold": _count_unfold,
    "constructions.construct_pmc_odd": _count_kept,
    "constructions.construct_pmc_sd": _count_kept,
}
