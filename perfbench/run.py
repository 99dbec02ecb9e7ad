"""Benchmark of foldcodes: timed runs and a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fold-linear --seed 1 --seconds 20 --trace 0

With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Progress and problems go to
stderr.  The program is imported from src/ of the same checkout and called
in-process, single-threaded.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import statistics
import sys
import tempfile
import time

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 25

# Program entry points the workloads call, by defining layer.
ENTRY_POINTS = {
    "construct_prac_fold": "constructions",
    "experiment_exponent_family": "constructions",
    "experiment_product_fold": "constructions",
    "perfect_factor": "constructions",
    "construct_pmc_odd": "constructions",
    "construct_pmc_sd": "constructions",
    "construct_db_pmc_direct": "constructions",
    "run": "cli",
}


class Api:
    """What the workloads may touch of foldcodes: its entry points, the
    classes needed to build inputs, and a hook for captured CLI output."""

    def __init__(self, modules):
        self.modules = modules
        self.Gf2Poly = modules["gf2poly"].Gf2Poly
        self.CyclicSequence = modules["lfsr"].CyclicSequence
        self.PerfectFactor = modules["lfsr"].PerfectFactor
        self.tracer = None
        for name, layer in ENTRY_POINTS.items():
            setattr(self, name, getattr(modules[layer], name))

    def trace(self, tracer) -> None:
        self.tracer = tracer
        tracer.instrument(self.modules)
        for name, layer in ENTRY_POINTS.items():
            setattr(self, name, tracer.wrap(getattr(self.modules[layer], name), layer))

    def cli_output(self, text: str) -> None:
        if self.tracer is not None:
            self.tracer.count_stdout(text)


def _import_program():
    """Import foldcodes afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "foldcodes" or m.startswith("foldcodes.")]:
        del sys.modules[name]
    modules = {layer: importlib.import_module(f"foldcodes.{layer}") for layer in spans.LAYERS}
    where = os.path.dirname(os.path.abspath(modules["cli"].__file__))
    if where != os.path.join(SRC, "foldcodes"):
        raise ImportError(f"foldcodes imported from {where}, not from {SRC}")
    return modules


def tables(workload: str):
    """The workload's seed-independent input tables (the benchmark's own
    arithmetic, built once and outside the set-up timer)."""
    return workloads.WORKLOADS[workload][0]()


def setup(workload: str, seed: int, workdir: str, tabs):
    """Import the program and build the workload's operation list."""
    modules = _import_program()
    api = Api(modules)
    ops = workloads.WORKLOADS[workload][1](api, random.Random(seed), workdir, tabs)
    return api, ops


def run_passes(ops, seconds: float):
    """Whole passes over ops, as many as fit in `seconds` (at least one):
    a pass starts only if a pass of average length would end in time."""
    times, failed, wrong = [], 0, []
    passes = 0
    start = time.perf_counter()
    while passes == 0 or (time.perf_counter() - start) * (passes + 1) / passes <= seconds:
        for op in ops:
            try:
                args = op.prepare()
                gc.collect()
                t0 = time.perf_counter()
                result = op.call(*args)
                times.append(time.perf_counter() - t0)
            except Exception as exc:  # a failed operation is counted, not fatal
                failed += 1
                print(f"FAILED {op.label}: {type(exc).__name__}: {exc}", file=sys.stderr)
                continue
            try:
                problem = op.check(result)
            except Exception as exc:
                problem = f"check raised {type(exc).__name__}: {exc}"
            if problem:
                wrong.append(op.label)
                print(f"WRONG {op.label}: {problem}", file=sys.stderr)
        passes += 1
    return times, failed, wrong, passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "foldcodes", "__init__.py")):
        print(f"error: no foldcodes package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        tabs = tables(args.workload)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            api, ops = setup(args.workload, args.seed, workdir, tabs)
            setup_times.append(time.perf_counter() - t0)
        tracer = None
        if args.trace:
            tracer = spans.Tracer()
            try:
                api.trace(tracer)
            except spans.TraceError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
        times, failed, wrong, passes = run_passes(ops, args.seconds)

    if not times:
        print("error: no operation completed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": len(times) / sum(times), "unit": "1/s"},
            "op_p50_s": {"value": statistics.median(times), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
    else:
        try:
            metrics = tracer.metrics(passes, args.workload)
        except spans.TraceError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 3
        tracer.write(os.path.join(OUT, f"trace-{args.workload}-{args.seed}.json"))
    print(
        f"{args.workload}: {passes} passes, {len(times)} ops, "
        f"{sum(times):.2f} s in operations",
        file=sys.stderr,
    )
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(times) + failed,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
