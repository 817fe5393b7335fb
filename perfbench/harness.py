"""Set-up, the timed pass loop, and the result record of one benchmark run.

The loop is one closed-loop client: it issues the operations of a pass one
at a time, each after the previous one returned, and times each timed
operation alone.  After the timed span of a pass come the untimed check
operations and then every check.  Passes repeat until ``seconds`` have gone
by, so every run attempts whole passes of the same operations.
"""

from __future__ import annotations

import ctypes
import gc
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

import fracvar as fv
from perfbench.tracer import (COUNT_METRICS, PER_LAYER_UNITS, Tracer,
                              pass_metrics)
from perfbench.workloads import WORKLOADS

SETUP_REPEATS = 5


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, or None if no OpenBLAS is loaded."""
    with open("/proc/self/maps", "r", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def warm_up() -> None:
    """Touch BLAS and the operator code paths on a tiny grid."""
    a = np.random.default_rng(0).standard_normal((256, 256))
    (a @ a).sum()
    grid = fv.grid_1d(0.0, 1.0, 8)
    plan = fv.make_plan(fv.OpKind.K, 0.5, fv.ParamSet(0.0, 1.0, 0.5, 0.5),
                        fv.rl_kernel(), grid.axes[0])
    fv.apply_op_1d(plan, fv.Field(grid, np.ones(9)))


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import argparse, os, shutil, sys, "
                 "json, statistics, perfbench.harness; print(time.perf_counter() - t)")


def import_time(own_s: float) -> float:
    """Median import time of what run.py imports (numpy, fracvar and this
    package): this process's own import (``own_s``) and SETUP_REPEATS - 1
    fresh interpreters, each timed from its first statement.  One import
    alone spreads by about 30% from run to run on a busy machine."""
    times = [own_s]
    for _ in range(SETUP_REPEATS - 1):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=os.environ,
                             capture_output=True, text=True, check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def set_up(name: str, seed: int, size: str, out_dir: str):
    """Build the workload SETUP_REPEATS times; return the last one and the
    time of each build (input generation, warm-up and gc.collect())."""
    times = []
    workload = None
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload = WORKLOADS[name](seed, size, out_dir)
        warm_up()
        gc.collect()
        times.append(time.perf_counter() - start)
    return workload, times


@dataclass
class PassRecord:
    op_s: dict  # timed operation -> seconds
    traced: bool
    ops: int
    failures: dict
    peak_rss_mb: float
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(self.op_s.values())


def pass_wall(records: list[PassRecord]) -> float:
    """The wall time of one pass, as the sum over its timed operations of
    each operation's median time over the passes: a transient slowdown of
    one pass then moves only the operations it hit, and only if it hit them
    in most passes."""
    names = records[0].op_s
    return sum(statistics.median(r.op_s[name] for r in records) for name in names)


def run_pass(workload, index: int, tracer: Tracer | None) -> PassRecord:
    ops = workload.ops(index)
    results: dict = {}
    failures: dict = {}
    op_s: dict = {}
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        for op in ops:
            if not op.timed:
                continue
            start = time.perf_counter()
            try:
                results[op.name] = op.run(results)
            except Exception as exc:  # a failed operation, not a failed run
                failures[op.name] = [f"raised {exc!r}"]
            op_s[op.name] = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    layers = pass_metrics(tracer) if tracer is not None else {}
    for op in ops:
        if op.timed:
            continue
        try:
            results[op.name] = op.run(results)
        except Exception as exc:
            failures[op.name] = [f"raised {exc!r}"]
    for op in ops:
        if op.name in failures:
            continue
        try:
            msgs = op.check(results)
        except Exception as exc:
            msgs = [f"check raised {exc!r}"]
        if msgs:
            failures[op.name] = msgs
    workload.end_pass(index)
    return PassRecord(op_s, tracer is not None, len(ops), failures,
                      peak_rss_mb(), layers)


def measure(workload, seconds: float, tracer: Tracer | None = None
            ) -> list[PassRecord]:
    """Run passes until ``seconds`` have gone by, at least one.  With a
    tracer, even passes are traced and odd ones are not, and at least two
    passes run."""
    min_passes = 1 if tracer is None else 2
    records: list[PassRecord] = []
    start = time.perf_counter()
    while len(records) < min_passes or time.perf_counter() - start < seconds:
        i = len(records)
        records.append(run_pass(workload, i, tracer if i % 2 == 0 else None))
        gc.collect()
    return records


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def result(records: list[PassRecord], setup_s: float) -> dict:
    """The run's JSON record: end-to-end metrics, or after a traced run the
    per-layer ones.  Times are medians over passes (see pass_wall); counts
    and peak RSS are those of the first pass, which depend only on the seed."""
    attempted = sum(r.ops for r in records)
    failed = sum(len(r.failures) for r in records)
    if not any(r.traced for r in records):
        metrics = {
            "wall_s": (pass_wall(records), "s"),
            "setup_s": (setup_s, "s"),
            # after the first pass: later passes add heap growth that
            # depends on how many passes fit in the run
            "peak_rss_mb": (records[0].peak_rss_mb, "MB"),
        }
    else:
        traced = [r for r in records if r.traced]
        plain = [r for r in records if not r.traced]
        metrics = {}
        for name, unit in PER_LAYER_UNITS.items():
            if name == "trace.overhead_s":
                value = pass_wall(traced) - pass_wall(plain)
            elif name in COUNT_METRICS:
                value = traced[0].layers[name]
            else:
                value = statistics.median(r.layers[name] for r in traced)
            metrics[name] = (value, unit)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }


def report_failures(records: list[PassRecord], limit: int = 10) -> None:
    shown = 0
    for i, rec in enumerate(records):
        for name, msgs in rec.failures.items():
            if shown < limit:
                print(f"pass {i} {name}: {'; '.join(msgs)}", file=sys.stderr)
            shown += 1
    if shown > limit:
        print(f"... {shown - limit} more failed operations", file=sys.stderr)
