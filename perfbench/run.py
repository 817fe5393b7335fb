"""Run one fracvar benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload line-1d --seed 1 --seconds 30 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (wall_s, setup_s, peak_rss_mb); with
``--trace 1`` they are the per-layer ones from the span tracer.  Run it
from the root of a fracvar source tree: it imports fracvar from ``src/``
and reads the shipped configs from ``configs/``.  See README.md.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

# perfbench.workloads.WORKLOADS, named here because numpy must not load
# before the BLAS thread count is set
WORKLOADS = ("line-1d", "solve-nd", "cli-3d")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="grid sizes: the measured ones, or small ones "
                             "that run every check in seconds")
    args = parser.parse_args(argv)

    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    if not os.path.isfile(os.path.join(root, "src", "fracvar", "__init__.py")):
        print(f"error: no fracvar source tree at {root}/src", file=sys.stderr)
        return 2
    # One BLAS thread: with OpenBLAS's default of one thread per core the
    # first solve is slow and timings spread; set before numpy loads.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(root, "src"), root]
    os.environ["PYTHONPATH"] = os.pathsep.join(sys.path[:2])

    import json
    import statistics
    from perfbench import harness
    from perfbench.tracer import Tracer
    import_s = time.perf_counter() - _T0

    out_dir = os.path.join(here, "out", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    try:
        workload, prep = harness.set_up(args.workload, args.seed, args.size, out_dir)
        setup_s = harness.import_time(import_s) + statistics.median(prep)
        tracer = Tracer() if args.trace else None
        records = harness.measure(workload, args.seconds, tracer)
        if tracer is not None:
            tracer.dump(os.path.join(here, "out",
                                     f"trace-{args.workload}-seed{args.seed}.jsonl"))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    harness.report_failures(records)
    walls = " ".join(f"{r.wall_s:.3f}" for r in records)
    print(f"{args.workload} seed={args.seed} passes={len(records)} "
          f"blas_threads={harness.blas_threads()} pass_wall_s=[{walls}]",
          file=sys.stderr)
    print(json.dumps(harness.result(records, setup_s)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
