#!/usr/bin/env python3
"""Run every experiment config under configs/ and summarize pass/fail.

Usage: python3 scripts/run_all.py [--output-dir DIR] [--jobs N]
Exit status is the worst per-config status, in the order 0 (pass),
2 (tolerance failure), 1 (error): one config that cannot run outranks any
number of failed tolerances.
"""

import argparse
import pathlib
import sys

from fracvar.cli import run

# Exit statuses from best to worst.
_RANK = (0, 2, 1)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--configs", default=None,
                        help="config directory (default: configs/ beside "
                             "this script's repository root)")
    parser.add_argument("--output-dir", default=None)
    parser.add_argument("--jobs", type=int, default=1)
    args = parser.parse_args()
    if args.jobs < 1:
        parser.error("--jobs must be >= 1")

    root = pathlib.Path(args.configs) if args.configs else (
        pathlib.Path(__file__).resolve().parent.parent / "configs")
    paths = sorted(root.glob("*.json"))
    if not paths:
        print(f"no configs found under {root}", file=sys.stderr)
        return 1

    worst = 0
    for path in paths:
        print(f"=== {path.name}")
        status = run(str(path), output_dir=args.output_dir, jobs=args.jobs)
        worst = max(worst, status, key=_RANK.index)
    print(f"=== {len(paths)} configs, worst status {worst}")
    return worst


if __name__ == "__main__":
    sys.exit(main())
