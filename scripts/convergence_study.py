#!/usr/bin/env python3
"""Refinement study for the three operator kinds against closed forms.

For each operator, applied left-sided at order 1/2 to t^2 on [0, 1]:

    K  ->  2 t^{5/2} / Gamma(7/2)
    B  ->  2 t^{3/2} / Gamma(5/2)
    A  ->  2 t^{3/2} / Gamma(5/2)   (A and B agree on functions vanishing at a)

Prints max interior error and the estimated order per refinement level.
Usage: python3 scripts/convergence_study.py [--sizes 32 64 128 256 512]
"""

import argparse
import math

import numpy as np

from fracvar import (Field, OpKind, ParamSet, apply_op_nd, grid_1d,
                     interior_max_abs, make_plan, rl_kernel)


def exact_K(t: np.ndarray) -> np.ndarray:
    return 2.0 * t ** 2.5 / math.gamma(3.5)


def exact_deriv(t: np.ndarray) -> np.ndarray:
    return 2.0 * t ** 1.5 / math.gamma(2.5)


CASES = [(OpKind.K, exact_K), (OpKind.B, exact_deriv), (OpKind.A, exact_deriv)]


def study(kind: OpKind, exact, sizes) -> None:
    print(f"-- {kind.name}^0.5 on t^2, left-sided")
    prev = None
    for n in sizes:
        grid = grid_1d(0.0, 1.0, n)
        t = grid.axes[0].nodes
        pset = ParamSet(0.0, 1.0, 1.0, 0.0)
        plan = make_plan(kind, 0.5, pset, rl_kernel(), grid.axes[0], axis=0)
        out = apply_op_nd(plan, Field(grid, (t * t)[np.newaxis]))
        err = interior_max_abs(Field(grid, (out.values[0] - exact(t))[np.newaxis]))
        if prev is None:
            print(f"  n={n:5d}  err={err:.3e}")
        else:
            order = math.log(prev[0] / err) / math.log(n / prev[1])
            print(f"  n={n:5d}  err={err:.3e}  order={order:.3f}")
        prev = (err, n)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[32, 64, 128, 256, 512])
    args = parser.parse_args()
    for kind, exact in CASES:
        study(kind, exact, args.sizes)


if __name__ == "__main__":
    main()
