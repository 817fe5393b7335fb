"""The Dirichlet solve against the exact minimizer of the one-sided problem.

With p = 1, q = 0 (the left Caputo-type B), the RL kernel on [0, 1] and
the boundary values u(0) = 0, u(1) = 1, the minimizer of
J[u] = int (B^alpha u)^2 dt for alpha > 1/2 is

    u*(t) = (2 alpha - 1) / alpha * t^alpha * 2F1(1 - alpha, 1; alpha + 1; t)

with J[u*] = (2 alpha - 1) Gamma(alpha)^2.  On an n x n grid whose second
axis carries a two-sided p-set, the field u*(t1) with that boundary trace
is the minimizer too: B along the second axis annihilates it, and the
energy is J[u*] times the unit length of that axis.  The uniform-grid
error peaks next to t = 1 and falls as O(h^(2 alpha - 1)).  Each floor
below is an order measured at 1e-12 tolerance, less 0.1.

For alpha <= 1/2 the infimum is 0 and is not attained, so the discrete
minimum energy falls towards 0 as the grid is refined.
"""

import math

import mpmath
import numpy as np
import pytest

from fracvar import (DirichletSpec, Field, GridND, ParamSet, energy,
                     grid_1d, make_uniform_grid, minimize_energy, rl_kernel,
                     volume_integral)

LEFT = ParamSet(0.0, 1.0, 1.0, 0.0)
TWO_SIDED = ParamSet(0.0, 1.0, 0.6, 0.4)
TOL = 1e-12


def exact_minimizer(alpha, t):
    with mpmath.workdps(30):
        c = (2 * alpha - 1) / mpmath.mpf(alpha)
        return np.array([float(c * mpmath.mpf(x) ** alpha
                               * mpmath.hyp2f1(1 - alpha, 1, alpha + 1, x))
                         for x in t])


def spec_1d(alpha, n):
    """The 1D problem with psi = t."""
    grid = grid_1d(0.0, 1.0, n)
    return DirichletSpec(grid, [LEFT], [alpha], [rl_kernel()],
                         Field(grid, grid.axes[0].nodes), tol=TOL)


def spec_2d(alpha, n):
    """The n x n problem with psi = u*(t1), and u*(t1) on every node."""
    grid = GridND((make_uniform_grid(0.0, 1.0, n),
                   make_uniform_grid(0.0, 1.0, n)))
    exact = np.broadcast_to(
        exact_minimizer(alpha, grid.axes[0].nodes)[:, None], grid.shape)
    return DirichletSpec(grid, [LEFT, TWO_SIDED], [alpha, 0.6],
                         [rl_kernel(), rl_kernel()], Field(grid, exact),
                         tol=TOL), exact


def errors(spec, exact, alpha):
    """(max nodal error, L2 error, E_h - J*) of the discrete minimizer."""
    u = minimize_energy(spec).field
    err = u.data - exact
    return (np.max(np.abs(err)),
            math.sqrt(volume_integral(Field(spec.grid, err * err))),
            energy(spec, u) - (2 * alpha - 1) * math.gamma(alpha) ** 2)


def errors_1d(alpha, n):
    spec = spec_1d(alpha, n)
    return errors(spec, exact_minimizer(alpha, spec.grid.axes[0].nodes),
                  alpha)


def errors_2d(alpha, n):
    return errors(*spec_2d(alpha, n), alpha)


# The measured orders of (max error, L2 error, |E_h - J*|) over the two
# refinements of each sweep.
CASES = {
    "1d-0.7": (errors_1d, 0.7, (64, 256, 1024),
               ((0.36, 0.37), (0.44, 0.42), (0.35, 0.37))),
    "1d-0.9": (errors_1d, 0.9, (64, 256, 1024),
               ((0.78, 0.79), (0.80, 0.81), (0.79, 0.79))),
    "2d-0.7": (errors_2d, 0.7, (32, 64, 128),
               ((0.31, 0.33), (0.47, 0.45), (0.30, 0.33))),
    "2d-0.9": (errors_2d, 0.9, (32, 64, 128),
               ((0.73, 0.76), (0.77, 0.80), (0.75, 0.77))),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_solve_converges_to_the_exact_minimizer(case):
    errors_nd, alpha, sizes, measured = CASES[case]
    sweep = zip(*(errors_nd(alpha, n) for n in sizes))
    for errs, floors in zip(sweep, measured):
        got = [math.log(abs(e0) / abs(e1)) / math.log(n1 / n0)
               for e0, e1, n0, n1 in zip(errs, errs[1:], sizes, sizes[1:])]
        assert all(o > m - 0.1 for o, m in zip(got, floors)), (got, floors)


def test_exact_minimizer_meets_the_boundary_values():
    assert np.allclose(exact_minimizer(0.7, [0.0, 1.0]), [0.0, 1.0],
                       rtol=0.0, atol=1e-15)


def test_energy_falls_towards_zero_below_one_half():
    energies = []
    for n in (64, 256, 1024):
        spec = spec_1d(0.3, n)
        energies.append(energy(spec, minimize_energy(spec).field))
    assert energies[0] > energies[1] > energies[2] > 0.0
