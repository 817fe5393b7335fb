"""Integration-by-parts identities: duality of K and the full B/A identity."""

import numpy as np
import pytest

from fracvar import (Field, GridND, ParamSet, boundary_integral,
                     check_K_duality, check_ibp, grid_1d, make_uniform_grid,
                     rl_kernel, tabulated_kernel, volume_integral)
from fracvar.errors import AxisError, DomainError

PSET = ParamSet(0.0, 1.0, 0.6, 0.4)


def make_pair(n, f_fn, eta_fn):
    grid = grid_1d(0.0, 1.0, n)
    t = grid.axes[0].nodes
    return (Field(grid, f_fn(t)), Field(grid, eta_fn(t)))


class TestIntegrals:
    def test_volume_integral_of_constant(self):
        grid = GridND((make_uniform_grid(0.0, 2.0, 6),
                       make_uniform_grid(0.0, 3.0, 9)))
        assert volume_integral(Field.constant(grid, 1.5)) == pytest.approx(9.0)

    def test_boundary_integral_1d(self):
        grid = grid_1d(0.0, 1.0, 8)
        t = grid.axes[0].nodes
        g = Field(grid, t * t + 1.0)
        assert boundary_integral(g, 0) == pytest.approx(1.0)   # g(1) - g(0)

    def test_boundary_integral_2d_face(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 6),
                       make_uniform_grid(0.0, 1.0, 40)))
        f = Field.from_function(grid, lambda t1, t2: t1 + t2 * t2)
        # Faces t1 = 1 and t1 = 0 both carry int (t1 + t2^2) dt2.
        assert boundary_integral(f, 0) == pytest.approx(1.0, abs=1e-3)

    def test_axis_range(self):
        g = Field.constant(grid_1d(0.0, 1.0, 8), 1.0)
        with pytest.raises(AxisError):
            boundary_integral(g, 1)
        for axis in (1, -1):
            with pytest.raises(AxisError):
                check_K_duality(g, g, PSET, 0.5, rl_kernel(), axis)
            with pytest.raises(AxisError):
                check_ibp(g, g, PSET, 0.5, rl_kernel(), axis)


class TestKDuality:
    def test_residual_decreases(self):
        reports = []
        for n in (64, 128, 256):
            f, eta = make_pair(n, lambda t: np.sin(2.0 * t),
                               lambda t: np.cos(t))
            reports.append(check_K_duality(f, eta, PSET, 0.4, rl_kernel(), 0))
        res = [r.residual for r in reports]
        assert res[0] < 1e-3
        assert res[0] / res[1] >= 2.0
        assert res[1] / res[2] >= 2.0
        assert reports[-1].boundary_term == 0.0
        assert reports[-1].grid_n == 256

    def test_both_sides_agree_on_value(self):
        f, eta = make_pair(128, lambda t: t, lambda t: 1.0 - t)
        rep = check_K_duality(f, eta, PSET, 0.5, rl_kernel(), 0)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-3)
        assert rep.residual_rel < 1e-3

    def test_along_second_axis(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 24),
                       make_uniform_grid(0.0, 1.0, 96)))
        f = Field.from_function(grid, lambda t1, t2: np.sin(np.pi * t1) * t2)
        eta = Field.from_function(grid, lambda t1, t2: t1 + np.cos(t2))
        rep = check_K_duality(f, eta, PSET, 0.4, rl_kernel(), 1)
        assert rep.residual < 1e-3

    def test_rejects_multicomponent(self):
        grid = grid_1d(0.0, 1.0, 8)
        f = Field.constant(grid, 1.0, ncomp=2)
        with pytest.raises(DomainError):
            check_K_duality(f, f, PSET, 0.5, rl_kernel(), 0)


class TestFullIbp:
    def test_zero_trace_kills_boundary_term(self):
        f, eta = make_pair(128, lambda t: t * t, lambda t: t * (1.0 - t))
        rep = check_ibp(f, eta, PSET, 0.5, rl_kernel(), 0)
        assert rep.boundary_term == 0.0
        assert rep.residual < 1e-3

    def test_residual_halves_under_refinement(self):
        res = []
        for n in (64, 128, 256):
            f, eta = make_pair(n, lambda t: t * t, lambda t: t * (1.0 - t))
            res.append(check_ibp(f, eta, PSET, 0.5, rl_kernel(), 0).residual)
        assert res[0] / res[1] >= 2.0
        assert res[1] / res[2] >= 2.0

    def test_nonzero_trace_boundary_term(self):
        # eta = t leaves the t = 1 face alive; the boundary term converges to
        # the K-image of f there and the identity still closes.
        vals = []
        for n in (128, 256):
            f, eta = make_pair(n, lambda t: t * t, lambda t: t)
            rep = check_ibp(f, eta, ParamSet(0.0, 1.0, 0.0, 1.0), 0.5,
                            rl_kernel(), 0)
            assert rep.boundary_term != 0.0
            vals.append(rep.residual)
        assert vals[0] / vals[1] >= 2.0

    def test_tabulated_flags_unverified(self):
        s = np.linspace(1e-5, 1.0, 100000)
        kern = tabulated_kernel(np.column_stack([s, np.sqrt(1.0 / s)]))
        f, eta = make_pair(64, lambda t: t, lambda t: t * (1.0 - t))
        rep = check_K_duality(f, eta, PSET, 0.5, kern, 0)
        assert rep.unverified_hypotheses
        rep2 = check_K_duality(f, eta, PSET, 0.5, rl_kernel(), 0)
        assert not rep2.unverified_hypotheses
