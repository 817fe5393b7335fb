"""Discrete K/A/B operators: closed-form accuracy, structure, adjoints."""

import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar import (Field, GridND, OpKind, ParamSet, adjoint_apply,
                     apply_op_1d, apply_op_nd, constant_kernel, dual,
                     grid_1d, interior_max_abs, make_plan, make_uniform_grid,
                     rl_kernel, tabulated_kernel)
from fracvar.errors import (AxisError, DomainError, GridMismatch, OrderError,
                            RangeError)
from fracvar.ibp import volume_integral
from fracvar import operators
from fracvar.model import MAX_CELLS_PER_AXIS
from fracvar.operators import _cell_moments, derivative_along_axis

LEFT = ParamSet(0.0, 1.0, 1.0, 0.0)
RIGHT = ParamSet(0.0, 1.0, 0.0, 1.0)
GAMMA_15_INV = 1.1283791670955126      # 1/Gamma(1.5) = 2/sqrt(pi)


def scalar_field(grid, fn):
    return Field.from_function(grid, fn)


def max_err(f: Field, exact: np.ndarray) -> float:
    return interior_max_abs(Field(f.grid, f.values[0] - exact))


class TestPlanConstruction:
    def test_order_ranges(self):
        g = make_uniform_grid(0.0, 1.0, 8)
        make_plan(OpKind.K, 1.0, LEFT, rl_kernel(), g)
        with pytest.raises(OrderError):
            make_plan(OpKind.K, 0.0, LEFT, rl_kernel(), g)
        with pytest.raises(OrderError):
            make_plan(OpKind.K, 1.2, LEFT, rl_kernel(), g)
        with pytest.raises(OrderError):
            make_plan(OpKind.B, 1.0, LEFT, rl_kernel(), g)
        with pytest.raises(OrderError):
            make_plan(OpKind.A, 0.0, LEFT, rl_kernel(), g)

    def test_kernel_order_resolution(self):
        g = make_uniform_grid(0.0, 1.0, 8)
        # Deferred order resolves to alpha for K, 1-alpha for A/B.
        assert make_plan(OpKind.K, 0.4, LEFT, rl_kernel(), g).kernel.order == 0.4
        assert make_plan(OpKind.B, 0.4, LEFT, rl_kernel(), g).kernel.order == 0.6
        assert make_plan(OpKind.A, 0.4, LEFT, rl_kernel(), g).kernel.order == 0.6
        # A matching explicit order is accepted, a mismatch rejected.
        make_plan(OpKind.B, 0.4, LEFT, rl_kernel(0.6), g)
        with pytest.raises(OrderError):
            make_plan(OpKind.B, 0.4, LEFT, rl_kernel(0.4), g)
        with pytest.raises(OrderError):
            make_plan(OpKind.K, 0.4, LEFT, rl_kernel(0.6), g)

    def test_interval_must_match_grid(self):
        g = make_uniform_grid(0.0, 1.0, 8)
        with pytest.raises(GridMismatch):
            make_plan(OpKind.K, 0.5, ParamSet(0.0, 2.0, 1.0, 0.0),
                      rl_kernel(), g)

    def test_axis_validation(self):
        g = make_uniform_grid(0.0, 1.0, 8)
        with pytest.raises(AxisError):
            make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), g, axis=-1)
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), g, axis=1)
        f = Field(grid_1d(0.0, 1.0, 8), np.zeros(9))
        with pytest.raises(AxisError):
            apply_op_nd(plan, f)

    @pytest.mark.parametrize("kind, order, axis, error", [
        # The string fails "kind is OpKind.K", so it was built as an A/B
        # plan of effective order 1 - 0.3.
        ("K", 0.3, 0, DomainError),
        (OpKind.K, 0.3, 0.0, AxisError),
        (OpKind.K, 0.3, True, AxisError),
        (OpKind.K, "0.5", 0, OrderError),
    ], ids=["string-kind", "float-axis", "bool-axis", "string-order"])
    def test_argument_types(self, kind, order, axis, error):
        g = make_uniform_grid(0.0, 1.0, 8)
        with pytest.raises(error):
            make_plan(kind, order, LEFT, rl_kernel(), g, axis=axis)

    def test_numpy_scalar_arguments_accepted(self):
        g = make_uniform_grid(0.0, 1.0, 8)
        plan = make_plan(OpKind.K, np.float64(0.3), LEFT, rl_kernel(), g,
                         axis=np.int64(1))
        assert plan.axis == 1 and plan.order == 0.3

    def test_triangular_structure(self):
        # One-sided p-sets isolate the parts: the left integral is lower
        # triangular, the right one upper triangular.
        g = make_uniform_grid(0.0, 1.0, 16)
        for kind in (OpKind.K, OpKind.A, OpKind.B):
            left = make_plan(kind, 0.5, LEFT, rl_kernel(), g).matrix
            right = make_plan(kind, 0.5, RIGHT, rl_kernel(), g).matrix
            assert np.all(np.triu(left, 1) == 0.0)
            assert np.all(np.tril(right, -1) == 0.0)
            assert np.any(np.tril(left, -1) != 0.0)
            assert np.any(np.triu(right, 1) != 0.0)

    def test_plan_matrices_read_only(self):
        g = make_uniform_grid(0.0, 1.0, 8)
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), g)
        with pytest.raises(ValueError):
            plan.matrix[0, 0] = 1.0

    def test_plan_identity_equality_and_hash(self):
        # Equality is identity: comparing the ndarray fields would raise.
        g = make_uniform_grid(0.0, 1.0, 8)
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), g)
        assert plan == plan
        assert plan != make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), g)
        assert {plan, plan} == {plan}


class TestClosedForms:
    def test_K_of_constant_is_exact(self):
        # Product integration integrates the kernel exactly, so the image of
        # f = 1 is the cumulative kernel integral t^a/Gamma(1+a) to rounding.
        grid = grid_1d(0.0, 1.0, 64)
        t = grid.axes[0].nodes
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), grid.axes[0])
        out = apply_op_nd(plan, Field.constant(grid, 1.0))
        exact = GAMMA_15_INV * np.sqrt(t)
        assert np.max(np.abs(out.values[0] - exact)) < 1e-13

    def test_K_right_mirrors_left(self):
        grid = grid_1d(0.0, 1.0, 64)
        t = grid.axes[0].nodes
        plan = make_plan(OpKind.K, 0.5, RIGHT, rl_kernel(), grid.axes[0])
        out = apply_op_nd(plan, Field.constant(grid, 1.0))
        exact = GAMMA_15_INV * np.sqrt(1.0 - t)
        assert np.max(np.abs(out.values[0] - exact)) < 1e-13

    def test_K_order_one_is_running_integral(self):
        grid = grid_1d(0.0, 1.0, 32)
        t = grid.axes[0].nodes
        plan = make_plan(OpKind.K, 1.0, LEFT, rl_kernel(), grid.axes[0])
        out = apply_op_nd(plan, Field(grid, t))
        assert np.max(np.abs(out.values[0] - 0.5 * t * t)) < 1e-14

    def test_constant_kernel_is_running_integral(self):
        grid = grid_1d(0.0, 1.0, 32)
        t = grid.axes[0].nodes
        plan = make_plan(OpKind.K, 1.0, LEFT, constant_kernel(), grid.axes[0])
        out = apply_op_nd(plan, Field.constant(grid, 1.0))
        assert np.max(np.abs(out.values[0] - t)) < 1e-14

    def test_B_of_linear(self):
        # B^0.5 (left) of t is t^0.5/Gamma(1.5); the L1 construction is exact
        # for piecewise-linear data up to kernel-moment rounding.
        grid = grid_1d(0.0, 1.0, 64)
        t = grid.axes[0].nodes
        plan = make_plan(OpKind.B, 0.5, LEFT, rl_kernel(), grid.axes[0])
        out = apply_op_nd(plan, Field(grid, t))
        exact = GAMMA_15_INV * np.sqrt(t)
        assert np.max(np.abs(out.values[0] - exact)) < 1e-12

    def test_B_of_constant_is_exactly_zero(self):
        grid = grid_1d(0.0, 1.0, 40)
        plan = make_plan(OpKind.B, 0.3, ParamSet(0.0, 1.0, 0.6, 0.4),
                         rl_kernel(), grid.axes[0])
        out = apply_op_nd(plan, Field.constant(grid, 7.3))
        assert np.all(out.values == 0.0)

    def test_A_matches_derivative_of_K_samples_bitwise(self):
        grid = grid_1d(0.0, 1.0, 48)
        t = grid.axes[0].nodes
        f = Field(grid, np.sin(2.0 * t))
        pset = ParamSet(0.0, 1.0, 0.4, 0.6)
        a_plan = make_plan(OpKind.A, 0.3, pset, rl_kernel(), grid.axes[0])
        k_plan = make_plan(OpKind.K, 0.7, pset, rl_kernel(), grid.axes[0])
        via_a = apply_op_nd(a_plan, f).values[0]
        via_k = derivative_along_axis(apply_op_nd(k_plan, f).values,
                                      grid.axes[0], 0)[0]
        assert np.array_equal(via_a, via_k)

    def test_K_quadratic_convergence_order(self):
        errs = {}
        for n in (64, 256):
            grid = grid_1d(0.0, 1.0, n)
            t = grid.axes[0].nodes
            plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), grid.axes[0])
            out = apply_op_nd(plan, Field(grid, t * t))
            exact = 2.0 * t ** 2.5 / math.gamma(3.5)
            errs[n] = max_err(out, exact)
        order = math.log(errs[64] / errs[256]) / math.log(4.0)
        assert 1.7 <= order <= 2.2

    def test_B_quadratic_convergence_order(self):
        errs = {}
        for n in (64, 256):
            grid = grid_1d(0.0, 1.0, n)
            t = grid.axes[0].nodes
            plan = make_plan(OpKind.B, 0.5, LEFT, rl_kernel(), grid.axes[0])
            out = apply_op_nd(plan, Field(grid, t * t))
            exact = 2.0 * t ** 1.5 / math.gamma(2.5)
            errs[n] = max_err(out, exact)
        order = math.log(errs[64] / errs[256]) / math.log(4.0)
        assert 1.3 <= order <= 1.6


class TestPartialOperators:
    def test_acts_along_one_axis_only(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 16),
                       make_uniform_grid(0.0, 1.0, 12)))
        f = Field.from_function(grid, lambda t1, t2: np.sin(t2) + 0.0 * t1)
        # B along axis 0 of a field constant in t1 vanishes identically.
        plan = make_plan(OpKind.B, 0.5, LEFT, rl_kernel(), grid.axes[0], axis=0)
        assert np.all(apply_op_nd(plan, f).values == 0.0)

    def test_axis1_matches_line_by_line(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 8),
                       make_uniform_grid(0.0, 1.0, 20)))
        f = Field.from_function(grid, lambda t1, t2: np.exp(t1) * t2 * t2)
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), grid.axes[1], axis=1)
        out = apply_op_nd(plan, f)
        line_grid = grid_1d(0.0, 1.0, 20)
        line_plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(),
                              line_grid.axes[0])
        for i in (0, 3, 8):
            line = Field(line_grid, f.values[0, i])
            expect = apply_op_nd(line_plan, line).values[0]
            # Same weights, different contraction order: equal to rounding.
            np.testing.assert_allclose(out.values[0, i], expect,
                                       rtol=0.0, atol=1e-14)

    def test_apply_op_1d_guards(self):
        grid2 = GridND((make_uniform_grid(0.0, 1.0, 8),
                        make_uniform_grid(0.0, 1.0, 8)))
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), grid2.axes[0])
        with pytest.raises(GridMismatch):
            apply_op_1d(plan, Field.constant(grid2, 1.0))

    def test_grid_mismatch_detected(self):
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(),
                         make_uniform_grid(0.0, 1.0, 8))
        with pytest.raises(GridMismatch):
            apply_op_nd(plan, Field.constant(grid_1d(0.0, 1.0, 16), 1.0))


class TestTabulatedKernels:
    def rl_samples(self, order, smax, m, s0=1e-5):
        s = np.linspace(s0, smax, m)
        return np.column_stack([s, s ** (order - 1.0) / math.gamma(order)])

    def test_tracks_rl_kernel(self):
        grid = grid_1d(0.0, 1.0, 64)
        t = grid.axes[0].nodes
        kern = tabulated_kernel(self.rl_samples(0.5, 1.0, 100000))
        plan = make_plan(OpKind.K, 0.5, LEFT, kern, grid.axes[0])
        out = apply_op_nd(plan, Field(grid, t))
        exact = t ** 1.5 / math.gamma(2.5)
        # The tabulation misses the singular burst below its first sample
        # (about 2 sqrt(s_0)/sqrt(pi) of kernel mass); modest bound.
        assert max_err(out, exact) < 1e-2

    def test_gauss_nodes_are_leggauss_on_unit_interval(self):
        # Built on first use, bit for bit the nodes and weights of
        # leggauss(8) mapped to (0, 1).
        x, w = np.polynomial.legendre.leggauss(8)
        gx, gw = operators._gauss01()
        assert gx.tobytes() == (0.5 * (x + 1.0)).tobytes()
        assert gw.tobytes() == (0.5 * w).tobytes()

    def test_extended_by_first_sample_below_it(self):
        # The tabulated kernel is np.interp of its samples: on (0, s_1) it
        # takes the first sample's value, so a kernel sampled at 2 from
        # s_1 = h/2 has twice the constant kernel's cell moments.
        grid = grid_1d(0.0, 1.0, 16).axes[0]
        s = np.linspace(0.5 * grid.h, 1.0, 64)
        kern = tabulated_kernel(np.column_stack([s, np.full_like(s, 2.0)]))
        for got, unit in zip(_cell_moments(kern, grid),
                             _cell_moments(constant_kernel(), grid)):
            np.testing.assert_allclose(got, 2.0 * unit, rtol=1e-15)

    def test_resolution_too_coarse(self):
        grid = grid_1d(0.0, 1.0, 64)
        kern = tabulated_kernel(self.rl_samples(0.5, 1.0, 12))
        with pytest.raises(DomainError):
            make_plan(OpKind.K, 0.5, LEFT, kern, grid.axes[0])

    def test_range_shorter_than_span(self):
        grid = grid_1d(0.0, 1.0, 64)
        kern = tabulated_kernel(self.rl_samples(0.5, 0.5, 20000))
        with pytest.raises(RangeError):
            make_plan(OpKind.K, 0.5, LEFT, kern, grid.axes[0])


class TestAdjoint:
    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_transpose_identity_in_weighted_product(self, kind):
        # <g, M f>_w = <f, M* g>_w; B's adjoint is requested negated (it
        # realizes -A_{P*}), K's and A's are not.
        grid = grid_1d(0.0, 1.0, 48)
        t = grid.axes[0].nodes
        f = Field(grid, np.sin(3.0 * t))
        g = Field(grid, np.exp(-t))
        pset = ParamSet(0.0, 1.0, 0.7, 0.3)
        plan = make_plan(kind, 0.4, pset, rl_kernel(), grid.axes[0])
        negate = kind is OpKind.B
        lhs = volume_integral(Field(grid, g.data * apply_op_nd(plan, f).data))
        rhs = volume_integral(
            Field(grid, f.data * adjoint_apply(plan, g, negate=negate).data))
        assert lhs == pytest.approx(-rhs if negate else rhs, abs=1e-13)

    def test_negate_flag(self):
        grid = grid_1d(0.0, 1.0, 16)
        f = Field(grid, np.linspace(0.0, 1.0, 17) ** 2)
        plan = make_plan(OpKind.K, 0.5, LEFT, rl_kernel(), grid.axes[0])
        plus = adjoint_apply(plan, f, negate=False).values
        minus = adjoint_apply(plan, f, negate=True).values
        np.testing.assert_array_equal(plus, -minus)


def _reference_parts(kind, kernel, grid):
    """Reference left/right weights, assembled densely from integer node
    distance matrices and masks."""
    n, h = grid.n, grid.h
    m0, u, v = _cell_moments(kernel, grid)
    idx = np.arange(n + 1)
    dist = np.subtract.outer(idx, idx)
    L = np.zeros((n + 1, n + 1))
    if kind is OpKind.B:
        inner = (dist >= 1) & (np.arange(n + 1)[None, :] >= 1)
        m0e = np.concatenate([m0, [0.0]])
        L[inner] = (m0e[dist[inner]] - m0e[dist[inner] - 1]) / h
        L[idx[1:], idx[1:]] = m0[0] / h
        L[idx[1:], 0] = -m0[idx[1:] - 1] / h
        L[0, :] = 0.0
        return L, -L[::-1, ::-1].copy()
    w = u.copy()
    w[:-1] += v[1:]
    inner = dist >= 1
    L[inner] = w[dist[inner] - 1]
    L[idx[1:], idx[1:]] = v[0]
    L[idx[1:], 0] = u[idx[1:] - 1]
    L[0, :] = 0.0
    return L, L[::-1, ::-1].copy()


def _family_kernel(family, kind, order, n):
    """An RL, constant or tabulated RL kernel for a plan of the given kind
    and order on n cells."""
    if family == "rl":
        return rl_kernel()
    if family == "constant":
        return constant_kernel()
    eff = order if kind is OpKind.K else 1.0 - order
    s = np.linspace(1e-4, 1.0, 4 * n + 1)
    return tabulated_kernel(
        np.column_stack([s, s ** (eff - 1.0) / math.gamma(eff)]))


PSETS = [(1.0, 0.0), (0.0, 1.0), (0.6, 0.4), (-1.3, 0.7)]


def _reference_d_matrix(grid):
    """Reference dense derivative matrix of the 3-point stencil."""
    n, h = grid.n, grid.h
    D = np.zeros((n + 1, n + 1))
    rows = np.arange(1, n)
    D[rows, rows - 1] = -0.5 / h
    D[rows, rows + 1] = 0.5 / h
    D[0, 0:3] = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    D[n, n - 2:n + 1] = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    return D


def _arrays(obj) -> list:
    """The arrays an object holds, directly or in a tuple attribute."""
    return [a for v in vars(obj).values()
            for a in (v if isinstance(v, tuple) else (v,))
            if isinstance(a, np.ndarray)]


class TestRepresentation:
    @pytest.mark.parametrize("n", [8, 33, 128])
    @pytest.mark.parametrize("pq", PSETS)
    @pytest.mark.parametrize("family", ["rl", "constant", "tabulated"])
    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_matrix_matches_dense_assembly_bitwise(self, kind, family, pq, n):
        g = make_uniform_grid(0.0, 1.0, n)
        plan = make_plan(kind, 0.6, ParamSet(0.0, 1.0, *pq),
                         _family_kernel(family, kind, 0.6, n), g)
        left, right = _reference_parts(kind, plan.kernel, g)
        assert np.array_equal(plan.matrix, pq[0] * left + pq[1] * right)

    def test_plan_holds_one_array(self):
        # Until .matrix is read a plan holds only O(n) arrays: after an FFT
        # apply, the circulant data; its shared symbol holds the symbol, the
        # correction column and their spectrum.
        n = 8
        grid = grid_1d(0.0, 1.0, n)
        f = Field(grid, np.sin(grid.axes[0].nodes))
        for kind in OpKind:
            plan = make_plan(kind, 0.5, ParamSet(0.0, 1.0, 0.6, 0.4),
                             rl_kernel(), grid.axes[0])
            apply_op_nd(plan, f)
            adjoint_apply(plan, f, negate=False)
            assert "matrix" not in vars(plan)
            assert all(a.size <= 2 * (n + 1) for a in _arrays(plan))
            assert plan.matrix.shape == (n + 1, n + 1)
            assert plan.matrix is vars(plan)["matrix"]
            assert all(a.size <= 2 * (n + 1) for a in _arrays(plan.shared))

    def test_A_apply_is_one_matvec(self, monkeypatch):
        # One Toeplitz product per A apply and per A adjoint; the derivative
        # is a stencil, and one line takes the FFT, not the dense matrix.
        calls, dense = [], []
        product = operators.toeplitz_along_axis
        matvec = operators.apply_matrix_along_axis
        monkeypatch.setattr(operators, "toeplitz_along_axis",
                            lambda *a, **k: calls.append(1) or product(*a, **k))
        monkeypatch.setattr(operators, "apply_matrix_along_axis",
                            lambda *a: dense.append(1) or matvec(*a))
        grid = grid_1d(0.0, 1.0, 16)
        plan = make_plan(OpKind.A, 0.5, LEFT, rl_kernel(), grid.axes[0])
        apply_op_nd(plan, Field.constant(grid, 1.0))
        assert len(calls) == 1
        adjoint_apply(plan, Field.constant(grid, 1.0), negate=False)
        assert len(calls) == 2 and not dense

    @pytest.mark.parametrize("transpose", [False, True])
    def test_stencil_matches_dense_derivative(self, transpose):
        rng = np.random.default_rng(5)
        grids = [GridND((make_uniform_grid(0.0, 1.0, 6),
                         make_uniform_grid(-1.0, 2.0, 37))),
                 GridND((make_uniform_grid(0.0, 1.0, 5),
                         make_uniform_grid(-1.0, 2.0, 4),
                         make_uniform_grid(0.0, 0.5, 9)))]
        for grid in grids:
            vals = rng.standard_normal((2,) + grid.shape)
            for axis in range(grid.ndim):
                D = _reference_d_matrix(grid.axes[axis])
                M = D.T if transpose else D
                expect = np.moveaxis(
                    np.tensordot(M, vals, axes=([1], [axis + 1])), 0, axis + 1)
                got = derivative_along_axis(vals, grid.axes[axis], axis,
                                            transpose=transpose)
                assert got.shape == vals.shape
                scale = np.max(np.abs(expect))
                assert np.max(np.abs(got - expect)) <= 1e-13 * scale


class TestMatrixFree:
    """The FFT path of toeplitz_along_axis against the dense plan.matrix."""

    @pytest.mark.parametrize("n", [8, 33, 128, 512])
    @pytest.mark.parametrize("pq", PSETS)
    @pytest.mark.parametrize("family", ["rl", "constant", "tabulated"])
    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_fft_matches_dense_matvec(self, kind, family, pq, n):
        g = make_uniform_grid(0.0, 1.0, n)
        plan = make_plan(kind, 0.6, ParamSet(0.0, 1.0, *pq),
                         _family_kernel(family, kind, 0.6, n), g)
        x = np.random.default_rng(n).standard_normal((2, n + 1))
        fwd = operators.toeplitz_along_axis(plan, x)
        adj = operators.toeplitz_along_axis(plan, x, transpose=True)
        assert "matrix" not in vars(plan)          # two lines: the FFT path
        M = plan.matrix
        for got, dense in ((fwd, x @ M.T), (adj, x @ M)):
            assert np.max(np.abs(got - dense)) <= 1e-13 * np.max(np.abs(dense))

    @pytest.mark.parametrize("pq", PSETS)
    @pytest.mark.parametrize("family", ["rl", "constant", "tabulated"])
    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_warm_plan_equals_cold_build(self, kind, family, pq):
        # A plan served a cached symbol, which its dual filled and
        # transformed, equals a plan built on an empty cache bitwise, and
        # its FFT apply stays within 2.4e-15 of the dense product.
        n = 64
        g = make_uniform_grid(0.0, 1.0, n)
        kernel = _family_kernel(family, kind, 0.6, n)
        pset = ParamSet(0.0, 1.0, *pq)
        x = np.random.default_rng(n).standard_normal((2, n + 1))

        def build():
            plan = make_plan(kind, 0.6, pset, kernel, g)
            return plan, [operators.toeplitz_along_axis(plan, x),
                          operators.toeplitz_along_axis(plan, x, transpose=True)]

        operators._shared_symbol.cache_clear()
        cold, cold_out = build()
        operators._shared_symbol.cache_clear()
        donor = make_plan(kind, 0.6, dual(pset), kernel, g)
        operators.toeplitz_along_axis(donor, x)
        warm, warm_out = build()
        assert warm.shared is donor.shared and warm.shared is not cold.shared
        assert operators._shared_symbol.cache_info().hits == 1
        M = warm.matrix
        assert np.array_equal(M, cold.matrix)
        for got, want, dense in zip(warm_out, cold_out, (x @ M.T, x @ M)):
            assert np.array_equal(got, want)
            assert np.max(np.abs(got - dense)) <= 2.4e-15 * np.max(np.abs(dense))

    @pytest.mark.parametrize("pq", PSETS)
    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_spectrum_is_the_pset_mix(self, kind, pq):
        # p*S + sign*q*conj(S) against the rfft of the circulant's first
        # column assembled entry by entry: p*symbol[d] at d = 0..n-1 and
        # sign*q*symbol[d] at -d (mod size).
        n = 37
        plan = make_plan(kind, 0.6, ParamSet(0.0, 1.0, *pq), rl_kernel(),
                         make_uniform_grid(0.0, 1.0, n))
        size, spectrum = plan._circulant[:2]
        col = np.zeros(size)
        for d in range(n):
            col[d] += pq[0] * plan.shared.symbol[d]
            col[-d % size] += plan.shared.sign * pq[1] * plan.shared.symbol[d]
        want = np.fft.rfft(col)
        assert np.max(np.abs(spectrum - want)) <= 1e-15 * np.max(np.abs(want))

    def test_tabulated_symbols_keyed_by_content(self):
        n = 16
        g = make_uniform_grid(0.0, 1.0, n)
        s = np.linspace(0.01, 1.0, 4 * n + 1)
        first = tabulated_kernel(np.column_stack([s, np.exp(-s)]))
        equal = tabulated_kernel(np.column_stack([s, np.exp(-s)]))
        other = tabulated_kernel(np.column_stack([s, np.exp(-2.0 * s)]))
        plan = make_plan(OpKind.K, 0.5, LEFT, first, g)
        assert make_plan(OpKind.K, 0.5, RIGHT, equal, g).shared is plan.shared
        distinct = make_plan(OpKind.K, 0.5, LEFT, other, g)
        assert distinct.shared is not plan.shared
        assert not np.array_equal(distinct.shared.symbol, plan.shared.symbol)

    def test_equal_tabulated_kernels_key_one_entry(self):
        # Two equal kernel objects built apart are one cache key: the second
        # plan is a hit on the first plan's entry.
        n = 16
        g = make_uniform_grid(0.0, 1.0, n)
        s = np.linspace(0.01, 1.0, 4 * n + 1)
        kernels = [tabulated_kernel(np.column_stack([s, np.exp(-s)]))
                   for _ in range(2)]
        assert kernels[0] is not kernels[1]
        operators._shared_symbol.cache_clear()
        plans = [make_plan(OpKind.K, 0.5, LEFT, k, g) for k in kernels]
        assert plans[1].shared is plans[0].shared
        info = operators._shared_symbol.cache_info()
        assert (info.hits, info.misses, info.currsize) == (1, 1, 1)

    def test_shared_symbols_are_bounded(self):
        # More distinct operators than the cache keeps: the cache stays at
        # its bound, and no symbol holds more than O(n) elements, even after
        # its plan's dense matrix is built.
        n = 32
        grid = grid_1d(0.0, 1.0, n)
        f = Field(grid, grid.axes[0].nodes)
        bound = operators._shared_symbol.cache_info().maxsize
        for order in np.linspace(0.1, 0.9, bound + 5):
            for kind in OpKind:
                plan = make_plan(kind, order, LEFT, rl_kernel(), grid.axes[0])
                apply_op_1d(plan, f)
                assert plan.matrix.shape == (n + 1, n + 1)
                assert all(a.size <= 2 * (n + 1) for a in _arrays(plan.shared))
        assert operators._shared_symbol.cache_info().currsize <= bound <= 16

    @pytest.mark.parametrize("family", ["rl", "constant", "tabulated"])
    def test_a_and_b_share_cell_moments(self, family, monkeypatch):
        # A and B plans of order 0.3 read the kernel at effective order 0.7:
        # one moment computation serves both symbols (and K of order 0.7),
        # and each plan equals its cold build bitwise.
        n = 40
        g = make_uniform_grid(0.0, 1.0, n)
        kernel = _family_kernel(family, OpKind.B, 0.3, n)
        orders = {OpKind.A: 0.3, OpKind.B: 0.3, OpKind.K: 0.7}
        cold = {}
        for kind, order in orders.items():
            operators._shared_symbol.cache_clear()
            cold[kind] = make_plan(kind, order, RIGHT, kernel, g)
        calls = []
        moments = operators._cell_moments

        def counting(*args):
            calls.append(1)
            return moments(*args)
        monkeypatch.setattr(operators, "_cell_moments", counting)
        operators._shared_symbol.cache_clear()
        plans = {kind: make_plan(kind, order, RIGHT, kernel, g)
                 for kind, order in orders.items()}
        assert len(calls) == 1
        assert plans[OpKind.A].shared is plans[OpKind.K].shared
        assert plans[OpKind.B].shared is not plans[OpKind.A].shared
        for kind, plan in plans.items():
            assert np.array_equal(plan.shared.symbol, cold[kind].shared.symbol)
            assert np.array_equal(plan.shared.column0,
                                  cold[kind].shared.column0)
            assert plan.shared.sign == cold[kind].shared.sign
            assert np.array_equal(plan.matrix, cold[kind].matrix)

    def test_threads_share_symbols(self):
        # Threads that build and apply the same operators on an empty cache,
        # switching often, all get the serial result bitwise.
        n = 48
        grid = grid_1d(0.0, 1.0, n)
        f = Field(grid, np.random.default_rng(7).standard_normal(n + 1))
        cases = [(kind, order, pq) for kind in OpKind for order in (0.3, 0.7)
                 for pq in PSETS]

        def run():
            return [apply_op_nd(make_plan(kind, order, ParamSet(0.0, 1.0, *pq),
                                          rl_kernel(), grid.axes[0]), f).values
                    for kind, order, pq in cases]

        want = run()
        operators._shared_symbol.cache_clear()
        results = [None] * 8
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=lambda i=i: results.__setitem__(i, run()))
                       for i in range(len(results))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert got is not None
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_batched_dense_matches_line_fft(self, kind):
        # 31 lines of 25 nodes take the dense matrix; each line alone takes
        # the FFT.  Forward and adjoint agree line by line to rounding.
        n = 24
        grid = GridND((make_uniform_grid(0.0, 1.0, 30),
                       make_uniform_grid(0.0, 1.0, n)))
        f = Field(grid, np.random.default_rng(3).standard_normal(grid.shape))
        pset = ParamSet(0.0, 1.0, 0.7, -0.3)
        plan = make_plan(kind, 0.4, pset, rl_kernel(), grid.axes[1], axis=1)
        batched = (apply_op_nd(plan, f).values[0],
                   adjoint_apply(plan, f, negate=False).values[0])
        assert "matrix" in vars(plan)
        line_grid = grid_1d(0.0, 1.0, n)
        line_plan = make_plan(kind, 0.4, pset, rl_kernel(), line_grid.axes[0])
        for i in range(grid.shape[0]):
            line = Field(line_grid, f.values[0, i])
            lines = (apply_op_nd(line_plan, line).values[0],
                     adjoint_apply(line_plan, line, negate=False).values[0])
            for got, want in zip(lines, batched):
                scale = np.max(np.abs(want[i]))
                assert np.max(np.abs(got - want[i])) <= 1e-13 * scale
        assert "matrix" not in vars(line_plan)

    def test_no_quadratic_memory(self):
        # At the grid cap one dense plan would be (n+1)^2 doubles, 134 MB.
        n = MAX_CELLS_PER_AXIS
        grid = grid_1d(0.0, 1.0, n)
        t = grid.axes[0].nodes
        f = Field(grid, np.stack([np.sin(t), t]))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for kind in OpKind:
                plan = make_plan(kind, 0.5, ParamSet(0.0, 1.0, 0.6, 0.4),
                                 rl_kernel(), grid.axes[0])
                apply_op_1d(plan, f)
                adjoint_apply(plan, f, negate=False)
                assert "matrix" not in vars(plan)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20


    # Along the long axis of (30, 3, 4) and its turns, and along axis 0 of
    # (8, 6) and (24, 20), one component takes the FFT product; two
    # components and every other axis take the dense one.
    @pytest.mark.parametrize("N", [1, 2])
    @pytest.mark.parametrize("cells", [(8, 6), (6, 8), (24, 20), (40, 40),
                                       (30, 3, 4), (3, 30, 4), (4, 3, 30),
                                       (12, 10, 14)],
                             ids=lambda c: "x".join(map(str, c)))
    @pytest.mark.parametrize("kind", list(OpKind), ids=lambda k: k.value)
    def test_products_do_not_depend_on_layout(self, kind, cells, N):
        # C-order values, F-order values and a strided view of the same
        # values give the same bits along every axis, forward and
        # transposed, in toeplitz_along_axis and the private operator pair.
        shape = (N,) + tuple(n + 1 for n in cells)
        x = np.random.default_rng(sum(shape)).standard_normal(shape)
        wide = np.zeros(shape[:-1] + (2 * shape[-1],))
        wide[..., ::2] = x
        layouts = [np.asfortranarray(x), wide[..., ::2]]
        pset = ParamSet(0.0, 1.0, 0.6, 0.4)
        for axis, n in enumerate(cells):
            plan = make_plan(kind, 0.4, pset, rl_kernel(),
                             make_uniform_grid(0.0, 1.0, n), axis=axis)
            products = (
                lambda v: operators.toeplitz_along_axis(plan, v),
                lambda v: operators.toeplitz_along_axis(plan, v, True),
                lambda v: operators._apply(plan, v),
                lambda v: operators._adjoint(plan, v))
            for product in products:
                want = product(x)
                for y in layouts:
                    np.testing.assert_array_equal(product(y), want)


def _tensordot_along_axis(M, values, axis):
    """The tensordot-and-moveaxis form of a matrix on every line along
    axis (component axis 0 excluded)."""
    return np.moveaxis(np.tensordot(M, values, axes=([1], [axis + 1])), 0,
                       axis + 1)


class TestApplyMatrixAlongAxis:
    @pytest.mark.parametrize("shape", [(9,), (9, 12), (7, 10, 8)],
                             ids=["1-axis", "2-axis", "3-axis"])
    @pytest.mark.parametrize("ncomp", [1, 2])
    @pytest.mark.parametrize("sliced", [False, True],
                             ids=["contiguous", "sliced"])
    @pytest.mark.parametrize("form", ["M", "M.T", "rows"])
    def test_matches_tensordot(self, shape, ncomp, sliced, form):
        # One matmul on a (pre, n, post) view against tensordot: bitwise on
        # the last axis and, for one component, on the first; elsewhere a
        # batched product may round differently, within 4 eps.
        rng = np.random.default_rng(len(shape) + 10 * ncomp)
        if sliced:
            big = rng.standard_normal((ncomp,) + tuple(2 * m for m in shape))
            values = big[(slice(None),) + (slice(1, None, 2),) * len(shape)]
        else:
            values = rng.standard_normal((ncomp,) + shape)
        assert values.flags.c_contiguous is not sliced
        for axis, n in enumerate(shape):
            square = rng.standard_normal((n, n))
            M = {"M": square, "M.T": square.T,
                 "rows": rng.standard_normal((n - 2, n))}[form]
            got = operators.apply_matrix_along_axis(M, values, axis)
            want = _tensordot_along_axis(M, values, axis)
            assert got.shape == want.shape
            if axis == len(shape) - 1 or (axis == 0 and ncomp == 1):
                np.testing.assert_array_equal(got, want)
            else:
                eps = np.finfo(float).eps
                assert (np.max(np.abs(got - want))
                        <= 4.0 * eps * np.max(np.abs(want)))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       kind=st.sampled_from([OpKind.K, OpKind.A, OpKind.B]),
       order=st.floats(0.1, 0.9),
       p=st.floats(0.0, 1.0), q=st.floats(0.0, 1.0))
def test_operator_linearity(seed, kind, order, p, q):
    rng = np.random.default_rng(seed)
    grid = grid_1d(0.0, 1.0, 24)
    plan = make_plan(kind, order, ParamSet(0.0, 1.0, p, q), rl_kernel(),
                     grid.axes[0])
    f = Field(grid, rng.standard_normal(25))
    g = Field(grid, rng.standard_normal(25))
    c1, c2 = rng.uniform(-2.0, 2.0, size=2)
    combo = Field(grid, c1 * f.values + c2 * g.values)
    lhs = apply_op_nd(plan, combo).values
    rhs = (c1 * apply_op_nd(plan, f).values
           + c2 * apply_op_nd(plan, g).values)
    scale = max(1.0, np.max(np.abs(lhs)))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       order=st.floats(0.1, 0.9),
       p=st.floats(-1.5, 1.5), q=st.floats(-1.5, 1.5))
def test_combined_integral_l1_bound(seed, order, p, q):
    # Young's inequality: ||K f||_1 <= (|p| + |q|) ||k||_1 ||f||_1, where
    # the power kernel has ||k||_{L1(0, b-a)} = (b-a)^order / Gamma(1+order).
    rng = np.random.default_rng(seed)
    grid = grid_1d(0.0, 1.0, 48)
    plan = make_plan(OpKind.K, order, ParamSet(0.0, 1.0, p, q), rl_kernel(),
                     grid.axes[0])
    f = Field(grid, rng.standard_normal(49))
    w = grid.axes[0].trapezoid_weights()
    norm_in = float(w @ np.abs(np.ravel(f.values)))
    norm_out = float(w @ np.abs(np.ravel(apply_op_nd(plan, f).values)))
    kernel_mass = 1.0 / math.gamma(1.0 + order)
    excess = norm_out - (abs(p) + abs(q)) * kernel_mass * norm_in
    assert excess <= 1e-10 * max(1.0, norm_in)
