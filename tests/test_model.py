"""Data model: parameter sets, kernels, grids, fields."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracvar import (Field, GridND, KernelFamily, KernelSpec, ParamSet,
                     constant_kernel, dual, grid_1d, interior_max_abs,
                     make_uniform_grid, rl_kernel, tabulated_kernel)
from fracvar.errors import DomainError, GridMismatch
from fracvar.model import check_field

finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


class TestParamSet:
    def test_stores_interval_and_weights(self):
        P = ParamSet(0.0, 1.0, 0.7, 0.3)
        assert (P.a, P.b, P.p, P.q) == (0.0, 1.0, 0.7, 0.3)

    def test_rejects_empty_interval(self):
        with pytest.raises(DomainError):
            ParamSet(1.0, 1.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            ParamSet(2.0, -1.0, 1.0, 0.0)

    @pytest.mark.parametrize("field", ["a", "b", "p", "q"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_entries(self, field, bad):
        # A NaN or infinite weight used to be accepted and fail only at an
        # apply, after numpy RuntimeWarnings.
        args = dict(a=0.0, b=1.0, p=0.5, q=0.5)
        args[field] = bad
        with pytest.raises(DomainError, match="finite"):
            ParamSet(**args)

    def test_dual_swaps_weights(self):
        P = ParamSet(0.0, 2.0, 0.25, 0.75)
        D = dual(P)
        assert (D.a, D.b, D.p, D.q) == (0.0, 2.0, 0.75, 0.25)

    @given(p=finite, q=finite)
    def test_dual_is_an_involution(self, p, q):
        P = ParamSet(0.0, 1.0, p, q)
        assert dual(dual(P)) == P


class TestKernelSpec:
    def test_rl_order_range(self):
        rl_kernel(0.5)
        rl_kernel(1.0)
        with pytest.raises(DomainError):
            rl_kernel(0.0)
        with pytest.raises(DomainError):
            rl_kernel(1.5)

    def test_rl_order_may_be_deferred(self):
        k = rl_kernel()
        assert k.order is None
        assert k.with_order(0.5).order == 0.5

    @pytest.mark.parametrize("family", ["riemann_liouville", "rl", None, 0])
    def test_family_must_be_a_kernel_family(self, family):
        # A string family used to build, and make_plan then raised a bare
        # TypeError.
        with pytest.raises(DomainError, match="KernelFamily"):
            KernelSpec(family)

    @pytest.mark.parametrize("order", ["abc", "0.5", True, False, [0.5],
                                       math.nan, 1.0 + 0.0j])
    def test_rl_order_must_be_a_real_number(self, order):
        with pytest.raises(DomainError, match="order"):
            KernelSpec(KernelFamily.RIEMANN_LIOUVILLE, order)

    @pytest.mark.parametrize("order", [np.float64(0.5), np.float32(0.25), 1,
                                       np.int64(1)])
    def test_rl_order_accepts_real_scalars(self, order):
        assert KernelSpec(KernelFamily.RIEMANN_LIOUVILLE, order).order == order

    @pytest.mark.parametrize("order", [0.5, 1.0, "abc", math.nan, True])
    def test_constant_and_tabulated_take_no_order(self, order):
        samples = np.array([[0.1, 1.0], [1.0, 1.0]])
        with pytest.raises(DomainError, match="takes no order"):
            KernelSpec(KernelFamily.CONSTANT, order)
        with pytest.raises(DomainError, match="takes no order"):
            KernelSpec(KernelFamily.TABULATED, order, samples)

    def test_samples_only_for_tabulated(self):
        with pytest.raises(DomainError):
            KernelSpec(KernelFamily.RIEMANN_LIOUVILLE, 0.5,
                       np.array([[0.1, 1.0], [1.0, 1.0]]))
        with pytest.raises(DomainError):
            KernelSpec(KernelFamily.CONSTANT, None,
                       np.array([[0.1, 1.0], [1.0, 1.0]]))

    def test_tabulated_validation(self):
        tabulated_kernel([[0.1, 1.0], [0.5, 2.0], [1.0, 0.5]])
        with pytest.raises(DomainError, match="requires samples"):
            KernelSpec(KernelFamily.TABULATED)
        with pytest.raises(DomainError):
            tabulated_kernel([[0.1, 1.0]])                       # one sample
        with pytest.raises(DomainError):
            tabulated_kernel([[0.0, 1.0], [1.0, 1.0]])           # s = 0
        with pytest.raises(DomainError):
            tabulated_kernel([[0.5, 1.0], [0.5, 2.0]])           # not increasing
        with pytest.raises(DomainError):
            tabulated_kernel([[0.1, np.inf], [1.0, 1.0]])        # non-finite

    def test_equal_tabulated_kernels_compare_and_hash_equal(self):
        samples = np.array([[0.1, 1.0], [0.5, 2.0], [1.0, 0.5]])
        first = tabulated_kernel(samples)
        equal = tabulated_kernel(samples.copy())
        assert first is not equal
        assert first == equal and hash(first) == hash(equal)
        assert len({first, equal}) == 1

    def test_kernels_differ_by_samples_family_and_order(self):
        samples = np.array([[0.1, 1.0], [0.5, 2.0], [1.0, 0.5]])
        kernel = tabulated_kernel(samples)
        other = samples.copy()
        other[1, 1] = 2.5
        assert kernel != tabulated_kernel(other)
        # Only an RL kernel carries an order, so a tabulated kernel has one
        # content and one cache key.
        with pytest.raises(DomainError, match="takes no order"):
            kernel.with_order(0.5)
        assert rl_kernel(0.5) != rl_kernel(0.25)
        assert rl_kernel(0.5) == rl_kernel(0.5)
        assert hash(rl_kernel(0.5)) == hash(rl_kernel(0.5))
        assert rl_kernel() != constant_kernel()


class TestGrids:
    def test_nodes_and_spacing(self):
        g = make_uniform_grid(0.0, 1.0, 4)
        np.testing.assert_array_equal(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert g.h == 0.25

    def test_validation(self):
        with pytest.raises(DomainError):
            make_uniform_grid(1.0, 0.0, 8)
        with pytest.raises(DomainError):
            make_uniform_grid(0.0, 1.0, 1)
        with pytest.raises(DomainError):
            make_uniform_grid(0.0, 1.0, 10 ** 6)
        with pytest.raises(DomainError, match="at least one axis"):
            GridND(())

    @pytest.mark.parametrize("axes", [(1, 2), (make_uniform_grid(0.0, 1.0, 4), None),
                                      ((0.0, 1.0, 4),)],
                             ids=["ints", "grid-and-none", "tuple"])
    def test_grid_nd_rejects_non_grid_axes(self, axes):
        # GridND((1, 2)) used to be built, and .shape then raised a bare
        # AttributeError.
        with pytest.raises(DomainError, match="Grid1D"):
            GridND(axes)

    @pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 1.0),
                                      (math.nan, 1.0), (0.0, math.nan),
                                      (-1e308, 1e308)])
    def test_rejects_non_finite_ends(self, a, b):
        # (0, inf) and (-1e308, 1e308), whose span overflows, used to build
        # NaN nodes.
        with pytest.raises(DomainError, match="finite"):
            make_uniform_grid(a, b, 4)

    @pytest.mark.parametrize("n", [4.5, 4.0, np.float64(4.0), "4", None])
    def test_rejects_non_integer_size(self, n):
        # Floats used to raise a bare TypeError from np.linspace.
        with pytest.raises(DomainError, match="integer n"):
            make_uniform_grid(0.0, 1.0, n)

    @pytest.mark.parametrize("n", [np.int64(4), np.int32(4), np.uint16(4)])
    def test_accepts_numpy_integer_size(self, n):
        assert make_uniform_grid(0.0, 1.0, n) == make_uniform_grid(0.0, 1.0, 4)

    def test_trapezoid_weights_sum_to_length(self):
        g = make_uniform_grid(0.0, 2.0, 7)
        w = g.trapezoid_weights()
        assert w.sum() == pytest.approx(2.0, rel=1e-15)
        assert w[0] == w[-1] == 0.5 * g.h

    def test_nd_shape_and_coords(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 4),
                       make_uniform_grid(0.0, 2.0, 8)))
        assert grid.ndim == 2
        assert grid.shape == (5, 9)
        c = grid.coords()
        assert c[0].shape == (5, 1)
        assert c[1].shape == (1, 9)

    def test_interior_mask(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 2),
                       make_uniform_grid(0.0, 1.0, 2)))
        mask = grid.interior_mask()
        assert mask.sum() == 1
        assert mask[1, 1]

    @pytest.mark.parametrize("sizes", [(2,), (7,), (3, 5), (4, 2, 6)])
    def test_interior_mask_is_strictly_inside_every_axis(self, sizes):
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0, n) for n in sizes))
        inside = np.logical_and.reduce(np.broadcast_arrays(
            *[(t > 0.0) & (t < 1.0) for t in grid.coords()]))
        np.testing.assert_array_equal(grid.interior_mask(), inside)


class TestField:
    def test_shape_checks(self):
        grid = grid_1d(0.0, 1.0, 4)
        Field(grid, np.zeros(5))             # implicit single component
        Field(grid, np.zeros((3, 5)))        # three components
        with pytest.raises(GridMismatch):
            Field(grid, np.zeros(6))
        with pytest.raises(GridMismatch):
            Field(grid, np.zeros((1, 2, 5)))
        with pytest.raises(DomainError, match="N >= 1"):
            Field(grid, np.zeros((0, 5)))    # no components

    def test_rejects_non_finite(self):
        grid = grid_1d(0.0, 1.0, 4)
        with pytest.raises(DomainError):
            Field(grid, np.array([0.0, 1.0, np.nan, 0.0, 1.0]))

    @pytest.mark.parametrize("values", [
        np.full((1, 5), 1j), np.full(5, 1.0 + 0j), np.array(["1"] * 5),
        np.array([b"1"] * 5), np.full(5, 1.0, dtype=object)],
        ids=["complex", "complex-zero-imag", "str", "bytes", "object"])
    def test_rejects_non_real_dtypes(self, values):
        # Complex values used to lose their imaginary part under a
        # ComplexWarning, and strings were parsed as numbers.
        with pytest.raises(DomainError, match="bool, integer or float"):
            Field(grid_1d(0.0, 1.0, 4), values)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint32, np.int64,
                                       np.float16, np.float32, np.float64])
    def test_accepts_real_dtypes(self, dtype):
        f = Field(grid_1d(0.0, 1.0, 4), np.ones(5, dtype=dtype))
        assert f.values.dtype == np.float64
        np.testing.assert_array_equal(f.values, np.ones((1, 5)))

    def test_values_are_read_only(self):
        f = Field(grid_1d(0.0, 1.0, 4), np.zeros(5))
        with pytest.raises(ValueError):
            f.values[0, 0] = 1.0

    def test_data_requires_scalar_field(self):
        grid = grid_1d(0.0, 1.0, 4)
        assert Field(grid, np.arange(5.0)).data.shape == (5,)
        with pytest.raises(DomainError):
            _ = Field(grid, np.zeros((2, 5))).data

    def test_from_function(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 2),
                       make_uniform_grid(0.0, 1.0, 2)))
        f = Field.from_function(grid, lambda t1, t2: t1 + 10.0 * t2)
        assert f.values[0, 1, 2] == pytest.approx(0.5 + 10.0)

    def test_constant(self):
        f = Field.constant(grid_1d(0.0, 1.0, 3), 2.5, ncomp=2)
        assert f.ncomp == 2
        assert np.all(f.values == 2.5)

    def test_equal_fields_compare_equal(self):
        grid = grid_1d(0.0, 1.0, 4)
        assert Field.constant(grid, 1.0) == Field.constant(grid_1d(0.0, 1.0, 4),
                                                           1.0)
        with pytest.raises(TypeError, match="unhashable"):
            hash(Field.constant(grid, 1.0))

    def test_fields_with_different_values_differ(self):
        grid = grid_1d(0.0, 1.0, 4)
        assert Field.constant(grid, 1.0) != Field.constant(grid, 2.0)
        assert Field.constant(grid, 1.0) != Field.constant(grid, 1.0, ncomp=2)
        assert Field.constant(grid, 1.0) != 1.0

    def test_fields_on_different_grids_differ(self):
        assert (Field.constant(grid_1d(0.0, 1.0, 4), 1.0)
                != Field.constant(grid_1d(0.0, 2.0, 4), 1.0))

    def test_interior_max_abs_ignores_boundary(self):
        grid = grid_1d(0.0, 1.0, 4)
        vals = np.array([100.0, 1.0, -3.0, 2.0, 100.0])
        assert interior_max_abs(Field(grid, vals)) == 3.0

    def test_check_field(self):
        f = Field.constant(grid_1d(0.0, 1.0, 4), 1.0, ncomp=2)
        check_field(f, grid_1d(0.0, 1.0, 4))
        check_field(f, grid_1d(0.0, 1.0, 4), 2)
        with pytest.raises(GridMismatch):
            check_field(f, grid_1d(0.0, 1.0, 5))
        with pytest.raises(GridMismatch, match="2 components, expected 1"):
            check_field(f, grid_1d(0.0, 1.0, 4), 1)
