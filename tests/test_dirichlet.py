"""Dirichlet energy minimization: CG solver, principle, uniqueness."""

import functools
import math

import numpy as np
import pytest

import fracvar.dirichlet
from fracvar import (DirichletSpec, Field, GridND, ParamSet, bvp_residual,
                     constant_kernel, energy, grid_1d, interior_max_abs,
                     make_uniform_grid, minimize_energy, rl_kernel,
                     tabulated_kernel, transfinite_init)
from fracvar.errors import (BoundaryViolation, DegenerateEnergy, DomainError,
                            FracvarError, GridMismatch, LengthMismatch,
                            NoConvergence)
from fracvar.operators import (adjoint_apply, apply_matrix_along_axis,
                               apply_op_nd, toeplitz_along_axis)

SYM = ParamSet(0.0, 1.0, 0.5, 0.5)


def spec_1d(n, psi_fn, pset=SYM, alpha=0.5, **kw):
    grid = grid_1d(0.0, 1.0, n)
    psi = Field(grid, psi_fn(grid.axes[0].nodes))
    return DirichletSpec(grid, [pset], [alpha], [rl_kernel()], psi, **kw)


def spec_2d(n, psi_fn, alpha=0.5, **kw):
    grid = GridND((make_uniform_grid(0.0, 1.0, n),
                   make_uniform_grid(0.0, 1.0, n)))
    psi = Field.from_function(grid, psi_fn)
    return DirichletSpec(grid, [SYM, SYM], [alpha, alpha],
                         [rl_kernel(), rl_kernel()], psi, **kw)


def weight_tensor(grid):
    """The tensor-product trapezoid weights over all nodes."""
    return functools.reduce(np.multiply.outer,
                            [ax.trapezoid_weights() for ax in grid.axes])


def interior_system(spec):
    """The interior Hessian and right-hand side of the discrete energy,
    assembled column by column from the full-grid gradient
    2 sum_i M_i^T omega M_i u."""
    grid = spec.grid
    omega = weight_tensor(grid)
    interior = grid.interior_mask()
    mats = [np.asarray(bp.matrix) for bp in spec.b_plans()]

    def grad(u):
        g = np.zeros(grid.shape)
        for i, M in enumerate(mats):
            mu = apply_matrix_along_axis(M, u[np.newaxis], i)[0]
            g += apply_matrix_along_axis(M.T, (omega * mu)[np.newaxis], i)[0]
        return 2.0 * g

    m = int(interior.sum())
    A = np.zeros((m, m))
    for j in range(m):
        buf = np.zeros(grid.shape)
        buf[interior] = np.eye(m)[j]
        A[:, j] = grad(buf)[interior]
    u_bnd = np.where(interior, 0.0, spec.boundary.values[0])
    return A, -grad(u_bnd)[interior]


class TestSpecValidation:
    def test_lengths(self):
        grid = grid_1d(0.0, 1.0, 8)
        psi = Field.constant(grid, 0.0)
        with pytest.raises(GridMismatch):
            DirichletSpec(grid, [SYM, SYM], [0.5], [rl_kernel()], psi)

    @pytest.mark.parametrize("name", ["psets", "alphas", "kernels"])
    def test_per_axis_length_mismatch(self, name):
        # ProblemSpec raises LengthMismatch for the same fault.
        grid = grid_1d(0.0, 1.0, 8)
        args = {"psets": [SYM], "alphas": [0.5], "kernels": [rl_kernel()]}
        args[name] = args[name] * 2
        with pytest.raises(LengthMismatch, match=name):
            DirichletSpec(grid, boundary=Field.constant(grid, 0.0), **args)

    def test_equal_specs_compare_equal(self):
        # Built apart: equal boundary fields and equal tabulated kernels.
        grid = grid_1d(0.0, 1.0, 8)
        samples = np.column_stack([np.linspace(0.01, 1.0, 40),
                                   np.linspace(1.0, 0.5, 40)])

        def build(value):
            return DirichletSpec(grid, [SYM], [0.5],
                                 [tabulated_kernel(samples.copy())],
                                 Field.constant(grid, value))

        assert build(1.0) == build(1.0)
        assert build(1.0) != build(2.0)

    def test_scalar_only(self):
        grid = grid_1d(0.0, 1.0, 8)
        psi = Field.constant(grid, 0.0, ncomp=2)
        with pytest.raises(GridMismatch):
            DirichletSpec(grid, [SYM], [0.5], [rl_kernel()], psi)

    @pytest.mark.parametrize("max_iter", [-3, -1, 2.0, 1.5, True, False,
                                          "10"])
    def test_max_iter_must_be_a_nonnegative_integer(self, max_iter):
        # max_iter=-3 was accepted, and the solve then reported hitting the
        # "iteration cap -3".
        with pytest.raises(DomainError, match="max_iter"):
            spec_1d(8, lambda t: t, max_iter=max_iter)

    @pytest.mark.parametrize("max_iter", [None, 0, 5, np.int64(5)])
    def test_max_iter_accepted(self, max_iter):
        assert spec_1d(8, lambda t: t, max_iter=max_iter).max_iter == max_iter

    @pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0, True,
                                     np.True_, "1e-10"])
    def test_tol_must_be_positive_and_finite(self, tol):
        # A NaN or infinite tol stopped CG before its first iteration; True
        # was taken as tol 1, and a string raised a bare TypeError.
        with pytest.raises(DomainError, match="tol"):
            spec_1d(8, lambda t: t, tol=tol)

    def test_init_boundary_enforced(self):
        spec = spec_1d(16, lambda t: t)
        bad = Field(spec.grid, np.zeros(17))
        with pytest.raises(BoundaryViolation):
            minimize_energy(spec, bad)


class TestTransfiniteInit:
    def test_1d_is_linear_blend(self):
        grid = grid_1d(0.0, 1.0, 8)
        t = grid.axes[0].nodes
        psi = Field(grid, np.where(t > 0.5, 2.0, -1.0))   # psi(0)=-1, psi(1)=2
        init = transfinite_init(grid, psi)
        np.testing.assert_allclose(init.values[0], -1.0 + 3.0 * t, atol=1e-14)

    @pytest.mark.parametrize("ndim, fn", [
        (2, lambda t1, t2: 1.0 + t1 - 2.0 * t2 + 3.0 * t1 * t2),
        (3, lambda t1, t2, t3: (1.0 + t1 - 2.0 * t2 + 3.0 * t1 * t2 + 0.5 * t3
                                - t1 * t3 + 2.0 * t2 * t3
                                - 1.5 * t1 * t2 * t3)),
    ], ids=["bilinear-2d", "trilinear-3d"])
    def test_reproduces_multilinear(self, ndim, fn):
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0 + i, 6 - i)
                            for i in range(ndim)))
        psi = Field.from_function(grid, fn)
        init = transfinite_init(grid, psi)
        np.testing.assert_allclose(init.values, psi.values, atol=1e-13)

    @pytest.mark.parametrize("axes", [
        [(0.0, 1.0, 5), (0.0, 1.0, 7)],
        [(-0.3, 0.7, 5), (0.1, 2.9, 7), (1.0, 1.3, 3)]], ids=["2d", "3d"])
    def test_boundary_nodes_exact(self, axes):
        grid = GridND(tuple(make_uniform_grid(*ax) for ax in axes))
        psi = Field.from_function(
            grid, lambda *t: np.sin(sum((i + 1) * x for i, x in enumerate(t))))
        init = transfinite_init(grid, psi)
        mask = ~grid.interior_mask()
        np.testing.assert_array_equal(init.values[0][mask], psi.values[0][mask])

    @pytest.mark.parametrize("axes", [
        [(0.0, 1.0, 9), (-0.5, 2.0, 12)],
        [(-0.3, 0.7, 5), (0.1, 2.9, 7), (1.0, 1.3, 3)],
        [(0.0, 1.0, 10), (0.0, 1.0, 10), (0.0, 1.0, 10)],
        [(0.0, 1.0, 256), (-1.0, 3.0, 200)],
        [(0.0, 1.0, 40), (-1.0, 1.0, 44), (0.5, 2.0, 36)]],
        ids=["2d", "3d", "3d-cube", "2d-blocks", "3d-blocks"])
    def test_matches_blend_formula(self, axes):
        # The product form I - prod_i (I - P_i), each blend formed as
        # (1 - t) lo + t hi over the whole grid: the sweep in blocks of
        # axis-0 slabs (several on the larger grids) gives the same values
        # bitwise.
        grid = GridND(tuple(make_uniform_grid(*ax) for ax in axes))
        vals = np.random.default_rng(len(axes)).standard_normal(grid.shape)
        d = grid.ndim
        rest = vals
        for i, ax in enumerate(grid.axes):
            shape = [1] * d
            shape[i] = ax.n + 1
            t = ((ax.nodes - ax.a) / (ax.b - ax.a)).reshape(shape)
            lo = np.take(rest, [0], axis=i)
            hi = np.take(rest, [-1], axis=i)
            rest = rest - ((1.0 - t) * lo + t * hi)
        init = transfinite_init(grid, Field(grid, vals[np.newaxis]))
        np.testing.assert_array_equal(init.values[0], vals - rest)

    @pytest.mark.parametrize("psi_grid, ncomp", [
        ([(0.0, 1.0, 6), (0.0, 1.0, 9)], 1),     # another shape
        ([(0.0, 1.0, 6), (0.0, 2.0, 8)], 1),     # same shape, another interval
        ([(0.0, 1.0, 6), (0.0, 1.0, 8)], 2),     # two components
    ], ids=["shape", "interval", "components"])
    def test_rejects_psi_off_grid(self, psi_grid, ncomp):
        grid = GridND((make_uniform_grid(0.0, 1.0, 6),
                       make_uniform_grid(0.0, 1.0, 8)))
        other = GridND(tuple(make_uniform_grid(*ax) for ax in psi_grid))
        psi = Field.constant(other, 1.0, ncomp=ncomp)
        with pytest.raises(GridMismatch):
            transfinite_init(grid, psi)


class TestBvpResidual:
    @pytest.mark.parametrize("name", ["1d-two-sided-rl", "2d-two-sided-rl",
                                      "3d-two-sided"])
    @pytest.mark.parametrize("field", ["random", "constant"])
    def test_equals_sum_of_adjoint_products(self, name, field, monkeypatch):
        # The array-level sum equals the sum of the public adjoint products
        # bitwise, signed zeros included (B of a constant is exactly 0), and
        # builds one Field: the result.
        spec = anisotropic_spec(ONE_D.get(name) or ANISOTROPIC[name])
        if field == "constant":
            u = Field.constant(spec.grid, 1.7)
        else:
            u = Field(spec.grid, np.random.default_rng(9).standard_normal(
                spec.grid.shape))
        want = sum(adjoint_apply(bp, apply_op_nd(bp, u), negate=True).values
                   for bp in spec.b_plans())
        built = []
        post_init = Field.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)
        monkeypatch.setattr(Field, "__post_init__", counting)
        got = bvp_residual(spec, u)
        assert len(built) == 1
        np.testing.assert_array_equal(got.values, want)
        np.testing.assert_array_equal(np.signbit(got.values), np.signbit(want))

    def test_rejects_vector_field(self):
        spec = spec_1d(8, lambda t: t)
        with pytest.raises(GridMismatch):
            bvp_residual(spec, Field.constant(spec.grid, 1.0, ncomp=2))


class TestMinimization:
    def test_zero_boundary_gives_zero_field(self):
        spec = spec_1d(32, lambda t: 0.0 * t)
        result = minimize_energy(spec)
        assert energy(spec, result.field) <= 1e-12
        assert np.max(np.abs(result.field.values)) <= 1e-10

    def test_converges_and_reports(self):
        spec = spec_1d(64, lambda t: t, tol=1e-10)
        result = minimize_energy(spec)
        assert result.gradient_norm <= 1e-10
        assert result.iterations >= 1
        # Boundary trace preserved exactly.
        assert result.field.values[0, 0] == 0.0
        assert result.field.values[0, -1] == 1.0

    def test_interior_bvp_residual_is_half_gradient(self):
        spec = spec_1d(48, lambda t: t * t, tol=1e-11)
        result = minimize_energy(spec)
        assert interior_max_abs(bvp_residual(spec, result.field)) <= spec.tol

    def test_2d_solve(self):
        spec = spec_2d(16, lambda t1, t2: t1 + t2, tol=1e-10)
        result = minimize_energy(spec)
        assert result.gradient_norm <= 1e-10
        assert interior_max_abs(bvp_residual(spec, result.field)) <= 1e-9

    def test_energy_monotone_in_iterations(self):
        spec = spec_1d(48, lambda t: np.sin(3.0 * t), tol=1e-14)
        energies = []
        for k in (1, 2, 4, 8, 16):
            capped = DirichletSpec(spec.grid, spec.psets, spec.alphas,
                                   spec.kernels, spec.boundary, tol=1e-14,
                                   max_iter=k)
            try:
                field = minimize_energy(capped).field
            except NoConvergence as nc:
                field = nc.best
            energies.append(energy(spec, field))
        for a, b in zip(energies, energies[1:]):
            assert b <= a + 1e-12

    def test_minimizer_beats_perturbations(self):
        spec = spec_1d(48, lambda t: t)
        u = minimize_energy(spec).field
        e0 = energy(spec, u)
        rng = np.random.default_rng(3)
        interior = spec.grid.interior_mask()
        for _ in range(5):
            vals = u.values[0].copy()
            vals[interior] += 0.1 * rng.standard_normal(interior.sum())
            assert energy(spec, Field(spec.grid, vals)) >= e0

    def test_interior_operator_positive_definite(self):
        # Assemble the quadratic form on the interior unknowns explicitly and
        # check its spectrum; positive definiteness is what CG relies on.
        A, _ = interior_system(spec_2d(6, lambda t1, t2: 0.0 * t1))
        eigs = np.linalg.eigvalsh(0.5 * (A + A.T))
        assert np.all(eigs > 0.0)

    def test_degenerate_energy_warns(self):
        spec = spec_1d(16, lambda t: t, pset=ParamSet(0.0, 1.0, 0.0, 0.0))
        with pytest.warns(DegenerateEnergy):
            result = minimize_energy(spec)
        assert result.iterations == 0

    def test_no_convergence_carries_best(self):
        # One preconditioned step reaches the rounding floor (about 1e-14
        # here), so only a tol below it forces the cap.
        spec = spec_1d(64, lambda t: t, tol=1e-30, max_iter=1)
        with pytest.raises(NoConvergence) as exc:
            minimize_energy(spec)
        assert exc.value.best is not None
        assert exc.value.iterations == 1
        assert np.isfinite(exc.value.gradient_norm)

    def test_indefinite_direction_raises(self, monkeypatch):
        # Negated Gram rows make the Hessian negative definite; the
        # preconditioner is built from the blocks negated back, so it stays
        # positive definite: pAp < 0 at the first step.
        gram_rows = fracvar.dirichlet._gram_rows
        fast_diagonalization = fracvar.dirichlet._fast_diagonalization
        monkeypatch.setattr(fracvar.dirichlet, "_gram_rows",
                            lambda *args: [-g for g in gram_rows(*args)])
        monkeypatch.setattr(fracvar.dirichlet, "_fast_diagonalization",
                            lambda ts: fast_diagonalization([-t for t in ts]))
        with pytest.raises(FracvarError, match="not positive definite"):
            minimize_energy(spec_1d(16, lambda t: np.sin(3.0 * t)))

    # L2 orders of u_n - u_2n (psi = t, p = 0.6, RL kernel) from the
    # differences at n = 128, 256 and 512, as measured: alpha = 0.7: 0.855,
    # 0.812; alpha = 0.9: 1.003, 0.964.  Each bound is the smaller order
    # minus a margin of 0.15.  For alpha <= 1/2 the minimizers need not
    # converge (no H^alpha traces).
    @pytest.mark.parametrize("alpha, min_order", [(0.7, 0.65), (0.9, 0.8)])
    def test_self_convergence_for_alpha_above_one_half(self, alpha,
                                                       min_order):
        pset = ParamSet(0.0, 1.0, 0.6, 0.4)
        sizes = [128, 256, 512, 1024]
        sols = [minimize_energy(spec_1d(n, lambda t: t, pset=pset,
                                        alpha=alpha)).field.values[0]
                for n in sizes]
        diffs = []
        for n, coarse, fine in zip(sizes, sols, sols[1:]):
            d = coarse - fine[::2]
            w = make_uniform_grid(0.0, 1.0, n).trapezoid_weights()
            diffs.append(math.sqrt(np.sum(w * d * d)))
        orders = np.log2(np.array(diffs[:-1]) / np.array(diffs[1:]))
        assert np.all(orders >= min_order), orders


_S = np.linspace(0.01, 2.0, 200)
TAB = tabulated_kernel(np.column_stack([_S, np.exp(-_S)]))

# Per axis: (a, b, n, p, q, alpha, kernel).  Different n and intervals per
# axis give different scale factors c_i = 2 prod_{l != i} h_l.
ANISOTROPIC = {
    "2d-two-sided-rl": [(0.0, 1.0, 10, 0.6, 0.4, 0.5, rl_kernel()),
                        (-0.5, 1.5, 14, 0.3, 0.7, 0.7, rl_kernel())],
    "2d-one-axis-zero": [(0.0, 1.0, 12, 0.5, 0.5, 0.5, rl_kernel()),
                         (0.0, 2.0, 9, 0.0, 0.0, 0.5, rl_kernel())],
    "3d-one-sided": [(0.0, 1.0, 6, 1.0, 0.0, 0.4, rl_kernel()),
                     (0.0, 2.0, 8, 0.0, 1.0, 0.6, constant_kernel()),
                     (-1.0, 0.5, 5, 1.0, 0.0, 0.5, TAB)],
    "3d-two-sided": [(0.0, 1.0, 7, 0.7, 0.3, 0.5, TAB),
                     (0.0, 1.5, 5, 0.4, 0.6, 0.3, constant_kernel()),
                     (0.5, 1.0, 6, 0.5, 0.5, 0.8, rl_kernel())],
}


ONE_D = {"1d-two-sided-rl": [(0.0, 1.0, 40, 0.7, 0.3, 0.5, rl_kernel())]}


def anisotropic_spec(axes, tol=1e-12):
    grid = GridND(tuple(make_uniform_grid(a, b, n) for a, b, n, *_ in axes))
    psi = Field.from_function(
        grid, lambda *t: sum(np.sin(1.0 + (i + 1) * x) for i, x in enumerate(t))
        + np.prod(t, axis=0))
    return DirichletSpec(grid, [ParamSet(a, b, p, q) for a, b, _, p, q, *_ in axes],
                         [ax[5] for ax in axes], [ax[6] for ax in axes], psi,
                         tol=tol)


def assert_matches_dense_solve(spec, result):
    A, b = interior_system(spec)
    expected = np.linalg.solve(A, b)
    got = result.field.values[0][spec.grid.interior_mask()]
    np.testing.assert_allclose(got, expected, rtol=0.0,
                               atol=1e-11 * np.max(np.abs(expected)))


class TestFastDiagonalization:
    @pytest.mark.parametrize("name", sorted(ANISOTROPIC))
    def test_matches_dense_interior_solve(self, name):
        spec = anisotropic_spec(ANISOTROPIC[name])
        result = minimize_energy(spec)
        assert result.iterations <= 2
        assert result.gradient_norm <= spec.tol
        assert_matches_dense_solve(spec, result)

    def test_nonpositive_denominator_falls_back_to_plain_cg(self, monkeypatch):
        # Negated eigenvalues stand in for a degenerate axis operator: every
        # denominator sum_i c_i lambda_i is then negative.
        eigh = np.linalg.eigh

        def negated(t):
            lam, vecs = eigh(t)
            return -lam, vecs
        monkeypatch.setattr(np.linalg, "eigh", negated)
        spec = anisotropic_spec(ANISOTROPIC["2d-one-axis-zero"])
        result = minimize_energy(spec)
        # Axis 1 has p = q = 0, so the Hessian c_0 (T_0 x I) has n_0 - 1
        # distinct eigenvalues, and plain CG ends within that many steps.
        assert 2 < result.iterations <= spec.grid.axes[0].n - 1
        assert result.gradient_norm <= spec.tol
        assert_matches_dense_solve(spec, result)

    @pytest.mark.parametrize("name", ["2d-two-sided-rl", "3d-two-sided"])
    def test_one_gradient_per_iteration(self, name, monkeypatch):
        # The gradient applies one Gram matrix per axis, and so does each
        # Hessian product: ndim products for the initial residual and ndim
        # per CG step.
        calls = []
        wrapped = fracvar.dirichlet.apply_matrix_along_axis

        def counting(*args, **kwargs):
            calls.append(1)
            return wrapped(*args, **kwargs)
        monkeypatch.setattr(fracvar.dirichlet, "apply_matrix_along_axis",
                            counting)
        spec = anisotropic_spec(ANISOTROPIC[name])
        result = minimize_energy(spec)
        assert result.iterations >= 1
        assert len(calls) == spec.grid.ndim * (1 + result.iterations)

    @pytest.mark.parametrize("axes", list(ANISOTROPIC.values()) + [
        [(0.0, 1.0, 40, 0.7, 0.3, 0.5, rl_kernel())]],
        ids=list(ANISOTROPIC) + ["1d-two-sided-rl"])
    def test_gram_gradient_matches_full_grid_gradient(self, axes):
        # The full-grid gradient 2 sum_i M_i^T omega M_i u, applied forward
        # and transposed, against its Gram form on interior nodes.
        spec = anisotropic_spec(axes)
        grid, plans = spec.grid, spec.b_plans()
        u = np.random.default_rng(5).standard_normal(grid.shape)
        omega = weight_tensor(grid)
        full = np.zeros(grid.shape)
        for bp in plans:
            mu = toeplitz_along_axis(bp, u[np.newaxis])[0]
            full += toeplitz_along_axis(bp, (omega * mu)[np.newaxis],
                                        transpose=True)[0]
        expected = (2.0 * full)[(slice(1, -1),) * grid.ndim]
        got = fracvar.dirichlet._interior_gradient(
            fracvar.dirichlet._gram_rows(grid, plans), u)
        assert got.shape == expected.shape
        assert (np.max(np.abs(got - expected))
                <= 1e-13 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("ndim, n", [(1, 64), (1, 256), (1, 1024),
                                         (2, 32), (3, 12)])
    def test_iterations_flat_in_n(self, ndim, n):
        axes = [(0.0, 1.0, n, p, 1.0 - p, alpha, rl_kernel())
                for p, alpha in [(0.6, 0.5), (0.3, 0.6), (0.5, 0.4)][:ndim]]
        spec = anisotropic_spec(axes, tol=1e-10)
        result = minimize_energy(spec)
        assert result.iterations <= 2
        assert result.gradient_norm <= spec.tol
        assert interior_max_abs(bvp_residual(spec, result.field)) <= spec.tol


class TestUniqueness:
    @pytest.mark.parametrize("name", ["1d-two-sided-rl", "2d-two-sided-rl",
                                      "3d-two-sided"])
    def test_different_inits_agree(self, name):
        # The minimizer is unique: two solves from random inits agree.
        spec = anisotropic_spec(ONE_D.get(name) or ANISOTROPIC[name],
                                tol=1e-10)
        interior = spec.grid.interior_mask()
        rng = np.random.default_rng(13)
        solutions = []
        for _ in range(2):
            vals = transfinite_init(spec.grid, spec.boundary).values[0].copy()
            vals[interior] += rng.standard_normal(interior.sum())
            solutions.append(
                minimize_energy(spec, Field(spec.grid, vals)).field.values)
        assert (np.max(np.abs(solutions[0] - solutions[1]))
                <= 100.0 * spec.tol)
