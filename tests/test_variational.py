"""Lagrangians, functional evaluation, Euler-Lagrange and wave residuals."""

import itertools
import tracemalloc

import numpy as np
import pytest

from fracvar import (BUILTIN_LAGRANGIANS, DirichletSpec, Field, GridND,
                     Lagrangian, OpKind, ParamSet, ProblemSpec, bvp_residual,
                     constant_kernel, dirichlet_energy_lagrangian, el_residual,
                     el_residual_mixed, evaluate_functional,
                     frac_wave_lagrangian, grid_1d,
                     integral_coupling_lagrangian, interior_max_abs,
                     make_uniform_grid, rl_kernel, tabulated_kernel,
                     volume_integral, wave_lagrangian, wave_residual)
from fracvar.errors import (BoundaryViolation, DomainError,
                            GradientCheckError, GridMismatch, LengthMismatch)
from fracvar import variational
from fracvar.model import check_admissible
from fracvar.noether import (SymmetryGenerator, chain_identity_residual,
                             invariance_residual, noether_residual)

LEFT = ParamSet(0.0, 1.0, 1.0, 0.0)
SYM = ParamSet(0.0, 1.0, 0.5, 0.5)


def coupled_lagrangian(n, read_only):
    """F = sum_k (u_k^2 + sum_i (v[k][i]^2 + u_k w[k][i])), built with
    Lagrangian.define.  With read_only its four outputs are read-only:
    F, dF/du and dF/dv frozen with setflags, dF/dw a broadcast view of u;
    otherwise all four are fresh writeable arrays."""
    def out(value):
        value = np.array(value)
        value.setflags(write=not read_only)
        return value

    def d_w(t, u, v, w):
        view = np.broadcast_to(u[:, np.newaxis], w.shape)
        return view if read_only else view.copy()

    return Lagrangian.define(
        n, 1,
        eval_fn=lambda t, u, v, w: out(
            np.sum(u * u, axis=0)
            + np.sum(v * v + u[:, np.newaxis] * w, axis=(0, 1))),
        d_u=lambda t, u, v, w: out(2.0 * u + np.sum(w, axis=1)),
        d_v=lambda t, u, v, w: out(2.0 * v),
        d_w=d_w,
        name="coupled")


def spec_1d(n, lagrangian=None, pset1=SYM, pset2=LEFT, alpha=0.5, beta=0.5):
    grid = grid_1d(0.0, 1.0, n)
    lag = lagrangian if lagrangian is not None else dirichlet_energy_lagrangian(1)
    return ProblemSpec(grid, lag, [pset1], [pset2], [alpha], [beta],
                       [rl_kernel()], [rl_kernel()])


class TestLagrangian:
    def test_builtins_build(self):
        assert set(BUILTIN_LAGRANGIANS) == {
            "dirichlet_energy", "wave", "frac_wave", "integral_coupling"}
        for name, factory in BUILTIN_LAGRANGIANS.items():
            lag = factory(2)
            assert lag.n == 2
            assert lag.name == name

    def test_gradient_check_rejects_wrong_partial(self):
        with pytest.raises(GradientCheckError):
            Lagrangian.define(
                1, 1,
                eval_fn=lambda t, u, v, w: np.sum(v * v, axis=(0, 1)),
                d_u=lambda t, u, v, w: np.zeros_like(u),
                d_v=lambda t, u, v, w: 3.0 * v,      # should be 2v
                d_w=lambda t, u, v, w: np.zeros_like(w),
                name="broken")

    def test_gradient_check_rejects_nan_partial(self):
        # NaN > rtol is False, so an all-NaN partial used to pass.
        with pytest.raises(GradientCheckError, match="partial"):
            Lagrangian.define(
                1, 1,
                eval_fn=lambda t, u, v, w: np.sum(v * v, axis=(0, 1)),
                d_u=lambda t, u, v, w: np.full(u.shape, np.nan),
                d_v=lambda t, u, v, w: 2.0 * v,
                d_w=lambda t, u, v, w: np.zeros_like(w),
                name="nan")

    @pytest.mark.parametrize("factory, kwargs", [
        (wave_lagrangian, {"rho": np.nan}),
        (wave_lagrangian, {"rho": -1.0}),
        (frac_wave_lagrangian, {"stiffness": np.inf}),
        (wave_lagrangian, {"rho": "1"}),
        (frac_wave_lagrangian, {"rho": True}),
        (wave_lagrangian, {"stiffness": np.True_}),
        (frac_wave_lagrangian, {"stiffness": 10 ** 400})],
        ids=["wave-rho-nan", "wave-rho-negative", "frac-wave-stiffness-inf",
             "wave-rho-str", "frac-wave-rho-bool", "wave-stiffness-np-bool",
             "frac-wave-stiffness-huge"])
    def test_wave_lagrangians_require_finite_positive_coefficients(
            self, factory, kwargs):
        with pytest.raises(DomainError, match="finite and positive"):
            factory(2, **kwargs)

    @pytest.mark.parametrize("n, N", [(True, 1), (1.5, 1), (1, 0), (0, 1),
                                      (1, True), (2, 1.0), ("1", 1)],
                             ids=repr)
    @pytest.mark.parametrize("factory", [dirichlet_energy_lagrangian,
                                         integral_coupling_lagrangian])
    def test_dimensions_must_be_positive_integers(self, factory, n, N):
        # A bool or float raised a bare TypeError, and N = 0 built a
        # Lagrangian with no components.
        with pytest.raises(DomainError, match="integers n >= 1 and N >= 1"):
            factory(n, N)

    def test_spec_validates_lengths(self):
        grid = grid_1d(0.0, 1.0, 8)
        lag = dirichlet_energy_lagrangian(1)
        with pytest.raises(LengthMismatch):
            ProblemSpec(grid, lag, [SYM, SYM], [LEFT], [0.5], [0.5],
                        [rl_kernel()], [rl_kernel()])
        with pytest.raises(LengthMismatch):
            ProblemSpec(grid, dirichlet_energy_lagrangian(2), [SYM], [LEFT],
                        [0.5], [0.5], [rl_kernel()], [rl_kernel()])

    def test_boundary_trace_enforced(self):
        grid = grid_1d(0.0, 1.0, 8)
        t = grid.axes[0].nodes
        psi = Field(grid, t)
        spec = ProblemSpec(grid, dirichlet_energy_lagrangian(1), [SYM], [LEFT],
                           [0.5], [0.5], [rl_kernel()], [rl_kernel()],
                           boundary=psi)
        evaluate_functional(spec, Field(grid, t))          # matching trace
        with pytest.raises(BoundaryViolation):
            evaluate_functional(spec, Field(grid, t + 1.0))


class TestCheckAdmissible:
    @pytest.mark.parametrize("ns", [(6,), (5, 7), (4, 6, 5)],
                             ids=["1d", "2d", "3d"])
    def test_every_face_edge_and_corner_checked(self, ns):
        # Each coordinate at its first node, a middle node or its last
        # node: every pattern but all-middle is a boundary node (a face
        # node, an edge node or a corner), and all-middle is interior.
        d = len(ns)
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0 + i, n)
                            for i, n in enumerate(ns)))
        psi = Field.from_function(
            grid, lambda *t: [np.cos(sum(t)), np.prod(t, axis=0)], ncomp=2)
        spec = ProblemSpec(grid, dirichlet_energy_lagrangian(d, N=2),
                           [SYM] * d, [LEFT] * d, [0.5] * d, [0.5] * d,
                           [rl_kernel()] * d, [rl_kernel()] * d,
                           boundary=psi)
        check_admissible(spec, psi)
        delta = 3.25e-9
        for k, node in enumerate(itertools.product(
                *[(0, n // 2, n) for n in ns])):
            vals = psi.values.copy()
            vals[(k % 2,) + node] += delta
            field = Field(grid, vals)
            if all(0 < j < n for j, n in zip(node, ns)):
                check_admissible(spec, field)
                continue
            with pytest.raises(BoundaryViolation,
                               match=f"by {delta:.3e} "):
                check_admissible(spec, field)


class TestFunctional:
    def test_dirichlet_energy_value(self):
        # With the plain running integral (order-1 K in the B block the
        # derivative reduces to), easier: evaluate directly against quadrature
        # of (B u)^2 computed by hand through the operator itself.
        from fracvar import OpKind, apply_op_nd, make_plan
        spec = spec_1d(32)
        grid = spec.grid
        t = grid.axes[0].nodes
        u = Field(grid, np.sin(np.pi * t))
        bu = apply_op_nd(spec.b_plans()[0], u).values[0]
        expect = volume_integral(Field(grid, bu * bu))
        assert evaluate_functional(spec, u) == pytest.approx(expect, rel=1e-14)

    def test_adding_constant_shifts_functional_not_residual(self):
        base = dirichlet_energy_lagrangian(1)
        shifted = Lagrangian(
            1, 1,
            eval_fn=lambda t, u, v, w: base.eval_fn(t, u, v, w) + 5.0,
            d_u=base.d_u, d_v=base.d_v, d_w=base.d_w, name="shifted")
        s1, s2 = spec_1d(32, base), spec_1d(32, shifted)
        u = Field(s1.grid, np.sin(np.pi * s1.grid.axes[0].nodes))
        assert evaluate_functional(s2, u) - evaluate_functional(s1, u) == \
            pytest.approx(5.0, rel=1e-12)
        np.testing.assert_array_equal(el_residual(s1, u).values,
                                      el_residual(s2, u).values)


class TestElResidual:
    def test_first_variation_orientation(self):
        # J is quadratic for the Dirichlet integrand, so the central
        # difference of J along an admissible direction is exact and must
        # equal <eta, el> in the trapezoid inner product.
        spec = spec_1d(48, pset1=ParamSet(0.0, 1.0, 0.7, 0.3), alpha=0.4)
        grid = spec.grid
        t = grid.axes[0].nodes
        u = Field(grid, t * (1.0 - t) + 0.3 * np.sin(2.0 * t))
        eta = Field(grid, np.sin(np.pi * t) * t)
        eps = 1e-4
        jp = evaluate_functional(spec, Field(grid, u.values + eps * eta.values))
        jm = evaluate_functional(spec, Field(grid, u.values - eps * eta.values))
        fd = (jp - jm) / (2.0 * eps)
        el = el_residual(spec, u)
        pairing = volume_integral(Field(grid, eta.data * el.data))
        assert fd == pytest.approx(pairing, rel=1e-8)

    # 8x6 mixes the FFT and dense products; 40x40 takes the dense product
    # on every axis.
    @pytest.mark.parametrize("cells", [(64,), (16,), (8, 6), (6, 8), (24, 20),
                                       (20, 24), (40, 40), (12, 10, 14),
                                       (14, 10, 12)],
                             ids=lambda c: "x".join(map(str, c)))
    def test_quadratic_energy_el_is_minus_twice_bvp(self, cells):
        # For F = |v|^2 the first-variation density equals -2x the strong
        # BVP residual; the shared transpose realization makes the relation
        # exact in floating point, on every grid.
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0, n) for n in cells))
        d = grid.ndim
        u = Field(grid, np.random.default_rng(11).standard_normal(grid.shape))
        pset, alpha = ParamSet(0.0, 1.0, 0.6, 0.4), 0.4
        spec = ProblemSpec(grid, dirichlet_energy_lagrangian(d), [pset] * d,
                           [LEFT] * d, [alpha] * d, [0.5] * d,
                           [rl_kernel()] * d, [rl_kernel()] * d)
        dspec = DirichletSpec(grid, [pset] * d, [alpha] * d,
                              [rl_kernel()] * d, u)
        el = el_residual(spec, u).values
        bvp = bvp_residual(dspec, u).values
        assert np.array_equal(el, -2.0 * bvp)

    def test_integral_coupling_uses_dual_K(self):
        # For F = u . w the density is K_{P*} u + K_P u appearing through
        # d_u = w; check the K-block term enters with a plus sign.
        from fracvar import OpKind, apply_op_nd, dual, make_plan
        spec = spec_1d(32, integral_coupling_lagrangian(1),
                       pset2=ParamSet(0.0, 1.0, 0.3, 0.7), beta=0.6)
        grid = spec.grid
        t = grid.axes[0].nodes
        u = Field(grid, np.cos(t))
        el = el_residual(spec, u).values[0]
        kp = spec.k_plans()[0]
        kdp = make_plan(OpKind.K, spec.betas[0], dual(spec.psets2[0]),
                        spec.kernels_beta[0], grid.axes[0])
        expect = (apply_op_nd(kp, u).values[0]
                  + apply_op_nd(kdp, u).values[0])
        np.testing.assert_allclose(el, expect, rtol=0.0, atol=1e-14)

    @pytest.mark.parametrize("residual, lagrangian", [
        (el_residual, dirichlet_energy_lagrangian),
        (el_residual_mixed, wave_lagrangian)], ids=["el", "mixed"])
    def test_3d_peak_memory(self, residual, lagrangian):
        # The v and w blocks are released before the adjoint loop.  Peak
        # traced memory in units of one 25^3 field: 17.8 while they stayed
        # alive through it, 13.0 without them.
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0, 24) for _ in range(3)))
        spec = ProblemSpec(grid, lagrangian(3), [SYM] * 3, [LEFT] * 3,
                           [0.5] * 3, [0.5] * 3, [rl_kernel()] * 3,
                           [rl_kernel()] * 3)
        u = Field.from_function(grid, lambda t1, t2, t3: np.sin(t1) + t2 * t3)
        residual(spec, u)
        tracemalloc.start()
        try:
            residual(spec, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 15.0 * u.values.nbytes

    def test_3d_dirichlet_peak_memory(self):
        # The constant partials of the Dirichlet integrand are broadcast
        # views and dF/du is copied only after the blocks are released: the
        # call peaks at 9 fields of 33^3 nodes above its baseline (the v and
        # w blocks and dF/dv, 3 fields each), not 13.
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0, 32) for _ in range(3)))
        spec = ProblemSpec(grid, dirichlet_energy_lagrangian(3), [SYM] * 3,
                           [LEFT] * 3, [0.5] * 3, [0.5] * 3,
                           [rl_kernel()] * 3, [rl_kernel()] * 3)
        u = Field.from_function(grid, lambda t1, t2, t3: np.sin(t1) + t2 * t3)
        el_residual(spec, u)
        tracemalloc.start()
        try:
            el_residual(spec, u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.0 * u.values.nbytes

    def test_read_only_partials_give_the_same_bits(self):
        # fracvar never writes into a callback output, so a Lagrangian may
        # return read-only arrays and broadcast views; every residual is
        # then bitwise that of the same Lagrangian returning fresh arrays.
        grid = GridND((make_uniform_grid(0.0, 1.0, 12),
                       make_uniform_grid(0.0, 1.0, 9)))
        u = Field.from_function(grid, lambda t1, t2: np.cos(t1 + 2.0 * t2))
        gen = SymmetryGenerator(lambda t, u: np.sin(t[0]) + 0.5 * u, "mix")
        results = []
        for read_only in (False, True):
            spec = ProblemSpec(grid, coupled_lagrangian(2, read_only),
                               [SYM, LEFT], [LEFT, SYM], [0.5, 0.4],
                               [0.3, 0.6], [rl_kernel()] * 2,
                               [rl_kernel()] * 2)
            results.append([
                el_residual(spec, u).values.tobytes(),
                el_residual_mixed(spec, u).values.tobytes(),
                noether_residual(spec, u, gen).values.tobytes(),
                invariance_residual(spec, u, gen).values.tobytes(),
                np.float64(chain_identity_residual(spec, u, gen)).tobytes(),
                np.float64(evaluate_functional(spec, u)).tobytes()])
        assert results[0] == results[1]

    def test_mixed_variant_tracks_wave_residual(self):
        # el_residual_mixed of the wave integrand and -2x wave_residual are
        # independent realizations of the same density; away from the ends
        # they agree to O(h).
        diffs = []
        for n in (32, 64):
            grid = GridND((make_uniform_grid(0.0, 1.0, n),
                           make_uniform_grid(0.0, 1.0, n)))
            u = Field.from_function(
                grid, lambda t, x: np.sin(np.pi * t) * np.sin(np.pi * x) * t)
            spec = ProblemSpec(grid, wave_lagrangian(2), [LEFT, LEFT],
                               [LEFT, LEFT], [0.5, 0.5], [0.5, 0.5],
                               [rl_kernel()] * 2, [rl_kernel()] * 2)
            elm = el_residual_mixed(spec, u).values[0]
            wav = wave_residual(u, 1.0, 1.0, (LEFT, 0.5, rl_kernel())).values[0]
            k = max(2, n // 16)
            sl = (slice(k, -k), slice(1, -1))
            diffs.append(np.max(np.abs(elm[sl] + 2.0 * wav[sl])))
        assert diffs[0] < 0.5
        assert 1.6 <= diffs[0] / diffs[1] <= 2.4


def wave_kernel(family):
    """A kernel of the named family; the tabulated one, e^-s sampled every
    0.0025 on [0.005, 3], resolves grids of spacing >= 0.01 and span <= 3."""
    if family == "rl":
        return rl_kernel()
    if family == "constant":
        return constant_kernel()
    s = np.linspace(0.005, 3.0, 1199)
    return tabulated_kernel(np.column_stack([s, np.exp(-s)]))


class TestWaveResidual:
    def grid2(self, n):
        return GridND((make_uniform_grid(0.0, 1.0, n),
                       make_uniform_grid(0.0, 1.0, n)))

    @staticmethod
    def assert_frac_wave_identity(rng, cells, families):
        """On a random field with random p-sets, orders, kernels of the
        given families and coefficients, el_residual of the fully fractional
        wave integrand equals -2x the wave residual in value."""
        d = len(cells)
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0 + 0.5 * i, n)
                            for i, n in enumerate(cells)))
        psets = [ParamSet(0.0, 1.0 + 0.5 * i, p, 1.0 - p)
                 for i, p in enumerate(rng.uniform(0.0, 1.0, d))]
        orders = rng.uniform(0.1, 0.9, d).tolist()
        kernels = [wave_kernel(family) for family in families]
        rho, stiffness = rng.uniform(0.5, 2.0, 2).tolist()
        u = Field(grid, rng.standard_normal(grid.shape))
        spec = ProblemSpec(grid, frac_wave_lagrangian(d, rho, stiffness),
                           psets, psets, orders, orders, kernels, kernels)
        ops = list(zip(psets, orders, kernels))
        wave = wave_residual(u, rho, stiffness, ops[0], ops[1:]).values
        assert np.array_equal(el_residual(spec, u).values, -2.0 * wave), cells

    # Both orientations of non-square 2D grids, 3D grids, and grids whose
    # axes take the FFT and the dense products.
    @pytest.mark.parametrize("cells", [(24, 20), (20, 24), (8, 6), (6, 8),
                                       (7, 9, 5), (12, 10, 14), (40, 40)],
                             ids=lambda c: "x".join(map(str, c)))
    @pytest.mark.parametrize("families", [("rl", "constant", "tabulated"),
                                          ("tabulated", "rl", "constant"),
                                          ("constant", "tabulated", "rl")],
                             ids="-".join)
    def test_frac_wave_el_is_minus_twice_wave_residual(self, cells, families):
        # A_{P*} is minus the transpose of the B plan in both residuals, so
        # the identity holds with p-sets, orders and kernels that differ
        # per axis.
        self.assert_frac_wave_identity(np.random.default_rng(sum(cells)),
                                       cells, families[:len(cells)])

    def test_frac_wave_identity_on_random_grids(self):
        rng = np.random.default_rng(27)
        families = ("rl", "constant", "tabulated")
        for _ in range(30):
            d = int(rng.integers(2, 4))
            self.assert_frac_wave_identity(
                rng, rng.integers(4, 25, d).tolist(),
                [families[k] for k in rng.integers(0, 3, d)])

    @pytest.mark.parametrize("fractional_space", [False, True],
                             ids=["classical", "fractional"])
    @pytest.mark.parametrize("cells", [(8, 6), (7, 9, 5)],
                             ids=lambda c: "x".join(map(str, c)))
    def test_one_b_plan_per_operator_axis(self, monkeypatch, cells,
                                          fractional_space):
        # A_{P*} is the transpose of the B plan: no A plan is built, and
        # classical space needs the time axis's plan only.
        kinds = []
        make_plan = variational.make_plan

        def counting(kind, *args, **kwargs):
            kinds.append(kind)
            return make_plan(kind, *args, **kwargs)

        monkeypatch.setattr(variational, "make_plan", counting)
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0, n) for n in cells))
        u = Field(grid, np.random.default_rng(3).standard_normal(grid.shape))
        space = ([(SYM, 0.4, rl_kernel())] * (len(cells) - 1)
                 if fractional_space else None)
        wave_residual(u, 1.0, 1.0, (LEFT, 0.5, rl_kernel()), space)
        assert kinds == [OpKind.B] * (len(cells) if fractional_space else 1)

    def test_constant_field_exactly_zero(self):
        u = Field.constant(self.grid2(24), 3.25)
        res = wave_residual(u, 1.0, 1.0, (LEFT, 0.5, rl_kernel()))
        assert np.all(res.values == 0.0)

    def test_constant_field_fractional_space_exactly_zero(self):
        u = Field.constant(self.grid2(24), -1.7)
        res = wave_residual(u, 1.0, 1.0, (LEFT, 0.5, rl_kernel()),
                            [(SYM, 0.5, rl_kernel())])
        assert np.all(res.values == 0.0)

    def test_linear_dyadic_field_exactly_zero(self):
        # Affine in space with dyadic coefficients on a power-of-two grid:
        # all first differences are the identical float, so the second
        # difference vanishes exactly; the time operator sees a constant.
        grid = self.grid2(32)
        u = Field.from_function(grid, lambda t, x: 0.25 + 1.5 * x + 0.0 * t)
        res = wave_residual(u, 2.0, 0.5, (LEFT, 0.5, rl_kernel()))
        assert np.all(res.values == 0.0)

    def test_parameter_validation(self):
        u = Field.constant(self.grid2(8), 1.0)
        with pytest.raises(DomainError):
            wave_residual(u, 0.0, 1.0, (LEFT, 0.5, rl_kernel()))
        with pytest.raises(DomainError):
            wave_residual(u, 1.0, -1.0, (LEFT, 0.5, rl_kernel()))
        with pytest.raises(LengthMismatch):
            wave_residual(u, 1.0, 1.0, (LEFT, 0.5, rl_kernel()),
                          [(SYM, 0.5, rl_kernel())] * 2)
        u4 = Field.constant(GridND((make_uniform_grid(0.0, 1.0, 2),) * 4), 1.0)
        with pytest.raises(DomainError, match="up to 2 space axes"):
            wave_residual(u4, 1.0, 1.0, (LEFT, 0.5, rl_kernel()))

    @pytest.mark.parametrize("rho, stiffness", [
        (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf),
        ("1", 1.0), (True, 1.0), (None, 1.0), (1.0, 10 ** 400)],
        ids=["rho-nan", "stiffness-nan", "rho-inf", "stiffness-inf",
             "rho-str", "rho-bool", "rho-none", "stiffness-huge"])
    def test_non_finite_parameters_rejected(self, rho, stiffness):
        # NaN passed "<= 0" and failed later as a non-finite field; inf
        # first made numpy warn of inf * 0; a string or None raised a bare
        # TypeError, True built and 10**400 raised OverflowError.
        u = Field.constant(self.grid2(8), 1.0)
        with pytest.raises(DomainError, match="finite and positive"):
            wave_residual(u, rho, stiffness, (LEFT, 0.5, rl_kernel()))

    def test_short_space_axis_rejected(self):
        # The classical second derivative's end rows read four nodes.
        grid = GridND((make_uniform_grid(0.0, 1.0, 8),
                       make_uniform_grid(0.0, 1.0, 2)))
        u = Field.constant(grid, 1.0)
        with pytest.raises(DomainError, match="axis 1"):
            wave_residual(u, 1.0, 1.0, (LEFT, 0.5, rl_kernel()))
