"""Symmetry generators, invariance, brackets, and the Noether chain identity."""

import numpy as np
import pytest

from fracvar import (DirichletSpec, Field, GridND, ParamSet, ProblemSpec,
                     SymmetryGenerator, adjoint_apply, apply_op_nd, bracket_D,
                     bracket_I, chain_identity_residual,
                     dirichlet_energy_lagrangian, dual, el_residual, grid_1d,
                     integral_coupling_lagrangian, interior_max_abs,
                     invariance_residual, make_plan, make_uniform_grid,
                     minimize_energy, noether_residual, rl_kernel)
from fracvar.errors import DomainError, GridMismatch
from fracvar.operators import OpKind

LEFT = ParamSet(0.0, 1.0, 1.0, 0.0)
MIX = ParamSet(0.0, 1.0, 0.6, 0.4)

TRANSLATION = SymmetryGenerator(lambda t, u: np.ones_like(u),
                                description="translation")
SCALING = SymmetryGenerator(lambda t, u: u, description="scaling")


def spec_1d(n, lagrangian=None, pset1=MIX, pset2=ParamSet(0.0, 1.0, 0.3, 0.7),
            alpha=0.4, beta=0.6):
    grid = grid_1d(0.0, 1.0, n)
    lag = lagrangian if lagrangian is not None else dirichlet_energy_lagrangian(1)
    return ProblemSpec(grid, lag, [pset1], [pset2], [alpha], [beta],
                       [rl_kernel()], [rl_kernel()])


def smooth_field(grid, seed=5):
    rng = np.random.default_rng(seed)
    t = grid.axes[0].nodes
    c = rng.standard_normal(3)
    return Field(grid, c[0] * np.sin(np.pi * t) + c[1] * t * (1.0 - t)
                 + c[2] * t * t)


class TestSymmetryGenerator:
    def test_sample_broadcasts(self):
        spec = spec_1d(16)
        u = smooth_field(spec.grid)
        xi = TRANSLATION.sample(spec, u)
        assert xi.values.shape == (1, 17)
        assert np.all(xi.values == 1.0)

    def test_smoothness_screen_rejects_kink(self):
        spec = spec_1d(64)
        u = smooth_field(spec.grid)
        kink = SymmetryGenerator(lambda t, u: np.abs(t[0] - 0.5) + 0.0 * u,
                                 description="corner")
        with pytest.raises(DomainError):
            kink.sample(spec, u)

    def test_smoothness_screen_passes_smooth(self):
        spec = spec_1d(64)
        u = smooth_field(spec.grid)
        for fn in (lambda t, u: np.sin(4.0 * np.pi * t[0]) + 0.0 * u,
                   lambda t, u: np.exp(t[0]) + 0.0 * u,
                   lambda t, u: np.ones_like(u),
                   lambda t, u: t[0] ** 2 + 0.0 * u):
            SymmetryGenerator(fn).sample(spec, u)


class TestInvariance:
    def test_translation_invariance_of_u_free_integrand(self):
        # F = |v|^2 has no explicit u; translating u shifts nothing, and with
        # the B operator annihilating constants exactly the residual is 0.0.
        spec = spec_1d(48)
        u = smooth_field(spec.grid)
        inv = invariance_residual(spec, u, TRANSLATION)
        assert np.all(inv.values == 0.0)

    def test_scaling_doubles_the_integrand(self):
        # xi = u gives B xi = v, so the residual density is 2 v.v pointwise.
        spec = spec_1d(48)
        u = smooth_field(spec.grid)
        inv = invariance_residual(spec, u, SCALING)
        v = apply_op_nd(spec.b_plans()[0], u).values[0]
        np.testing.assert_array_equal(inv.data, 2.0 * v * v)


class TestBrackets:
    def fields(self, n=32, seed=2):
        grid = grid_1d(0.0, 1.0, n)
        rng = np.random.default_rng(seed)
        return (grid, Field(grid, rng.standard_normal(n + 1)),
                Field(grid, rng.standard_normal(n + 1)))

    def test_bracket_I_antisymmetry_is_exact(self):
        grid, f, g = self.fields()
        lhs = bracket_I(f, g, MIX, 0.5, rl_kernel(), 0)
        rhs = bracket_I(g, f, dual(MIX), 0.5, rl_kernel(), 0)
        assert np.array_equal(lhs.values, -rhs.values)

    def test_bracket_D_of_constant_first_argument(self):
        # f = c kills the B term exactly, leaving c . A_{P*} g.
        grid, _, g = self.fields()
        c = 2.5
        f = Field.constant(grid, c)
        bd = bracket_D(f, g, MIX, 0.4, rl_kernel(), 0)
        plan = make_plan(OpKind.B, 0.4, MIX, rl_kernel(), grid.axes[0])
        expect = c * adjoint_apply(plan, g, negate=True).values
        np.testing.assert_array_equal(bd.values, expect)

    def test_bilinearity(self):
        grid, f1, g = self.fields()
        f2 = smooth_field(grid, seed=9)
        c1, c2 = 1.3, -0.7
        combo = Field(grid, c1 * f1.values + c2 * f2.values)
        for bracket in (bracket_D, bracket_I):
            lhs = bracket(combo, g, MIX, 0.5, rl_kernel(), 0).values
            rhs = (c1 * bracket(f1, g, MIX, 0.5, rl_kernel(), 0).values
                   + c2 * bracket(f2, g, MIX, 0.5, rl_kernel(), 0).values)
            scale = max(1.0, np.max(np.abs(lhs)))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_grid_mismatch(self):
        _, f, _ = self.fields(32)
        _, g, _ = self.fields(16)
        with pytest.raises(GridMismatch):
            bracket_D(f, g, MIX, 0.5, rl_kernel(), 0)


class TestChainIdentity:
    def test_closes_for_random_field_and_generators(self):
        spec = spec_1d(64)
        u = smooth_field(spec.grid, seed=13)
        gens = [TRANSLATION, SCALING,
                SymmetryGenerator(lambda t, u: u * u, "quadratic"),
                SymmetryGenerator(lambda t, u: np.sin(np.pi * t[0]) + 0.0 * u,
                                  "coordinate")]
        for gen in gens:
            assert chain_identity_residual(spec, u, gen) <= 1e-10

    def test_samples_the_generator_once(self):
        # One sample serves all three terms; the defect is bitwise the one
        # composed from the public residuals, each sampling on its own.
        spec = spec_1d(32, integral_coupling_lagrangian(1))
        u = smooth_field(spec.grid, seed=13)
        calls = []
        gen = SymmetryGenerator(lambda t, uu: calls.append(1) or uu * uu,
                                "quadratic")
        defect = chain_identity_residual(spec, u, gen)
        assert len(calls) == 1
        noe = noether_residual(spec, u, gen).data
        inv = invariance_residual(spec, u, gen).data
        xi = gen.sample(spec, u).values
        el = el_residual(spec, u).values
        assert defect == float(np.max(np.abs(noe - inv
                                             + np.sum(xi * el, axis=0))))

    @pytest.mark.parametrize("cells", [(16,), (8, 6), (6, 5, 7)],
                             ids=lambda c: "x".join(map(str, c)))
    def test_builds_fields_only_at_the_boundary(self, cells, monkeypatch):
        # Intermediates stay arrays: a chain builds the generator sample and
        # its three residuals, an el_residual only its result.
        grid = GridND(tuple(make_uniform_grid(0.0, 1.0, n) for n in cells))
        d = grid.ndim
        spec = ProblemSpec(grid, integral_coupling_lagrangian(d, 2),
                           [MIX] * d, [LEFT] * d, [0.4] * d, [0.6] * d,
                           [rl_kernel()] * d, [rl_kernel()] * d)
        u = Field(grid, np.random.default_rng(3).standard_normal(
            (2,) + grid.shape))
        built = []
        post_init = Field.__post_init__

        def counting(self):
            built.append(1)
            post_init(self)
        monkeypatch.setattr(Field, "__post_init__", counting)
        chain_identity_residual(spec, u, TRANSLATION)
        assert len(built) <= 4
        built.clear()
        el_residual(spec, u)
        assert len(built) == 1

    def test_closes_for_K_block_lagrangian(self):
        spec = spec_1d(48, integral_coupling_lagrangian(1))
        u = smooth_field(spec.grid, seed=21)
        assert chain_identity_residual(spec, u, SCALING) <= 1e-10

    def test_closes_in_2d(self):
        grid = GridND((make_uniform_grid(0.0, 1.0, 24),
                       make_uniform_grid(0.0, 1.0, 24)))
        spec = ProblemSpec(grid, dirichlet_energy_lagrangian(2), [MIX, LEFT],
                           [LEFT, MIX], [0.4, 0.6], [0.5, 0.5],
                           [rl_kernel()] * 2, [rl_kernel()] * 2)
        u = Field.from_function(
            grid, lambda t1, t2: np.sin(np.pi * t1) * t2 * (1.0 - t2))
        assert chain_identity_residual(spec, u, TRANSLATION) <= 1e-10


class TestNoetherOnExtremals:
    def test_minimizer_separates_from_perturbation(self):
        n, pset, alpha = 64, ParamSet(0.0, 1.0, 0.5, 0.5), 0.5
        grid = grid_1d(0.0, 1.0, n)
        t = grid.axes[0].nodes
        psi = Field(grid, t)
        dspec = DirichletSpec(grid, [pset], [alpha], [rl_kernel()], psi,
                              tol=1e-11)
        u_star = minimize_energy(dspec).field
        spec = ProblemSpec(grid, dirichlet_energy_lagrangian(1), [pset],
                           [LEFT], [alpha], [0.5], [rl_kernel()], [rl_kernel()])
        at_min = interior_max_abs(noether_residual(spec, u_star, TRANSLATION))
        assert at_min <= 10.0 * (dspec.tol + (1.0 / n) ** 1.5)
        vals = u_star.values[0].copy()
        interior = grid.interior_mask()
        vals[interior] += 0.05 * np.sin(np.pi * t)[interior]
        off = interior_max_abs(
            noether_residual(spec, Field(grid, vals), TRANSLATION))
        assert off >= 10.0 * at_min
