"""Acceptance suite: the eight headline guarantees, at desk scale.

Each test prints exactly one PASS/FAIL summary line (shown with ``pytest -s``
or in captured output on failure) and asserts the stated tolerances.
"""

import math
import time

import numpy as np

from fracvar import (BUILTIN_LAGRANGIANS, DirichletSpec, Field, GridND,
                     Lagrangian, OpKind, ParamSet, ProblemSpec,
                     SymmetryGenerator, apply_op_1d, apply_op_nd, bracket_D,
                     bracket_I, bvp_residual, chain_identity_residual,
                     check_K_duality, check_ibp, dirichlet_energy_lagrangian,
                     dual, energy, grid_1d, interior_max_abs, make_plan,
                     make_uniform_grid, minimize_energy, rl_kernel,
                     transfinite_init, uniqueness_check, wave_residual)

P10 = ParamSet(0.0, 1.0, 1.0, 0.0)
P01 = ParamSet(0.0, 1.0, 0.0, 1.0)

GAMMA_35_HALF = 0.60180222245094004      # 2 / Gamma(3.5)


def report(num, label, ok, detail):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num} ({label}): {detail}"


def interior_err(values, exact):
    return float(np.max(np.abs(values - exact)[1:-1]))


def test_criterion_1_operator_closed_forms():
    t0 = time.perf_counter()
    errs = {}
    for n in (128, 512):
        g = grid_1d(0.0, 1.0, n)
        t = g.axes[0].nodes
        kp = make_plan(OpKind.K, 0.5, P10, rl_kernel(), g.axes[0])
        bp = make_plan(OpKind.B, 0.5, P10, rl_kernel(), g.axes[0])
        one = Field(g, np.ones_like(t)[np.newaxis])
        lin = Field(g, t[np.newaxis])
        quad = Field(g, (t * t)[np.newaxis])
        errs[n] = {
            "K1": interior_err(apply_op_1d(kp, one).values[0],
                               2.0 * np.sqrt(t / np.pi)),
            "Bt": interior_err(apply_op_1d(bp, lin).values[0],
                               np.sqrt(t) / math.gamma(1.5)),
            # Closed forms on t^2 carry genuine discretization error, so they
            # support an order estimate (the first two are exact to rounding).
            "Kt2": interior_err(apply_op_1d(kp, quad).values[0],
                                2.0 * t ** 2.5 / math.gamma(3.5)),
            "Bt2": interior_err(apply_op_1d(bp, quad).values[0],
                                2.0 * t ** 1.5 / math.gamma(2.5)),
        }
    order_k = math.log(errs[128]["Kt2"] / errs[512]["Kt2"]) / math.log(4.0)
    order_b = math.log(errs[128]["Bt2"] / errs[512]["Bt2"]) / math.log(4.0)
    elapsed = time.perf_counter() - t0
    ok = (errs[512]["K1"] <= 1e-3 and errs[512]["Bt"] <= 1e-2
          and 1.25 <= order_k <= 2.25 and 1.25 <= order_b <= 2.0
          and elapsed < 5.0)
    report(1, "operator closed-form oracles", ok,
           f"K(1) err {errs[512]['K1']:.2e} <= 1e-3, "
           f"B(t) err {errs[512]['Bt']:.2e} <= 1e-2, "
           f"orders K {order_k:.3f} in [1.25, 2.25], "
           f"B {order_b:.3f} in [1.25, 2.0], {elapsed:.1f}s < 5s")


def test_criterion_2_duality_identity_2d():
    t0 = time.perf_counter()
    residuals = {}
    for n in (128, 256):
        ax = make_uniform_grid(0.0, 1.0, n)
        g2 = GridND((ax, ax))
        t1, t2 = np.meshgrid(ax.nodes, ax.nodes, indexing="ij")
        f = Field(g2, np.sin(np.pi * t1)[np.newaxis])
        eta = Field(g2, np.cos(np.pi * t2)[np.newaxis])
        for axis in (0, 1):
            rep = check_K_duality(f, eta, P10, 0.4, rl_kernel(), axis)
            residuals[(n, axis)] = rep.residual
    elapsed = time.perf_counter() - t0
    detail = []
    ok = elapsed < 60.0
    for axis in (0, 1):
        r128, r256 = residuals[(128, axis)], residuals[(256, axis)]
        if r128 <= 1e-12 and r256 <= 1e-12:
            # Both sides of the pairing vanish identically on this axis
            # (the eta factor integrates to zero); nothing left to converge.
            detail.append(f"axis {axis} degenerate: {r256:.1e} <= 1e-12")
        else:
            good = r256 <= 1e-3 and r128 / r256 >= 2.0
            ok = ok and good
            detail.append(f"axis {axis}: {r256:.2e} <= 1e-3, "
                          f"factor {r128 / r256:.2f} >= 2")
    report(2, "two-axis duality identity", ok,
           "; ".join(detail) + f", {elapsed:.1f}s < 60s")


def test_criterion_3_full_ibp_1d():
    t0 = time.perf_counter()
    reps, reps_var = {}, {}
    for n in (256, 512):
        g = grid_1d(0.0, 1.0, n)
        t = g.axes[0].nodes
        f = Field(g, (t * t)[np.newaxis])
        eta0 = Field(g, (t * (1.0 - t))[np.newaxis])
        eta1 = Field(g, t[np.newaxis])
        reps[n] = check_ibp(f, eta0, P10, 0.5, rl_kernel(), 0)
        reps_var[n] = check_ibp(f, eta1, P01, 0.5, rl_kernel(), 0)
    elapsed = time.perf_counter() - t0
    bterm_err = abs(reps_var[512].boundary_term - GAMMA_35_HALF)
    ok = (reps[512].residual <= 5e-3
          and reps[256].residual / reps[512].residual >= 2.0
          and reps[256].boundary_term == 0.0
          and reps[512].boundary_term == 0.0
          and reps_var[256].residual / reps_var[512].residual >= 2.0
          and bterm_err <= 1e-5
          and elapsed < 10.0)
    report(3, "integration by parts with boundary term", ok,
           f"zero-trace residual {reps[512].residual:.2e} <= 5e-3 "
           f"(factor {reps[256].residual / reps[512].residual:.2f}), "
           f"nonzero-trace boundary term off by {bterm_err:.2e} <= 1e-5, "
           f"{elapsed:.1f}s < 10s")


def _dirichlet_case_1d(n=256, tol=1e-10):
    g = grid_1d(0.0, 1.0, n)
    t = g.axes[0].nodes
    psi = Field(g, (np.sin(3.0 * t) + t)[np.newaxis])
    return DirichletSpec(g, [ParamSet(0.0, 1.0, 0.6, 0.4)], [0.5],
                         [rl_kernel()], psi, tol=tol)


def _dirichlet_case_2d(n=64, tol=1e-10):
    axes = (make_uniform_grid(0.0, 1.0, n), make_uniform_grid(0.0, 1.0, n))
    g2 = GridND(axes)
    x, y = np.meshgrid(axes[0].nodes, axes[1].nodes, indexing="ij")
    psi = Field(g2, (x * y + np.sin(np.pi * x))[np.newaxis])
    return DirichletSpec(g2, [ParamSet(0.0, 1.0, 0.7, 0.3),
                              ParamSet(0.0, 1.0, 0.5, 0.5)],
                         [0.45, 0.6], [rl_kernel(), rl_kernel()], psi, tol=tol)


def _beats_perturbations(spec, result, rng, count=10, scale=1e-2):
    e0 = energy(spec, result.field)
    interior = spec.grid.interior_mask()
    for _ in range(count):
        vals = result.field.values.copy()
        vals[0][interior] += scale * rng.standard_normal(int(interior.sum()))
        if energy(spec, Field(spec.grid, vals)) < e0:
            return False
    return True


def test_criterion_4_dirichlet_principle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    details = []
    ok = True
    for label, spec in (("1D n=256", _dirichlet_case_1d()),
                        ("2D n=64^2", _dirichlet_case_2d())):
        result = minimize_energy(spec)
        bvp = interior_max_abs(bvp_residual(spec, result.field))
        beats = _beats_perturbations(spec, result, rng)
        good = (bvp <= 10.0 * spec.tol and beats
                and result.gradient_norm <= 1e-10)
        ok = ok and good
        details.append(f"{label}: bvp {bvp:.2e} <= {10 * spec.tol:.0e}, "
                       f"beats 10 perturbations: {beats}, "
                       f"grad {result.gradient_norm:.2e} <= 1e-10")
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 120.0
    report(4, "energy minimizer solves the boundary problem", ok,
           "; ".join(details) + f", {elapsed:.1f}s < 120s")


def test_criterion_5_minimizer_uniqueness():
    t0 = time.perf_counter()
    g = grid_1d(0.0, 1.0, 256)
    t = g.axes[0].nodes
    psi = Field(g, (t * (1.0 - t) + 0.3 * t)[np.newaxis])
    spec = DirichletSpec(g, [P10], [0.5], [rl_kernel()], psi, tol=1e-10)
    base = transfinite_init(g, psi)
    interior = g.interior_mask()
    inits = []
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        vals = base.values.copy()
        vals[0][interior] += 0.5 * rng.standard_normal(int(interior.sum()))
        inits.append(Field(g, vals))
    diff = uniqueness_check(spec, inits[0], inits[1])
    elapsed = time.perf_counter() - t0
    ok = diff <= 100.0 * spec.tol and elapsed < 120.0
    report(5, "minimizer independent of starting point", ok,
           f"max difference {diff:.2e} <= {100 * spec.tol:.0e}, "
           f"{elapsed:.1f}s < 120s")


def _three_block_lagrangian():
    def ev(t, u, v, w):
        return u[0] ** 2 + v[0, 0] ** 2 + 0.5 * w[0, 0] ** 2 + u[0] * w[0, 0]

    def d_u(t, u, v, w):
        return (2.0 * u[0] + w[0, 0])[np.newaxis]

    def d_v(t, u, v, w):
        return (2.0 * v[0, 0])[np.newaxis, np.newaxis]

    def d_w(t, u, v, w):
        return (w[0, 0] + u[0])[np.newaxis, np.newaxis]

    return Lagrangian.define(1, 1, ev, d_u, d_v, d_w, name="three_block")


def test_criterion_6_noether_chain_identity():
    t0 = time.perf_counter()
    g = grid_1d(0.0, 1.0, 128)
    P = ParamSet(0.0, 1.0, 0.6, 0.4)
    spec = ProblemSpec(g, _three_block_lagrangian(), [P], [P], [0.4], [0.55],
                       [rl_kernel()], [rl_kernel()])
    rng = np.random.default_rng(42)
    u_random = Field(g, rng.standard_normal(g.shape)[np.newaxis])
    u_smooth = Field(g, np.sin(np.pi * g.axes[0].nodes)[np.newaxis])
    translation = SymmetryGenerator(
        lambda t, uu: np.ones_like(t[0])[np.newaxis], description="translation")
    state_dep = SymmetryGenerator(lambda t, uu: uu, description="u")
    defect_t = chain_identity_residual(spec, u_random, translation)
    defect_u = chain_identity_residual(spec, u_smooth, state_dep)

    # On the energy minimizer the residual shrinks to solver tolerance plus
    # the operator discretization scale (h^{3/2} for these half-order plans).
    dspec = _dirichlet_case_1d()
    result = minimize_energy(dspec)
    vspec = ProblemSpec(dspec.grid, dirichlet_energy_lagrangian(1),
                        dspec.psets, dspec.psets, dspec.alphas, dspec.alphas,
                        dspec.kernels, dspec.kernels, boundary=dspec.boundary)
    c = 0.7
    shift = SymmetryGenerator(
        lambda t, uu: np.full((1,) + np.broadcast(*t).shape, c),
        description="translation")
    from fracvar import noether_residual
    noe = interior_max_abs(noether_residual(vspec, result.field, shift))
    h = dspec.grid.axes[0].h
    bound = 10.0 * (dspec.tol + h ** 1.5)
    elapsed = time.perf_counter() - t0
    ok = (defect_t <= 1e-10 and defect_u <= 1e-10 and noe <= bound
          and elapsed < 60.0)
    report(6, "Noether bracket chain identity", ok,
           f"defects {defect_t:.2e}/{defect_u:.2e} <= 1e-10, "
           f"minimizer residual {noe:.2e} <= {bound:.1e}, "
           f"{elapsed:.1f}s < 60s")


def test_criterion_7_wave_residuals():
    t0 = time.perf_counter()
    rho, stiff = 1.2, 0.8
    time_op = (P10, 0.5, rl_kernel())

    ax = make_uniform_grid(0.0, 1.0, 48)
    g2 = GridND((ax, ax))
    const = Field(g2, np.full((1,) + g2.shape, 0.8))
    zc_classical = interior_max_abs(wave_residual(const, rho, stiff, time_op))
    zc_frac = interior_max_abs(wave_residual(
        const, rho, stiff, time_op,
        space_ops=[(ParamSet(0.0, 1.0, 0.5, 0.5), 0.6, rl_kernel())]))

    axd = make_uniform_grid(0.0, 1.0, 64)
    gd = GridND((axd, axd))
    _, x = np.meshgrid(axd.nodes, axd.nodes, indexing="ij")
    linear = Field(gd, (0.25 + 1.5 * x)[np.newaxis])
    zl = interior_max_abs(wave_residual(linear, rho, stiff, time_op))

    n = 256
    axn = make_uniform_grid(0.0, 1.0, n)
    gn = GridND((axn, axn))
    T, X = np.meshgrid(axn.nodes, axn.nodes, indexing="ij")
    u = Field(gn, (T * np.sin(np.pi * X))[np.newaxis])
    res = wave_residual(u, rho, stiff, time_op)
    tt = axn.nodes[1:-1]
    # Closed form of the composed half-order time operator on u = t sin(pi x):
    # time factor (2/pi) [ ln((1+sqrt(1-t))/sqrt(t)) - 1/sqrt(1-t) ].
    gfun = (2.0 / np.pi) * (np.log((1.0 + np.sqrt(1.0 - tt)) / np.sqrt(tt))
                            - 1.0 / np.sqrt(1.0 - tt))
    sx = np.sin(np.pi * axn.nodes[1:-1])
    oracle = (rho * gfun[:, None] * sx[None, :]
              + stiff * np.pi ** 2 * tt[:, None] * sx[None, :])
    err_full = np.abs(res.values[0][1:-1, 1:-1] - oracle)
    # The time factor blows up at both interval ends; compare away from them
    # (12 time nodes trimmed on each side out of 255 interior rows).
    err = float(err_full[11:-11].max())
    elapsed = time.perf_counter() - t0
    ok = (zc_classical == 0.0 and zc_frac == 0.0 and zl == 0.0
          and err <= 1e-2 and elapsed < 60.0)
    report(7, "wave operator residuals", ok,
           f"constant fields exactly zero ({zc_classical:.1e}, {zc_frac:.1e}),"
           f" linear field exactly zero ({zl:.1e}), "
           f"separable oracle err {err:.2e} <= 1e-2, {elapsed:.1f}s < 60s")


# --- criterion 8: randomized property suites --------------------------------


def _suite_operator_linearity(trials=50):
    failures = 0
    for seed in range(trials):
        rng = np.random.default_rng(1000 + seed)
        g = grid_1d(0.0, 1.0, 24)
        kind = (OpKind.K, OpKind.A, OpKind.B)[seed % 3]
        order = float(rng.uniform(0.1, 0.9))
        pset = ParamSet(0.0, 1.0, float(rng.uniform(-1, 1)),
                        float(rng.uniform(-1, 1)))
        plan = make_plan(kind, order, pset, rl_kernel(), g.axes[0])
        f = Field(g, rng.standard_normal((1, 25)))
        h = Field(g, rng.standard_normal((1, 25)))
        c1, c2 = rng.uniform(-2.0, 2.0, size=2)
        combo = Field(g, c1 * f.values + c2 * h.values)
        lhs = apply_op_nd(plan, combo).values
        rhs = (c1 * apply_op_nd(plan, f).values
               + c2 * apply_op_nd(plan, h).values)
        scale = max(1.0, float(np.max(np.abs(lhs))))
        if np.max(np.abs(lhs - rhs)) > 1e-12 * scale:
            failures += 1
    return failures


def _suite_bracket_bilinearity(trials=50):
    failures = 0
    for seed in range(trials):
        rng = np.random.default_rng(2000 + seed)
        g = grid_1d(0.0, 1.0, 24)
        pset = ParamSet(0.0, 1.0, float(rng.uniform(-1, 1)),
                        float(rng.uniform(-1, 1)))
        order = float(rng.uniform(0.1, 0.9))
        f1 = Field(g, rng.standard_normal((1, 25)))
        f2 = Field(g, rng.standard_normal((1, 25)))
        gg = Field(g, rng.standard_normal((1, 25)))
        c1, c2 = rng.uniform(-2.0, 2.0, size=2)
        combo = Field(g, c1 * f1.values + c2 * f2.values)
        for bracket in (bracket_D, bracket_I):
            lhs = bracket(combo, gg, pset, order, rl_kernel(), 0).values
            rhs = (c1 * bracket(f1, gg, pset, order, rl_kernel(), 0).values
                   + c2 * bracket(f2, gg, pset, order, rl_kernel(), 0).values)
            scale = max(1.0, float(np.max(np.abs(lhs))))
            if np.max(np.abs(lhs - rhs)) > 1e-12 * scale:
                failures += 1
            # Linearity in the second slot as well.
            combo2 = Field(g, c1 * f2.values + c2 * gg.values)
            lhs2 = bracket(f1, combo2, pset, order, rl_kernel(), 0).values
            rhs2 = (c1 * bracket(f1, f2, pset, order, rl_kernel(), 0).values
                    + c2 * bracket(f1, gg, pset, order, rl_kernel(), 0).values)
            scale2 = max(1.0, float(np.max(np.abs(lhs2))))
            if np.max(np.abs(lhs2 - rhs2)) > 1e-12 * scale2:
                failures += 1
    return failures


def _suite_dual_involution(trials=50):
    failures = 0
    for seed in range(trials):
        rng = np.random.default_rng(3000 + seed)
        a = float(rng.uniform(-2.0, 1.0))
        b = a + float(rng.uniform(0.5, 3.0))
        pset = ParamSet(a, b, float(rng.uniform(-2, 2)),
                        float(rng.uniform(-2, 2)))
        if dual(dual(pset)) != pset:
            failures += 1
        g = grid_1d(a, b, 16)
        kind = (OpKind.K, OpKind.A, OpKind.B)[seed % 3]
        order = float(rng.uniform(0.1, 0.9))
        plan = make_plan(kind, order, pset, rl_kernel(), g.axes[0])
        back = make_plan(kind, order, dual(dual(pset)), rl_kernel(),
                         g.axes[0])
        if not np.array_equal(back.matrix, plan.matrix):
            failures += 1
    return failures


def _suite_lagrangian_gradients(trials=50):
    failures = 0
    names = sorted(BUILTIN_LAGRANGIANS)
    for seed in range(trials):
        rng = np.random.default_rng(4000 + seed)
        name = names[seed % len(names)]
        if name in ("wave", "frac_wave"):
            lag = BUILTIN_LAGRANGIANS[name](2, rho=float(rng.uniform(0.5, 2)),
                                            stiffness=float(rng.uniform(0.5, 2)))
        else:
            lag = BUILTIN_LAGRANGIANS[name](2)
        m = 6
        t = [rng.uniform(0.1, 0.9, m) for _ in range(2)]
        u = rng.standard_normal((lag.N, m))
        v = rng.standard_normal((lag.N, 2, m))
        w = rng.standard_normal((lag.N, 2, m))
        step = 1e-5

        def fd(block, index):
            plus = [u.copy(), v.copy(), w.copy()]
            minus = [u.copy(), v.copy(), w.copy()]
            plus[block][index] += step
            minus[block][index] -= step
            return (lag.eval_fn(t, *plus) - lag.eval_fn(t, *minus)) / (2 * step)

        bad = False
        for k in range(lag.N):
            exact = lag.d_u(t, u, v, w)[k]
            bad |= bool(np.max(np.abs(fd(0, k) - exact))
                        > 1e-6 * max(1.0, float(np.max(np.abs(exact)))))
            for i in range(2):
                for block, dfun in ((1, lag.d_v), (2, lag.d_w)):
                    exact = dfun(t, u, v, w)[k, i]
                    approx = fd(block, (k, i))
                    bad |= bool(np.max(np.abs(approx - exact))
                                > 1e-6 * max(1.0, float(np.max(np.abs(exact)))))
        if bad:
            failures += 1
    return failures


def _suite_shift_invariance(trials=50):
    failures = 0
    for seed in range(trials):
        rng = np.random.default_rng(5000 + seed)
        g = grid_1d(0.0, 1.0, 24)
        t = g.axes[0].nodes
        a0, a1, a2 = rng.uniform(-1.0, 1.0, size=3)
        c = float(rng.uniform(-2.0, 2.0))
        psi = Field(g, (a0 + a1 * t + a2 * t * t)[np.newaxis])
        psi_shift = Field(g, psi.values + c)
        pset = ParamSet(0.0, 1.0, float(rng.uniform(0.2, 1.0)),
                        float(rng.uniform(0.0, 0.8)))
        order = float(rng.uniform(0.2, 0.8))
        u1 = minimize_energy(DirichletSpec(
            g, [pset], [order], [rl_kernel()], psi, tol=1e-12)).field
        u2 = minimize_energy(DirichletSpec(
            g, [pset], [order], [rl_kernel()], psi_shift, tol=1e-12)).field
        if np.max(np.abs(u2.values - (u1.values + c))) > 1e-10:
            failures += 1
    return failures


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    results = {
        "operator linearity": _suite_operator_linearity(),
        "bracket bilinearity": _suite_bracket_bilinearity(),
        "dual involution": _suite_dual_involution(),
        "Lagrangian gradients": _suite_lagrangian_gradients(),
        "shift invariance": _suite_shift_invariance(),
    }
    elapsed = time.perf_counter() - t0
    ok = all(v == 0 for v in results.values())
    report(8, "randomized property suites", ok,
           ", ".join(f"{name}: {fails}/50 failures"
                     for name, fails in results.items())
           + f", {elapsed:.1f}s")
