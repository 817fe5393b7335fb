"""The three workloads: line-1d, solve-nd and cli-3d.

A workload is built once (its set-up) and then hands out passes.  A pass is
a list of operations; each operation is one fracvar call, or a short fixed
sequence of them, with a check.  Timed operations are the workload's user
work; untimed ones exist only to check a property and run after the timed
span.  Every pass draws its own operator parameters from ``(seed, pass)``,
so no identical call repeats within a run and every pass builds its plans
afresh, as a new session would.

Checks return a list of failure messages (empty when the result is right)
and compare against mpmath closed forms, a dense solve assembled here, or a
property the method must have.  None compares against stored output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import fracvar as fv
from fracvar import cli as fv_cli

HERE = os.path.dirname(os.path.abspath(__file__))
EPS = np.finfo(float).eps

# Grid sizes per workload: the measured make-up and a small one for tests.
SIZES = {
    "full": {"line": (1024, 2048), "solve2": 256, "solve3": 64, "dense": 128,
             "cli3": 48, "cli2": 256},
    "small": {"line": (128, 256), "solve2": 16, "solve3": 8, "dense": 32,
              "cli3": 8, "cli2": 16},
}


@dataclass
class Op:
    """One operation: ``run(results)`` makes the fracvar calls and returns
    their output; ``check(results)`` inspects the pass's outputs by name and
    returns failure messages."""

    name: str
    run: Callable[[dict], object]
    check: Callable[[dict], list]
    timed: bool = True


def _err(label: str, value: float, bound: float) -> list:
    """[] if value <= bound, else one failure message (NaN fails)."""
    if value <= bound:
        return []
    return [f"{label}: {value:.3e} exceeds {bound:.3e}"]


def _rel_err(x: np.ndarray, ref: np.ndarray) -> float:
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


def _ref():
    # mpmath is imported on first use, after the first timed pass, so that
    # its import counts in neither set-up nor wall time.
    from perfbench import reference
    return reference


def _jitter(rng: np.random.Generator, centre: float, half: float) -> float:
    return float(centre + rng.uniform(-half, half))


def _trapezoid(shape: tuple) -> np.ndarray:
    w = None
    for m in shape:
        wi = np.full(m, 1.0 / (m - 1))
        wi[0] = wi[-1] = 0.5 / (m - 1)
        w = wi if w is None else np.multiply.outer(w, wi)
    return w


def _interior(shape: tuple) -> tuple:
    return (slice(None),) + tuple(slice(1, -1) for _ in shape)


# ---------------------------------------------------------------------------
# line-1d


def _mixed_lagrangian() -> fv.Lagrangian:
    """F = |v|^2 + u . w, so both the B and the K blocks enter every term of
    the Noether chain."""
    return fv.Lagrangian.define(
        1, 1,
        eval_fn=lambda t, u, v, w: (np.sum(v * v, axis=(0, 1))
                                    + np.sum(u[:, None] * w, axis=(0, 1))),
        d_u=lambda t, u, v, w: np.sum(w, axis=1),
        d_v=lambda t, u, v, w: 2.0 * v,
        d_w=lambda t, u, v, w: np.broadcast_to(u[:, None], w.shape).copy(),
        name="mixed")


class Line1D:
    """Long 1D operator lines: plan builds and dense applies of K, A, B."""

    name = "line-1d"
    ORDERS = (0.3, 0.5, 0.7)

    def __init__(self, seed: int, size: str, out_dir: str) -> None:
        self.seed = seed
        self.sizes = SIZES[size]["line"]
        self.grids, self.nodes, self.affine, self.linear = {}, {}, {}, {}
        for n in self.sizes:
            grid = self.grids[n] = fv.grid_1d(0.0, 1.0, n)
            t = self.nodes[n] = grid.axes[0].nodes
            self.affine[n] = fv.Field(grid, np.stack([np.ones_like(t), t]))
            self.linear[n] = fv.Field(grid, t[None])
        n = self.sizes[-1]
        self.tab_step = 1.0 / (4 * n)
        s = self.tab_step * np.arange(1, 4 * n + 1)
        self.tab_kernel = fv.tabulated_kernel(np.stack([s, np.exp(-s)], axis=1))
        self.mixed = _mixed_lagrangian()
        self.coupling = fv.integral_coupling_lagrangian(1)

    def ops(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        alphas = [_jitter(rng, a, 0.01) for a in self.ORDERS]
        p = _jitter(rng, 0.6, 0.02)
        P = fv.ParamSet(0.0, 1.0, p, 1.0 - p)
        PL = fv.ParamSet(0.0, 1.0, 1.0, 0.0)
        p2 = _jitter(rng, 0.3, 0.02)
        P2 = fv.ParamSet(0.0, 1.0, p2, 1.0 - p2)
        beta = _jitter(rng, 0.6, 0.01)
        freq, tilt = rng.uniform(2.5, 3.5), rng.uniform(0.0, 1.0)
        u_coef = rng.uniform(-1.0, 1.0, size=2)
        mid = alphas[1]
        rl = fv.rl_kernel()
        ops: list[Op] = []
        for n in self.sizes:
            grid, t = self.grids[n], self.nodes[n]
            for k, a in enumerate(alphas):
                ops += [
                    _apply_op(f"K{k}-n{n}", fv.OpKind.K, a, P, rl, grid,
                              self.affine[n], _check_affine(
                                  f"K{k}-n{n}", lambda t=t, a=a: _ref().rl_K_affine(t, a, p, 1 - p),
                                  1e-13, relative=True)),
                    _apply_op(f"B{k}-n{n}", fv.OpKind.B, a, P, rl, grid,
                              self.affine[n], _check_rl_B(f"B{k}-n{n}", t, a, p)),
                    _apply_op(f"A{k}-n{n}", fv.OpKind.A, a, P, rl, grid,
                              self.linear[n], self._check_rl_A(f"A{k}", n, a, p))]
            ops.append(_apply_op(f"AL-n{n}", fv.OpKind.A, mid, PL, rl, grid,
                                 self.linear[n], self._check_rl_A("AL", n, mid, 1.0)))
            # Fixed f and eta: the identities' leading error term depends on
            # them and crosses zero for some draws, where "shrinks under
            # refinement" stops being a property of the method.
            f = fv.Field(grid, np.sin(3.0 * t + 0.25)[None])
            eta = fv.Field(grid, (t * (1.0 - t) * (1.0 + 0.5 * t))[None])
            ops.append(Op(f"ibp-n{n}",
                          lambda r, f=f, eta=eta: fv.check_ibp(f, eta, P, mid, rl, 0),
                          self._check_identity("ibp", n, 1, 2.0)))
            ops.append(Op(f"dual-n{n}",
                          lambda r, f=f, eta=eta: fv.check_K_duality(f, eta, P, mid, rl, 0),
                          self._check_identity("dual", n, 2, 3.0)))

        n = self.sizes[-1]
        grid, t = self.grids[n], self.nodes[n]
        ops.append(_apply_op("Kconst", fv.OpKind.K, mid, P, fv.constant_kernel(),
                             grid, self.affine[n], _check_affine(
                                 "Kconst", lambda: _ref().constant_K_affine(t, p, 1 - p),
                                 1e-13, relative=True)))
        # k(s) = e^-s tabulated with step h/4 from s = h/4: linear interpolation
        # errs by <= step^2/8 per unit length and the clamped first piece by
        # <= step^2/2, so 2 step^2 bounds K on data of size <= 1.
        ops.append(_apply_op("Ktab", fv.OpKind.K, mid, P, self.tab_kernel,
                             grid, self.affine[n], _check_affine(
                                 "Ktab", lambda: _ref().exp_K_affine(t, 1.0, p, 1 - p),
                                 2.0 * self.tab_step ** 2, relative=False)))
        el_spec = fv.ProblemSpec(grid, self.coupling, [P], [P2], [mid], [beta],
                                 [rl], [rl])
        u_aff = fv.Field(grid, (u_coef[0] + u_coef[1] * t)[None])
        ops.append(Op("el", lambda r: fv.el_residual(el_spec, u_aff),
                      _check_el(t, beta, p2, u_coef)))
        chain_spec = fv.ProblemSpec(grid, self.mixed, [P], [P2], [mid], [beta],
                                    [rl], [rl])
        u = fv.Field(grid, (np.sin(freq * t) + tilt * t * t)[None])
        gen = fv.SymmetryGenerator(lambda c, uu: np.ones_like(uu), "translation")
        ops.append(Op("chain", lambda r: fv.chain_identity_residual(chain_spec, u, gen),
                      lambda r: _err("chain defect", abs(r["chain"]), 1e-10)))
        return ops

    def end_pass(self, index: int) -> None:
        pass

    def _a_error(self, vals: np.ndarray, n: int, a: float, p: float) -> float:
        t = self.nodes[n]
        mask = (t >= 0.1 - 1e-12) & (t <= 0.9 + 1e-12)
        ref = _ref().rl_A_linear(t[mask], a, p, 1 - p)
        return float(np.max(np.abs(vals[0][mask] - ref)))

    def _check_rl_A(self, stem: str, n: int, a: float, p: float):
        """A on t is second order on [0.1, 0.9]: error <= 40 h^2 at every
        size and an observed order in [1.7, 2.3] between the two sizes."""
        n0 = self.sizes[0]

        def check(r):
            err = self._a_error(r[f"{stem}-n{n}"], n, a, p)
            errs = _err(f"{stem} error", err, 40.0 / n ** 2)
            if n != n0:
                prev = self._a_error(r[f"{stem}-n{n0}"], n0, a, p)
                order = math.log(prev / err) / math.log(n / n0)
                if not 1.7 <= order <= 2.3:
                    errs.append(f"{stem} observed order {order:.3f} outside [1.7, 2.3]")
            return errs
        return check

    def _check_identity(self, stem: str, n: int, power: int, shrink: float):
        """Residual <= h^power, and it falls by at least ``shrink`` from the
        smaller grid to the larger."""
        n0 = self.sizes[0]

        def check(r):
            res = r[f"{stem}-n{n}"].residual
            errs = _err(f"{stem} residual", res, (1.0 / n) ** power)
            if n != n0:
                prev = r[f"{stem}-n{n0}"].residual
                if not res * shrink <= prev:
                    errs.append(f"{stem} residual {res:.3e} did not shrink by "
                                f"{shrink} from {prev:.3e}")
            return errs
        return check


def _apply_op(name, kind, order, pset, kernel, grid, field_, check) -> Op:
    """Build the plan along the grid's only axis and apply it to field_."""
    def run(results):
        plan = fv.make_plan(kind, order, pset, kernel, grid.axes[0])
        return fv.apply_op_1d(plan, field_).values
    return Op(name, run, check)


def _check_affine(name: str, reference, bound: float, relative: bool):
    """K applied to [1, t] against the closed forms reference() returns."""
    def check(r):
        one, lin = reference()
        errs = []
        for label, x, ref in (("K1", r[name][0], one), ("Kt", r[name][1], lin)):
            e = _rel_err(x, ref) if relative else float(np.max(np.abs(x - ref)))
            errs += _err(label, e, bound)
        return errs
    return check


def _check_rl_B(name: str, t: np.ndarray, a: float, p: float):
    """B of 1 is exactly 0; B of t matches its closed form to 5e-12."""
    def check(r):
        vals = r[name]
        errs = [] if np.all(vals[0] == 0.0) else [
            f"B of a constant is not exactly 0 (max {np.max(np.abs(vals[0])):.3e})"]
        ref = _ref().rl_B_linear(t, a, p, 1 - p)
        return errs + _err("Bt", float(np.max(np.abs(vals[1] - ref))), 5e-12)
    return check


def _check_el(t, beta, p2, coef):
    """With F = u . w and affine u, el = K_P2 u + K_P2* u in closed form."""
    def check(r):
        ref = _ref()
        k1, kt = ref.rl_K_affine(t, beta, p2, 1 - p2)
        d1, dt = ref.rl_K_affine(t, beta, 1 - p2, p2)
        want = coef[0] * (k1 + d1) + coef[1] * (kt + dt)
        return _err("el residual", _rel_err(r["el"].values[0], want), 1e-13)
    return check


# ---------------------------------------------------------------------------
# solve-nd


def _smooth_boundary(grid, rng) -> np.ndarray:
    """sum_j sin(pi x_j) + x_j - x_j^2 / 2, each term's weight perturbed by
    up to 10% from the seed (larger changes move the CG iteration count)."""
    vals = np.zeros(grid.shape)
    for x in grid.coords():
        a = 1.0 + rng.uniform(-0.1, 0.1, size=3)
        vals = vals + a[0] * np.sin(np.pi * x) + a[1] * x - 0.5 * a[2] * x * x
    return vals


class SolveND:
    """Dirichlet solves by CG on a 2D and a 3D grid, each followed by its
    BVP residual."""

    name = "solve-nd"
    TOL = 1e-10
    ALPHAS = (0.5, 0.6, 0.4)
    WEIGHTS = (0.6, 0.3, 0.5)

    def __init__(self, seed: int, size: str, out_dir: str) -> None:
        self.seed = seed
        s = SIZES[size]
        self.dense_n = s["dense"]
        self.grids = {}
        for d, n in ((2, s["solve2"]), (3, s["solve3"])):
            self.grids[d] = fv.GridND(tuple(fv.make_uniform_grid(0.0, 1.0, n)
                                            for _ in range(d)))
        self.lagrangians = {d: fv.dirichlet_energy_lagrangian(d) for d in self.grids}
        self.dense_grid = fv.grid_1d(0.0, 1.0, self.dense_n)

    def ops(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        rl = fv.rl_kernel()
        ops: list[Op] = []
        for d, grid in self.grids.items():
            alphas = [_jitter(rng, a, 0.005) for a in self.ALPHAS[:d]]
            psets = [fv.ParamSet(0.0, 1.0, w, 1.0 - w) for w in
                     (_jitter(rng, c, 0.005) for c in self.WEIGHTS[:d])]
            psi = fv.Field(grid, _smooth_boundary(grid, rng)[None])
            spec = fv.DirichletSpec(grid, psets, alphas, [rl] * d, psi, tol=self.TOL)
            eta = np.ones(grid.shape)
            for x in grid.coords():
                eta = eta * np.sin(np.pi * x) * (1.0 + rng.uniform() * x)
            eta[~grid.interior_mask()] = 0.0
            const = float(rng.uniform(-2.0, 2.0))
            ops += self._solve_ops(f"{d}d", spec, eta, const)
        ops.append(self._dense_op(rng))
        return ops

    def end_pass(self, index: int) -> None:
        pass

    def _solve_ops(self, tag: str, spec, eta: np.ndarray, const: float) -> list[Op]:
        grid, d = spec.grid, spec.grid.ndim
        solve, lag = f"solve-{tag}", self.lagrangians[d]
        inner = _interior(grid.shape)

        def run_solve(r):
            res = fv.minimize_energy(spec)
            return res, fv.bvp_residual(spec, res.field)

        def check_solve(r):
            res, bvp = r[solve]
            return (_err("gradient norm", res.gradient_norm, self.TOL)
                    + _err("interior BVP residual",
                           float(np.max(np.abs(bvp.values[inner]))), self.TOL))

        def run_el(r):
            pspec = fv.ProblemSpec(grid, lag, spec.psets, spec.psets, spec.alphas,
                                   spec.alphas, spec.kernels, spec.kernels)
            return fv.el_residual(pspec, r[solve][0].field)

        def check_el(r):
            el, bvp = r[f"el-{tag}"], r[solve][1]
            if np.array_equal(el.values, -2.0 * bvp.values):
                return []
            return [f"el_residual != -2 bvp_residual (max gap "
                    f"{np.max(np.abs(el.values + 2.0 * bvp.values)):.3e})"]

        eps = 1e-3

        def run_min(r):
            u = r[solve][0].field
            zero = fv.DirichletSpec(grid, spec.psets, spec.alphas, spec.kernels,
                                    fv.Field.constant(grid, 0.0), tol=self.TOL)
            return (fv.energy(spec, u),
                    fv.energy(spec, fv.Field(grid, u.values + eps * eta[None])),
                    fv.energy(zero, fv.Field(grid, eta[None])))

        def check_min(r):
            e_star, e_pert, e_eta = r[f"min-{tag}"]
            gap = e_pert - e_star
            # E(u*+eps eta) - E(u*) = 2 eps <grad, eta> + eps^2 E0(eta), and
            # |<grad, eta>| <= tol sum(w |eta|) under the CG stopping rule.
            bound = (2.0 * eps * self.TOL * float(np.sum(_trapezoid(grid.shape)
                                                         * np.abs(eta)))
                     + 64.0 * EPS * (abs(e_star) + abs(e_pert)))
            errs = [] if gap >= 0.0 else [f"energy fell by {-gap:.3e} off the minimizer"]
            return errs + _err("minimality gap", abs(gap - eps * eps * e_eta), bound)

        def run_const(r):
            cspec = fv.DirichletSpec(grid, spec.psets, spec.alphas, spec.kernels,
                                     fv.Field.constant(grid, const), tol=self.TOL)
            return fv.minimize_energy(cspec).field.values

        def check_const(r):
            dev = float(np.max(np.abs(r[f"const-{tag}"] - const)))
            return _err("constant-data solution deviation", dev,
                        16.0 * EPS * max(1.0, abs(const)))

        return [Op(solve, run_solve, check_solve),
                Op(f"el-{tag}", run_el, check_el, timed=False),
                Op(f"min-{tag}", run_min, check_min, timed=False),
                Op(f"const-{tag}", run_const, check_const, timed=False)]

    def _dense_op(self, rng) -> Op:
        n, grid = self.dense_n, self.dense_grid
        alpha, p = _jitter(rng, 0.5, 0.1), _jitter(rng, 0.6, 0.2)
        u0, u1 = rng.uniform(-2.0, 2.0, size=2)
        psi = np.zeros(n + 1)
        psi[0], psi[-1] = u0, u1
        spec = fv.DirichletSpec(grid, [fv.ParamSet(0.0, 1.0, p, 1.0 - p)], [alpha],
                                [fv.rl_kernel()], fv.Field(grid, psi[None]),
                                tol=self.TOL)

        def check(r):
            x, bound = _ref().dense_dirichlet_1d(n, alpha, p, 1.0 - p, u0, u1,
                                                 self.TOL)
            return _err("1D solve vs dense normal equations",
                        float(np.max(np.abs(r["dense-1d"][0, 1:-1] - x))), bound)

        return Op("dense-1d", lambda r: fv.minimize_energy(spec).field.values,
                  check, timed=False)


# ---------------------------------------------------------------------------
# cli-3d

# expected CSV header (before any order_est column) per command
_HEADERS = {
    "convergence-sweep": ["n", "max_interior_error"],
    "ibp-check": ["n", "lhs", "rhs", "boundary_term", "residual_abs", "residual_rel"],
    "el-residual": ["n", "max_interior_residual"],
    "dirichlet-solve": ["n", "iterations", "gradient_norm", "bvp_residual", "energy"],
    "noether-check": ["n", "chain_defect", "noether_interior", "invariance_interior"],
    "wave-residual": ["n", "max_interior_residual"],
}
_ORDER_EST = ("convergence-sweep", "ibp-check", "el-residual", "wave-residual")
TWO_OVER_SQRT_PI = 2.0 / math.sqrt(math.pi)


def expected_layout(cfg: dict) -> tuple[list, int]:
    """The header and row count a config's CSV must have."""
    command, problem = cfg["command"], cfg["problem"]
    sweep = cfg.get("sweep") or [problem.get("size", 64)]
    ndim = problem.get("ndim", 1)
    if command == "op-apply":
        header = [f"t{i + 1}" for i in range(ndim)] + ["value"]
        if "oracle" in problem:
            header.append("abs_error")
        return header, sum((n + 1) ** ndim for n in sweep)
    header = list(_HEADERS[command])
    if command in _ORDER_EST:
        header.append("order_est")
    return header, len(sweep)


def read_csv(path: str) -> tuple[list, np.ndarray | None, list]:
    """(header, body as a float array or None without rows, layout
    failures) of a CSV written by the CLI."""
    with open(path, "rb") as fh:
        data = fh.read()
    errs = []
    if b"\r" in data:
        errs.append("CSV has CR line endings")
    if not data.endswith(b"\n"):
        errs.append("CSV does not end with LF")
    lines = data.decode("utf-8").split("\n")[:-1]
    header = lines[0].split(",")
    body = np.loadtxt(lines[1:], delimiter=",", ndmin=2) if len(lines) > 1 else None
    return header, body, errs


class Cli3D:
    """``fracvar.cli.main`` in process on every shipped config and on two
    large op-apply configs kept beside this file."""

    name = "cli-3d"

    def __init__(self, seed: int, size: str, out_dir: str) -> None:
        self.seed = seed
        self.out_dir = out_dir
        root = os.path.dirname(HERE)
        shipped = os.path.join(root, "configs")
        self.shipped_cfg = {os.path.join(shipped, f): _load_json(os.path.join(shipped, f))
                            for f in sorted(os.listdir(shipped)) if f.endswith(".json")}
        s = SIZES[size]
        self.k3d = _load_json(os.path.join(HERE, "configs", "op_apply_K_3d.json"))
        self.k3d["sweep"] = [s["cli3"]]
        self.b2d = _load_json(os.path.join(HERE, "configs", "op_apply_B_2d.json"))
        self.b2d["sweep"] = [s["cli2"]]

    def _pass_dir(self, index: int) -> str:
        return os.path.join(self.out_dir, f"pass-{index}")

    def ops(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, index])
        out = self._pass_dir(index)
        os.makedirs(out, exist_ok=True)
        ops = []
        for path, cfg in self.shipped_cfg.items():
            stem = os.path.basename(path)[:-len(".json")]
            oracle = _halfint_oracle if stem == "op_apply_halfint" else None
            ops.append(self._cli_op(stem, path, cfg, out, oracle))

        k3d = json.loads(json.dumps(self.k3d))
        k3d["problem"]["interval"] = [0.0, _jitter(rng, 1.125, 0.125)]
        ops.append(self._cli_op("K3d", self._write(out, "K3d", k3d), k3d, out,
                                _halfint_oracle))

        b2d = json.loads(json.dumps(self.b2d))
        alpha, p = _jitter(rng, 0.5, 0.05), _jitter(rng, 0.6, 0.05)
        prob = b2d["problem"]
        prob["psets"] = [[p, 1.0 - p]] * 2
        prob["orders"] = [alpha] * 2
        g = math.gamma(2.0 - alpha)
        c_left, c_right, e = p / g, (1.0 - p) / g, 1.0 - alpha
        prob["oracle"] = (f"{c_left!r}*t1*t2^{e!r} + {c_right!r}*t1*(1-t2)^{e!r}")

        def b_oracle(body):
            t1, t2 = body[:, 0], body[:, 1]
            return c_left * t1 * t2 ** e + c_right * t1 * (1.0 - t2) ** e

        ops.append(self._cli_op("B2d", self._write(out, "B2d", b2d), b2d, out,
                                b_oracle, value_tol=1e-11))
        return ops

    def end_pass(self, index: int) -> None:
        shutil.rmtree(self._pass_dir(index), ignore_errors=True)

    @staticmethod
    def _write(out: str, stem: str, cfg: dict) -> str:
        path = os.path.join(out, f"{stem}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        return path

    def _cli_op(self, name: str, path: str, cfg: dict, out: str, oracle,
                value_tol: float = 1e-12) -> Op:
        csv_path = os.path.join(out, cfg["output_path"])

        def run(results):
            with contextlib.redirect_stdout(io.StringIO()):
                return fv_cli.main([path, "--output-dir", out])

        def check(results):
            if results[name] != 0:
                return [f"exit code {results[name]}"]
            summary = _load_json(os.path.splitext(csv_path)[0] + ".summary.json")
            errs = [] if summary.get("pass") is True else ["summary reports no pass"]
            header, body, layout = read_csv(csv_path)
            errs += layout
            want_header, want_rows = expected_layout(cfg)
            if header != want_header:
                errs.append(f"header {header} != {want_header}")
            rows = 0 if body is None else body.shape[0]
            if not rows == want_rows == summary.get("rows"):
                errs.append(f"{rows} rows, expected {want_rows} "
                            f"(summary says {summary.get('rows')})")
            if oracle is not None and body is not None and not errs:
                ndim = cfg["problem"].get("ndim", 1)
                value, abs_error = body[:, ndim], body[:, ndim + 1]
                want = oracle(body)
                errs += _err("value vs oracle", float(np.max(np.abs(value - want))),
                             value_tol)
                errs += _err("abs_error vs |value - oracle|",
                             float(np.max(np.abs(abs_error - np.abs(value - want)))),
                             8.0 * EPS * max(1.0, float(np.max(np.abs(want)))))
            return errs

        return Op(name, run, check)


def _halfint_oracle(body: np.ndarray) -> np.ndarray:
    """Left-sided half-order integral of 1 along axis 0: 2 sqrt(t1) / sqrt(pi)."""
    return TWO_OVER_SQRT_PI * np.sqrt(body[:, 0])


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


WORKLOADS = {cls.name: cls for cls in (Line1D, SolveND, Cli3D)}
