"""Lagrangian evaluation, Euler-Lagrange residuals, and wave residuals.

The functional under study is

    J[u] = int F(t, u, grad_B u, grad_K u) dt

with a B-gradient block v[k][i] = B_{P1_i}^{alpha_i} u_k and a K-gradient
block w[k][i] = K_{P2_i}^{beta_i} u_k (component-major ordering).  The
Euler-Lagrange residual of the fully fractional problem is

    dF/du_k + sum_i [ -A_{P1*_i}^{alpha_i} dF/dv[k][i]
                      + K_{P2*_i}^{beta_i} dF/dw[k][i] ],

zero at extremals.  A mixed variant replaces the w block by the classical
gradient and reads sum_i [ A_{P1*} dF/dv + d/dt_i dF/dw ] - dF/du.

The classical-space wave operator has two discretizations:
``wave_residual`` takes the compact second difference, and
``el_residual_mixed`` of ``wave_lagrangian`` the derivative of the
derivative.  So the latter is -2x the former only up to O(h^2): on
sin(2t+0.3) cos(3x), with a residual of about 8, they differ by 0.34 /
0.044 / 0.0084 at n = 16 / 64 / 256.  On data affine in space both
classical terms vanish.

Realizations of the starred operators: A_{P*} is minus the exact transpose
of the B plan in the trapezoid inner product, in the Euler-Lagrange and the
wave residuals alike, and no A plan is built here.  So residuals of
discrete-energy minimizers vanish to solver tolerance, the residual of the
Dirichlet integrand equals -2x ``dirichlet.bvp_residual`` and that of
``frac_wave_lagrangian`` equals -2x ``wave_residual`` in value on every
grid (exact zeros may differ in sign, so the equalities are those of
``np.array_equal``, not of the bits), and the Noether chain identity closes
in floating point.  K_{P*} terms use the operator built directly on the
dual p-set (so the bracket antisymmetry is exact).

The residuals run on value arrays through the unchecked operator pair
``operators._apply`` / ``operators._adjoint``: the field is checked once on
entry and the result is the one ``Field`` built.  Both Euler-Lagrange
residuals share one body, ``_el``.  Lagrangian outputs are only read:
``_partials`` returns them uncopied, and ``_el`` copies dF/du into the one
array it writes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (DomainError, GradientCheckError, GridMismatch,
                     LengthMismatch)
from .ibp import volume_integral
from .model import (Field, Grid1D, GridND, KernelSpec, ParamSet,
                    _check_per_axis, _is_integer, _is_real, check_admissible,
                    check_field, dual)
from .operators import (OpKind, _adjoint, _apply, axis_plans,
                        derivative_along_axis, make_plan)

_CHECK_RNG_SEED = 1729
_CHECK_POINTS = 7
_FD_STEP = 1e-5
_GRAD_RTOL = 1e-6


@dataclass(frozen=True)
class Lagrangian:
    """F(t, u, v, w) with its first partials, all vectorized over nodes.

    Callback contract (shape = grid node shape):
      eval_fn(t, u, v, w) -> array broadcastable to (*shape)
      d_u(t, u, v, w)     -> array broadcastable to (N, *shape)
      d_v / d_w           -> arrays of exactly the shape (N, n, *shape)
    with t a length-n list of broadcastable coordinate arrays, u of shape
    (N, *shape), v and w of shape (N, n, *shape).  Any other output shape
    raises GridMismatch, and an output whose dtype is not bool, integer or
    float (complex, string, object) raises DomainError.

    Outputs may be read-only views: fracvar never writes into a callback
    output.  A block that is constant over the grid can therefore be
    returned as ``np.broadcast_to(c, shape)``, which costs no grid-sized
    memory; the built-in Lagrangians return their zero blocks so.
    """

    n: int
    N: int
    eval_fn: Callable
    d_u: Callable
    d_v: Callable
    d_w: Callable
    name: str = ""

    @staticmethod
    def define(n: int, N: int, eval_fn, d_u, d_v, d_w, name: str = "") -> "Lagrangian":
        """Build a Lagrangian, validating the supplied partials against
        central finite differences of eval_fn at random arguments.  Raises
        DomainError unless n and N are integers (``model._is_integer``)
        >= 1."""
        if not (_is_integer(n) and n >= 1 and _is_integer(N) and N >= 1):
            raise DomainError(f"a Lagrangian needs integers n >= 1 and "
                              f"N >= 1, got n={n!r}, N={N!r}")
        lag = Lagrangian(n, N, eval_fn, d_u, d_v, d_w, name)
        _gradient_check(lag)
        return lag


def _gradient_check(lag: Lagrangian) -> None:
    rng = np.random.default_rng(_CHECK_RNG_SEED)
    shape = (_CHECK_POINTS,)
    t = [rng.uniform(0.1, 0.9, size=shape) for _ in range(lag.n)]
    u = rng.standard_normal((lag.N,) + shape)
    v = rng.standard_normal((lag.N, lag.n) + shape)
    w = rng.standard_normal((lag.N, lag.n) + shape)

    def fd(block: np.ndarray, index) -> np.ndarray:
        hi = block.copy()
        lo = block.copy()
        hi[index] += _FD_STEP
        lo[index] -= _FD_STEP
        args_hi = {"u": u, "v": v, "w": w}
        args_lo = {"u": u, "v": v, "w": w}
        for nm, arr in (("u", u), ("v", v), ("w", w)):
            if arr is block:
                args_hi[nm] = hi
                args_lo[nm] = lo
        return (lag.eval_fn(t, args_hi["u"], args_hi["v"], args_hi["w"])
                - lag.eval_fn(t, args_lo["u"], args_lo["v"], args_lo["w"])) / (2 * _FD_STEP)

    du, dv, dw = _partials(lag, (t, u, v, w))
    for k in range(lag.N):
        _compare_partial(du[k], fd(u, k), f"dF/du[{k}]", lag.name)
        for i in range(lag.n):
            _compare_partial(dv[k, i], fd(v, (k, i)), f"dF/dv[{k}][{i}]", lag.name)
            _compare_partial(dw[k, i], fd(w, (k, i)), f"dF/dw[{k}][{i}]", lag.name)


def _shaped(value, shape: tuple, label: str, exact: bool = False
            ) -> np.ndarray:
    """A callback output (label names it) as a float array of the given
    shape: exactly that shape when exact, otherwise broadcast to it, and
    no copy of a float array.  Raises DomainError unless the output's dtype
    is bool, integer or float (a complex output is refused, not cast), and
    GridMismatch for any other shape."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "biuf":
        raise DomainError(f"{label} must be bool, integer or float, got "
                          f"dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if exact:
        if arr.shape == shape:
            return arr
    else:
        try:
            return np.broadcast_to(arr, shape)
        except ValueError:
            pass
    raise GridMismatch(
        f"{label} has shape {arr.shape}, expected "
        f"{'' if exact else 'one broadcastable to '}{shape}")


def _partials(lag: Lagrangian, args: tuple, with_du: bool = True):
    """(dF/du, dF/dv, dF/dw) at the callback arguments args = (t, u, v, w),
    called in that order and shaped as the Lagrangian contract promises:
    dF/du broadcast to u's shape (None unless with_du), dF/dv and dF/dw of
    exactly the shape of v and w.  Nothing is copied: the outputs may be
    read-only views (of a constant, or of the arguments), so callers only
    read them."""
    _, u, v, w = args
    label = "Lagrangian output dF/d"
    du = _shaped(lag.d_u(*args), u.shape, label + "u") if with_du else None
    return (du, _shaped(lag.d_v(*args), v.shape, label + "v", exact=True),
            _shaped(lag.d_w(*args), w.shape, label + "w", exact=True))


def _compare_partial(exact: np.ndarray, approx: np.ndarray, label: str,
                     name: str) -> None:
    scale = np.maximum(1.0, np.maximum(np.abs(exact), np.abs(approx)))
    err = np.max(np.abs(exact - approx) / scale)
    if not err <= _GRAD_RTOL:   # NaN fails too
        raise GradientCheckError(
            f"Lagrangian '{name}': partial {label} disagrees with finite "
            f"differences (relative error {err:.2e} > {_GRAD_RTOL})")


@dataclass(frozen=True)
class ProblemSpec:
    """A variational problem: grid, Lagrangian, per-axis operator data for
    the B block (psets1/alphas/kernels_alpha) and the K block
    (psets2/betas/kernels_beta), and optional boundary data psi (a field
    whose boundary nodes hold the prescribed trace)."""

    grid: GridND
    lagrangian: Lagrangian
    psets1: tuple[ParamSet, ...]
    psets2: tuple[ParamSet, ...]
    alphas: tuple[float, ...]
    betas: tuple[float, ...]
    kernels_alpha: tuple[KernelSpec, ...]
    kernels_beta: tuple[KernelSpec, ...]
    boundary: Optional[Field] = None

    def __post_init__(self) -> None:
        _check_per_axis(self, "psets1", "psets2", "alphas", "betas",
                        "kernels_alpha", "kernels_beta")
        if self.lagrangian.n != self.grid.ndim:
            raise LengthMismatch(f"Lagrangian expects {self.lagrangian.n} "
                                 f"variables, grid has {self.grid.ndim}")
        if self.boundary is not None:
            check_field(self.boundary, self.grid, self.lagrangian.N)

    @property
    def ncomp(self) -> int:
        return self.lagrangian.N

    def b_plans(self):
        return axis_plans(OpKind.B, self.alphas, self.psets1,
                          self.kernels_alpha, self.grid)

    def k_plans(self):
        return axis_plans(OpKind.K, self.betas, self.psets2,
                          self.kernels_beta, self.grid)


def _k_dual_plans(spec: ProblemSpec):
    """The K_{P2*} plans: one K plan per axis on the dual of psets2."""
    return axis_plans(OpKind.K, spec.betas,
                      [dual(ps) for ps in spec.psets2], spec.kernels_beta,
                      spec.grid)


def _blocks(spec: ProblemSpec, u: np.ndarray, mixed: bool = False):
    """(t, u, v, w) arguments for the Lagrangian callbacks at the value
    array u; with mixed, the w block is the classical gradient d u / d t_i."""
    d, N = spec.grid.ndim, spec.lagrangian.N
    shape = spec.grid.shape
    v = np.empty((N, d) + shape)
    w = np.empty((N, d) + shape)
    b_plans = spec.b_plans()
    k_plans = None if mixed else spec.k_plans()
    for i, bp in enumerate(b_plans):
        v[:, i] = _apply(bp, u)
        w[:, i] = (derivative_along_axis(u, spec.grid.axes[i], i)
                   if mixed else _apply(k_plans[i], u))
    return spec.grid.coords(), u, v, w


def evaluate_functional(spec: ProblemSpec, u: Field) -> float:
    """J[u]: evaluate F nodewise on the operator blocks and integrate."""
    check_admissible(spec, u)
    fvals = _shaped(spec.lagrangian.eval_fn(*_blocks(spec, u.values)),
                    spec.grid.shape, "Lagrangian output F")
    return volume_integral(Field(spec.grid, fvals[np.newaxis]))


def el_residual(spec: ProblemSpec, u: Field) -> Field:
    """Euler-Lagrange residual of the fully fractional problem,

        dF/du - sum_i A_{P1_i*} dF/dv[.][i] + sum_i K_{P2_i*} dF/dw[.][i],

    oriented as the first-variation density (delta J = <eta, el> for
    admissible eta).  Near-zero in the interior means u is an extremal;
    boundary nodes are not asserted."""
    check_admissible(spec, u)
    return _el(spec, u, mixed=False)


def el_residual_mixed(spec: ProblemSpec, u: Field) -> Field:
    """Euler-Lagrange residual when the third Lagrangian block is the
    classical gradient,

        dF/du - sum_i A_{P1_i*} dF/dv[.][i] - sum_i d/dt_i dF/dw[.][i],

    with the same first-variation orientation as el_residual."""
    check_admissible(spec, u)
    return _el(spec, u, mixed=True)


def _el(spec: ProblemSpec, u: Field, mixed: bool) -> Field:
    """The residual of el_residual, or of el_residual_mixed when mixed: the
    w block and the adjoint of its operator are the classical gradient and
    -d/dt_i instead of K_{P2_i} and K_{P2_i*}, at an admissible u.  It
    runs on arrays; the result is the one Field it builds.

    The blocks are released when ``_partials`` returns; only then is
    dF/du copied into the accumulator, the one array the loop writes, so
    the partials themselves may be read-only views.  On the 3D Dirichlet
    integrand the call holds at most 9 grid-sized arrays.

    A_{P1_i*} is minus the plain transpose ``_adjoint`` of the B plan, so
    its term -A_{P1_i*} dF/dv is added as the transpose itself:
    x + a rounds as x - (-a), bit for bit."""
    du, dv, dw = _partials(spec.lagrangian, _blocks(spec, u.values, mixed))
    res = np.array(du)
    b_plans = spec.b_plans()
    k_duals = None if mixed else _k_dual_plans(spec)
    for i, bp in enumerate(b_plans):
        res += _adjoint(bp, dv[:, i])
        if mixed:
            res -= derivative_along_axis(dw[:, i], spec.grid.axes[i], i)
        else:
            res += _apply(k_duals[i], dw[:, i])
    return Field(spec.grid, res)


def _second_diff_along_axis(values: np.ndarray, grid: Grid1D, axis: int) -> np.ndarray:
    """Compact 3-point second derivative along one axis of a value tensor
    (component axis 0 excluded); second-order one-sided end rows.

    Interior nodes are differenced twice, so data whose first differences
    along the axis are all the equal floating-point value (constants, exactly
    representable linear profiles) map to exact zeros.  The end rows read
    four nodes, so the axis needs at least 3 cells."""
    if grid.n < 3:
        raise DomainError(
            f"the classical second derivative along axis {axis} needs at "
            f"least 3 cells, got {grid.n}")
    h2 = grid.h ** 2
    out = np.empty_like(values)
    f = np.moveaxis(values, axis + 1, 0)
    o = np.moveaxis(out, axis + 1, 0)
    o[1:-1] = np.diff(f, 2, axis=0) / h2
    o[0] = (2.0 * f[0] - 5.0 * f[1] + 4.0 * f[2] - f[3]) / h2
    o[-1] = (2.0 * f[-1] - 5.0 * f[-2] + 4.0 * f[-3] - f[-4]) / h2
    return out


def _check_wave_coefficients(rho: float, stiffness: float) -> None:
    """Raise DomainError unless rho and stiffness are real
    (``model._is_real``) and positive."""
    if not (_is_real(rho) and _is_real(stiffness) and rho > 0 and stiffness > 0):
        raise DomainError(f"rho and stiffness must be finite and positive, "
                          f"got {rho!r}, {stiffness!r}")


def wave_residual(u: Field, rho: float, stiffness: float,
                  time_op: tuple[ParamSet, float, KernelSpec],
                  space_ops: Optional[Sequence[tuple[ParamSet, float, KernelSpec]]] = None
                  ) -> Field:
    """Residual of the generalized wave equations on a (time x space) grid,
    time along axis 0.

    Classical space (space_ops is None):
        rho . A_{Pt*}^a B_{Pt}^a u - stiffness . laplace u
    Fractional space:
        rho . A_{Pt*}^a B_{Pt}^a u - sum_i A_{P*_xi}^{b_i}(stiffness . B_{P_xi}^{b_i} u)

    A_{P*} is minus the plain transpose ``_adjoint`` of the B plan, as in
    ``_el``, so one B plan per axis is built and no A plan.  The
    coefficient is applied inside the transpose, as ``_el`` applies dF/dv:
    with fractional space the residual is then -1/2 el_residual of
    ``frac_wave_lagrangian`` in value (``np.array_equal``); applied outside
    it rounds differently.  Only interior nodes are meaningful.  Raises
    DomainError unless rho and stiffness are finite and positive (NaN and
    inf are refused)."""
    _check_wave_coefficients(rho, stiffness)
    grid = u.grid
    if grid.ndim > 3:
        raise DomainError("wave grids have one time axis plus up to 2 space axes")
    pset_t, alpha_t, kernel_t = time_op
    bp_t = make_plan(OpKind.B, alpha_t, pset_t, kernel_t, grid.axes[0], axis=0)
    out = _adjoint(bp_t, rho * _apply(bp_t, u.values))
    np.negative(out, out=out)
    if space_ops is None:
        for i in range(1, grid.ndim):
            out -= stiffness * _second_diff_along_axis(u.values, grid.axes[i], i)
    else:
        if len(space_ops) != grid.ndim - 1:
            raise LengthMismatch(
                f"need {grid.ndim - 1} space operator triples, got {len(space_ops)}")
        for i, (pset_x, beta_x, kernel_x) in enumerate(space_ops, start=1):
            bp_x = make_plan(OpKind.B, beta_x, pset_x, kernel_x, grid.axes[i], axis=i)
            out += _adjoint(bp_x, stiffness * _apply(bp_x, u.values))
    return Field(grid, out)


# ---------------------------------------------------------------------------
# Built-in Lagrangians


def dirichlet_energy_lagrangian(n: int, N: int = 1) -> Lagrangian:
    """F = |v|^2: the generalized Dirichlet integrand."""
    return Lagrangian.define(
        n, N,
        eval_fn=lambda t, u, v, w: np.sum(v * v, axis=(0, 1)),
        d_u=lambda t, u, v, w: np.broadcast_to(0.0, u.shape),
        d_v=lambda t, u, v, w: 2.0 * v,
        d_w=lambda t, u, v, w: np.broadcast_to(0.0, w.shape),
        name="dirichlet_energy")


def wave_lagrangian(n: int, rho: float = 1.0, stiffness: float = 1.0) -> Lagrangian:
    """F = rho v_t^2 - stiffness |grad u|^2 with the classical gradient in
    the w block (use with el_residual_mixed); time along axis 0.  Raises
    DomainError unless rho and stiffness are finite and positive."""
    _check_wave_coefficients(rho, stiffness)
    def d_v(t, u, v, w):
        out = np.zeros_like(v)
        out[0, 0] = 2.0 * rho * v[0, 0]
        return out

    def d_w(t, u, v, w):
        out = -2.0 * stiffness * w
        out[0, 0] = 0.0
        return out

    return Lagrangian.define(
        n, 1,
        eval_fn=lambda t, u, v, w: (rho * v[0, 0] ** 2
                                    - stiffness * np.sum(w[0, 1:] ** 2, axis=0)),
        d_u=lambda t, u, v, w: np.broadcast_to(0.0, u.shape),
        d_v=d_v, d_w=d_w,
        name="wave")


def frac_wave_lagrangian(n: int, rho: float = 1.0, stiffness: float = 1.0) -> Lagrangian:
    """F = rho v_t^2 - stiffness sum_i v_xi^2: fully fractional wave.
    Raises DomainError unless rho and stiffness are finite and positive."""
    _check_wave_coefficients(rho, stiffness)
    def d_v(t, u, v, w):
        out = -2.0 * stiffness * v
        out[0, 0] = 2.0 * rho * v[0, 0]
        return out

    return Lagrangian.define(
        n, 1,
        eval_fn=lambda t, u, v, w: (rho * v[0, 0] ** 2
                                    - stiffness * np.sum(v[0, 1:] ** 2, axis=0)),
        d_u=lambda t, u, v, w: np.broadcast_to(0.0, u.shape),
        d_v=d_v,
        d_w=lambda t, u, v, w: np.broadcast_to(0.0, w.shape),
        name="frac_wave")


def integral_coupling_lagrangian(n: int, N: int = 1) -> Lagrangian:
    """F = sum_k u_k sum_i w[k][i]: couples the field to its K block."""
    return Lagrangian.define(
        n, N,
        eval_fn=lambda t, u, v, w: np.sum(u[:, np.newaxis] * w, axis=(0, 1)),
        d_u=lambda t, u, v, w: np.sum(w, axis=1),
        d_v=lambda t, u, v, w: np.broadcast_to(0.0, v.shape),
        d_w=lambda t, u, v, w: np.broadcast_to(u[:, np.newaxis], w.shape),
        name="integral_coupling")


BUILTIN_LAGRANGIANS: dict[str, Callable[..., Lagrangian]] = {
    "dirichlet_energy": dirichlet_energy_lagrangian,
    "wave": wave_lagrangian,
    "frac_wave": frac_wave_lagrangian,
    "integral_coupling": integral_coupling_lagrangian,
}
