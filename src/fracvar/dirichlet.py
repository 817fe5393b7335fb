"""The generalized fractional Dirichlet problem.

Solves  min J[u] = sum_i int (B_{P_i}^{alpha_i} u)^2 dt  over fields with a
prescribed boundary trace, by preconditioned conjugate gradients on the
interior unknowns of the *discrete* energy

    E(u) = sum_i  (M_i u)^T diag(omega) (M_i u),

with M_i the B-operator weights along axis i and omega the tensor-product
trapezoid weights.  The weights of the other axes commute with M_i, so the
gradient 2 sum_i M_i^T omega M_i u is, on every interior node, the Gram
form

    sum_i c_i (G_i[1:-1, :] along axis i) u,   G_i = M_i^T diag(w_i) M_i,

with c_i = 2 prod_{l != i} h_l (every interior weight of axis l is h_l):
exact algebra, no approximation, so the discrete Dirichlet principle
holds: at the minimizer the residual sum_i A_{P_i*}(B_{P_i} u), realized
through the exact transposes of ``adjoint_apply``, vanishes on interior
nodes to solver tolerance.

The interior Hessian is the Kronecker sum sum_i c_i (T_i along axis i) with
T_i = G_i[1:-1, 1:-1], so fast diagonalization (one eigendecomposition per
axis; one LU solve in 1D) inverts it exactly.  CG keeps it as its
preconditioner and so converges in one or two iterations; CG still
iterates on the computed gradient above, so the stopping rule and the
discrete principle are unchanged.  CG runs on the interior array, one
Gram product per axis per step, and updates the grid iterate through its
interior slice.

The solver reports the gradient in the trapezoid inner product (the Riesz
representative of dE, which equals 2x the BVP residual on interior nodes);
the stopping rule is its max norm falling below ``tol``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (DegenerateEnergy, FracvarError, GridMismatch,
                     NoConvergence)
from .ibp import volume_integral
from .model import Field, GridND, KernelSpec, ParamSet, same_grid
from .operators import (OpKind, adjoint_apply, apply_matrix_along_axis,
                        apply_op_nd, axis_plans)
from .variational import check_admissible


@dataclass(frozen=True)
class DirichletSpec:
    """Problem data: grid, per-axis (pset, alpha, kernel), boundary trace
    psi (scalar field; only its boundary nodes are read), solver tolerance
    and iteration cap."""

    grid: GridND
    psets: tuple[ParamSet, ...]
    alphas: tuple[float, ...]
    kernels: tuple[KernelSpec, ...]
    boundary: Field
    tol: float = 1e-10
    max_iter: Optional[int] = None
    ncomp = 1   # the problem is scalar; read by check_admissible

    def __post_init__(self) -> None:
        d = self.grid.ndim
        for nm in ("psets", "alphas", "kernels"):
            val = tuple(getattr(self, nm))
            object.__setattr__(self, nm, val)
            if len(val) != d:
                raise GridMismatch(f"{nm} must have length {d}, got {len(val)}")
        same_grid(self.boundary.grid, self.grid)
        if self.boundary.ncomp != 1:
            raise GridMismatch("the Dirichlet problem is scalar (N = 1)")

    def b_plans(self):
        return axis_plans(OpKind.B, self.alphas, self.psets, self.kernels,
                          self.grid)


class MinimizeResult(NamedTuple):
    field: Field
    iterations: int
    gradient_norm: float


def energy(spec: DirichletSpec, u: Field) -> float:
    """J[u] = sum_i int (B_i u)^2 dt by the shared trapezoid quadrature."""
    check_admissible(spec, u)
    total = 0.0
    for bp in spec.b_plans():
        bu = apply_op_nd(bp, u).data
        total += volume_integral(Field(spec.grid, bu * bu))
    return total


def bvp_residual(spec: DirichletSpec, u: Field) -> Field:
    """sum_i A_{P_i*}^{alpha_i}(B_{P_i}^{alpha_i} u), the starred operators
    realized as exact transposes; zero in the interior characterizes the
    solution."""
    same_grid(u.grid, spec.grid)
    out = np.zeros((1,) + spec.grid.shape)
    for bp in spec.b_plans():
        out += adjoint_apply(bp, apply_op_nd(bp, u), negate=True).values
    return Field(spec.grid, out, flagged_boundary=True)


def transfinite_init(grid: GridND, psi: Field) -> Field:
    """Multilinear (transfinite) interpolation of the boundary data into the
    interior: the Boolean sum of the per-axis endpoint blends P_i, in product
    form I - prod_i (I - P_i) (Gordon & Hall, Int. J. Numer. Meth. Eng. 7,
    1973): one blend per axis.  The node coordinates are exactly 0 and 1 at
    the ends of each axis, so I - P_i vanishes exactly on the faces of axis
    i and boundary nodes keep psi bitwise."""
    vals = psi.values[0]
    d = grid.ndim
    xi = []
    for i, ax in enumerate(grid.axes):
        t = (ax.nodes - ax.a) / (ax.b - ax.a)
        shape = [1] * d
        shape[i] = t.size
        xi.append(t.reshape(shape))

    def blend(arr: np.ndarray, i: int) -> np.ndarray:
        lo = np.take(arr, [0], axis=i)
        hi = np.take(arr, [-1], axis=i)
        return (1.0 - xi[i]) * lo + xi[i] * hi

    rest = vals
    for i in range(d):
        rest = rest - blend(rest, i)
    return Field(grid, (vals - rest)[np.newaxis])


def _gram_rows(grid: GridND, plans) -> tuple[list[float], list[np.ndarray]]:
    """(c_i, G_i[1:-1]) per axis: the scale c_i = 2 prod_{l != i} h_l and
    the interior rows of the Gram matrix G_i = M_i^T diag(w_i) M_i of the
    axis-i B-plan's weights M_i."""
    hs = [ax.h for ax in grid.axes]
    cs = [2.0 * math.prod(hs[:i] + hs[i + 1:]) for i in range(grid.ndim)]
    rows = []
    for ax, bp in zip(grid.axes, plans):
        bm = np.sqrt(ax.trapezoid_weights())[:, None] * bp.matrix
        rows.append((bm.T @ bm)[1:-1])   # numpy's a.T @ a: symmetric bitwise
    return cs, rows


def _gram_sum(cs: list[float], mats: list[np.ndarray],
              xs: list[np.ndarray]) -> np.ndarray:
    """sum_i c_i (mats[i] along axis i of xs[i])."""
    return sum(c * apply_matrix_along_axis(m, x[np.newaxis], i)[0]
               for i, (c, m, x) in enumerate(zip(cs, mats, xs)))


def _interior_gradient(cs: list[float], rows: list[np.ndarray],
                       u: np.ndarray) -> np.ndarray:
    """The gradient 2 sum_i M_i^T omega M_i u of the discrete energy on the
    interior nodes of the grid array u: axis i applies G_i[1:-1] to the
    nodes of u that are interior along every other axis."""
    d = u.ndim
    return _gram_sum(cs, rows, [
        u[tuple(slice(None) if l == i else slice(1, -1) for l in range(d))]
        for i in range(d)])


def _fast_diagonalization(cs: list[float], ts: list[np.ndarray]
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """The exact inverse of the interior Hessian sum_i c_i (T_i along axis
    i), as a map on interior arrays (Lynch, Rice & Thomas, Numer. Math. 6,
    1964): one eigendecomposition per axis diagonalizes the Kronecker sum.
    If a denominator sum_i c_i lambda_i is not positive the map is the
    identity (unpreconditioned CG).
    """
    if len(ts) == 1:
        # The Kronecker sum is c T itself, and one LU solve costs far less
        # than eigh.  T = B^T B is positive semidefinite and vanishes only
        # for p = q = 0, which returned early under DegenerateEnergy.
        return lambda r: np.linalg.solve(ts[0], r) / cs[0]

    d = len(ts)
    shape = tuple(t.shape[0] for t in ts)
    eigs = [np.linalg.eigh(t) for t in ts]
    denom = np.zeros(shape)
    for i, (c, (lam, _)) in enumerate(zip(cs, eigs)):
        denom += c * lam.reshape([-1 if l == i else 1 for l in range(d)])
    if np.any(denom <= 0.0):
        return lambda r: r

    def apply(r: np.ndarray) -> np.ndarray:
        # Each tensordot contracts axis 0 and appends the result axis last,
        # so d of them visit every axis once and restore the axis order.
        y = r
        for _, vecs in eigs:
            y = np.tensordot(y, vecs, axes=(0, 0))   # V_i^T along axis i
        y = y / denom
        for _, vecs in eigs:
            y = np.tensordot(y, vecs, axes=(0, 1))   # V_i along axis i
        return y
    return apply


def minimize_energy(spec: DirichletSpec, init: Optional[Field] = None
                    ) -> MinimizeResult:
    """Minimize the discrete energy by conjugate gradients on the interior
    array, preconditioned by fast diagonalization.  Both the gradient and
    the Hessian act through one Gram matrix G_i = M_i^T diag(w_i) M_i per
    axis: the gradient applies the interior rows of every G_i to the grid
    iterate, the Hessian applies T_i = G_i[1:-1, 1:-1] to interior arrays,
    and the exact inverse of that Kronecker sum (one eigendecomposition per
    axis; one LU solve on a 1D grid) makes CG converge in one or two
    iterations.  The iterate is one copy of the init, updated through its
    interior slice; the first residual is minus its gradient there.

    Returns (field, iterations, final gradient norm); raises
    NoConvergence (carrying the best iterate) past ``max_iter``.  If every
    p-set has p = q = 0 the energy is identically zero and the init is
    returned unchanged under a DegenerateEnergy warning.
    """
    if init is None:
        init = transfinite_init(spec.grid, spec.boundary)
    check_admissible(spec, init)

    if all(ps.p == 0.0 and ps.q == 0.0 for ps in spec.psets):
        warnings.warn("all p-set weights vanish: the energy is identically "
                      "zero and every admissible field is a minimizer",
                      DegenerateEnergy)
        return MinimizeResult(init, 0, 0.0)

    grid = spec.grid
    d = grid.ndim
    vol = math.prod(ax.h for ax in grid.axes)   # every interior weight
    cs, rows = _gram_rows(grid, spec.b_plans())
    ts = [g[:, 1:-1] for g in rows]
    u = init.values[0].copy()
    inner = u[(slice(1, -1),) * d]   # a view: steps update u in place
    precondition = _fast_diagonalization(cs, ts)
    max_iter = spec.max_iter if spec.max_iter is not None else 10 * inner.size

    r = -_interior_gradient(cs, rows, u)
    grad_norm = float(np.max(np.abs(r))) / vol
    it = 0
    while grad_norm > spec.tol:
        if it >= max_iter:
            raise NoConvergence(
                f"conjugate gradients hit the iteration cap {max_iter} "
                f"(gradient norm {grad_norm:.3e} > tol {spec.tol:.3e})",
                best=Field(grid, u[np.newaxis]), iterations=it,
                gradient_norm=grad_norm)
        # The preconditioned residual is formed only when another step is
        # taken: on a long 1D line each application is an O(n^3) solve.
        z = precondition(r)
        rz_new = float(np.vdot(r, z))
        # Copy: the identity fallback returns r itself, updated below.
        p = z.copy() if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        Ap = _gram_sum(cs, ts, [p] * d)   # the interior Hessian times p
        pAp = float(np.vdot(p, Ap))
        # With pAp > 0 and exact line search the energy decreases by
        # alpha * rz / 2 >= 0 each step; this is the per-iteration
        # monotonicity guard (rz >= 0 holds structurally for a positive
        # definite preconditioner).
        if pAp <= 0.0:
            raise FracvarError(
                "the discrete energy is not positive definite along a CG "
                "direction; the quadratic form degenerated")
        alpha = rz / pAp
        inner += alpha * p
        r -= alpha * Ap
        it += 1
        grad_norm = float(np.max(np.abs(r))) / vol

    return MinimizeResult(Field(grid, u[np.newaxis]), it, grad_norm)


def uniqueness_check(spec: DirichletSpec, init1: Field, init2: Field) -> float:
    """Run the minimization from two admissible inits; return the max-node
    difference of the results (small by uniqueness of the minimizer)."""
    u1 = minimize_energy(spec, init1).field
    u2 = minimize_energy(spec, init2).field
    return float(np.max(np.abs(u1.values - u2.values)))
