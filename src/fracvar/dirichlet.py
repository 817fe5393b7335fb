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

from .errors import (DegenerateEnergy, DomainError, FracvarError,
                     NoConvergence)
from .ibp import _trapezoid_sum
from .model import (Field, GridND, KernelSpec, ParamSet, _check_per_axis,
                    _is_integer, _is_real, check_admissible, check_field)
from .operators import (OpKind, _adjoint, _apply, _matmul_along,
                        apply_matrix_along_axis, axis_plans)


@dataclass(frozen=True)
class DirichletSpec:
    """Problem data: grid, per-axis (pset, alpha, kernel), boundary trace
    psi (scalar field; only its boundary nodes are read), solver tolerance
    and iteration cap (None for the default, 10 per interior node).
    Raises DomainError unless tol is real (``model._is_real``) and positive,
    and max_iter is None or an integer (``model._is_integer``) >= 0."""

    grid: GridND
    psets: tuple[ParamSet, ...]
    alphas: tuple[float, ...]
    kernels: tuple[KernelSpec, ...]
    boundary: Field
    tol: float = 1e-10
    max_iter: Optional[int] = None
    ncomp = 1   # the problem is scalar; read by check_admissible

    def __post_init__(self) -> None:
        _check_per_axis(self, "psets", "alphas", "kernels")
        check_field(self.boundary, self.grid, 1)
        if not (_is_real(self.tol) and self.tol > 0.0):
            raise DomainError(
                f"tol must be a positive finite number, got {self.tol!r}")
        m = self.max_iter
        if m is not None and not (_is_integer(m) and m >= 0):
            raise DomainError(
                f"max_iter must be None or an integer >= 0, got {m!r}")

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
        bu = _apply(bp, u.values)[0]
        total += _trapezoid_sum(bu * bu, spec.grid.axes)
    return total


def bvp_residual(spec: DirichletSpec, u: Field) -> Field:
    """sum_i A_{P_i*}^{alpha_i}(B_{P_i}^{alpha_i} u), the starred operators
    realized as exact transposes; zero in the interior characterizes the
    solution.  The sum runs on arrays: A_{P_i*} is minus the plain
    transpose, so each term ``_adjoint`` of B u is subtracted, the first
    from 0.  x - y rounds as x + (-y), signed zeros included, so the sum is
    bitwise that of the terms of ``adjoint_apply`` with negate=True."""
    check_field(u, spec.grid, 1)
    out = None
    for bp in spec.b_plans():
        term = _adjoint(bp, _apply(bp, u.values))
        if out is None:
            out = np.subtract(0.0, term, out=term)
        else:
            out -= term
    return Field(spec.grid, out)


def transfinite_init(grid: GridND, psi: Field) -> Field:
    """Multilinear (transfinite) interpolation of the boundary data into the
    interior: the Boolean sum of the per-axis endpoint blends P_i, in product
    form I - prod_i (I - P_i) (Gordon & Hall, Int. J. Numer. Meth. Eng. 7,
    1973): one blend per axis.  The node coordinates are exactly 0 and 1 at
    the ends of each axis, so I - P_i vanishes exactly on the faces of axis
    i and boundary nodes keep psi bitwise.  psi must be a scalar field on
    grid (GridMismatch otherwise)."""
    check_field(psi, grid, 1)
    vals = psi.values[0]
    d = grid.ndim
    # rest = prod_i (I - P_i) psi.  Each blend is summed in one buffer shared
    # by all axes: 1.7x faster at 65^3 than grid-sized temporaries per term.
    rest, blend = vals.copy(), np.empty_like(vals)
    for i, ax in enumerate(grid.axes):
        t = ((ax.nodes - ax.a) / (ax.b - ax.a)).reshape((-1,) + (1,) * (d - 1 - i))
        np.multiply(1.0 - t, np.take(rest, [0], axis=i), out=blend)
        blend += t * np.take(rest, [-1], axis=i)
        rest -= blend
    return Field(grid, np.subtract(vals, rest, out=rest)[np.newaxis])


def _gram_rows(grid: GridND, plans) -> list[np.ndarray]:
    """The scaled interior Gram rows c_i G_i[1:-1] per axis: the scale
    c_i = 2 prod_{l != i} h_l times the interior rows of the Gram matrix
    G_i = M_i^T diag(w_i) M_i of the axis-i B-plan's weights M_i.  Scaling
    the (n_i - 1) x (n_i + 1) rows once spares a pass over the grid in
    every product; c_i = 2 in 1D, an exact scale."""
    hs = [ax.h for ax in grid.axes]
    rows = []
    for i, (ax, bp) in enumerate(zip(grid.axes, plans)):
        bm = np.sqrt(ax.trapezoid_weights())[:, None] * bp.matrix
        gram = bm.T @ bm   # numpy's a.T @ a: symmetric bitwise
        rows.append(2.0 * math.prod(hs[:i] + hs[i + 1:]) * gram[1:-1])
    return rows


def _gram_sum(mats: list[np.ndarray], xs: list[np.ndarray]) -> np.ndarray:
    """sum_i (mats[i] along axis i of xs[i])."""
    return sum(apply_matrix_along_axis(m, x[np.newaxis], i)[0]
               for i, (m, x) in enumerate(zip(mats, xs)))


def _interior_gradient(rows: list[np.ndarray], u: np.ndarray) -> np.ndarray:
    """The gradient 2 sum_i M_i^T omega M_i u of the discrete energy on the
    interior nodes of the grid array u: axis i applies the scaled rows
    c_i G_i[1:-1] to the nodes of u that are interior along every other
    axis."""
    d = u.ndim
    return _gram_sum(rows, [
        u[tuple(slice(None) if l == i else slice(1, -1) for l in range(d))]
        for i in range(d)])


def _fast_diagonalization(ts: list[np.ndarray]
                          ) -> Callable[[np.ndarray], np.ndarray]:
    """The exact inverse of the interior Hessian sum_i (c_i T_i along axis
    i), given the scaled blocks c_i T_i, as a map on interior arrays (Lynch,
    Rice & Thomas, Numer. Math. 6, 1964): one eigendecomposition per axis
    diagonalizes the Kronecker sum.  If a denominator sum_i lambda_i is not
    positive the map is the identity (unpreconditioned CG), returning a
    copy.
    """
    if len(ts) == 1:
        # The Kronecker sum is c T itself, and one LU solve costs far less
        # than eigh.  T = B^T B is positive semidefinite and vanishes only
        # for p = q = 0, which returned early under DegenerateEnergy.
        return lambda r: np.linalg.solve(ts[0], r)

    d = len(ts)
    shape = tuple(t.shape[0] for t in ts)
    eigs = [np.linalg.eigh(t) for t in ts]
    denom = np.zeros(shape)
    for i, (lam, _) in enumerate(eigs):
        denom += lam.reshape([-1 if l == i else 1 for l in range(d)])
    if np.any(denom <= 0.0):
        return lambda r: r.copy()

    def apply(r: np.ndarray) -> np.ndarray:
        # One matmul per axis on a (pre, n, post) view: the result stays in
        # axis order, with no transposed copy.
        y = r
        for i, (_, vecs) in enumerate(eigs):
            y = _matmul_along(vecs.T, y, i)   # V_i^T along axis i
        y /= denom
        for i, (_, vecs) in enumerate(eigs):
            y = _matmul_along(vecs, y, i)     # V_i along axis i
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

    For alpha <= 1/2 the minimizers need not converge as the grid is
    refined (H^alpha traces exist only for alpha > 1/2): at alpha = 0.2 the
    max difference of the solutions on n and 2n cells grows with n.

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
    rows = _gram_rows(grid, spec.b_plans())
    ts = [g[:, 1:-1] for g in rows]
    precondition = _fast_diagonalization(ts)
    u = init.values[0].copy()
    inner = u[(slice(1, -1),) * d]   # a view: steps update u in place
    max_iter = spec.max_iter if spec.max_iter is not None else 10 * inner.size

    r = _interior_gradient(rows, u)
    np.negative(r, out=r)
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
        p = z if it == 0 else z + (rz_new / rz) * p
        rz = rz_new
        Ap = _gram_sum(ts, [p] * d)   # the interior Hessian times p
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

