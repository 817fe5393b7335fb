"""The generalized fractional Dirichlet problem.

Solves  min J[u] = sum_i int (B_{P_i}^{alpha_i} u)^2 dt  over fields with a
prescribed boundary trace, by conjugate gradients on the interior unknowns
of the *discrete* energy

    E(u) = sum_i  (M_i u)^T diag(omega) (M_i u),

with M_i the assembled B-operator matrix along axis i and omega the
tensor-product trapezoid weights.  The discrete gradient is the exact
transpose expression 2 sum_i M_i^T omega M_i u — no approximation — so the
discrete Dirichlet principle holds exactly: at the minimizer the residual
sum_i A_{P_i*}(B_{P_i} u), realized through the same transposes, vanishes
on interior nodes to solver tolerance.

The solver reports the gradient in the trapezoid inner product (the Riesz
representative of dE, which equals 2x the BVP residual on interior nodes);
the stopping rule is its max norm falling below ``tol``.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .errors import (DegenerateEnergy, FracvarError, GridMismatch,
                     NoConvergence)
from .ibp import volume_integral
from .model import Field, GridND, KernelSpec, ParamSet, same_grid
from .operators import OpKind, adjoint_apply, apply_matrix_along_axis, \
    apply_op_nd, axis_plans
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
    interior: the Boolean sum of the per-axis endpoint blends."""
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

    acc = np.zeros(grid.shape)
    for r in range(1, d + 1):
        for subset in itertools.combinations(range(d), r):
            term = vals
            for i in subset:
                term = blend(term, i)
            acc += ((-1.0) ** (r + 1)) * np.broadcast_to(term, grid.shape)
    mask = ~grid.interior_mask()
    acc[mask] = vals[mask]
    return Field(grid, acc[np.newaxis])


def minimize_energy(spec: DirichletSpec, init: Optional[Field] = None
                    ) -> MinimizeResult:
    """Minimize the discrete energy by Jacobi-preconditioned conjugate
    gradients on the interior unknowns.

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
    mats = [np.asarray(bp.matrix) for bp in spec.b_plans()]
    omega = grid.trapezoid_weight_tensor()
    interior = grid.interior_mask()
    om_int = omega[interior]

    def grad_full(u_full: np.ndarray) -> np.ndarray:
        """Raw gradient of E on the full grid: 2 sum_i M_i^T omega M_i u."""
        g = np.zeros(grid.shape)
        for i, M in enumerate(mats):
            mu = apply_matrix_along_axis(M, u_full[np.newaxis], i)[0]
            g += apply_matrix_along_axis(M.T, (omega * mu)[np.newaxis], i)[0]
        return 2.0 * g

    u_full = init.values[0].copy()
    x = u_full[interior].copy()
    u_bnd = u_full.copy()
    u_bnd[interior] = 0.0

    def A_apply(x_int: np.ndarray) -> np.ndarray:
        buf = np.zeros(grid.shape)
        buf[interior] = x_int
        return grad_full(buf)[interior]

    b = -grad_full(u_bnd)[interior]

    # Exact diagonal of the interior operator via the tensor structure:
    # diag at node J = 2 sum_i c_i[J_i] prod_{l != i} omega_l[J_l],
    # with c_i[j] = sum_m omega_i[m] M_i[m, j]^2.
    diag = np.zeros(grid.shape)
    wvecs = [ax.trapezoid_weights() for ax in grid.axes]
    for i, M in enumerate(mats):
        c = (wvecs[i][:, None] * M * M).sum(axis=0)
        factors = [c if l == i else wvecs[l] for l in range(grid.ndim)]
        term = factors[0]
        for f in factors[1:]:
            term = np.multiply.outer(term, f)
        diag += term
    diag_int = 2.0 * diag[interior]
    if np.any(diag_int <= 0.0):
        # Degenerate rows (possible for exotic sign patterns): fall back to
        # an unpreconditioned iteration.
        diag_int = np.ones_like(diag_int)

    max_iter = spec.max_iter if spec.max_iter is not None else 10 * x.size

    r = b - A_apply(x)
    z = r / diag_int
    p = z.copy()
    rz = float(r @ z)
    grad_norm = float(np.max(np.abs(r / om_int)))
    it = 0
    while grad_norm > spec.tol:
        if it >= max_iter:
            u_full = u_bnd.copy()
            u_full[interior] = x
            best = Field(grid, u_full[np.newaxis])
            raise NoConvergence(
                f"conjugate gradients hit the iteration cap {max_iter} "
                f"(gradient norm {grad_norm:.3e} > tol {spec.tol:.3e})",
                best=best, iterations=it, gradient_norm=grad_norm)
        Ap = A_apply(p)
        pAp = float(p @ Ap)
        # With pAp > 0 and exact line search the energy decreases by
        # alpha * rz / 2 >= 0 each step; this is the per-iteration
        # monotonicity guard (rz >= 0 holds structurally for diag > 0).
        if pAp <= 0.0:
            raise FracvarError(
                "the discrete energy is not positive definite along a CG "
                "direction; the quadratic form degenerated")
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        z = r / diag_int
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
        it += 1
        grad_norm = float(np.max(np.abs(r / om_int)))

    u_full = u_bnd.copy()
    u_full[interior] = x
    return MinimizeResult(Field(grid, u_full[np.newaxis]), it, grad_norm)


def uniqueness_check(spec: DirichletSpec, init1: Field, init2: Field) -> float:
    """Run the minimization from two admissible inits; return the max-node
    difference of the results (small by uniqueness of the minimizer)."""
    u1 = minimize_energy(spec, init1).field
    u2 = minimize_energy(spec, init2).field
    return float(np.max(np.abs(u1.values - u2.values)))
