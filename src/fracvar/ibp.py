"""Numerical verification of the integration-by-parts identities.

Two identities are checked on rectangular grids, both with operators acting
along a single axis:

  duality of K:   int f . K_P eta  =  int eta . K_{P*} f
  full IBP:       int f . B_P eta  =  int_boundary eta . K_{P*}^(1-alpha) f . nu
                                      - int eta . A_{P*} f

Both sides are discretized independently (the adjoint side uses operators
built by make_plan on the dual p-set, not matrix transposes), so the
reported residual measures genuine quadrature error and must shrink under
refinement.  Volume and face integrals use the tensor-product trapezoidal
rule, contracted one axis at a time with each axis's 1D weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import (Field, Grid1D, KernelFamily, KernelSpec, ParamSet,
                    check_axis, check_field, dual)
from .operators import OpKind, _apply, make_plan


@dataclass(frozen=True)
class IbpReport:
    """Outcome of one identity check.

    ``residual`` is |lhs - rhs|; ``residual_rel`` divides by
    max(|lhs|, |rhs|, 1e-14) for cases with near-zero sides.
    ``unverified_hypotheses`` is set when the kernel's integrability /
    smoothness hypotheses cannot be certified (tabulated kernels).
    """

    lhs: float
    rhs: float
    boundary_term: float
    residual: float
    residual_rel: float
    grid_n: int
    unverified_hypotheses: bool = False


def _make_report(lhs: float, rhs: float, boundary_term: float, grid_n: int,
                 unverified: bool) -> IbpReport:
    residual = abs(lhs - rhs)
    rel = residual / max(abs(lhs), abs(rhs), 1e-14)
    return IbpReport(lhs, rhs, boundary_term, residual, rel, grid_n, unverified)


def _trapezoid_sum(vals: np.ndarray, axes: tuple[Grid1D, ...]) -> float:
    """Tensor-product trapezoidal rule of vals, one array axis per grid
    axis, contracted one axis at a time from the last; no weight tensor is
    formed.  On one axis this is sum(w * vals).  Values not in C order are
    copied into it first: numpy's summation order follows the memory
    layout, and the sum must not."""
    vals = np.ascontiguousarray(vals)
    for ax in axes[:0:-1]:
        vals = np.sum(vals * ax.trapezoid_weights(), axis=-1)
    return float(np.sum(axes[0].trapezoid_weights() * vals))


def volume_integral(f: Field) -> float:
    """Tensor-product trapezoidal rule over the whole rectangle."""
    return _trapezoid_sum(f.data, f.grid.axes)


def boundary_integral(g: Field, axis: int) -> float:
    """int_boundary g . nu^axis: the trapezoid integral of g over the face
    t_axis = b minus the one over t_axis = a (the two faces with nonzero
    component of the outward normal along ``axis``).  For a 1D grid this is
    g(b) - g(a)."""
    check_axis(g.grid, axis)
    return _face_sum(g.data, g.grid.axes, axis)


def _face_sum(vals: np.ndarray, axes: tuple[Grid1D, ...], axis: int) -> float:
    """``boundary_integral`` of the value array vals (one array axis per
    grid axis), unchecked."""
    faces = np.moveaxis(vals, axis, 0)
    if len(axes) == 1:
        return float(faces[-1] - faces[0])
    others = axes[:axis] + axes[axis + 1:]
    return _trapezoid_sum(faces[-1], others) - _trapezoid_sum(faces[0], others)


def _common_checks(f: Field, eta: Field, axis: int) -> Grid1D:
    check_field(eta, f.grid)
    if f.ncomp != 1 or eta.ncomp != 1:
        raise DomainError("identity checks take single-component fields")
    check_axis(f.grid, axis)
    return f.grid.axes[axis]


def check_K_duality(f: Field, eta: Field, pset: ParamSet, order: float,
                    kernel: KernelSpec, axis: int) -> IbpReport:
    """Check  int f . K_P eta = int eta . K_{P*} f  along one axis."""
    grid = _common_checks(f, eta, axis)
    plan = make_plan(OpKind.K, order, pset, kernel, grid, axis)
    plan_dual = make_plan(OpKind.K, order, dual(pset), kernel, grid, axis)
    axes = f.grid.axes
    lhs = _trapezoid_sum(f.data * _apply(plan, eta.values)[0], axes)
    rhs = _trapezoid_sum(eta.data * _apply(plan_dual, f.values)[0], axes)
    unverified = kernel.family is KernelFamily.TABULATED
    return _make_report(lhs, rhs, 0.0, grid.n, unverified)


def check_ibp(f: Field, eta: Field, pset: ParamSet, order: float,
              kernel: KernelSpec, axis: int) -> IbpReport:
    """Check the full identity
    int f . B_P eta = int_boundary eta . K_{P*}^(1-alpha) f . nu - int eta . A_{P*} f
    along one axis; the boundary term is reported separately."""
    grid = _common_checks(f, eta, axis)
    b_plan = make_plan(OpKind.B, order, pset, kernel, grid, axis)
    k_dual = make_plan(OpKind.K, 1.0 - order, dual(pset), kernel, grid, axis)
    a_dual = make_plan(OpKind.A, order, dual(pset), kernel, grid, axis)
    axes = f.grid.axes
    lhs = _trapezoid_sum(f.data * _apply(b_plan, eta.values)[0], axes)
    bterm = _face_sum(eta.data * _apply(k_dual, f.values)[0], axes, axis)
    rhs = bterm - _trapezoid_sum(eta.data * _apply(a_dual, f.values)[0], axes)
    unverified = kernel.family is KernelFamily.TABULATED
    return _make_report(lhs, rhs, bterm, grid.n, unverified)
