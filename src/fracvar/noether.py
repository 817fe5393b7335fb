"""Invariance testing and the generalized fractional Noether identity.

For a one-parameter family u + eps xi(t, u) + o(eps), the necessary
condition of invariance of J is the pointwise vanishing of

    sum_k [ dF/du_k . xi_k
            + sum_i ( dF/dv[k][i] . B_{P1_i} xi_k
                      + dF/dw[k][i] . K_{P2_i} xi_k ) ],

and the Noether combination built from the bilinear brackets

    D[f, g] = f . A_{P*} g + g . B_P f
    I[f, g] = -f . K_{P*} g + g . K_P f

vanishes along extremals.  Substituting the Euler-Lagrange equations into
the invariance condition yields the unconditional chain identity

    noether_residual = invariance_residual - sum_k xi_k . el_residual_k

which holds nodewise for any field, extremal or not; the operator
realizations here match el_residual exactly so the identity closes to
floating-point accuracy.

The residuals run on value arrays: each bracket has a private twin,
``_bracket_D`` / ``_bracket_I``, that takes the plans and the arrays.  The
public brackets check their fields and axis, build their plans and call
the twin; ``_noether`` calls the twins with the spec's plans.  A chain
builds four ``Field``s: the generator sample and its three residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .model import (Field, KernelSpec, ParamSet, check_admissible, check_axis,
                    check_field, dual)
from .operators import FracOpPlan, OpKind, _adjoint, _apply, make_plan
from .variational import (ProblemSpec, _blocks, _el, _k_dual_plans,
                          _partials, _shaped)


@dataclass(frozen=True)
class SymmetryGenerator:
    """The linearized transformation direction xi(t, u) -> R^N.

    ``xi`` receives the list of coordinate arrays and the field values
    (N, *shape) and returns the generator samples (N, *shape).  Sampled
    generators are screened by a finite-difference smoothness heuristic
    (second differences bounded as for a C^1 function).
    """

    xi: Callable
    description: str = ""

    def sample(self, spec: ProblemSpec, u: Field) -> Field:
        """The samples xi(t, u) broadcast to (N, *shape); any other shape
        raises GridMismatch, and a dtype other than bool, integer or float
        (complex, string, object) raises DomainError."""
        vals = _shaped(self.xi(spec.grid.coords(), u.values),
                       (u.ncomp,) + spec.grid.shape,
                       f"generator {self.description!r} output")
        field = Field(spec.grid, vals)
        _smoothness_screen(field, self.description)
        return field


def _smoothness_screen(f: Field, label: str) -> None:
    """Reject generators whose samples have the second-difference signature
    of a kink: for C^1 data |delta^2| decays faster than h^1.5; a corner
    keeps |delta^2| ~ h."""
    for axis, ax in enumerate(f.grid.axes):
        vals = np.moveaxis(f.values, axis + 1, -1)
        d1 = np.abs(np.diff(vals, axis=-1)).max()
        d2 = np.abs(np.diff(vals, 2, axis=-1)).max()
        h = ax.h
        bound = 10.0 * np.sqrt(h) * max(d1, h * max(1.0, np.abs(vals).max()))
        if d2 > bound:
            raise DomainError(
                f"symmetry generator {label!r} fails the smoothness "
                f"heuristic along axis {axis}: max second difference "
                f"{d2:.3e} exceeds {bound:.3e}")


def invariance_residual(spec: ProblemSpec, u: Field, gen: SymmetryGenerator) -> Field:
    """Nodewise necessary condition of invariance; near-zero everywhere
    certifies invariance of the functional under the generator."""
    check_admissible(spec, u)
    return _invariance(spec, u, gen.sample(spec, u))


def _invariance(spec: ProblemSpec, u: Field, xi: Field) -> Field:
    du, dv, dw = _partials(spec.lagrangian, _blocks(spec, u.values))
    x = xi.values
    res = np.sum(du * x, axis=0)
    for i, (bp, kp) in enumerate(zip(spec.b_plans(), spec.k_plans())):
        res += np.sum(dv[:, i] * _apply(bp, x) + dw[:, i] * _apply(kp, x),
                      axis=0)
    return Field(spec.grid, res[np.newaxis])


def _bracket_D(bp: FracOpPlan, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """D[f, g] on value arrays, with the B_P plan bp of the axis.  A_{P*} g
    is minus the plain transpose ``_adjoint(bp, g)``, so its term is
    subtracted; g * a - f * b rounds as f * (-b) + g * a, bit for bit."""
    return g * _apply(bp, f) - f * _adjoint(bp, g)


def _bracket_I(kp: FracOpPlan, kdp: FracOpPlan, f: np.ndarray,
               g: np.ndarray) -> np.ndarray:
    """I[f, g] on value arrays, with the K_P plan kp of the axis and the
    K_{P*} plan kdp."""
    return -f * _apply(kdp, g) + g * _apply(kp, f)


def bracket_D(f: Field, g: Field, pset: ParamSet, order: float,
              kernel: KernelSpec, axis: int) -> Field:
    """D[f, g] = f . A_{P*} g + g . B_P f along one axis (A_{P*} realized
    as the exact transpose of the B_P matrix)."""
    check_field(g, f.grid, f.ncomp)
    check_axis(f.grid, axis)
    bp = make_plan(OpKind.B, order, pset, kernel, f.grid.axes[axis], axis=axis)
    return Field(f.grid, _bracket_D(bp, f.values, g.values))


def bracket_I(f: Field, g: Field, pset: ParamSet, order: float,
              kernel: KernelSpec, axis: int) -> Field:
    """I[f, g] = -f . K_{P*} g + g . K_P f along one axis (K_{P*} built
    directly on the dual p-set, so I[f,g,P] = -I[g,f,P*] exactly)."""
    check_field(g, f.grid, f.ncomp)
    check_axis(f.grid, axis)
    kp = make_plan(OpKind.K, order, pset, kernel, f.grid.axes[axis], axis=axis)
    kp_dual = make_plan(OpKind.K, order, dual(pset), kernel, f.grid.axes[axis],
                        axis=axis)
    return Field(f.grid, _bracket_I(kp, kp_dual, f.values, g.values))


def noether_residual(spec: ProblemSpec, u: Field, gen: SymmetryGenerator) -> Field:
    """sum_k sum_i ( D[xi_k, dF/dv[k][i]] + I[xi_k, dF/dw[k][i]] );
    near-zero on extremals of an invariant functional is the Noether
    identity."""
    check_admissible(spec, u)
    return _noether(spec, u, gen.sample(spec, u))


def _noether(spec: ProblemSpec, u: Field, xi: Field) -> Field:
    _, dv, dw = _partials(spec.lagrangian, _blocks(spec, u.values),
                          with_du=False)
    x = xi.values
    res = np.zeros(spec.grid.shape)
    for i, (bp, kp, kdp) in enumerate(zip(spec.b_plans(), spec.k_plans(),
                                          _k_dual_plans(spec))):
        res += np.sum(_bracket_D(bp, x, dv[:, i])
                      + _bracket_I(kp, kdp, x, dw[:, i]), axis=0)
    return Field(spec.grid, res[np.newaxis])


def chain_identity_residual(spec: ProblemSpec, u: Field,
                            gen: SymmetryGenerator) -> float:
    """Max-node defect of the unconditional identity
    noether = invariance - sum_k xi_k . el_k; floating-point small for any
    u because all three terms share the same operator realizations and the
    same generator sample."""
    return _chain(spec, u, gen)[0]


def _chain(spec: ProblemSpec, u: Field, gen: SymmetryGenerator):
    """(chain defect, noether residual, invariance residual): u is checked
    and the generator sampled once, and each term is computed once."""
    check_admissible(spec, u)
    xi = gen.sample(spec, u)
    noe = _noether(spec, u, xi)
    inv = _invariance(spec, u, xi)
    el = _el(spec, u, mixed=False).values
    defect = noe.data - inv.data + np.sum(xi.values * el, axis=0)
    return float(np.max(np.abs(defect))), noe, inv
