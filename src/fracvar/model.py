"""Shared data model: parameter sets, kernels, grids, sampled fields, and
the admissibility checks every entry point runs on them.

A generalized fractional operator is parametrized by a *parameter set*
(p-set) weighting its left and right kernel integrals, and by a difference
kernel k_alpha(s).  All operators and solvers in this package act on fields
sampled on uniform rectangular grids.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import (AxisError, BoundaryViolation, DomainError, GridMismatch,
                     LengthMismatch)

#: Hard cap on cells per axis.  Plans are O(n), but the power-kernel cell
#: moments lose precision to cancellation as n grows (relative error about
#: 2e-8 at n = 4096 for kernel order 0.1).
MAX_CELLS_PER_AXIS = 4096

#: Largest boundary-trace deviation an admissible field may show.
_BOUNDARY_TOL = 1e-12

_REAL_TYPES = (int, float, np.integer, np.floating)


def _is_real(x) -> bool:
    """The one real-number rule (callers add range and error type): a
    finite int, float or numpy integer or floating scalar, not a bool."""
    if isinstance(x, bool) or not isinstance(x, _REAL_TYPES):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:   # an int beyond the float range
        return False


def _is_integer(x) -> bool:
    """The one integer rule: an int or numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


@dataclass(frozen=True)
class ParamSet:
    """Parameter set <a, t, b, p, q> for a generalized fractional operator.

    ``p`` weights the integral over (a, t) and ``q`` the integral over
    (t, b).  The evaluation variable t ranges over the grid and is supplied
    by the operator, so only (a, b, p, q) are stored.  Raises DomainError
    unless a, b, p and q are real (``_is_real``) and a < b.
    """

    a: float
    b: float
    p: float
    q: float

    def __post_init__(self) -> None:
        if not all(map(_is_real, (self.a, self.b, self.p, self.q))):
            raise DomainError(
                f"ParamSet requires finite real a, b, p, q, got a={self.a!r}, "
                f"b={self.b!r}, p={self.p!r}, q={self.q!r}")
        if not (self.a < self.b):
            raise DomainError(f"ParamSet requires a < b, got a={self.a}, b={self.b}")


def dual(P: ParamSet) -> ParamSet:
    """The dual p-set: left and right weights swapped, endpoints unchanged."""
    return ParamSet(P.a, P.b, P.q, P.p)


class KernelFamily(enum.Enum):
    RIEMANN_LIOUVILLE = "riemann_liouville"
    CONSTANT = "constant"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class KernelSpec:
    """A difference kernel k_alpha(s), s > 0.

    * RIEMANN_LIOUVILLE: k_alpha(s) = s^(alpha-1) / Gamma(alpha).
    * CONSTANT: k(s) = 1 (the plain running integral).
    * TABULATED: linear interpolation of user samples (s_i, k_i), strictly
      increasing in s with s_1 > 0, extended by the first sample's value on
      (0, s_1).  ``make_plan`` raises RangeError when the grid needs s past
      the last sample.

    ``order`` is the subscript of k_alpha, for the RIEMANN_LIOUVILLE family
    only.  It may be left None, in which case operator construction resolves
    it to the effective order the operator needs (alpha for a K-op, 1-alpha
    for A/B-ops).  If set, it must match that effective order.

    Raises DomainError unless family is a KernelFamily, unless an RL order is
    None or real (``_is_real``) in (0, 1], and unless order is None for the
    other families.

    Kernels compare and hash by content: family, order and the bytes of
    the samples (a read-only copy), so equal kernels built apart are equal
    and key one cache entry.
    """

    family: KernelFamily
    order: Optional[float] = None
    samples: Optional[np.ndarray] = dc_field(default=None, compare=False)
    _sample_bytes: Optional[bytes] = dc_field(init=False, repr=False,
                                              default=None)

    def __post_init__(self) -> None:
        if not isinstance(self.family, KernelFamily):
            raise DomainError(
                f"kernel family must be a KernelFamily, got {self.family!r}")
        if self.family is KernelFamily.RIEMANN_LIOUVILLE:
            if self.order is not None and not (
                    _is_real(self.order) and 0.0 < self.order <= 1.0):
                raise DomainError(
                    f"Riemann-Liouville kernel order must be a real number in "
                    f"(0, 1], got {self.order!r}")
        elif self.order is not None:
            raise DomainError(f"a {self.family.value} kernel takes no order, "
                              f"got {self.order!r}")
        if self.family is not KernelFamily.TABULATED:
            if self.samples is not None:
                raise DomainError("samples are only valid for the TABULATED family")
        else:
            if self.samples is None:
                raise DomainError("TABULATED kernel requires samples")
            arr = np.asarray(self.samples, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 2 or arr.shape[0] < 2:
                raise DomainError("samples must be an (m, 2) array of (s, value) pairs, m >= 2")
            s = arr[:, 0]
            if s[0] <= 0.0:
                raise DomainError("tabulated kernel samples require s > 0")
            if not np.all(np.diff(s) > 0.0):
                raise DomainError("tabulated kernel samples must be strictly increasing in s")
            if not np.all(np.isfinite(arr)):
                raise DomainError("tabulated kernel samples must be finite")
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, "samples", arr)
            object.__setattr__(self, "_sample_bytes", arr.tobytes())

    def with_order(self, order: float) -> "KernelSpec":
        return KernelSpec(self.family, order, self.samples)


def rl_kernel(order: Optional[float] = None) -> KernelSpec:
    """Riemann-Liouville power kernel; order None defers to the operator."""
    return KernelSpec(KernelFamily.RIEMANN_LIOUVILLE, order)


def constant_kernel() -> KernelSpec:
    """The kernel k(s) = 1, turning K into the plain running integral."""
    return KernelSpec(KernelFamily.CONSTANT)


def tabulated_kernel(samples: np.ndarray) -> KernelSpec:
    return KernelSpec(KernelFamily.TABULATED, None, np.asarray(samples, dtype=float))


@dataclass(frozen=True)
class Grid1D:
    """Uniform grid with n cells on [a, b]; n+1 nodes, endpoints exact.
    Raises DomainError unless a, b and b - a are ``_is_real``, a < b and n is
    ``_is_integer`` with 2 <= n <= MAX_CELLS_PER_AXIS."""

    a: float
    b: float
    n: int
    nodes: np.ndarray = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not (_is_real(self.a) and _is_real(self.b)
                and _is_real(self.b - self.a)):
            raise DomainError(f"grid requires finite real a, b and b - a, "
                              f"got a={self.a!r}, b={self.b!r}")
        if not _is_integer(self.n):
            raise DomainError(
                f"grid requires an integer n, got {self.n!r}")
        if not (self.a < self.b):
            raise DomainError(f"grid requires a < b, got a={self.a}, b={self.b}")
        if self.n < 2:
            raise DomainError(f"grid requires n >= 2 cells, got n={self.n}")
        if self.n > MAX_CELLS_PER_AXIS:
            raise DomainError(
                f"grid cap is {MAX_CELLS_PER_AXIS} cells per axis, got n={self.n}")
        nodes = np.linspace(self.a, self.b, self.n + 1)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @property
    def h(self) -> float:
        return (self.b - self.a) / self.n

    def trapezoid_weights(self) -> np.ndarray:
        w = np.full(self.n + 1, self.h)
        w[0] = w[-1] = 0.5 * self.h
        return w


def make_uniform_grid(a: float, b: float, n: int) -> Grid1D:
    """Uniform 1D grid; raises DomainError as Grid1D does."""
    return Grid1D(a, b, n)


@dataclass(frozen=True)
class GridND:
    """Cartesian product of 1D grids: the rectangle (a_1,b_1) x ... x (a_d,b_d).
    Raises DomainError unless there is at least one axis and every axis is
    a Grid1D."""

    axes: tuple[Grid1D, ...]

    def __post_init__(self) -> None:
        axes = tuple(self.axes)
        if len(axes) < 1:
            raise DomainError("GridND requires at least one axis")
        for ax in axes:
            if not isinstance(ax, Grid1D):
                raise DomainError(
                    f"GridND axes must be Grid1D grids, got {ax!r}")
        object.__setattr__(self, "axes", axes)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n + 1 for ax in self.axes)

    def coords(self) -> list[np.ndarray]:
        """Node coordinate arrays in 'ij' meshgrid layout (broadcast views)."""
        return list(np.meshgrid(*(ax.nodes for ax in self.axes),
                                indexing="ij", sparse=True))

    def interior_mask(self) -> np.ndarray:
        """Boolean mask, True at interior nodes (all coordinates strictly inside)."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[(slice(1, -1),) * self.ndim] = True
        return mask


def grid_1d(a: float, b: float, n: int) -> GridND:
    """Convenience: a GridND with a single axis."""
    return GridND((make_uniform_grid(a, b, n),))


@dataclass(frozen=True, eq=False)
class Field:
    """N-component function sampled on every node of a GridND.

    ``values`` has shape (N, m_1+1, ..., m_d+1).  Raises DomainError
    unless the values have a bool, integer or float dtype (complex, string
    and object arrays are refused, not cast) and are finite.

    Two fields are equal when their grids are equal and their values are
    equal under ``np.array_equal``; a field is not hashable.
    """

    grid: GridND
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values)
        if vals.dtype.kind not in "biuf":
            raise DomainError(
                f"field values must be bool, integer or float, got dtype "
                f"{vals.dtype}")
        vals = vals.astype(float, copy=False)
        expected = self.grid.shape
        if vals.ndim == len(expected):
            vals = vals[np.newaxis, ...]
        if vals.ndim != len(expected) + 1 or vals.shape[1:] != expected:
            raise GridMismatch(
                f"field values of shape {np.shape(self.values)} do not fit grid "
                f"node shape {expected}")
        if vals.shape[0] < 1:
            raise DomainError("field requires N >= 1 components")
        if not np.all(np.isfinite(vals)):
            raise DomainError("field values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.grid == other.grid
                and np.array_equal(self.values, other.values))

    @property
    def ncomp(self) -> int:
        return self.values.shape[0]

    @property
    def data(self) -> np.ndarray:
        """The single component of a scalar field."""
        if self.ncomp != 1:
            raise DomainError(f"field has {self.ncomp} components, expected 1")
        return self.values[0]

    @staticmethod
    def from_function(grid: GridND, fn: Callable, ncomp: int = 1) -> "Field":
        """Sample fn(t_1, ..., t_d) on the grid; fn may return a scalar per node
        (ncomp=1) or a length-N sequence."""
        mesh = np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij")
        raw = fn(*mesh)
        if ncomp == 1 and not (isinstance(raw, (list, tuple))):
            arr = np.broadcast_to(np.asarray(raw, dtype=float), grid.shape)
            return Field(grid, arr[np.newaxis, ...])
        comps = [np.broadcast_to(np.asarray(c, dtype=float), grid.shape) for c in raw]
        return Field(grid, np.stack(comps, axis=0))

    @staticmethod
    def constant(grid: GridND, value: float, ncomp: int = 1) -> "Field":
        """value on every node of ncomp components; raises DomainError
        unless ncomp is an integer (``_is_integer``) >= 1 and value is one
        scalar that passes the Field dtype and finiteness rule."""
        if not (_is_integer(ncomp) and ncomp >= 1):
            raise DomainError(
                f"ncomp must be an integer >= 1, got {ncomp!r}")
        if np.ndim(value) != 0:
            raise DomainError(f"a constant field takes one value, got "
                              f"{value!r}")
        return Field(grid, np.full((ncomp,) + grid.shape, value))


def check_field(f: Field, grid: GridND, ncomp: Optional[int] = None) -> None:
    """Raise GridMismatch unless f lives on grid (with ncomp components,
    when given)."""
    if f.grid != grid:
        raise GridMismatch("fields live on different grids")
    if ncomp is not None and f.ncomp != ncomp:
        raise GridMismatch(f"field has {f.ncomp} components, expected {ncomp}")


def _check_axis_index(axis: int) -> None:
    """Raise AxisError unless axis is a nonnegative integer
    (``_is_integer``)."""
    if not _is_integer(axis) or axis < 0:
        raise AxisError(f"axis must be a nonnegative integer, got {axis!r}")


def check_axis(grid: GridND, axis: int) -> None:
    """Raise AxisError unless axis indexes an axis of grid."""
    _check_axis_index(axis)
    if axis >= grid.ndim:
        raise AxisError(f"axis {axis} out of range for a {grid.ndim}D grid")


def _check_per_axis(spec, *names: str) -> None:
    """Store each named per-axis argument of the frozen spec as a tuple;
    raise LengthMismatch unless it has one entry per axis of spec.grid."""
    d = spec.grid.ndim
    for nm in names:
        val = tuple(getattr(spec, nm))
        object.__setattr__(spec, nm, val)
        if len(val) != d:
            raise LengthMismatch(f"{nm} must have length {d}, got {len(val)}")


def check_admissible(spec, u: Field) -> None:
    """Raise unless u is admissible for spec, a ProblemSpec or a
    DirichletSpec: it lives on spec.grid with spec.ncomp components
    (GridMismatch) and its boundary trace equals spec.boundary when the spec
    has one (BoundaryViolation)."""
    check_field(u, spec.grid, spec.ncomp)
    if spec.boundary is None:
        return
    # The boundary is the union of the two end faces of every axis; a step
    # of n picks nodes 0 and n of the axis as one view.
    diff = np.max([
        np.max(np.abs(u.values[sl] - spec.boundary.values[sl]))
        for sl in ((slice(None),) * (i + 1) + (slice(None, None, ax.n),)
                   for i, ax in enumerate(spec.grid.axes))])
    if diff > _BOUNDARY_TOL:
        raise BoundaryViolation(f"boundary trace differs from psi by "
                                f"{diff:.3e} (> {_BOUNDARY_TOL})")


def interior_max_abs(f: Field) -> float:
    """Max |value| over interior nodes, all components."""
    interior = (slice(None),) + (slice(1, -1),) * f.grid.ndim
    return float(np.max(np.abs(f.values[interior])))
