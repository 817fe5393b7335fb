"""Discrete generalized fractional operators K, A, B.

K_P^alpha f(t) = p * int_a^t k_alpha(t-tau) f(tau) dtau
              + q * int_t^b k_alpha(tau-t) f(tau) dtau

A_P^alpha = d/dt after K_P^(1-alpha)   (Riemann-Liouville type)
B_P^alpha = K_P^(1-alpha) after d/dt   (Caputo type)

Discretization
--------------
K uses product integration: the non-kernel factor is interpolated
piecewise-linearly on each cell and the kernel's cell moments are computed
in closed form (power kernels) or by 8-point Gauss quadrature (tabulated
kernels).  B integrates the kernel exactly against the piecewise-constant
cell slopes of f (the classical L1 construction, accuracy O(h^(2-alpha))
for power kernels).  A composes a second-order finite-difference derivative
with the K^(1-alpha) samples.

A plan's weights are p*L + q*R: L is lower-Toeplitz in the cell-moment
symbol with a first-column correction, and R is L flipped on both axes
(negated for B).  The symbol, correction column and sign depend only on the
quadrature family (K-type for K and A, L1 for B), the kernel and the grid,
so every plan of one quadrature shares one read-only copy: K and A plans of
one effective order, and plans on every p-set, its dual included.  Both families read the
same cell moments, so one entry of a bounded cache (``_shared_symbol``)
holds both symbols of a kernel on a grid, from one moment computation; the
16 most recently used entries are kept, each O(n).

The weights are one Toeplitz product with the two boundary columns apart:
with the line's end values set aside, p*T +/- q*J T J (T the full
lower-Toeplitz matrix of the symbol, J the index flip) is a Toeplitz matrix,
applied by rfft/irfft on a circulant of power-of-two length >= 2n-1.  The
shared symbol holds S, the rfft of the zero-padded symbol, computed on first
use; J T J embeds as the reflection of T, whose spectrum is conj(S), so a
plan's circulant spectrum is the p-set mix p*S +/- q*conj(S) and takes no
FFT of its own.  The two end values then enter through the boundary columns
of p*L + q*R, an O(n) correction.  The dense (n+1)^2 matrix is built per
plan on first use only: by batches of at least n+1 lines, where it is no
larger than the data and a BLAS product beats the FFT, and by the Dirichlet
solver's Gram matrices.  A's derivative is a 3-point stencil, never a dense
matrix.

Partial operators on multidimensional grids act along one axis with every
other coordinate frozen, line by line.  The fractional gradient is one plan
per axis (``axis_plans``).  A starred operator has two realizations:
``make_plan`` on the dual p-set (``model.dual``), and the exact transpose
``adjoint_apply`` of the plan itself.  The residuals take A_{P*} as minus
the transpose of the B plan, and K_{P*} as the K plan on the dual p-set;
only ``ibp.check_ibp`` builds an A plan on a dual p-set, since the
integration-by-parts formula it checks is stated with one.

Inside the package operators run on value arrays (component axis 0 first)
through one unchecked pair, ``_apply`` and ``_adjoint`` (the plain
transpose, with no sign); ``apply_op_nd`` and ``adjoint_apply`` check the
field against the plan and wrap the result in a ``Field``, and
``adjoint_apply`` alone negates on request.  A product does not depend on
the memory layout of its input, so the same values give the same bits
whether they come from a ``Field`` or from a strided slice of an
intermediate array.
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (AxisError, DomainError, GridMismatch, OrderError,
                     RangeError)
from .model import (Field, Grid1D, GridND, KernelFamily, KernelSpec, ParamSet,
                    _check_axis_index, check_axis)

class OpKind(enum.Enum):
    K = "K"
    A = "A"
    B = "B"


def derivative_along_axis(values: np.ndarray, grid: Grid1D, axis: int,
                          transpose: bool = False) -> np.ndarray:
    """Second-order derivative (central interior, one-sided 3-point ends) of
    every line of values (component axis 0 excluded) along axis, or its
    transpose.  Terms are scaled before they are summed, as in a dense row."""
    h = grid.h
    c = 0.5 / h
    first = np.array([-3.0, 4.0, -1.0]) / (2.0 * h)
    last = np.array([1.0, -4.0, 3.0]) / (2.0 * h)
    f = np.swapaxes(values, axis + 1, 0)
    if transpose:
        out = np.zeros_like(f)
        out[:-2] -= c * f[1:-1]
        out[2:] += c * f[1:-1]
        out[:3] += np.multiply.outer(first, f[0])
        out[-3:] += np.multiply.outer(last, f[-1])
    else:
        out = np.empty_like(f)
        out[1:-1] = c * f[2:] - c * f[:-2]
        out[0] = first[0] * f[0] + first[1] * f[1] + first[2] * f[2]
        out[-1] = last[0] * f[-3] + last[1] * f[-2] + last[2] * f[-1]
    return np.swapaxes(out, 0, axis + 1)


def _check_tabulated_resolution(kernel: KernelSpec, grid: Grid1D) -> None:
    smp = kernel.samples
    h = grid.h
    span = grid.b - grid.a
    if smp[-1, 0] < span:
        raise RangeError(
            f"tabulated kernel covers s <= {smp[-1, 0]}, but the grid needs "
            f"s up to {span}")
    if smp[0, 0] > 0.5 * h or np.max(np.diff(smp[:, 0])) > 0.5 * h:
        raise DomainError(
            "tabulated kernel must be sampled at least at the h/2 scale of "
            f"the target grid (h = {h})")


@functools.cache
def _gauss01() -> tuple[np.ndarray, np.ndarray]:
    """The 8-point Gauss-Legendre nodes and weights mapped to (0, 1).  Built
    on first use, which keeps numpy.polynomial out of the import."""
    x, w = np.polynomial.legendre.leggauss(8)
    return 0.5 * (x + 1.0), 0.5 * w


def _cell_moments(kernel: KernelSpec, grid: Grid1D) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Kernel moments over the cells ((d-1)h, dh), d = 1..n.

    Returns (m0, u, v) with
      m0(d) = int k(s) ds                      over the cell,
      u(d)  = int k(s) (s-(d-1)h)/h ds         (hat rising across the cell),
      v(d)  = int k(s) (dh-s)/h ds             (hat falling across the cell),
    so u + v = m0.  Arrays are indexed d-1 = 0..n-1.
    """
    n, h = grid.n, grid.h
    if kernel.family is KernelFamily.RIEMANN_LIOUVILLE:
        # One power per exponent over the nodes x = 0, h, ..., nh; cell d
        # spans (lo, hi) = (x[d-1], x[d]).
        mu = kernel.order
        x = np.arange(n + 1, dtype=float) * h
        lo, hi = x[:-1], x[1:]
        m0 = np.diff(x ** mu) / math.gamma(mu + 1.0)
        s1 = np.diff(x ** (mu + 1.0)) / ((mu + 1.0) * math.gamma(mu))
        u = (s1 - lo * m0) / h
        v = (hi * m0 - s1) / h
    elif kernel.family is KernelFamily.CONSTANT:
        m0 = np.full(n, h)
        u = np.full(n, 0.5 * h)
        v = np.full(n, 0.5 * h)
    else:
        smp = kernel.samples
        # Gauss nodes per cell; np.interp extends by the end values, which only
        # matters inside the first half-cell (make_plan's resolution check).
        gx, gw = _gauss01()
        d = np.arange(1, n + 1, dtype=float)
        s = (d[:, None] - 1.0) * h + h * gx[None, :]
        k = np.interp(s, smp[:, 0], smp[:, 1])
        m0 = h * k @ gw
        u = h * (k * gx[None, :]) @ gw
        v = m0 - u
    return m0, u, v


@dataclass(frozen=True, eq=False)
class _Symbol:
    """The O(n) quadrature data that every plan of one quadrature shares,
    read-only.  L[i, j] = symbol[i - j] for i >= j >= 1,
    L[i, 0] = column0[i - 1] for i >= 1 (the first-cell correction) and row 0
    is zero; R = sign * J L J flips L (negated for B, whose rows then sum to
    zero, so B annihilates constants exactly)."""

    symbol: np.ndarray
    column0: np.ndarray
    sign: float

    def __post_init__(self) -> None:
        self.symbol.setflags(write=False)
        self.column0.setflags(write=False)

    @functools.cached_property
    def spectrum(self) -> tuple[int, np.ndarray]:
        """(size, S): S is the rfft of symbol[:n], zero-padded to the
        power-of-two circulant size >= 2n - 1.  Built on first use; two
        threads that both miss compute the same S, and either result may be
        kept."""
        n = self.symbol.size - 1
        size = 1 << (2 * n - 2).bit_length()
        return size, np.fft.rfft(self.symbol[:n], size)


@functools.lru_cache(maxsize=16)
def _shared_symbol(kernel: KernelSpec, grid: Grid1D
                   ) -> tuple[_Symbol, _Symbol]:
    """The symbols of the K quadrature (K, A) and of the L1 construction
    (B) on grid, both from one set of cell moments, for a resolved kernel
    (an RL kernel carries its effective order).  An A and a B plan of one
    order, whose kernels have the same effective order, thus share one
    entry.  The key is the kernel itself, which compares and hashes by its
    content (family, order and sample bytes), never by object id, so equal
    kernels share an entry.  The 16 most recently used entries are kept."""
    h = grid.h
    m0, u, v = _cell_moments(kernel, grid)
    # An interior node at distance d >= 1 weighs u(d) + v(d+1).
    k_type = _Symbol(np.concatenate([v[:1], u[:-1] + v[1:], u[-1:]]), u, 1.0)
    l1 = _Symbol(np.concatenate([m0[:1], np.diff(m0, append=0.0)]) / h,
                 -m0 / h, -1.0)
    return k_type, l1


@dataclass(frozen=True, eq=False)
class FracOpPlan:
    """A compiled partial operator: kind, order, p-set, kernel, axis, grid
    and the ``shared`` O(n) quadrature data of its weights p*L + q*R (see
    ``_Symbol``).  For K and B the weights are the operator; for A they are
    the inner K^(1-alpha) weights, and the derivative is applied as a
    stencil after them.

    ``matrix`` is the dense (n+1)^2 weight matrix, built on first read and
    then cached on the plan; applies read it only for batches of at least
    n+1 lines.  Shorter batches use the circulant spectrum, mixed from the
    shared symbol's on first use."""

    kind: OpKind
    order: float
    pset: ParamSet
    kernel: KernelSpec
    axis: int
    grid: Grid1D
    shared: _Symbol

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        """The read-only dense p*L + q*R."""
        sym = self.shared
        m = sym.symbol.size
        window = np.lib.stride_tricks.sliding_window_view(
            np.concatenate([np.zeros(m - 1), sym.symbol]), m)
        L = window[:, ::-1].copy()                  # L[i, j] = symbol[i - j]
        L[1:, 0] = sym.column0
        L[0] = 0.0
        R = L[::-1, ::-1] * (sym.sign * self.pset.q)
        L *= self.pset.p
        L += R
        L.setflags(write=False)
        return L

    @functools.cached_property
    def _circulant(self) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
        """(size, spectrum, first, last): the rfft of a circulant that embeds
        p*T + q*sign*J T J, and columns 0 and n of p*L + q*R, which the
        Toeplitz part leaves out.  T embeds as the zero-padded symbol, with
        the shared spectrum S, and J T J as its reflection k -> -k, whose
        spectrum is conj(S); so the spectrum is p*S + q*sign*conj(S).
        Columns 0 and n aside, and rows 0 and n in the transpose, every used
        entry has |i - j| <= n - 1, so the power-of-two size >= 2n - 1 wraps
        none of them onto another."""
        sym = self.shared
        c, col0 = sym.symbol, sym.column0
        p, sq = self.pset.p, sym.sign * self.pset.q
        size, S = sym.spectrum
        first = np.concatenate([[sq * c[0]], p * col0])
        last = np.concatenate([sq * col0[::-1], [p * c[0]]])
        return size, p * S + sq * S.conj(), first, last


def make_plan(kind: OpKind, order: float, pset: ParamSet, kernel: KernelSpec,
              grid: Grid1D, axis: int = 0) -> FracOpPlan:
    """Compile a partial operator along one axis of a grid.

    The kernel's subscript is the *effective* order: alpha for K, 1-alpha
    for A and B.  A KernelSpec with order=None is resolved automatically; a
    mismatching explicit order raises OrderError.  Every argument is checked
    on every call; the quadrature symbol is then looked up in the shared
    cache and computed only on a miss.

    Raises DomainError unless kind is an OpKind (its string value is not
    accepted), OrderError unless order is a real number (int, float or a
    numpy integer or floating scalar) in the kind's range, and AxisError
    unless axis is a nonnegative int or numpy integer; a bool is neither.
    """
    if not isinstance(kind, OpKind):
        raise DomainError(f"kind must be an OpKind, got {kind!r}")
    if isinstance(order, bool) or not isinstance(order, numbers.Real):
        raise OrderError(f"order must be a real number, got {order!r}")
    if kind is OpKind.K:
        if not (0.0 < order <= 1.0):
            raise OrderError(f"K requires order in (0, 1], got {order}")
        eff = order
    else:
        if not (0.0 < order < 1.0):
            raise OrderError(f"{kind.value} requires order in (0, 1), got {order}")
        eff = 1.0 - order
    if kernel.family is KernelFamily.RIEMANN_LIOUVILLE:
        if kernel.order is not None and abs(kernel.order - eff) > 1e-12:
            raise OrderError(
                f"kernel subscript {kernel.order} does not match the effective "
                f"order {eff} of a {kind.value}-op of order {order}")
        kernel = kernel.with_order(eff)
    if pset.a != grid.a or pset.b != grid.b:
        raise GridMismatch(
            f"p-set interval ({pset.a}, {pset.b}) does not match grid "
            f"interval ({grid.a}, {grid.b})")
    _check_axis_index(axis)
    if kernel.family is KernelFamily.TABULATED:
        _check_tabulated_resolution(kernel, grid)

    k_type, l1 = _shared_symbol(kernel, grid)
    shared = l1 if kind is OpKind.B else k_type
    return FracOpPlan(kind, order, pset, kernel, axis, grid, shared)


def axis_plans(kind: OpKind, orders, psets, kernels, grid: GridND
               ) -> list[FracOpPlan]:
    """One plan per axis i of grid from orders[i], psets[i], kernels[i]."""
    return [make_plan(kind, orders[i], psets[i], kernels[i], grid.axes[i],
                      axis=i)
            for i in range(grid.ndim)]


def _matmul_along(M: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """M @ x for every line x of values along array axis ``axis``.

    The values are viewed as (pre, n, post), with n the length of the axis,
    and multiplied as one batched matmul, so no transposed copy of the
    values is made and the result comes out in axis order.  On the last
    axis the lines are the columns of an (n, pre) view instead, and the
    result is a transposed view of M times it: that operand order rounds
    bitwise as ``np.tensordot`` did, where x @ M.T does not."""
    shape = values.shape
    if axis == values.ndim - 1:
        x = np.moveaxis(values, -1, 0).reshape(shape[-1], -1)
        return (M @ x).T.reshape(shape[:-1] + M.shape[:1])
    x = values.reshape(math.prod(shape[:axis]), shape[axis], -1)
    return (M @ x).reshape(shape[:axis] + M.shape[:1] + shape[axis + 1:])


def apply_matrix_along_axis(M: np.ndarray, values: np.ndarray, axis: int) -> np.ndarray:
    """Apply M to every line of values (component axis 0 excluded) along
    axis: one matmul on a (pre, n, post) view of the values (see
    ``_matmul_along``)."""
    return _matmul_along(M, values, axis + 1)


def toeplitz_along_axis(plan: FracOpPlan, values: np.ndarray,
                        transpose: bool = False) -> np.ndarray:
    """The plan's weights p*L + q*R, or their transpose, on every line of
    values (component axis 0 excluded) along plan.axis.

    A batch of at least n+1 lines is multiplied by the dense plan.matrix,
    which is then no larger than the data.  Fewer lines go through the
    plan's circulant spectrum: forward, the end values are zeroed, the
    Toeplitz product taken and the end values added back through the
    boundary columns; transposed, the product uses the conjugate spectrum
    and the boundary columns give entries 0 and n.

    The result does not depend on the memory layout of values: the dense
    product reads a C-order copy of values not in C order, and the
    transposed boundary columns a C-order copy of the line-major view,
    since a BLAS product rounds by the layout of its operands.  The rfft
    and the forward boundary terms give the same bits on any layout."""
    n = plan.grid.n
    if values.size >= (n + 1) ** 2:
        M = plan.matrix
        return apply_matrix_along_axis(M.T if transpose else M,
                                       np.ascontiguousarray(values), plan.axis)
    size, spectrum, first, last = plan._circulant
    f = np.swapaxes(values, plan.axis + 1, -1)
    if transpose:
        f = np.ascontiguousarray(f)
        out = np.fft.irfft(np.fft.rfft(f, size) * spectrum.conj(),
                           size)[..., :n + 1]
        out[..., 0] = f @ first
        out[..., -1] = f @ last
    else:
        g = f.copy()
        g[..., 0] = 0.0
        g[..., -1] = 0.0
        out = np.fft.irfft(np.fft.rfft(g, size) * spectrum, size)[..., :n + 1]
        out += np.multiply.outer(f[..., 0], first)
        out += np.multiply.outer(f[..., -1], last)
    return np.swapaxes(out, -1, plan.axis + 1)


def _check_plan_grid(plan: FracOpPlan, f: Field) -> None:
    check_axis(f.grid, plan.axis)
    if f.grid.axes[plan.axis] != plan.grid:
        raise GridMismatch(
            f"plan grid ({plan.grid.a}, {plan.grid.b}, n={plan.grid.n}) does "
            f"not match field axis {plan.axis}")


def _apply(plan: FracOpPlan, vals: np.ndarray) -> np.ndarray:
    """``apply_op_nd`` on a value array (component axis 0 first), unchecked:
    B centering, the Toeplitz product and, for A, the stencil.  Returns a
    new array, which need not be C-contiguous."""
    if plan.kind is OpKind.B:
        vals = vals - vals[(slice(None),) * (plan.axis + 1) + (slice(0, 1),)]
    out = toeplitz_along_axis(plan, vals)
    if plan.kind is OpKind.A:
        out = derivative_along_axis(out, plan.grid, plan.axis)
    return out


def _adjoint(plan: FracOpPlan, vals: np.ndarray) -> np.ndarray:
    """The exact transpose w^-1 M^T (w g) of ``_apply`` in the trapezoid
    inner product, on a value array (component axis 0 first), unchecked and
    unsigned: the integration-by-parts sign is the caller's.  The values
    are weighted by the trapezoid weights of the plan's axis into a new
    C-order array, which a dense product reads without a copy, then the
    transposed stencil (A) and Toeplitz product run, then the division by
    the weights, in place on the new result."""
    w = plan.grid.trapezoid_weights()
    w = w.reshape(w.shape + (1,) * (vals.ndim - plan.axis - 2))
    g = np.multiply(vals, w, order="C")
    if plan.kind is OpKind.A:
        g = derivative_along_axis(g, plan.grid, plan.axis, transpose=True)
    out = toeplitz_along_axis(plan, g, transpose=True)
    out /= w
    return out


def apply_op_nd(plan: FracOpPlan, f: Field) -> Field:
    """Apply the partial operator along plan.axis, every other coordinate
    frozen (line-by-line reduction to the 1D operator).

    B subtracts the line's first value before the weighted sum: the operator
    annihilates constants analytically, and centering makes that exact in
    floating point.  A applies the plan's weights (the inner K^(1-alpha)
    weights) first and the derivative stencil second, through the same
    ``toeplitz_along_axis`` as K, so its samples coincide bitwise with the
    stencil derivative of the K^(1-alpha) samples."""
    _check_plan_grid(plan, f)
    return Field(f.grid, _apply(plan, f.values))


def apply_op_1d(plan: FracOpPlan, f: Field) -> Field:
    """Apply a 1D operator; the field must live on a single-axis grid."""
    if f.grid.ndim != 1:
        raise GridMismatch("apply_op_1d requires a 1D grid")
    if plan.axis != 0:
        raise AxisError("a 1D plan must act along axis 0")
    return apply_op_nd(plan, f)


def adjoint_apply(plan: FracOpPlan, f: Field, negate: bool) -> Field:
    """Apply the exact transpose of the plan's operator in the trapezoid
    inner product along plan.axis: g -> (+/-) w^-1 M^T (w g), with M the
    plan's weights p*L + q*R for K and B.  For A, M is the derivative stencil
    after the weights, so the stencil's transpose is applied first and the
    weights' transpose (``toeplitz_along_axis`` with transpose=True) second.

    ``_adjoint`` is the plain transpose; only this public wrapper takes a
    sign, negating the result in place when negate is True.  With a B-plan
    and negate=True it realizes A_{P*}^alpha:  the discrete counterpart of
    int f . B_P eta = -int eta . A_{P*} f  (+ boundary), with the boundary
    term absorbed so the identity is exact in floating point.  With a
    K-plan and negate=False it realizes K_{P*}^alpha likewise.
    """
    _check_plan_grid(plan, f)
    out = _adjoint(plan, f.values)
    return Field(f.grid, np.negative(out, out=out) if negate else out)
