"""Inadmissible input at every public entry raises one typed FracvarError.

A field on another grid, a field with the wrong component count, and a
Lagrangian or symmetry-generator output of the wrong shape raise
GridMismatch; an axis that the grid does not have, or one that is not an
int or numpy integer (a float or a bool), raises AxisError; the
integration-by-parts checks take single-component fields only
(DomainError), and a NaN partial makes every Euler-Lagrange and Noether
entry raise DomainError, as does a Lagrangian or generator output whose
dtype is not bool, integer or float.
"""

import dataclasses

import numpy as np
import pytest

from fracvar import (DirichletSpec, Field, GridND, Lagrangian, OpKind,
                     ParamSet, ProblemSpec, SymmetryGenerator, adjoint_apply,
                     apply_op_1d, apply_op_nd, boundary_integral, bracket_D,
                     bracket_I, bvp_residual, chain_identity_residual,
                     check_K_duality, check_ibp, dirichlet_energy_lagrangian,
                     el_residual, el_residual_mixed, energy,
                     evaluate_functional, grid_1d, invariance_residual,
                     make_plan, make_uniform_grid, minimize_energy,
                     noether_residual, rl_kernel, transfinite_init,
                     volume_integral)
from fracvar.errors import AxisError, DomainError, GridMismatch

SYM = ParamSet(0.0, 1.0, 0.6, 0.4)
GRID = grid_1d(0.0, 1.0, 16)
OTHER = grid_1d(0.0, 1.0, 17)
GRID_2D = GridND((make_uniform_grid(0.0, 1.0, 12),
                  make_uniform_grid(0.0, 1.0, 10)))
TRANSLATION = SymmetryGenerator(lambda t, u: np.ones_like(u), "translation")
GRID_8 = grid_1d(0.0, 1.0, 8)


def field(grid, ncomp=1):
    """A smooth field with ncomp components."""
    return Field.from_function(
        grid, lambda *t: [np.cos(k + sum(t)) for k in range(ncomp)],
        ncomp=ncomp)


def problem(grid, lagrangian=None, boundary=None):
    d = grid.ndim
    return ProblemSpec(grid, lagrangian or dirichlet_energy_lagrangian(d),
                       [SYM] * d, [SYM] * d, [0.5] * d, [0.5] * d,
                       [rl_kernel()] * d, [rl_kernel()] * d, boundary)


def dirichlet(boundary):
    return DirichletSpec(GRID, [SYM], [0.5], [rl_kernel()], boundary)


def plan(axis=0):
    return make_plan(OpKind.B, 0.5, SYM, rl_kernel(), GRID.axes[0], axis=axis)


# Entries that take a ProblemSpec and a field; chain_identity_residual used
# to sample the generator before it checked the field.
SPEC_ENTRIES = {
    "el_residual": el_residual,
    "el_residual_mixed": el_residual_mixed,
    "evaluate_functional": evaluate_functional,
    "invariance_residual": lambda s, u: invariance_residual(s, u, TRANSLATION),
    "noether_residual": lambda s, u: noether_residual(s, u, TRANSLATION),
    "chain_identity_residual":
        lambda s, u: chain_identity_residual(s, u, TRANSLATION),
}

# Entries that take a ProblemSpec, a field and a symmetry generator.
GENERATOR_ENTRIES = {
    "invariance_residual": invariance_residual,
    "noether_residual": noether_residual,
    "chain_identity_residual": chain_identity_residual,
}

# Entries that take a Dirichlet problem and a field.
DIRICHLET_ENTRIES = {
    "energy": lambda u: energy(dirichlet(field(GRID)), u),
    "bvp_residual": lambda u: bvp_residual(dirichlet(field(GRID)), u),
    "minimize_energy": lambda u: minimize_energy(dirichlet(field(GRID)), u),
    "transfinite_init": lambda u: transfinite_init(GRID, u),
    "DirichletSpec": dirichlet,
    "ProblemSpec": lambda u: problem(GRID, boundary=u),
}

# Axis arguments that a 1D grid refuses: out of range, or not an integer (a
# float raised a bare TypeError, and False indexed axis 0).
AXES = (1, -1, 0.0, True, False)

# Entries that take two fields along one axis: the second field (and the
# axis) is the one under test.
PAIR_ENTRIES = {
    "bracket_D": lambda f, g, axis=0: bracket_D(f, g, SYM, 0.5, rl_kernel(),
                                                axis),
    "bracket_I": lambda f, g, axis=0: bracket_I(f, g, SYM, 0.5, rl_kernel(),
                                                axis),
    "check_K_duality": lambda f, g, axis=0: check_K_duality(
        f, g, SYM, 0.5, rl_kernel(), axis),
    "check_ibp": lambda f, g, axis=0: check_ibp(f, g, SYM, 0.5, rl_kernel(),
                                                axis),
}


def malformed(grid, which):
    """The Dirichlet integrand with one output of the wrong shape: the last
    node axis one short, or (``d_v_axis``) dF/dv without its axis
    dimension.  Built without the gradient check, as a caller could."""
    lag = dirichlet_energy_lagrangian(grid.ndim)
    short = {
        "F": {"eval_fn": lambda t, u, v, w: np.sum(v * v, axis=(0, 1))[..., 1:]},
        "d_u": {"d_u": lambda t, u, v, w: np.zeros_like(u)[..., 1:]},
        "d_v": {"d_v": lambda t, u, v, w: 2.0 * v[..., 1:]},
        "d_v_axis": {"d_v": lambda t, u, v, w: 2.0 * v[:, 0]},
        "d_w": {"d_w": lambda t, u, v, w: np.zeros_like(w)[..., 1:]},
    }[which]
    return dataclasses.replace(lag, **short)


# The callbacks each entry reads: noether_residual reads only dF/dv and
# dF/dw, evaluate_functional only F.
READS = {
    "el_residual": ("d_u", "d_v", "d_v_axis", "d_w"),
    "el_residual_mixed": ("d_u", "d_v", "d_v_axis", "d_w"),
    "evaluate_functional": ("F",),
    "invariance_residual": ("d_u", "d_v", "d_v_axis", "d_w"),
    "noether_residual": ("d_v", "d_v_axis", "d_w"),
    "chain_identity_residual": ("d_u", "d_v", "d_v_axis", "d_w"),
}


def cases():
    for name, entry in SPEC_ENTRIES.items():
        yield pytest.param(lambda e=entry: e(problem(GRID), field(OTHER)),
                           GridMismatch, id=f"{name}-other-grid")
        yield pytest.param(lambda e=entry: e(problem(GRID), field(GRID, 2)),
                           GridMismatch, id=f"{name}-components")
        for grid in (GRID, GRID_2D):
            for which in READS[name]:
                yield pytest.param(
                    lambda e=entry, g=grid, w=which:
                        e(problem(g, malformed(g, w)), field(g)),
                    GridMismatch, id=f"{name}-{grid.ndim}d-bad-{which}")
    # A generator output that does not broadcast to (N, *shape): one node
    # short, or two components of a one-component field.
    for name in GENERATOR_ENTRIES:
        for bad in ((8,), (2, 9)):
            gen = SymmetryGenerator(lambda t, u, b=bad: np.ones(b), "bad")
            yield pytest.param(
                lambda e=GENERATOR_ENTRIES[name], g=gen:
                    e(problem(GRID_8), field(GRID_8), g),
                GridMismatch,
                id=f"{name}-generator-shape-{'x'.join(map(str, bad))}")
    for name, entry in DIRICHLET_ENTRIES.items():
        yield pytest.param(lambda e=entry: e(field(OTHER)), GridMismatch,
                           id=f"{name}-other-grid")
        yield pytest.param(lambda e=entry: e(field(GRID, 2)), GridMismatch,
                           id=f"{name}-components")
    for name, entry in PAIR_ENTRIES.items():
        yield pytest.param(lambda e=entry: e(field(GRID), field(OTHER)),
                           GridMismatch, id=f"{name}-other-grid")
        # The identity checks take one component; a bracket takes any
        # number, the same for both arguments.
        bad_comp = DomainError if name.startswith("check") else GridMismatch
        yield pytest.param(lambda e=entry: e(field(GRID), field(GRID, 2)),
                           bad_comp, id=f"{name}-components")
        for axis in AXES:
            yield pytest.param(
                lambda e=entry, a=axis: e(field(GRID), field(GRID), a),
                AxisError, id=f"{name}-axis{axis}")
    for axis in AXES:
        yield pytest.param(lambda a=axis: boundary_integral(field(GRID), a),
                           AxisError, id=f"boundary_integral-axis{axis}")
    # True indexed axis 1 of a 2D grid.
    yield pytest.param(lambda: boundary_integral(field(GRID_2D), True),
                       AxisError, id="boundary_integral-2d-axisTrue")
    yield pytest.param(lambda: boundary_integral(field(GRID, 2), 0),
                       DomainError, id="boundary_integral-components")
    yield pytest.param(lambda: volume_integral(field(GRID, 2)), DomainError,
                       id="volume_integral-components")
    yield pytest.param(lambda: plan(axis=-1), AxisError, id="make_plan-axis-1")
    for name, apply in (("apply_op_nd", apply_op_nd),
                        ("apply_op_1d", apply_op_1d),
                        ("adjoint_apply",
                         lambda p, f: adjoint_apply(p, f, negate=True))):
        yield pytest.param(lambda a=apply: a(plan(), field(OTHER)),
                           GridMismatch, id=f"{name}-other-grid")
        yield pytest.param(lambda a=apply: a(plan(axis=1), field(GRID)),
                           AxisError, id=f"{name}-axis1")


@pytest.mark.parametrize("call, error", cases())
def test_inadmissible_input_raises_typed_error(call, error):
    with pytest.raises(error):
        call()


def test_entries_accept_the_well_formed_case():
    # The same helpers with admissible input run: the table's errors come
    # from the fault under test, not from the set-up.
    for entry in SPEC_ENTRIES.values():
        entry(problem(GRID), field(GRID))
    for entry in DIRICHLET_ENTRIES.values():
        entry(field(GRID))
    for entry in PAIR_ENTRIES.values():
        entry(field(GRID), field(GRID))
    apply_op_1d(plan(), field(GRID))


@pytest.mark.parametrize("entry", ["el_residual", "invariance_residual",
                                   "chain_identity_residual"])
def test_partials_are_read_once_in_order(entry):
    # Shape checks add no callback call: d_u, d_v, d_w once each, in order.
    calls = []
    lag = dirichlet_energy_lagrangian(2)

    def logged(name, fn):
        return lambda *args: calls.append(name) or fn(*args)
    spec = problem(GRID_2D, Lagrangian(
        lag.n, lag.N, lag.eval_fn, logged("d_u", lag.d_u),
        logged("d_v", lag.d_v), logged("d_w", lag.d_w)))
    SPEC_ENTRIES[entry](spec, field(GRID_2D))
    per_call = ["d_u", "d_v", "d_w"]
    want = {"el_residual": per_call, "invariance_residual": per_call,
            "chain_identity_residual": ["d_v", "d_w"] + per_call + per_call}
    assert calls == want[entry]


def test_broadcast_partials_accepted():
    # dF/du and F may be broadcast: a scalar dF/du and a constant F give
    # the same results as their full arrays.
    lag = dirichlet_energy_lagrangian(2)
    full = problem(GRID_2D, lag)
    broad = problem(GRID_2D, dataclasses.replace(
        lag, d_u=lambda t, u, v, w: 0.0))
    u = field(GRID_2D)
    np.testing.assert_array_equal(el_residual(broad, u).values,
                                  el_residual(full, u).values)
    const = problem(GRID_2D, dataclasses.replace(
        lag, eval_fn=lambda t, u, v, w: 2.0))
    assert evaluate_functional(const, u) == pytest.approx(2.0, rel=1e-14)


def nan_partial(grid, which):
    """The Dirichlet integrand with one NaN in the output of one partial,
    at an interior node."""
    lag = dirichlet_energy_lagrangian(grid.ndim)
    fn = getattr(lag, which)

    def with_nan(*args):
        out = np.array(fn(*args), dtype=float)
        out[(0,) * (out.ndim - grid.ndim)
            + tuple(n // 2 for n in grid.shape)] = np.nan
        return out
    return dataclasses.replace(lag, **{which: with_nan})


@pytest.mark.parametrize("grid", [GRID, GRID_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("which", ["d_u", "d_v", "d_w"])
@pytest.mark.parametrize("name", ["el_residual", "el_residual_mixed",
                                  "invariance_residual", "noether_residual",
                                  "chain_identity_residual"])
def test_nan_partial_raises_domain_error(name, which, grid):
    # The entries compute on arrays; the Field of each result rejects the
    # NaN the partial carried into it.  noether_residual never reads dF/du.
    spec = problem(grid, nan_partial(grid, which))
    if name == "noether_residual" and which == "d_u":
        SPEC_ENTRIES[name](spec, field(grid))
    else:
        with pytest.raises(DomainError):
            SPEC_ENTRIES[name](spec, field(grid))


# The Lagrangian output each entry reads first.
OUTPUT_ENTRIES = {"d_u": "el_residual", "d_v": "el_residual",
                  "d_w": "el_residual", "eval_fn": "evaluate_functional"}


@pytest.mark.parametrize("which", sorted(OUTPUT_ENTRIES))
def test_complex_output_raises_domain_error(which):
    # A complex output used to be cast to float with a ComplexWarning,
    # which dropped its imaginary part from the result.
    lag = dirichlet_energy_lagrangian(2)
    fn = getattr(lag, which)
    spec = problem(GRID_2D, dataclasses.replace(
        lag, **{which: lambda *args: fn(*args) + 1j}))
    with pytest.raises(DomainError, match="complex"):
        SPEC_ENTRIES[OUTPUT_ENTRIES[which]](spec, field(GRID_2D))


def test_string_output_raises_domain_error():
    # np.asarray("zero", dtype=float) raised a bare ValueError.
    spec = problem(GRID_2D, dataclasses.replace(
        dirichlet_energy_lagrangian(2), d_u=lambda *args: "zero"))
    with pytest.raises(DomainError, match="dtype"):
        el_residual(spec, field(GRID_2D))


def test_complex_generator_raises_domain_error():
    gen = SymmetryGenerator(lambda t, u: np.ones_like(u) + 1j, "complex")
    with pytest.raises(DomainError, match="complex"):
        invariance_residual(problem(GRID_2D), field(GRID_2D), gen)
