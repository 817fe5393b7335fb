"""Experiment configuration: one schema per command, resolved once.

A config file is one JSON document:

    {
      "command": "ibp-check",
      "problem": { ... nested problem description ... },
      "sweep": [64, 128, 256],          // optional distinct grid sizes, each >= 4
      "tolerances": { "residual_abs": 5e-3, ... },
      "seed": 42,                       // optional integer >= 0
      "output_path": "ibp.csv",
      "description": "..."              // optional, for the reader only
    }

These seven are the only top-level keys.

The problem block names grids, p-sets, orders, kernels, built-in Lagrangians
and expression-valued functions.  Its ``interval`` is [a, b] (default
[0, 1]), its ``ndim`` an integer 1..3 (default 1) and its ``size`` the grid
size used when there is no sweep, an integer >= 4 like the sweep entries
(default 64).

load_config resolves the document once, and resolving is the validation:
_SCHEMAS lists the keys each command reads and what each resolves to, and a
bad value raises ConfigError naming the key in ``field``.  A command's
schema is also the list of the problem keys it accepts, beside
``interval``, ``ndim`` and ``size``: any other key, an expression the
command does not read or a misspelt key alike, is an error, as is any
other top-level key.  Numbers must be finite (the NaN and Infinity literals
that Python's json reads are rejected) and flags must be JSON true or
false.  The runner gets the resolved Problem and adds only what depends on
the grid.

Tolerance keys refer to CSV columns: a bare column name bounds the last
row's value, ``<column>_max`` bounds the maximum over rows,
``decrease_factor_min`` requires successive rows of the residual/error
column to shrink by at least the given factor, and ``order_est_range`` is a
two-element [lo, hi] window on the final order estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Optional

import numpy as np

from .errors import ConfigError, FracvarError
from .exprs import parse_function
from .model import (GridND, KernelSpec, ParamSet, constant_kernel,
                    make_uniform_grid, rl_kernel, tabulated_kernel)
from .noether import SymmetryGenerator
from .operators import OpKind
from .variational import BUILTIN_LAGRANGIANS, Lagrangian

# The top-level keys; a description is for the reader and is not read.
_TOP_LEVEL = ("command", "problem", "sweep", "tolerances", "seed",
              "output_path", "description")


class Problem(SimpleNamespace):
    """A problem block resolved for one command: ``ndim``, ``interval``,
    ``size``, ``seed`` and one attribute per key of its schema."""

    def grid(self, n: int) -> GridND:
        return GridND(tuple(make_uniform_grid(*self.interval, n)
                            for _ in range(self.ndim)))


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    problem: Problem
    sweep: Optional[tuple[int, ...]]
    tolerances: dict[str, Any]
    seed: int
    output_path: str


def _number(value: Any) -> bool:
    """A JSON number with a finite float value; JSON true and false are not
    numbers.  1e999 reads as inf, and float() of an integer beyond the
    float range raises OverflowError."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= float(np.finfo(float).max))


def _integer(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _reject_constant(token: str):
    """json's parse_constant hook: JSON has no NaN or Infinity numbers."""
    raise ConfigError(f"non-finite number {token} is not valid JSON")


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh, parse_constant=_reject_constant)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    _reject_unknown(raw, _TOP_LEVEL)

    command = raw.get("command")
    if command not in COMMANDS:
        raise ConfigError(
            f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}",
            field="command")
    problem = raw.get("problem")
    if not isinstance(problem, dict):
        raise ConfigError("'problem' must be an object", field="problem")

    sweep = raw.get("sweep")
    if sweep is not None:
        if (not isinstance(sweep, list) or not sweep
                or not all(_integer(n) and n >= 4 for n in sweep)):
            raise ConfigError("'sweep' must be a list of integers >= 4",
                              field="sweep")
        if len(set(sweep)) != len(sweep):
            raise ConfigError("'sweep' must not repeat a size", field="sweep")
        sweep = tuple(sweep)
    size = problem.get("size", 64)
    if not (_integer(size) and size >= 4):
        raise ConfigError("'size' must be an integer >= 4", field="size")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object", field="tolerances")
    for key, val in tolerances.items():
        if key == "order_est_range":
            if (not isinstance(val, list) or len(val) != 2
                    or not all(_number(v) for v in val)):
                raise ConfigError("'order_est_range' must be [lo, hi]",
                                  field=key)
        elif not _number(val):
            raise ConfigError(f"tolerance {key!r} must be a number", field=key)

    seed = raw.get("seed", 42)
    if not (_integer(seed) and seed >= 0):
        raise ConfigError("'seed' must be an integer >= 0", field="seed")

    output_path = raw.get("output_path")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("'output_path' must be a non-empty string",
                          field="output_path")

    return ExperimentConfig(command,
                            _resolve_problem(command, problem, size, seed),
                            sweep, tolerances, seed, output_path)


def _reject_unknown(raw: dict, allowed) -> None:
    """Raise ConfigError naming the first key of raw not in allowed."""
    for key in raw:
        if key not in allowed:
            raise ConfigError(f"unknown key {key!r}; expected one of "
                              f"{', '.join(allowed)}", field=key)


def _resolve_problem(command: str, raw: dict, size: int, seed: int) -> Problem:
    schema = _SCHEMAS[command]
    _reject_unknown(raw, dict.fromkeys(("interval", "ndim", "size", *schema)))
    iv = raw.get("interval", [0.0, 1.0])
    if (not isinstance(iv, list) or len(iv) != 2
            or not all(_number(v) for v in iv) or not iv[0] < iv[1]):
        raise ConfigError("'interval' must be [a, b] with a < b",
                          field="interval")
    ndim = raw.get("ndim", 1)
    if not (_integer(ndim) and 1 <= ndim <= 3):
        raise ConfigError("'ndim' must be 1, 2, or 3", field="ndim")
    problem = Problem(ndim=ndim, interval=(float(iv[0]), float(iv[1])),
                      size=size, seed=seed)
    for key, resolve in schema.items():
        setattr(problem, key, resolve(raw, key, problem))
    return problem


# ---------------------------------------------------------------------------
# Key resolvers: resolve(raw problem block, key, problem so far) -> value.
# The list factories take count(raw, ndim), the list's length; without it,
# one entry per axis.


def _required(raw: dict, key: str) -> Any:
    if key not in raw:
        raise ConfigError(f"this command requires {key!r}", field=key)
    return raw[key]


def _one(raw: dict, ndim: int) -> int:
    return 1


def _wave_axes(raw: dict, ndim: int) -> int:
    """The time axis, plus the space axes when space is fractional too."""
    return ndim if "space_betas" in raw else 1


def _psets(count: Optional[Callable] = None) -> Callable:
    def resolve(raw: dict, key: str, problem: Problem) -> list[ParamSet]:
        n = count(raw, problem.ndim) if count else problem.ndim
        entries = _required(raw, key)
        if not isinstance(entries, list) or len(entries) != n:
            raise ConfigError(f"{key!r} must list one [p, q] pair per axis "
                              f"({n})", field=key)
        for e in entries:
            if (not isinstance(e, list) or len(e) != 2
                    or not all(_number(v) for v in e)):
                raise ConfigError("each p-set must be [p, q]", field=key)
        return [ParamSet(*problem.interval, float(p), float(q))
                for p, q in entries]
    return resolve


def _orders(count: Optional[Callable] = None, optional: bool = False
            ) -> Callable:
    def resolve(raw: dict, key: str, problem: Problem) -> Optional[list[float]]:
        if optional and key not in raw:
            return None
        n = count(raw, problem.ndim) if count else problem.ndim
        entries = _required(raw, key)
        if (not isinstance(entries, list) or len(entries) != n
                or not all(_number(v) for v in entries)):
            raise ConfigError(f"{key!r} must list one order per axis ({n})",
                              field=key)
        return [float(v) for v in entries]
    return resolve


def _kernel(entry: Any, key: str) -> KernelSpec:
    if entry == "rl":
        return rl_kernel()
    if entry == "constant":
        return constant_kernel()
    if isinstance(entry, dict) and set(entry) == {"tabulated"}:
        samples = entry["tabulated"]
        if not (isinstance(samples, list)
                and all(isinstance(row, list) and len(row) == 2
                        and all(_number(v) for v in row) for row in samples)):
            raise ConfigError("a tabulated kernel must be a list of [s, k] "
                              "number pairs", field=key)
        try:
            return tabulated_kernel(np.asarray(samples, dtype=float))
        except (FracvarError, ValueError) as exc:
            raise ConfigError(f"bad tabulated kernel: {exc}", field=key)
    raise ConfigError(
        f"kernel must be 'rl', 'constant', or {{'tabulated': [[s, k], ...]}}; "
        f"got {entry!r}", field=key)


def _kernels(count: Optional[Callable] = None) -> Callable:
    def resolve(raw: dict, key: str, problem: Problem) -> list[KernelSpec]:
        n = count(raw, problem.ndim) if count else problem.ndim
        entries = raw.get(key, ["rl"] * n)
        if not isinstance(entries, list) or len(entries) != n:
            raise ConfigError(f"{key!r} must list one kernel per axis ({n})",
                              field=key)
        return [_kernel(e, key) for e in entries]
    return resolve


def _op(raw: dict, key: str, problem: Problem) -> OpKind:
    kind = _required(raw, key)
    if kind not in ("K", "A", "B"):
        raise ConfigError(f"'op' must be K, A, or B, got {kind!r}", field="op")
    return OpKind[kind]


def _axis(raw: dict, key: str, problem: Problem) -> int:
    axis = raw.get(key, 0)
    if not _integer(axis) or not 0 <= axis < problem.ndim:
        raise ConfigError(f"'axis' must lie in [0, {problem.ndim})",
                          field="axis")
    return axis


def _identity(raw: dict, key: str, problem: Problem) -> str:
    identity = raw.get(key, "full")
    if identity not in ("full", "duality"):
        raise ConfigError("'identity' must be 'full' or 'duality'",
                          field="identity")
    return identity


def _flag(raw: dict, key: str, problem: Problem) -> bool:
    flag = raw.get(key, False)
    if not isinstance(flag, bool):
        raise ConfigError(f"{key!r} must be true or false", field=key)
    return flag


def _positive(default: float) -> Callable:
    def resolve(raw: dict, key: str, problem: Problem) -> float:
        val = raw.get(key, default)
        if not _number(val) or val <= 0:
            raise ConfigError(f"{key!r} must be a positive number", field=key)
        return float(val)
    return resolve


def _time_and_space(raw: dict, key: str, problem: Problem) -> int:
    if problem.ndim < 2:
        raise ConfigError("wave-residual needs ndim >= 2 (time + space)",
                          field="ndim")
    return problem.ndim


def _lagrangian(raw: dict, key: str, problem: Problem) -> Lagrangian:
    name = _required(raw, key)
    factory = BUILTIN_LAGRANGIANS.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ConfigError(
            f"unknown Lagrangian {name!r}; built-ins: "
            f"{', '.join(sorted(BUILTIN_LAGRANGIANS))}", field="lagrangian")
    return factory(problem.ndim)


def _expression(required: bool) -> Callable:
    def resolve(raw: dict, key: str, problem: Problem) -> Optional[Callable]:
        text = raw.get(key)
        if text is None:
            if required:
                raise ConfigError(f"this command requires expression {key!r}",
                                  field=key)
            return None
        if not isinstance(text, str):
            raise ConfigError(f"{key!r} must be an expression string", field=key)
        return parse_function(text, problem.ndim, allow_u=key == "generator")
    return resolve


def _generator(raw: dict, key: str, problem: Problem) -> SymmetryGenerator:
    xi = _expression(True)(raw, key, problem)
    return SymmetryGenerator(
        lambda t, u: np.asarray(xi(t, u[0]), dtype=float)[np.newaxis],
        description=raw[key])


# ---------------------------------------------------------------------------
# One schema per command: the keys its runner reads, in resolution order.

_OPERATOR = {"op": _op, "psets": _psets(), "orders": _orders(),
             "kernels": _kernels(), "axis": _axis}
_VARIATIONAL = {"psets1": _psets(), "psets2": _psets(), "alphas": _orders(),
                "betas": _orders(), "kernels_alpha": _kernels(),
                "kernels_beta": _kernels(), "lagrangian": _lagrangian}

_SCHEMAS: dict[str, dict[str, Callable]] = {
    "op-apply": {**_OPERATOR, "field": _expression(True),
                 "oracle": _expression(False)},
    "ibp-check": {"psets": _psets(_one), "orders": _orders(_one),
                  "kernels": _kernels(_one), "identity": _identity,
                  "axis": _axis, "f": _expression(True),
                  "eta": _expression(True)},
    "el-residual": {**_VARIATIONAL, "mixed": _flag,
                    "field": _expression(True)},
    "dirichlet-solve": {"psets": _psets(), "alphas": _orders(),
                        "kernels": _kernels(), "tol": _positive(1e-10),
                        "boundary": _expression(True)},
    "noether-check": {**_VARIATIONAL, "u0": _expression(False),
                      "generator": _generator},
    "wave-residual": {"ndim": _time_and_space, "rho": _positive(1.0),
                      "stiffness": _positive(1.0),
                      "psets": _psets(_wave_axes), "alphas": _orders(_one),
                      # Without space orders, a classical Laplacian.
                      "space_betas": _orders(lambda raw, ndim: ndim - 1,
                                             optional=True),
                      "kernels": _kernels(_wave_axes),
                      "field": _expression(True)},
    "convergence-sweep": {**_OPERATOR, "f": _expression(True),
                          "oracle": _expression(True)},
}

COMMANDS = tuple(_SCHEMAS)
