"""Experiment configuration: JSON schema, validation, and builders.

A config file is one JSON document:

    {
      "command": "ibp-check",
      "problem": { ... nested problem description ... },
      "sweep": [64, 128, 256],          // optional grid sizes, each >= 4
      "tolerances": { "residual_abs": 5e-3, ... },
      "seed": 42,
      "output_path": "ibp.csv"
    }

The problem block names grids, p-sets, orders, kernels, built-in Lagrangians
and expression-valued functions; everything referenced must resolve at parse
time (unknown names are ConfigError).  Its ``ndim`` is an integer 1..3
(default 1) and its ``size`` the grid size used when there is no sweep, an
integer >= 4 like the sweep entries (default 64).

Tolerance keys refer to CSV columns: a bare column name bounds the last
row's value, ``<column>_max`` bounds the maximum over rows,
``decrease_factor_min`` requires successive rows of the residual/error
column to shrink by at least the given factor, and ``order_est_range`` is a
two-element [lo, hi] window on the final order estimate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

from .errors import ConfigError, FracvarError
from .exprs import parse_function
from .model import (GridND, KernelSpec, ParamSet, constant_kernel,
                    make_uniform_grid, rl_kernel, tabulated_kernel)
from .variational import BUILTIN_LAGRANGIANS, Lagrangian

COMMANDS = ("op-apply", "ibp-check", "el-residual", "dirichlet-solve",
            "noether-check", "wave-residual", "convergence-sweep")


@dataclass(frozen=True)
class ExperimentConfig:
    command: str
    problem: dict
    sweep: Optional[tuple[int, ...]]
    tolerances: dict[str, Any]
    seed: int
    output_path: str


def _require(problem: dict, key: str, context: str) -> Any:
    if key not in problem:
        raise ConfigError(f"{context} requires {key!r}", field=key)
    return problem[key]


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path!r} is not valid JSON: {exc}")
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

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
                or not all(isinstance(n, int) and n >= 4 for n in sweep)):
            raise ConfigError("'sweep' must be a list of integers >= 4",
                              field="sweep")
        sweep = tuple(sweep)
    size = problem.get("size", 64)
    if not (isinstance(size, int) and size >= 4):
        raise ConfigError("'size' must be an integer >= 4", field="size")

    tolerances = raw.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("'tolerances' must be an object", field="tolerances")
    for key, val in tolerances.items():
        if key == "order_est_range":
            if (not isinstance(val, list) or len(val) != 2
                    or not all(isinstance(v, (int, float)) for v in val)):
                raise ConfigError("'order_est_range' must be [lo, hi]",
                                  field=key)
        elif not isinstance(val, (int, float)):
            raise ConfigError(f"tolerance {key!r} must be a number", field=key)

    seed = raw.get("seed", 42)
    if not isinstance(seed, int):
        raise ConfigError("'seed' must be an integer", field="seed")

    output_path = raw.get("output_path")
    if not isinstance(output_path, str) or not output_path:
        raise ConfigError("'output_path' must be a non-empty string",
                          field="output_path")

    cfg = ExperimentConfig(command, problem, sweep, tolerances, seed,
                           output_path)
    validate_problem(cfg)
    return cfg


# ---------------------------------------------------------------------------
# Problem-block builders


def build_interval(problem: dict) -> tuple[float, float]:
    iv = problem.get("interval", [0.0, 1.0])
    if (not isinstance(iv, list) or len(iv) != 2
            or not all(isinstance(v, (int, float)) for v in iv)
            or not iv[0] < iv[1]):
        raise ConfigError("'interval' must be [a, b] with a < b",
                          field="interval")
    return float(iv[0]), float(iv[1])


def build_grid(problem: dict, n: int) -> GridND:
    a, b = build_interval(problem)
    ndim = problem.get("ndim", 1)
    if (isinstance(ndim, bool) or not isinstance(ndim, int)
            or not 1 <= ndim <= 3):
        raise ConfigError("'ndim' must be 1, 2, or 3", field="ndim")
    return GridND(tuple(make_uniform_grid(a, b, n) for _ in range(ndim)))


def build_pset(entry: Any, interval: tuple[float, float]) -> ParamSet:
    if (not isinstance(entry, list) or len(entry) != 2
            or not all(isinstance(v, (int, float)) for v in entry)):
        raise ConfigError("each p-set must be [p, q]", field="psets")
    return ParamSet(interval[0], interval[1], float(entry[0]), float(entry[1]))


def build_psets(problem: dict, key: str, ndim: int) -> list[ParamSet]:
    interval = build_interval(problem)
    entries = _require(problem, key, "this command")
    if not isinstance(entries, list) or len(entries) != ndim:
        raise ConfigError(f"{key!r} must list one [p, q] pair per axis "
                          f"({ndim})", field=key)
    return [build_pset(e, interval) for e in entries]


def build_kernel(entry: Any) -> KernelSpec:
    if entry == "rl":
        return rl_kernel()
    if entry == "constant":
        return constant_kernel()
    if isinstance(entry, dict) and set(entry) == {"tabulated"}:
        samples = entry["tabulated"]
        try:
            return tabulated_kernel(np.asarray(samples, dtype=float))
        except (FracvarError, ValueError) as exc:
            raise ConfigError(f"bad tabulated kernel: {exc}", field="kernels")
    raise ConfigError(
        f"kernel must be 'rl', 'constant', or {{'tabulated': [[s, k], ...]}}; "
        f"got {entry!r}", field="kernels")


def build_kernels(problem: dict, key: str, ndim: int) -> list[KernelSpec]:
    entries = problem.get(key, ["rl"] * ndim)
    if not isinstance(entries, list) or len(entries) != ndim:
        raise ConfigError(f"{key!r} must list one kernel per axis ({ndim})",
                          field=key)
    return [build_kernel(e) for e in entries]


def build_orders(problem: dict, key: str, ndim: int) -> list[float]:
    entries = _require(problem, key, "this command")
    if (not isinstance(entries, list) or len(entries) != ndim
            or not all(isinstance(v, (int, float)) for v in entries)):
        raise ConfigError(f"{key!r} must list one order per axis ({ndim})",
                          field=key)
    return [float(v) for v in entries]


def build_lagrangian(problem: dict, ndim: int) -> Lagrangian:
    name = _require(problem, "lagrangian", "this command")
    factory = BUILTIN_LAGRANGIANS.get(name)
    if factory is None:
        raise ConfigError(
            f"unknown Lagrangian {name!r}; built-ins: "
            f"{', '.join(sorted(BUILTIN_LAGRANGIANS))}", field="lagrangian")
    return factory(ndim)


def build_expression(problem: dict, key: str, ndim: int,
                     allow_u: bool = False, required: bool = True
                     ) -> Optional[Callable]:
    text = problem.get(key)
    if text is None:
        if required:
            raise ConfigError(f"this command requires expression {key!r}",
                              field=key)
        return None
    if not isinstance(text, str):
        raise ConfigError(f"{key!r} must be an expression string", field=key)
    return parse_function(text, ndim, allow_u=allow_u)


_EXPR_KEYS = {
    # key -> (allow_u, required-for commands)
    "f": (False, ("ibp-check", "convergence-sweep")),
    "eta": (False, ("ibp-check",)),
    "field": (False, ("op-apply", "el-residual", "wave-residual")),
    "boundary": (False, ("dirichlet-solve",)),
    "generator": (True, ("noether-check",)),
    "oracle": (False, ()),
}


def validate_problem(cfg: ExperimentConfig) -> None:
    """Resolve every reference in the problem block (grids, p-sets, kernels,
    Lagrangian, expressions) without running anything."""
    problem, command = cfg.problem, cfg.command
    ndim = build_grid(problem, 8).ndim
    if command in ("op-apply", "convergence-sweep"):
        kind = _require(problem, "op", command)
        if kind not in ("K", "A", "B"):
            raise ConfigError(f"'op' must be K, A, or B, got {kind!r}",
                              field="op")
        build_psets(problem, "psets", ndim)
        build_orders(problem, "orders", ndim)
        build_kernels(problem, "kernels", ndim)
        axis = problem.get("axis", 0)
        if not isinstance(axis, int) or not 0 <= axis < ndim:
            raise ConfigError(f"'axis' must lie in [0, {ndim})", field="axis")
    elif command == "ibp-check":
        build_psets(problem, "psets", 1)
        build_orders(problem, "orders", 1)
        build_kernels(problem, "kernels", 1)
        identity = problem.get("identity", "full")
        if identity not in ("full", "duality"):
            raise ConfigError("'identity' must be 'full' or 'duality'",
                              field="identity")
        axis = problem.get("axis", 0)
        if not isinstance(axis, int) or not 0 <= axis < ndim:
            raise ConfigError(f"'axis' must lie in [0, {ndim})", field="axis")
    elif command in ("el-residual", "noether-check"):
        build_psets(problem, "psets1", ndim)
        build_psets(problem, "psets2", ndim)
        build_orders(problem, "alphas", ndim)
        build_orders(problem, "betas", ndim)
        build_kernels(problem, "kernels_alpha", ndim)
        build_kernels(problem, "kernels_beta", ndim)
        build_lagrangian(problem, ndim)
        if command == "noether-check":
            build_expression(problem, "u0", ndim, required=False)
    elif command == "dirichlet-solve":
        build_psets(problem, "psets", ndim)
        build_orders(problem, "alphas", ndim)
        build_kernels(problem, "kernels", ndim)
        tol = problem.get("tol", 1e-10)
        if not isinstance(tol, (int, float)) or tol <= 0:
            raise ConfigError("'tol' must be a positive number", field="tol")
    elif command == "wave-residual":
        if ndim < 2:
            raise ConfigError("wave-residual needs ndim >= 2 (time + space)",
                              field="ndim")
        for key in ("rho", "stiffness"):
            val = problem.get(key, 1.0)
            if not isinstance(val, (int, float)) or val <= 0:
                raise ConfigError(f"{key!r} must be a positive number",
                                  field=key)
        build_psets(problem, "psets", ndim if "space_betas" in problem else 1)
        build_orders(problem, "alphas", 1)
        if "space_betas" in problem:
            build_orders(problem, "space_betas", ndim - 1)
        build_kernels(problem, "kernels",
                      ndim if "space_betas" in problem else 1)
    for key, (allow_u, needed_by) in _EXPR_KEYS.items():
        build_expression(problem, key, ndim, allow_u=allow_u,
                         required=command in needed_by)
