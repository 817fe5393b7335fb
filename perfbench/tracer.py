"""Span tracer for fracvar, installed from outside the package.

The tracer replaces the public functions of the traced fracvar modules with
wrappers at every module binding (modules import names directly, so
``noether.make_plan`` is a binding of its own), records one span per call of
a function that belongs to a layer, and counts every call.  ``install`` and
``uninstall`` put the wrappers in and take them out again, so untraced code
runs the original functions with no extra call layer.

Spans are ``(layer, function, start, end, parent)`` rows kept in memory.
A layer's self time is the sum over its spans of the span's duration minus
the durations of its child spans.  Public functions that belong to no layer
(small helpers such as ``d_matrix`` or ``volume_integral``) are counted but
make no span, so their time stays with the layer that called them.

The tracer assumes one thread: the span stack is a plain list.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import Counter

import numpy as np

TRACED_MODULES = ("operators", "dirichlet", "variational", "noether", "ibp",
                  "model", "config", "cli")

# function (module.name) -> layer; every other public function is counted only
LAYERS = {
    "operators.make_plan": "operators.make_plan",
    "operators.dual_plan": "operators.make_plan",
    "operators.apply_op_nd": "operators.apply",
    "operators.apply_op_1d": "operators.apply",
    "operators.frac_gradient": "operators.apply",
    "operators.adjoint_apply": "operators.adjoint",
    "operators.apply_matrix_along_axis": "operators.matvec",
    "dirichlet.minimize_energy": "dirichlet.minimize",
    "dirichlet.transfinite_init": "dirichlet.minimize",
    "dirichlet.uniqueness_check": "dirichlet.minimize",
    "dirichlet.bvp_residual": "dirichlet.residual",
    "dirichlet.energy": "dirichlet.residual",
    "variational.el_residual": "variational.el_residual",
    "variational.el_residual_mixed": "variational.el_residual",
    "variational.evaluate_functional": "variational.el_residual",
    "variational.wave_residual": "variational.el_residual",
    "noether.chain_identity_residual": "noether.chain",
    "noether.noether_residual": "noether.chain",
    "noether.invariance_residual": "noether.chain",
    "noether.bracket_D": "noether.chain",
    "noether.bracket_I": "noether.chain",
    "ibp.check_ibp": "ibp.check",
    "ibp.check_K_duality": "ibp.check",
    "model.Field.__post_init__": "model.field",
    "config.load_config": "config.load_config",
    "cli.run_experiment": "cli.run_experiment",
    "cli.write_csv": "cli.write_csv",
}

MB = float(1 << 20)


def plan_key(plan) -> tuple:
    """The identity of an operator: (kind, order, p-set, kernel, grid, axis)."""
    k = plan.kernel
    samples = None if k.samples is None else k.samples.tobytes()
    g = plan.grid
    return (plan.kind.value, plan.order, plan.pset, k.family.value, k.order,
            samples, (g.a, g.b, g.n), plan.axis)


def plan_nbytes(plan) -> int:
    return sum(v.nbytes for v in vars(plan).values() if isinstance(v, np.ndarray))


class Tracer:
    """Spans, call counts and per-call quantities of one traced pass."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self._targets = self._discover()
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.plan_keys: set = set()
        self.plan_bytes = 0
        self.matvec_flop = 0
        self.cg_iters = 0
        self.csv_bytes = 0

    @staticmethod
    def _discover() -> dict:
        """function object -> module.name for every public function defined
        in a traced module."""
        targets = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"fracvar.{short}")
            for name, obj in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    targets[obj] = f"{short}.{name}"
        return targets

    def install(self) -> None:
        if self._originals:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in self._targets.items()}
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "fracvar"
                                   or modname.startswith("fracvar.")):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._originals.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        from fracvar.model import Field
        post = Field.__post_init__
        self._originals.append((Field, "__post_init__", post))
        Field.__post_init__ = self._wrap(post, "model.Field.__post_init__")

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._originals):
            setattr(owner, attr, obj)
        self._originals.clear()

    def _wrap(self, fn, name: str):
        layer = LAYERS.get(name)
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if layer is None:
                return fn(*args, **kwargs)
            spans, stack = tracer.spans, tracer.stack
            sid = len(spans)
            spans.append([layer, name, time.perf_counter(), 0.0,
                          stack[-1] if stack else -1])
            stack.append(sid)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[sid][3] = time.perf_counter()
                stack.pop()
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return wrapper

    # -- derived quantities --------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (layer, _, start, end, _) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def inclusive_time(self, name: str) -> float:
        """Total span time of one function (no fracvar function recurses)."""
        return sum(end - start for _, fn, start, end, _ in self.spans
                   if fn == name)

    def dump(self, path: str) -> None:
        """Write the spans as JSON lines: layer, function, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _on_make_plan(tracer: Tracer, args, kwargs, plan) -> None:
    tracer.plan_keys.add(plan_key(plan))
    tracer.plan_bytes += plan_nbytes(plan)


def _on_matvec(tracer: Tracer, args, kwargs, out) -> None:
    M, values, axis = args[:3]
    rows, cols = M.shape
    lines = values.size // values.shape[axis + 1]
    tracer.matvec_flop += 2 * rows * cols * lines


def _on_minimize(tracer: Tracer, args, kwargs, result) -> None:
    tracer.cg_iters += result.iterations


def _on_write_csv(tracer: Tracer, args, kwargs, out) -> None:
    tracer.csv_bytes += os.path.getsize(args[0])


_HOOKS = {
    "operators.make_plan": _on_make_plan,
    "operators.apply_matrix_along_axis": _on_matvec,
    "dirichlet.minimize_energy": _on_minimize,
    "cli.write_csv": _on_write_csv,
}

# per-layer metric -> unit; the order of BENCHMARK.json
PER_LAYER_UNITS = {
    "operators.make_plan.calls": "count",
    "operators.make_plan.useful_frac": "ratio",
    "operators.make_plan.self_s": "s",
    "operators.plan.mb": "MB",
    "operators.apply.calls": "count",
    "operators.apply.self_s": "s",
    "operators.adjoint.self_s": "s",
    "operators.matvec.calls": "count",
    "operators.matvec.self_s": "s",
    "operators.matvec.gflop": "GFLOP",
    "dirichlet.minimize.self_s": "s",
    "dirichlet.cg_iters": "count",
    "dirichlet.s_per_iter": "s",
    "dirichlet.residual.self_s": "s",
    "variational.el_residual.self_s": "s",
    "noether.chain.self_s": "s",
    "ibp.check.self_s": "s",
    "model.field.calls": "count",
    "model.field.self_s": "s",
    "config.load_config.self_s": "s",
    "cli.run_experiment.self_s": "s",
    "cli.write_csv.self_s": "s",
    "cli.write_csv.mb_per_s": "MB/s",
    "trace.overhead_s": "s",
}

COUNT_METRICS = ("operators.make_plan.calls", "operators.make_plan.useful_frac",
                 "operators.plan.mb", "operators.apply.calls",
                 "operators.matvec.calls", "operators.matvec.gflop",
                 "dirichlet.cg_iters", "model.field.calls")


def pass_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s)."""
    st = tracer.self_times()
    c = tracer.counts
    plans = c["operators.make_plan"]
    minimize_s = tracer.inclusive_time("dirichlet.minimize_energy")
    write_s = tracer.inclusive_time("cli.write_csv")
    return {
        "operators.make_plan.calls": plans,
        "operators.make_plan.useful_frac":
            len(tracer.plan_keys) / plans if plans else 0.0,
        "operators.make_plan.self_s": st.get("operators.make_plan", 0.0),
        "operators.plan.mb": tracer.plan_bytes / MB,
        "operators.apply.calls": c["operators.apply_op_nd"],
        "operators.apply.self_s": st.get("operators.apply", 0.0),
        "operators.adjoint.self_s": st.get("operators.adjoint", 0.0),
        "operators.matvec.calls": c["operators.apply_matrix_along_axis"],
        "operators.matvec.self_s": st.get("operators.matvec", 0.0),
        "operators.matvec.gflop": tracer.matvec_flop / 1e9,
        "dirichlet.minimize.self_s": st.get("dirichlet.minimize", 0.0),
        "dirichlet.cg_iters": tracer.cg_iters,
        "dirichlet.s_per_iter":
            minimize_s / tracer.cg_iters if tracer.cg_iters else 0.0,
        "dirichlet.residual.self_s": st.get("dirichlet.residual", 0.0),
        "variational.el_residual.self_s": st.get("variational.el_residual", 0.0),
        "noether.chain.self_s": st.get("noether.chain", 0.0),
        "ibp.check.self_s": st.get("ibp.check", 0.0),
        "model.field.calls": c["model.Field.__post_init__"],
        "model.field.self_s": st.get("model.field", 0.0),
        "config.load_config.self_s": st.get("config.load_config", 0.0),
        "cli.run_experiment.self_s": st.get("cli.run_experiment", 0.0),
        "cli.write_csv.self_s": st.get("cli.write_csv", 0.0),
        "cli.write_csv.mb_per_s":
            tracer.csv_bytes / MB / write_s if write_s else 0.0,
    }
