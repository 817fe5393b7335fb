"""Tests of the benchmark itself: small runs of every workload, checks that
catch corrupted results, the tracer's counts, and the closed forms.

    python3 -m pytest perfbench/tests -q
"""

import dataclasses
import json
import os
import subprocess
import sys

import mpmath as mp
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

import fracvar as fv  # noqa: E402
from perfbench import harness, reference  # noqa: E402
from perfbench.tracer import PER_LAYER_UNITS, Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, read_csv  # noqa: E402


def run_ops(workload, index=0):
    """Run every operation of one pass (timed ones first) and return the
    operations and their results, leaving the pass's files in place."""
    ops = workload.ops(index)
    results = {}
    for op in sorted(ops, key=lambda o: not o.timed):
        results[op.name] = op.run(results)
    return ops, results


@pytest.fixture(params=sorted(WORKLOADS))
def small_pass(request, tmp_path):
    workload = WORKLOADS[request.param](7, "small", str(tmp_path))
    ops, results = run_ops(workload)
    yield workload, ops, results
    workload.end_pass(0)


def test_small_pass_passes_every_check(small_pass):
    _, ops, results = small_pass
    assert ops
    for op in ops:
        assert op.check(results) == [], op.name


def corrupt(value):
    """The same result, wrong by far more than any check's tolerance."""
    if isinstance(value, fv.MinimizeResult):
        return value._replace(field=corrupt(value.field),
                              gradient_norm=corrupt(value.gradient_norm))
    if isinstance(value, tuple):
        return tuple(corrupt(v) for v in value)
    if isinstance(value, np.ndarray):
        return value + 1e-2 * (1.0 + np.abs(value))
    if isinstance(value, fv.Field):
        return fv.Field(value.grid, corrupt(value.values))
    if isinstance(value, fv.IbpReport):
        return dataclasses.replace(value, residual=1.0)
    if isinstance(value, int):
        return value + 1
    if isinstance(value, float):
        return value + 1e-2 * (1.0 + abs(value))
    raise TypeError(type(value))


def test_each_check_fails_on_a_corrupted_result(small_pass):
    _, ops, results = small_pass
    for op in ops:
        bad = dict(results)
        bad[op.name] = corrupt(results[op.name])
        assert op.check(bad), op.name


def _csv_edits():
    def perturb_value(text):
        lines = text.split("\n")
        cells = lines[1].split(",")
        cells[-2] = repr(float(cells[-2]) + 1e-6)
        lines[1] = ",".join(cells)
        return "\n".join(lines)
    return {
        "crlf": lambda text: text.replace("\n", "\r\n"),
        "dropped row": lambda text: "\n".join(text.split("\n")[:-2]) + "\n",
        "header": lambda text: text.replace("value", "val", 1),
        "value": perturb_value,
    }


@pytest.mark.parametrize("edit", sorted(_csv_edits()))
def test_cli_checks_catch_corrupted_csv(edit, tmp_path):
    workload = WORKLOADS["cli-3d"](7, "small", str(tmp_path))
    ops, results = run_ops(workload)
    op = next(o for o in ops if o.name == "K3d")
    csv_path = next(tmp_path.rglob("op_apply_K_3d.csv"))
    csv_path.write_bytes(_csv_edits()[edit](csv_path.read_text()).encode())
    assert op.check(results)


def test_cli_check_catches_a_failed_summary(tmp_path):
    workload = WORKLOADS["cli-3d"](7, "small", str(tmp_path))
    ops, results = run_ops(workload)
    summary = next(tmp_path.rglob("op_apply_B_2d.summary.json"))
    data = json.loads(summary.read_text())
    data["pass"] = False
    summary.write_text(json.dumps(data))
    assert next(o for o in ops if o.name == "B2d").check(results)


def test_read_csv_reports_layout(tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(b"n,value\r\n1,2\r\n")
    header, body, errs = read_csv(str(path))
    assert errs and body.shape == (1, 2)


def test_tracer_counts_chain_identity_plans():
    grid = fv.grid_1d(0.0, 1.0, 32)
    t = grid.axes[0].nodes
    spec = fv.ProblemSpec(grid, fv.dirichlet_energy_lagrangian(1),
                          [fv.ParamSet(0.0, 1.0, 0.6, 0.4)],
                          [fv.ParamSet(0.0, 1.0, 0.3, 0.7)], [0.4], [0.6],
                          [fv.rl_kernel()], [fv.rl_kernel()])
    u = fv.Field(grid, np.sin(3.0 * t)[None])
    gen = fv.SymmetryGenerator(lambda c, uu: np.ones_like(uu), "translation")
    original = fv.make_plan
    tracer = Tracer()
    tracer.install()
    try:
        fv.chain_identity_residual(spec, u, gen)
    finally:
        tracer.uninstall()
    assert tracer.counts["operators.make_plan"] == 13
    assert len(tracer.plan_keys) == 3
    assert fv.make_plan is original
    assert fv.noether.make_plan is original


def test_tracer_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [["a", "f", 0.0, 10.0, -1], ["b", "g", 1.0, 4.0, 0],
                    ["a", "f", 5.0, 6.0, 0]]
    assert tracer.self_times() == {"a": 7.0, "b": 3.0}


def test_per_layer_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_run_script_prints_a_result(tmp_path):
    out = subprocess.run(
        [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
         "--workload", "solve-nd", "--seed", "3", "--seconds", "0",
         "--trace", "1", "--size", "small"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] and record["failed"] == 0
    assert set(record["metrics"]) == set(PER_LAYER_UNITS)


def test_run_script_fails_without_a_source_tree(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    (bench / "run.py").write_text(
        open(os.path.join(ROOT, "perfbench", "run.py"), encoding="utf-8").read())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-1d", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert out.returncode != 0 and out.stdout == ""


# -- the closed forms against the defining integrals ---------------------------

def _quad_K(x, kernel, f, p, q):
    """p int_0^t k(t-s) f(s) ds + q int_t^1 k(s-t) f(s) ds by quadrature in
    the kernel's argument, so the singular end is at 0 without cancellation."""
    with mp.workdps(30):
        x = mp.mpf(x)
        left = mp.quad(lambda u: kernel(u) * f(x - u), [0, x]) if x > 0 else 0
        right = mp.quad(lambda u: kernel(u) * f(x + u), [0, 1 - x]) if x < 1 else 0
        return p * left + q * right


@pytest.mark.parametrize("order", [0.3, 0.7])
def test_rl_closed_forms_match_quadrature(order):
    a = mp.mpf(order)
    t = np.array([0.2, 0.55])
    p, q = 0.6, 0.4
    one, lin = reference.rl_K_affine(t, order, p, q)
    k_a = lambda s: s ** (a - 1) / mp.gamma(a)  # noqa: E731
    for i, x in enumerate(t):
        assert one[i] == pytest.approx(float(_quad_K(x, k_a, lambda s: 1, p, q)), rel=1e-9)
        assert lin[i] == pytest.approx(float(_quad_K(x, k_a, lambda s: s, p, q)), rel=1e-9)
    b = 1 - a
    k_b = lambda s: s ** (b - 1) / mp.gamma(b)  # noqa: E731
    bt = reference.rl_B_linear(t, order, p, q)
    at = reference.rl_A_linear(t, order, p, q)
    for i, x in enumerate(t):
        assert bt[i] == pytest.approx(float(_quad_K(x, k_b, lambda s: 1, p, q)), rel=1e-9)
        # A t is the derivative of K^(1-alpha) t, whose closed form the K
        # assertions above cover: compare with a central difference of it.
        step = 1e-4
        _, k_t = reference.rl_K_affine(np.array([x - step, x + step]), 1 - order, p, q)
        assert at[i] == pytest.approx((k_t[1] - k_t[0]) / (2 * step), rel=1e-6)


def test_exp_and_constant_closed_forms_match_quadrature():
    t = np.array([0.0, 0.3, 1.0])
    p, q = 0.7, 0.3
    one, lin = reference.exp_K_affine(t, 1.3, p, q)
    c1, ct = reference.constant_K_affine(t, p, q)
    k_exp = lambda s: mp.exp(-1.3 * s)  # noqa: E731
    for i, x in enumerate(t):
        assert one[i] == pytest.approx(float(_quad_K(x, k_exp, lambda s: 1, p, q)), rel=1e-9)
        assert lin[i] == pytest.approx(float(_quad_K(x, k_exp, lambda s: s, p, q)), rel=1e-9)
        assert c1[i] == pytest.approx(float(_quad_K(x, lambda s: 1, lambda s: 1, p, q)), rel=1e-9)
        assert ct[i] == pytest.approx(float(_quad_K(x, lambda s: 1, lambda s: s, p, q)), rel=1e-9)


def test_l1_matrix_is_the_b_discretization():
    B = reference.l1_B_matrix(16, 0.4, 0.6, 0.4)
    plan = fv.make_plan(fv.OpKind.B, 0.4, fv.ParamSet(0.0, 1.0, 0.6, 0.4),
                        fv.rl_kernel(), fv.make_uniform_grid(0.0, 1.0, 16))
    assert np.max(np.abs(B - plan.matrix)) < 1e-12
    assert np.max(np.abs(B.sum(axis=1))) < 1e-12


def test_measure_runs_whole_passes(tmp_path):
    workload = WORKLOADS["line-1d"](1, "small", str(tmp_path))
    records = harness.measure(workload, 0.0, Tracer())
    assert len(records) == 2 and records[0].traced and not records[1].traced
    assert all(r.ops == records[0].ops and not r.failures for r in records)
    record = harness.result(records, 0.1)
    assert record["metrics"]["operators.make_plan.calls"]["value"] == 49
