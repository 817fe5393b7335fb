"""End-to-end checks of the ``fracvar`` command-line driver."""

import csv
import io
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import fracvar
from fracvar import cli, config, noether, operators, variational
from fracvar.config import load_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = sorted(CONFIG_DIR.glob("*.json"))


def load_payload(name):
    return json.loads((CONFIG_DIR / name).read_text(encoding="utf-8"))


def write_payload(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def outputs(out_dir, payload):
    csv_path = Path(out_dir) / payload["output_path"]
    return csv_path, csv_path.with_suffix(".summary.json")


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
def test_shipped_configs_pass(config, tmp_path):
    assert cli.run(str(config), output_dir=str(tmp_path)) == 0
    payload = json.loads(config.read_text(encoding="utf-8"))
    csv_path, summary_path = outputs(tmp_path, payload)
    assert csv_path.is_file()
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["pass"] is True
    assert summary["command"] == payload["command"]
    assert summary["rows"] >= 1


@pytest.mark.parametrize("config", SHIPPED, ids=lambda p: p.stem)
def test_header_names_every_column(config, tmp_path):
    # The command table's header has one name per column the runner fills,
    # order_est included, at the config's first size.
    payload = json.loads(config.read_text(encoding="utf-8"))
    if "sweep" in payload:
        payload["sweep"] = payload["sweep"][:1]
    cfg = load_config(write_payload(tmp_path, payload))
    header, table = cli.run_experiment(cfg)
    assert table.ndim == 2 and table.shape[1] == len(header)
    assert len(set(header)) == len(header)


def test_import_loads_no_scipy():
    # Importing scipy.linalg alone would add about 0.2 s and 28 MB of RSS
    # to every `fracvar` run (measured on a 2-core x86-64 VM).
    src = str(Path(fracvar.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import json, sys, fracvar, fracvar.cli; print(json.dumps("
            "[m for m in sys.modules if m.split('.')[0] == 'scipy']))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert json.loads(out) == []


def test_there_are_shipped_configs():
    assert len(SHIPPED) >= 5


def test_tolerance_failure_exits_2(tmp_path, capsys):
    payload = load_payload("op_apply_halfint.json")
    payload["tolerances"] = {"abs_error_max": 1e-30}
    code = cli.run(write_payload(tmp_path, payload), output_dir=str(tmp_path))
    assert code == 2
    _, summary_path = outputs(tmp_path, payload)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["pass"] is False
    entry = summary["tolerances"]["abs_error_max"]
    assert set(entry) == {"bound", "value", "pass"}
    assert entry["pass"] is False
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("nan_row", [1, 2])
def test_nan_in_max_column_fails(nan_row):
    table = np.array([[0.0, 0.0, 1e-14], [0.5, 1.0, 2e-14],
                      [1.0, 2.0, 3e-14]])
    table[nan_row, 2] = math.nan
    entry = cli.evaluate_tolerances({"abs_error_max": 1e-10},
                                    ["t1", "value", "abs_error"],
                                    table)["abs_error_max"]
    assert math.isnan(entry["value"]) and entry["pass"] is False


@pytest.mark.parametrize("nan_row", [1, 2])
def test_nan_in_decrease_factor_sweep_fails(nan_row):
    table = np.array([[16, 1e-2], [32, 1e-3], [64, 1e-4]])
    table[nan_row, 1] = math.nan
    entry = cli.evaluate_tolerances({"decrease_factor_min": 2.0},
                                    ["n", "max_interior_error"], table,
                                    "max_interior_error")["decrease_factor_min"]
    assert math.isnan(entry["value"]) and entry["pass"] is False


def reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_summary_is_strict_json(tmp_path):
    # One sweep size: order_est is NaN and the smallest decrease factor is
    # infinite, written as strings that strict JSON parsers accept.
    payload = load_payload("convergence_K_quadratic.json")
    payload["sweep"] = payload["sweep"][:1]
    assert "order_est_range" in payload["tolerances"]
    code = cli.run(write_payload(tmp_path, payload), output_dir=str(tmp_path))
    assert code == 2
    _, summary_path = outputs(tmp_path, payload)
    summary = json.loads(summary_path.read_text(encoding="utf-8"),
                         parse_constant=reject_constant)
    tolerances = summary["tolerances"]
    assert tolerances["order_est_range"]["value"] == "NaN"
    assert tolerances["order_est_range"]["pass"] is False
    assert tolerances["decrease_factor_min"]["value"] == "Infinity"
    assert tolerances["decrease_factor_min"]["pass"] is True
    assert cli._finite_json({"v": [-math.inf, (math.inf, math.nan)]}) == {
        "v": ["-Infinity", ["Infinity", "NaN"]]}


def test_decrease_factor_zero_error_is_infinite():
    table = np.array([[16, 1e-2], [32, 1e-3], [64, 0.0], [128, 0.0]])
    entry = cli.evaluate_tolerances({"decrease_factor_min": 2.0},
                                    ["n", "max_interior_error"], table,
                                    "max_interior_error")["decrease_factor_min"]
    assert entry == {"bound": 2.0, "value": 10.0, "pass": True}


def test_config_error_exits_1(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"command": "nope"}', encoding="utf-8")
    assert cli.run(str(path), output_dir=str(tmp_path)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("name, key, value", [
    ("convergence_K_quadratic.json", "oracle", None),
    ("el_residual_profile.json", "lagrangian", []),
])
def test_rejected_problem_key_exits_1(tmp_path, capsys, name, key, value):
    payload = load_payload(name)
    if value is None:
        del payload["problem"][key]
    else:
        payload["problem"][key] = value
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {key})" in err


@pytest.mark.parametrize("name, where, key, value", [
    ("op_apply_halfint.json", "problem", "kernel", ["constant"]),
    ("op_apply_halfint.json", None, "tolerance", {"abs_error_max": 1e-30}),
    ("noether_translation.json", "problem", "field", "t1"),
    ("noether_translation.json", None, "seed", -1),
])
def test_misconfigured_key_exits_1_before_any_runner(tmp_path, capsys,
                                                     monkeypatch, name, where,
                                                     key, value):
    # Each of these used to run: a misspelt key was ignored (the RL kernel
    # ran; no tolerance was checked), an unread expression was parsed and
    # dropped, and a negative seed crashed in numpy with a traceback.
    payload = load_payload(name)
    (payload if where is None else payload[where])[key] = value
    command = payload["command"]
    calls = []
    monkeypatch.setitem(cli._COMMANDS, command,
                        (lambda p, grid: calls.append(grid),)
                        + cli._COMMANDS[command][1:])
    assert cli.main([write_payload(tmp_path, payload),
                     "--output-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"(field: {key})" in err
    assert calls == []
    assert not list(tmp_path.rglob("*.csv"))


def test_wave_residual_fractional_space_matches_library(tmp_path):
    # With space_betas the space axes get A_{P*} B_P operators instead of
    # the classical Laplacian.
    payload = load_payload("wave_linear_field.json")
    payload["problem"].update(
        psets=[[1.0, 0.0], [0.6, 0.4]], kernels=["rl", "constant"],
        space_betas=[0.7], rho=2.0, stiffness=0.5, field="t1*t2")
    payload["sweep"] = [16, 24]
    payload["tolerances"] = {}
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 0
    with open(outputs(tmp_path, payload)[0], newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["n"]) for r in rows] == [16, 24]
    for row in rows:
        n = int(row["n"])
        grid = fracvar.GridND((fracvar.make_uniform_grid(0.0, 1.0, n),) * 2)
        u = fracvar.Field.from_function(grid, lambda t1, t2: t1 * t2)
        res = fracvar.wave_residual(
            u, 2.0, 0.5,
            (fracvar.ParamSet(0.0, 1.0, 1.0, 0.0), 0.5, fracvar.rl_kernel()),
            [(fracvar.ParamSet(0.0, 1.0, 0.6, 0.4), 0.7,
              fracvar.constant_kernel())])
        want = fracvar.interior_max_abs(res)
        assert want > 0.0
        assert float(row["max_interior_residual"]) == want


def test_repeated_sweep_size_exits_1(tmp_path, capsys):
    # A repeated size would divide by log(1) in order_est.
    payload = load_payload("convergence_K_quadratic.json")
    payload["sweep"] = [64, 64]
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "repeat" in err
    assert "(field: sweep)" in err


def test_order_est_range_without_order_column_exits_1(tmp_path, capsys):
    payload = load_payload("op_apply_halfint.json")
    payload["tolerances"]["order_est_range"] = [1, 2]
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["1/0 + t1", "(0-8)^(1/3) + t1"])
def test_non_finite_constant_field_exits_1(tmp_path, capsys, field):
    # A constant subexpression that is not finite (or, in Python floats,
    # complex) is an EvalError: no traceback and no CSV.
    payload = load_payload("op_apply_halfint.json")
    payload["problem"]["field"] = field
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "non-finite" in err
    assert not outputs(tmp_path, payload)[0].exists()


def test_decrease_factor_min_without_error_column_exits_1(tmp_path, capsys):
    # op-apply writes no error column, so there is no sweep of errors whose
    # decrease the bound could measure.
    payload = load_payload("op_apply_halfint.json")
    payload["tolerances"]["decrease_factor_min"] = 2.0
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert "needs an error column" in err
    assert "(field: decrease_factor_min)" in err


@pytest.mark.parametrize("name, key, bound, message", [
    ("dirichlet_ramp.json", "bvp_residal_max", 1e-8, "names no CSV column"),
    ("op_apply_halfint.json", "decrease_factor_min", 2.0,
     "needs an error column"),
    ("op_apply_halfint.json", "order_est_range", [1, 2],
     "names no CSV column"),
])
def test_bad_tolerance_key_fails_before_any_runner(tmp_path, capsys,
                                                   monkeypatch, name, key,
                                                   bound, message):
    # The keys are checked against the command's header before the sweep:
    # exit 1 with the message, no runner call and no CSV.
    payload = load_payload(name)
    payload["tolerances"][key] = bound
    command = payload["command"]
    calls = []
    monkeypatch.setitem(cli._COMMANDS, command,
                        (lambda p, grid: calls.append(grid),)
                        + cli._COMMANDS[command][1:])
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert f"(field: {key})" in err
    assert calls == []
    assert not list(tmp_path.rglob("*.csv"))


def test_missing_config_exits_1(tmp_path, capsys):
    assert cli.run(str(tmp_path / "absent.json")) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("blocked", ["output_dir_is_file", "csv_is_dir"])
def test_output_error_exits_1(tmp_path, capsys, blocked):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    if blocked == "output_dir_is_file":
        (tmp_path / "file").write_text("", encoding="utf-8")
        out_dir = tmp_path / "file" / "sub"
    else:
        out_dir = tmp_path / "out"
        outputs(out_dir, payload)[0].mkdir(parents=True)
    assert cli.run(cfg, output_dir=str(out_dir)) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not list(tmp_path.rglob(".fracvar-*"))


def test_config_resolved_once(tmp_path, monkeypatch):
    payload = load_payload("noether_translation.json")
    payload["problem"]["u0"] = "sin(pi*t1)"
    payload["sweep"] = [16, 24, 32]
    checked, parsed = [], []
    gradient_check, parse = variational._gradient_check, config.parse_function

    def counting_gradient_check(lag):
        checked.append(lag.name)
        return gradient_check(lag)

    def counting_parse(text, *args, **kwargs):
        parsed.append(text)
        return parse(text, *args, **kwargs)

    monkeypatch.setattr(variational, "_gradient_check", counting_gradient_check)
    monkeypatch.setattr(config, "parse_function", counting_parse)
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path), jobs=2) == 0
    assert checked == ["dirichlet_energy"]
    assert sorted(parsed) == ["1", "sin(pi*t1)"]


def test_noether_check_evaluates_the_chain_once_per_size(tmp_path,
                                                        monkeypatch):
    # Each size samples the generator once and builds the 13 plans of one
    # 1D chain; the separate noether and invariance residuals would build 9
    # more and sample twice more.
    payload = load_payload("noether_translation.json")
    plans, samples = [], []
    make_plan, sample = operators.make_plan, noether.SymmetryGenerator.sample

    def counting_plan(*args, **kwargs):
        plans.append(1)
        return make_plan(*args, **kwargs)

    def counting_sample(*args):
        samples.append(1)
        return sample(*args)

    monkeypatch.setattr(operators, "make_plan", counting_plan)
    monkeypatch.setattr(noether.SymmetryGenerator, "sample", counting_sample)
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path), jobs=1) == 0
    sizes = len(payload["sweep"])
    assert len(plans) == 13 * sizes
    assert len(samples) == sizes


def test_csv_is_deterministic(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert cli.run(cfg, output_dir=str(out1)) == 0
    assert cli.run(cfg, output_dir=str(out2)) == 0
    csv1, _ = outputs(out1, payload)
    csv2, _ = outputs(out2, payload)
    assert csv1.read_bytes() == csv2.read_bytes()


def test_csv_format(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 0
    csv_path, _ = outputs(tmp_path, payload)
    text = csv_path.read_text(encoding="utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0].split(",")[:2] == ["t1", "value"]
    assert len(lines) > 1
    # Cells round-trip as floats.
    for cell in lines[1].split(","):
        float(cell)


def test_order_est_column(tmp_path):
    payload = load_payload("convergence_K_quadratic.json")
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 0
    csv_path, _ = outputs(tmp_path, payload)
    lines = csv_path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[-1] == "order_est"
    assert len(lines) - 1 == len(payload["sweep"])
    first = lines[1].split(",")[-1]
    assert first == "nan"
    last = float(lines[-1].split(",")[-1])
    assert 1.0 < last < 3.0


def test_parallel_jobs_identical(tmp_path):
    payload = load_payload("noether_translation.json")
    cfg = write_payload(tmp_path, payload)
    serial, parallel = tmp_path / "serial", tmp_path / "parallel"
    assert cli.run(cfg, output_dir=str(serial), jobs=1) == 0
    assert cli.run(cfg, output_dir=str(parallel), jobs=4) == 0
    csv_s, _ = outputs(serial, payload)
    csv_p, _ = outputs(parallel, payload)
    assert csv_s.read_bytes() == csv_p.read_bytes()


def test_output_dir_resolution(tmp_path, monkeypatch):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    env_dir, flag_dir = tmp_path / "env", tmp_path / "flag"

    monkeypatch.setenv("FRACVAR_OUTPUT_DIR", str(env_dir))
    assert cli.run(cfg) == 0
    assert outputs(env_dir, payload)[0].is_file()

    assert cli.run(cfg, output_dir=str(flag_dir)) == 0
    assert outputs(flag_dir, payload)[0].is_file()

    monkeypatch.delenv("FRACVAR_OUTPUT_DIR")
    assert cli.run(cfg) == 0
    assert outputs(tmp_path, payload)[0].is_file()


def test_output_path_may_contain_subdirectory(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    payload["output_path"] = "results/op.csv"
    assert cli.run(write_payload(tmp_path, payload),
                   output_dir=str(tmp_path)) == 0
    assert (tmp_path / "results" / "op.csv").is_file()


def test_output_path_may_step_out_of_a_missing_directory(tmp_path, capsys):
    # "missing" never exists: the path is normalized before it is used.
    payload = load_payload("op_apply_halfint.json")
    payload["output_path"] = "missing/../results/op.csv"
    cfg = write_payload(tmp_path, payload)
    assert cli.run(cfg, output_dir=str(tmp_path)) == 0
    csv_path = tmp_path / "results" / "op.csv"
    assert csv_path.is_file()
    assert csv_path.with_suffix(".summary.json").is_file()
    assert not (tmp_path / "missing").exists()
    summary = json.loads(csv_path.with_suffix(".summary.json").read_text(
        encoding="utf-8"))
    assert summary["csv"] == str(csv_path)
    assert capsys.readouterr().out.endswith(f" -> {csv_path} [pass]\n")


def test_main_parses_arguments(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    assert cli.main([cfg, "--output-dir", str(tmp_path), "--jobs", "2"]) == 0
    with pytest.raises(SystemExit):
        cli.main([cfg, "--jobs", "0"])


def test_summary_reports_absolute_paths(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    assert cli.run(cfg, output_dir=str(tmp_path)) == 0
    _, summary_path = outputs(tmp_path, payload)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert os.path.isabs(summary["config"])
    assert os.path.isabs(summary["csv"])
    assert set(summary) == {"command", "config", "csv", "rows",
                            "tolerances", "pass", "seconds", "versions"}


def test_summary_reports_phase_seconds(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    assert cli.run(cfg, output_dir=str(tmp_path)) == 0
    _, summary_path = outputs(tmp_path, payload)
    seconds = json.loads(summary_path.read_text(encoding="utf-8"))["seconds"]
    assert set(seconds) == {"load", "run", "write"}
    for value in seconds.values():
        assert isinstance(value, float)
        assert math.isfinite(value) and value >= 0.0


def test_summary_reports_versions(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    assert cli.run(cfg, output_dir=str(tmp_path)) == 0
    _, summary_path = outputs(tmp_path, payload)
    summary = json.loads(summary_path.read_text(encoding="utf-8"))
    assert summary["versions"] == {"fracvar": fracvar.__version__,
                                   "numpy": np.__version__,
                                   "python": platform.python_version()}


def test_output_files_follow_umask(tmp_path):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    old = os.umask(0o022)
    try:
        assert cli.run(cfg, output_dir=str(tmp_path)) == 0
    finally:
        os.umask(old)
    for path in outputs(tmp_path, payload):
        assert path.stat().st_mode & 0o777 == 0o644


def reference_csv(header, rows):
    """The row-list CSV writer the table writer replaced: csv.writer with LF
    endings, ints as str(int), every other cell %.17g."""
    def cell(value):
        if isinstance(value, (int, np.integer)):
            return str(int(value))
        return f"{float(value):.17g}"

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([cell(v) for v in row])
    return buf.getvalue().encode("utf-8")


def test_write_csv_matches_reference_writer(tmp_path):
    header = ["n", "a", "b", "c", "d"]
    rows = [[64, 117649, 2**53 - 1, -0.0, math.nan],
            [128, math.inf, -math.inf, 5e-324, 1 / 3],
            [256, 1e300, -1e-300, 0.1, 2.5]]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, np.array(rows, dtype=float))
    assert path.read_bytes() == reference_csv(header, rows)


@pytest.mark.parametrize("sweep", [None, [4, 5]], ids=["size", "sweep"])
def test_op_apply_3d_csv_matches_node_loop(tmp_path, sweep):
    payload = {
        "command": "op-apply",
        "problem": {
            "ndim": 3,
            "op": "A",
            "psets": [[0.7, 0.3]] * 3,
            "orders": [0.4] * 3,
            "axis": 1,
            "field": "t1*t2 + t3^2 + sin(t2)",
            "oracle": "t1 + t2*t3",
            "size": 4,
        },
        "output_path": "op3d.csv",
    }
    if sweep is not None:
        payload["sweep"] = sweep
    cfg = write_payload(tmp_path, payload)
    assert cli.run(cfg, output_dir=str(tmp_path)) == 0

    # The table is column-major, so the writer reads each column
    # contiguously, over a sweep too.
    assert cli.run_experiment(load_config(cfg))[1].flags.f_contiguous

    # The per-node loop the table replaced: C order, last axis fastest.
    problem = load_config(cfg).problem
    rows = []
    for n in sweep or [4]:
        grid = problem.grid(n)
        out = cli._apply_configured_op(problem, grid, problem.field)
        oracle = np.broadcast_to(np.asarray(problem.oracle(grid.coords()),
                                            dtype=float), grid.shape)
        mesh = np.meshgrid(*(ax.nodes for ax in grid.axes), indexing="ij")
        for idx in np.ndindex(grid.shape):
            rows.append([m[idx] for m in mesh] + [out.values[0][idx],
                        abs(out.values[0][idx] - oracle[idx])])
    header = ["t1", "t2", "t3", "value", "abs_error"]
    assert (tmp_path / "op3d.csv").read_bytes() == reference_csv(header, rows)


@pytest.mark.parametrize("sweep", [None, [4, 5]], ids=["size", "sweep"])
def test_run_experiment_keeps_a_one_size_table(tmp_path, sweep):
    # One size: the runner's table itself, not a copy; a sweep stacks.
    payload = load_payload("op_apply_halfint.json")
    payload.pop("sweep", None)
    if sweep is not None:
        payload["sweep"] = sweep
    cfg = load_config(write_payload(tmp_path, payload))
    runner, columns, error_column = cli._COMMANDS["op-apply"]
    made = []

    def recording_runner(problem, grid):
        made.append(runner(problem, grid))
        return made[-1]

    with mock.patch.dict(cli._COMMANDS, {
            "op-apply": (recording_runner, columns, error_column)}):
        table = cli.run_experiment(cfg)[1]
    assert len(made) == len(sweep or [None])
    assert (table is made[0]) == (sweep is None)
    assert table.flags.f_contiguous and table.dtype == np.float64
    assert np.array_equal(table, np.concatenate(made))


# Bit patterns that print alike but must not be merged, plus the extremes.
PAYLOAD_NAN = float(np.array([0x7FF8000000000001], dtype=np.uint64)
                    .view(np.float64)[0])
SPECIALS = [0.0, -0.0, math.nan, -math.nan, PAYLOAD_NAN, math.inf, -math.inf,
            5e-324, -5e-324, 2.0**53 - 1, -(2.0**53 - 1), 1.0, 1 / 3]
CHUNK = cli._CSV_CHUNK_ROWS


def special_table(rows):
    """Columns: the specials repeated (formatted per distinct value), the
    specials among distinct values (formatted inline), an integer count and
    a slowly varying integer column."""
    rng = np.random.default_rng(rows)
    repeated = np.resize(np.array(SPECIALS), rows)
    mixed = rng.standard_normal(rows)
    mixed[::7] = np.resize(np.array(SPECIALS), len(mixed[::7]))
    count = np.arange(rows, dtype=float) + (2.0**53 - 1 - rows)
    slow = np.arange(rows, dtype=float) // 3
    return np.column_stack([repeated, mixed, count, slow])


@pytest.mark.parametrize("rows", [1, CHUNK - 1, CHUNK, CHUNK + 1,
                                  3 * CHUNK + 7])
def test_write_csv_special_values_match_reference(tmp_path, rows):
    table = special_table(rows)
    if rows > 2 * len(SPECIALS):
        # All of 0.0/-0.0 and the three NaNs stay distinct bit patterns.
        assert len(np.unique(table[:, 0].view(np.uint64))) == len(SPECIALS)
        assert cli._distinct_cells(table[:, 0]) is not None
    assert cli._distinct_cells(table[:, 1]) is None
    header = ["repeated", "mixed", "count", "slow"]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, table)
    assert path.read_bytes() == reference_csv(header, table.tolist())


def test_write_csv_half_distinct_threshold(tmp_path):
    rows = 1000
    at_half = np.resize(np.arange(rows // 2) * 0.1, rows)
    above_half = np.resize(np.arange(rows // 2 + 1) * 0.1, rows)
    below_half = np.resize(np.arange(rows // 2 - 1) * 0.1, rows)
    assert cli._distinct_cells(at_half) is not None
    assert cli._distinct_cells(below_half) is not None
    assert cli._distinct_cells(above_half) is None
    table = np.column_stack([below_half, at_half, above_half])
    header = ["below", "at", "above"]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, table)
    assert path.read_bytes() == reference_csv(header, table.tolist())


def test_write_csv_many_distinct_values_match_reference(tmp_path):
    # 600 distinct values, each twice: at least _FORMAT_MIN_ROWS distinct
    # values, so _distinct_cells formats them by _format_cells' array path.
    # The specials and values outside its range take the % fallback.
    rng = np.random.default_rng(23)
    distinct = np.concatenate([
        SPECIALS, 2.0 ** rng.integers(-40, 60, 600 - len(SPECIALS))
        * rng.uniform(-2.0, 2.0, 600 - len(SPECIALS))])
    assert len(np.unique(distinct.view(np.uint64))) == 600
    column = np.repeat(distinct, 2)
    strings, _ = cli._distinct_cells(column)
    assert len(strings) == 600 >= cli._FORMAT_MIN_ROWS
    table = np.column_stack([column, np.arange(1200.0)])
    header = ["repeated", "row"]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, table)
    assert path.read_bytes() == reference_csv(header, table.tolist())


def repeating_column(distinct, rows):
    """A column cycling through `distinct` values, specials first."""
    pool = np.concatenate([SPECIALS, 7.0 + 0.1 * np.arange(distinct)])
    return np.resize(pool[:distinct], rows)


# Rows of the fused-run cases: rows / 2 = 4500 = 45 * 100 = 9 * 10 * 50, and
# the body spans three chunks.
FUSE_ROWS = 9000


@pytest.mark.parametrize("distinct, runs", [
    ([45, 100], [(0, 2)]),
    ([7, 643], [(0, 1), (1, 2)]),
    ([9, 10, 50], [(0, 3)]),
    ([9, 10, 51], [(0, 2), (2, 3)]),
    ([45, None, 100], [(0, 1), (1, 2), (2, 3)]),
    ([None, 45, 100, None, 3, 2], [(0, 1), (1, 3), (3, 4), (4, 6)]),
], ids=["at-half", "one-above-half", "three-at-half", "three-above-half",
        "inline-between", "mixed"])
def test_write_csv_fused_run_threshold(tmp_path, distinct, runs):
    # A run of adjacent repeating columns is one cell while the product of
    # their distinct counts is at most rows / 2; an inline column ends it.
    assert FUSE_ROWS > 2 * CHUNK
    rng = np.random.default_rng(7)
    table = np.column_stack([
        rng.standard_normal(FUSE_ROWS) if k is None
        else repeating_column(k, FUSE_ROWS) for k in distinct])
    for j, k in enumerate(distinct):
        d = cli._distinct_cells(table[:, j])
        assert (d is None) if k is None else len(d[0]) == k
    assert [cells[:2] for cells in cli._row_cells(table)] == runs
    header = [f"c{j}" for j in range(len(distinct))]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, table)
    assert path.read_bytes() == reference_csv(header, table.tolist())


def test_write_csv_zero_rows_writes_header_only(tmp_path):
    header = ["t1", "value"]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, np.empty((0, 2)))
    assert path.read_bytes() == b"t1,value\n" == reference_csv(header, [])


@pytest.mark.parametrize("repeats", [True, False], ids=["repeated", "inline"])
def test_write_csv_one_column(tmp_path, repeats):
    rows = 2 * CHUNK + 3
    column = (np.resize(np.array(SPECIALS), rows) if repeats
              else np.random.default_rng(5).standard_normal(rows))
    assert (cli._distinct_cells(column) is not None) == repeats
    table = column[:, np.newaxis]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), ["value"], table)
    assert path.read_bytes() == reference_csv(["value"], table.tolist())


def test_write_csv_repeated_column_after_inline_one(tmp_path):
    rows = CHUNK + 5
    inline = np.random.default_rng(6).standard_normal(rows)
    repeated = np.resize(np.array(SPECIALS), rows)
    table = np.column_stack([inline, repeated, inline, repeated])
    assert cli._distinct_cells(inline) is None
    assert cli._distinct_cells(repeated) is not None
    header = ["a", "b", "c", "d"]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, table)
    assert path.read_bytes() == reference_csv(header, table.tolist())


FORMAT_MIN = cli._FORMAT_MIN_ROWS


def format_reference(values, sep):
    """The cells _format_cells must return: one % call per value."""
    return ["%.17g" % v + sep for v in values.tolist()]


def format_edges():
    """Every power of ten from 1e-15 to 1e18 and the ends of the array
    formatter's range, each with both neighbours; 1e-06; values whose
    17-digit rounding carries into the next power of ten; exact half-way
    ties and integers in [2**53, 2**57]; then the negatives of all of
    these."""
    # 1e-14, 1e-70, 1e+98 and 1e+129 are doubles below their power of ten
    # whose 17 digits round up to it.
    edges = [1e-06, 1e-70, 1e98, 1e129]
    powers = [float(f"1e{p}") for p in range(-15, 19)]
    for power in powers + list(cli._FAST_RANGE) + [2.0**52]:
        edges += [np.nextafter(power, 0.0), power,
                  np.nextafter(power, math.inf)]
    # v = 10**X + j / 2**(17 - X) with j odd: v * 10**(16 - X) is an odd
    # multiple of 1/2, a tie; at X = 15 the shift is 1.
    for x in range(16):
        edges += [10**x + j / 2**(17 - x) for j in (1, 3, 5, 2**17 + 1)]
    edges += [2.0**53, 2.0**53 + 2, 2.0**55 + 8, 1e17, 2.0**57 - 16, 2.0**57]
    edges = np.array(edges, dtype=float)
    return np.concatenate([edges, -edges])


@pytest.mark.parametrize("sep", [",", "\n"])
def test_format_cells_edge_values(sep):
    edges = format_edges()
    assert len(edges) < FORMAT_MIN
    # The edges formatted by arrays (padded to the threshold with their
    # own repeats) and by % (a short chunk).
    padded = np.resize(edges, FORMAT_MIN)
    assert cli._format_cells(padded, sep) == format_reference(padded, sep)
    assert cli._format_cells(edges, sep) == format_reference(edges, sep)


ANY_FLOAT = (st.floats() | st.floats(1e-12, 1e16)
             | st.floats(-1e16, -1e-12))


@settings(max_examples=100, deadline=None)
@given(drawn=hnp.arrays(np.float64, st.integers(1, 40), elements=ANY_FLOAT,
                        fill=st.nothing()),
       rows=st.integers(FORMAT_MIN - 2, FORMAT_MIN + 2) | st.integers(0, 3),
       sep=st.sampled_from([",", "\n"]))
def test_format_cells_matches_percent(drawn, rows, sep):
    # The drawn values repeated to a length on either side of the
    # threshold: arrays at and above it, % below it.  st.floats() draws
    # nan, inf, -0.0 and subnormals too.
    values = np.resize(drawn, rows)
    assert cli._format_cells(values, sep) == format_reference(values, sep)


@pytest.mark.parametrize("tail", [FORMAT_MIN, FORMAT_MIN - 1],
                         ids=["array-tail", "percent-tail"])
def test_write_csv_long_inline_columns_match_reference(tmp_path, tail):
    # Three inline columns over two chunks: the first chunk is formatted
    # by arrays, the second by arrays or, one row shorter, by %.
    rows = CHUNK + tail
    rng = np.random.default_rng(11)
    spread = rng.standard_normal(rows) * 2.0 ** rng.integers(-60, 71, rows)
    edged = spread[::-1].copy()
    edged[::3] = np.resize(format_edges(), len(edged[::3]))
    special = rng.random(rows)
    special[::5] = np.resize(np.array(SPECIALS), len(special[::5]))
    table = np.column_stack([spread, edged, special])
    assert all(cli._distinct_cells(c) is None for c in table.T)
    header = ["spread", "edged", "special"]
    path = tmp_path / "t.csv"
    cli.write_csv(str(path), header, table)
    assert path.read_bytes() == reference_csv(header, table.tolist())


CELLS = st.sampled_from(SPECIALS) | st.floats()


@st.composite
def csv_tables(draw):
    """A float table of 0 to 40 rows whose columns either repeat a few
    values or draw every cell anew."""
    rows = draw(st.integers(0, 40))
    columns = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            pool = draw(st.lists(CELLS, min_size=1, max_size=4))
            picks = st.integers(0, len(pool) - 1)
            columns.append([pool[i] for i in draw(
                st.lists(picks, min_size=rows, max_size=rows))])
        else:
            columns.append(draw(st.lists(CELLS, min_size=rows,
                                         max_size=rows)))
    return np.array(columns, dtype=float).T


def laid_out(table, layout):
    """table in C order, column-major, or as a strided view of every
    other column of a wider table."""
    if layout == "C":
        return np.ascontiguousarray(table)
    if layout == "F":
        return np.asfortranarray(table)
    wide = np.full((table.shape[0], 2 * table.shape[1] + 1), 0.5)
    wide[:, 1::2] = table
    return wide[:, 1::2]


@settings(max_examples=100, deadline=None)
@given(table=csv_tables(), chunk_rows=st.integers(1, 7),
       layout=st.sampled_from(["C", "F", "strided"]))
def test_write_csv_matches_reference_on_any_table(table, chunk_rows, layout):
    header = [f"c{j}" for j in range(table.shape[1])]
    table = laid_out(table, layout)
    # Small chunks, so that rows cross chunk boundaries.
    with mock.patch.object(cli, "_CSV_CHUNK_ROWS", chunk_rows), \
            tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "t.csv"
        cli.write_csv(str(path), header, table)
        assert path.read_bytes() == reference_csv(header, table.tolist())


@pytest.mark.parametrize("layout, inline", [
    ("C", False), ("F", False), ("C", True), ("F", True)],
    ids=["C", "F", "C-inline", "F-inline"])
def test_write_csv_memory_is_bounded(tmp_path, layout, inline):
    # A 49^3-node op-apply table: three coordinate columns and two values,
    # in C order or column-major as op-apply builds it.  Formatting the
    # whole body in one string peaks at about 31 MB.  The values repeat
    # (sin(t1 + 2 t2) takes few values), or with inline take a distinct
    # value per node, so that _format_cells formats them chunk by chunk.
    nodes = np.linspace(0.0, 1.125, 49)
    mesh = [m.ravel() for m in np.meshgrid(nodes, nodes, nodes, indexing="ij")]
    value = (np.sin(mesh[0] + (math.sqrt(2.0) if inline else 2.0) * mesh[1])
             * np.exp(mesh[2]))
    table = laid_out(np.column_stack(mesh + [value, np.abs(value - 0.5)]),
                     layout)
    assert any(d is None for *_, d in cli._row_cells(table)) == inline
    tracemalloc.start()
    try:
        cli.write_csv(str(tmp_path / "t.csv"), ["t1", "t2", "t3", "value",
                                                "abs_error"], table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    with open(tmp_path / "t.csv", encoding="utf-8") as fh:
        assert sum(1 for _ in fh) == len(table) + 1


def test_atomic_write_closes_descriptor_when_chmod_fails(tmp_path,
                                                        monkeypatch):
    opened = []
    mkstemp = tempfile.mkstemp

    def recording_mkstemp(*args, **kwargs):
        fd, name = mkstemp(*args, **kwargs)
        opened.append((fd, os.fstat(fd)))
        return fd, name

    def failing_chmod(*args, **kwargs):
        raise OSError("chmod refused")

    monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
    monkeypatch.setattr(os, "chmod", failing_chmod)
    with pytest.raises(OSError, match="chmod refused"):
        cli._atomic_write(str(tmp_path / "t.csv"), ["a\n"])
    [(fd, made)] = opened
    # The descriptor is closed, or its number now names another file.
    try:
        now = os.fstat(fd)
    except OSError:
        pass
    else:
        assert (now.st_dev, now.st_ino) != (made.st_dev, made.st_ino)
    assert not list(tmp_path.iterdir())


def test_failed_stream_leaves_existing_csv(tmp_path, monkeypatch, capsys):
    payload = load_payload("op_apply_halfint.json")
    cfg = write_payload(tmp_path, payload)
    csv_path, summary_path = outputs(tmp_path, payload)
    csv_path.parent.mkdir(parents=True)
    csv_path.write_bytes(b"old,contents\n")
    chunks = cli._csv_chunks

    def failing_chunks(header, table):
        stream = chunks(header, table)
        yield next(stream)
        yield next(stream)
        # The header and one body chunk are in the temporary file by now.
        assert list(csv_path.parent.glob(".fracvar-*"))
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 8)
    monkeypatch.setattr(cli, "_csv_chunks", failing_chunks)
    assert cli.run(cfg, output_dir=str(tmp_path)) == 1
    assert capsys.readouterr().err == "error: disk full\n"
    assert csv_path.read_bytes() == b"old,contents\n"
    assert not summary_path.exists()
    assert not list(tmp_path.rglob(".fracvar-*"))
