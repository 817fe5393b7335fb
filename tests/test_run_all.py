"""Checks of ``scripts/run_all.py``, the run-every-config driver."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_run_all():
    spec = importlib.util.spec_from_file_location(
        "run_all", ROOT / "scripts" / "run_all.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_all(monkeypatch, configs, out):
    monkeypatch.setattr(sys, "argv", ["run_all.py", "--configs", str(configs),
                                      "--output-dir", str(out)])
    return load_run_all().main()


def failing_tolerance_config():
    payload = json.loads((ROOT / "configs" / "op_apply_halfint.json")
                         .read_text(encoding="utf-8"))
    payload["tolerances"] = {"abs_error_max": 1e-30}
    return json.dumps(payload)


@pytest.mark.parametrize("names", [("a", "b"), ("b", "a")],
                         ids=["error-first", "error-last"])
def test_error_outranks_tolerance_failure(tmp_path, monkeypatch, capsys,
                                          names):
    # Configs run in name order; the status must not depend on it.
    configs = tmp_path / "configs"
    configs.mkdir()
    error_name, failing_name = names
    (configs / f"{error_name}.json").write_text("{", encoding="utf-8")
    (configs / f"{failing_name}.json").write_text(failing_tolerance_config(),
                                                  encoding="utf-8")
    assert run_all(monkeypatch, configs, tmp_path / "out") == 1
    assert capsys.readouterr().out.endswith(
        "=== 2 configs, worst status 1\n")


def test_tolerance_failure_outranks_pass(tmp_path, monkeypatch):
    configs = tmp_path / "configs"
    configs.mkdir()
    (configs / "a.json").write_text(failing_tolerance_config(),
                                    encoding="utf-8")
    (configs / "b.json").write_bytes(
        (ROOT / "configs" / "op_apply_halfint.json").read_bytes())
    assert run_all(monkeypatch, configs, tmp_path / "out") == 2


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_refused(tmp_path, monkeypatch, capsys, jobs):
    # Exit status 2 and a usage message, as ``fracvar --jobs 0``; no config
    # runs (it used to run serially and exit 0).
    monkeypatch.setattr(sys, "argv", ["run_all.py", "--configs",
                                      str(ROOT / "configs"), "--output-dir",
                                      str(tmp_path), "--jobs", jobs])
    with pytest.raises(SystemExit) as exc:
        load_run_all().main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--jobs must be >= 1" in captured.err
    assert captured.out == ""
    assert not any(tmp_path.iterdir())
