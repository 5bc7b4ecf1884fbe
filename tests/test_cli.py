import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import heatlab
from heatlab.cli import Scenario, list_models_text, main, run_scenario
from heatlab.errors import ScenarioError

TWO_PI = 2 * math.pi


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return path


def basic_scenario():
    return {
        "seed": 11,
        "model": {"name": "circle", "params": {"n": 100, "circumference": TWO_PI}},
        "fields": [
            {"id": "f0", "profile": "cosine", "params": {"offset": 2.0}},
            {"id": "suite", "profile": "smooth_suite", "params": {"count": 2, "min_value": 0.3}},
        ],
        "checks": [
            {"name": "li_yau", "field": "f0", "params": {"T": 0.5, "N": 1.0}, "tolerance": 1e-6},
            {"name": "li_yau", "field": "suite", "params": {"T": 0.5, "N": 1.0}, "tolerance": 1e-6},
            {"name": "be_flow", "field": "f0", "params": {"t": 0.5}, "tolerance": 1e-6},
            {"name": "bochner", "field": "f0", "tolerance": 0.01},
            {"name": "harnack", "field": "f0",
             "params": {"x": 5, "y": 50, "s": 0.5, "t": 1.0}, "tolerance": 1e-6},
        ],
    }


def test_run_exit_zero_and_outputs(tmp_path, capsys):
    path = write_scenario(tmp_path, basic_scenario())
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["fail"] == 0
    assert report["summary"]["error"] == 0
    assert report["artifact_version"]
    assert report["model"]["hash"]
    assert all("tolerance" in r for r in report["reports"])
    margins = sorted(p.name for p in (tmp_path / "out").glob("margins_*.csv"))
    assert "margins_li-yau.csv" in margins
    header = (tmp_path / "out" / "margins_li-yau.csv").read_text().splitlines()[0]
    assert header == "x,margin"


def test_run_is_deterministic(tmp_path):
    path = write_scenario(tmp_path, basic_scenario())
    assert main(["run", str(path), "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["run", str(path), "--out-dir", str(tmp_path / "b")]) == 0
    a = (tmp_path / "a" / "report.json").read_bytes()
    b = (tmp_path / "b" / "report.json").read_bytes()
    assert a == b


def test_run_forced_failure_exits_one(tmp_path):
    path = write_scenario(tmp_path, basic_scenario())
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out"),
                 "--tolerance-scale", "-1"])
    assert code == 1


def test_run_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"model": \n')
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err  # line-anchored message


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda s: s["checks"].append({"name": "nope", "field": "f0"}), "unknown check"),
        (lambda s: s["checks"][0].update(tolerance=-1.0), "tolerance"),
        (lambda s: s["checks"][0].update(field="ghost"), "field"),
        (lambda s: s["checks"][0]["params"].pop("T"), "missing required"),
        (lambda s: s["checks"][0]["params"].update(bogus=1), "unknown parameters"),
        (lambda s: s["model"].update(name="torus"), "unknown model"),
        (lambda s: s["fields"][0].update(profile="mystery"), "unknown profile"),
    ],
)
def test_validation_failures_exit_two(tmp_path, capsys, mutate, fragment):
    payload = basic_scenario()
    mutate(payload)
    path = write_scenario(tmp_path, payload)
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert fragment in capsys.readouterr().err


def test_check_error_marks_report_and_exits_one(tmp_path):
    payload = basic_scenario()
    # s >= t violates the two-time comparison's domain: runs but errors.
    payload["checks"] = [{
        "name": "harnack", "field": "f0",
        "params": {"x": 0, "y": 1, "s": 1.0, "t": 0.5}, "tolerance": 1e-6,
    }]
    path = write_scenario(tmp_path, payload)
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 1
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert report["summary"]["error"] == 1
    assert any(r["verdict"] == "error" for r in report["reports"])


def test_cd_star_through_scenario(tmp_path):
    payload = {
        "seed": 1,
        "model": {"name": "interval", "params": {"n": 100, "length": 1.0}},
        "fields": [
            {"id": "rho0", "profile": "gaussian_bump",
             "params": {"center": 0.35, "width": 0.12}},
            {"id": "rho1", "profile": "gaussian_bump",
             "params": {"center": 0.65, "width": 0.1}},
        ],
        "checks": [
            {"name": "cd_star",
             "params": {"t": 0.5, "n_prime": 2.0, "mu0_field": "rho0", "mu1_field": "rho1"},
             "tolerance": 0.02},
        ],
    }
    path = write_scenario(tmp_path, payload)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0


def test_sweep_outputs_orders(tmp_path):
    payload = {
        "seed": 2,
        "model": {"name": "circle", "params": {"n": 40, "circumference": TWO_PI}},
        "fields": [{"id": "f0", "profile": "cosine", "params": {"offset": 2.0}}],
        "checks": [
            {"name": "gamma2_oracle_error", "tolerance": 0.1},
            {"name": "laplacian_oracle_error", "tolerance": 0.1},
        ],
    }
    path = write_scenario(tmp_path, payload)
    code = main(["sweep", str(path), "--levels", "3", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert lines[0] == "check,n,h,min_margin,defect,fitted_order"
    orders = {row.split(",")[0]: float(row.split(",")[-1]) for row in lines[1:]}
    assert orders["gamma2_oracle_error"] >= 1.8
    assert orders["laplacian_oracle_error"] >= 1.8


def test_sweep_needs_three_levels(tmp_path, capsys):
    payload = basic_scenario()
    path = write_scenario(tmp_path, payload)
    code = main(["sweep", str(path), "--levels", "2", "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert "3 levels" in capsys.readouterr().err


def test_list_models_catalog():
    text = list_models_text()
    assert "sphere_model" in text and "(N-1, N)" in text
    assert "interval" in text and "(0, 1)" in text
    assert text == list_models_text()  # stable across calls


def test_scenario_from_dict_rejects_non_objects():
    with pytest.raises(ScenarioError):
        Scenario.from_dict([], origin="x")
    with pytest.raises(ScenarioError):
        Scenario.from_dict({"model": {"name": "circle"}, "checks": []}, origin="x")


def test_console_entry_point(tmp_path):
    # The child imports the same heatlab as this process, also under a bare
    # `pytest`, whose pythonpath setting does not reach subprocesses.
    source_root = str(Path(heatlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "heatlab.cli", "list-models"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert "hyperbolic_model" in proc.stdout


def test_run_scenario_accepts_parsed_object(tmp_path):
    scenario = Scenario.from_dict(basic_scenario())
    assert run_scenario(scenario, tmp_path / "out") == 0
