import inspect
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heatlab
from heatlab import inequalities as iq
from heatlab.cli import CHECKS, Scenario, list_models_text, main, run_scenario
from heatlab.errors import ScenarioError
from heatlab.heat import build_solver
from heatlab.profiles import build_fields
from heatlab.reports import amend
from heatlab.space import MODEL_BUILDERS, CurvatureDimension
from heatlab.transport import cd_star_report

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


def _set_model_n(s, n):
    s["model"]["params"]["n"] = n


def _scan_params(s, **params):
    s["checks"] = [{"name": "harnack_scan", "field": "f0", "tolerance": 1e-6,
                    "params": {"xs": [0, 5], "ys": [5], "pairs": [[0.25, 0.75]], **params}}]


def _kernel_times(s, times):
    s["checks"] = [{"name": "kernel_corollary", "params": {"x": 5, "times": times}}]


@pytest.mark.parametrize(
    "mutate,fragment",
    [
        (lambda s: s["checks"][0].update(tolerance=True), "tolerance"),
        (lambda s: _set_model_n(s, 2), "n >= 3"),
        (lambda s: s["model"]["params"].update(radius=1.0), "unknown parameters"),
        (lambda s: s["model"]["params"].pop("circumference"), "missing required"),
        (lambda s: s["fields"][0]["params"].update(bogus=1.0), "unknown parameters"),
        (lambda s: _scan_params(s, xs=[1.5, "a"]), "params.xs"),
        (lambda s: _scan_params(s, pairs=[[0.1]]), "params.pairs"),
        (lambda s: _kernel_times(s, ["x"]), "params.times"),
        (lambda s: s.update(seed=True), "seed"),
        (lambda s: s["checks"][0]["params"].update(T=math.nan), "params.T"),
        (lambda s: s.update(sweep={"factor": "x"}), "sweep.factor"),
        (lambda s: s["checks"].append({"name": "pre_li_yau", "field": "f0",
                                       "params": {"T": 0.5, "profile": "v_bogus"}}),
         "params.profile"),
    ],
    ids=["tolerance-bool", "n-2", "unknown-model-param", "missing-model-param",
         "unknown-field-param", "xs-element-types", "pairs-element-length",
         "times-element-type", "seed-bool", "T-nan", "sweep-factor-string",
         "unknown-v-profile"],
)
def test_bad_input_exits_two(tmp_path, capsys, mutate, fragment):
    payload = basic_scenario()
    mutate(payload)
    path = write_scenario(tmp_path, payload)
    code = main(["run", str(path), "--out-dir", str(tmp_path / "out")])
    assert code == 2
    assert fragment in capsys.readouterr().err


def _mutation_sites(node, path=()):
    """Every (path, value) below the top level of a parsed scenario."""
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, value in children:
        yield path + (key,), value
        yield from _mutation_sites(value, path + (key,))


def _small_scenario(check_names):
    pool = {
        "li_yau": {"name": "li_yau", "field": "f0", "params": {"T": 0.5, "N": 1.0}},
        "harnack_scan": {"name": "harnack_scan", "field": "f0",
                         "params": {"xs": [0, 10], "ys": [5], "pairs": [[0.25, 0.75]]}},
        "phi_derivative": {"name": "phi_derivative", "field": "f0",
                           "params": {"T": 1.0, "t": 0.5, "dt": 0.001}},
        "prop2": {"name": "prop2", "field": "f0", "params": {"T": 1.0, "times": [0.5]}},
        "pre_li_yau": {"name": "pre_li_yau", "field": "suite",
                       "params": {"T": 0.5, "profile": "v_bg"}},
        "cd_star": {"name": "cd_star", "params": {"t": 0.5, "n_prime": 2.0,
                                                  "mu0_field": "f0", "mu1_field": "bump"}},
        "kernel_corollary": {"name": "kernel_corollary", "params": {"x": 3, "times": [1.0]}},
        "harnack_transport": {"name": "harnack_transport", "field": "bump",
                              "params": {"x": 2, "y": 12, "s": 0.5, "t": 1.0}},
        "baudoin_garofalo": {"name": "baudoin_garofalo", "field": "f0",
                             "params": {"T": 0.5, "K": -2.0}},
        "be_flow": {"name": "be_flow", "field": "f0", "params": {"t": 0.5, "K": -2.0}},
    }
    return {
        "seed": 5,
        "model": {"name": "circle", "params": {"n": 24, "circumference": TWO_PI}},
        "fields": [
            {"id": "f0", "profile": "cosine", "params": {"offset": 2.0}},
            {"id": "suite", "profile": "smooth_suite", "params": {"count": 2}},
            {"id": "bump", "profile": "gaussian_bump", "params": {"center": 1.0, "width": 0.5}},
        ],
        "checks": [dict(pool[name], tolerance=1e-3) for name in check_names],
    }


_CHECK_NAMES = ["li_yau", "harnack_scan", "phi_derivative", "prop2", "pre_li_yau", "cd_star",
                "kernel_corollary", "harnack_transport", "baudoin_garofalo", "be_flow"]


def _is_check_param(path):
    return len(path) > 3 and path[0] == "checks" and path[2] == "params"


@st.composite
def _mutated_scenarios(draw, sweep=False, params_only=False):
    scenario = _small_scenario(draw(st.lists(st.sampled_from(_CHECK_NAMES), min_size=2,
                                             max_size=3, unique=True)))
    if sweep:
        scenario["sweep"] = {"factor": 2}
    for _ in range(draw(st.integers(1, 3))):
        sites = [site for site in _mutation_sites(scenario)
                 if not params_only or _is_check_param(site[0])]
        path, value = draw(st.sampled_from(sites))
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        kind = draw(st.sampled_from(["drop", "bool", "none", "string", "list", "zero",
                                     "negative", "scale"]))
        if kind == "drop":
            del parent[path[-1]]
        elif kind in ("zero", "negative") and isinstance(value, (int, float)):
            parent[path[-1]] = 0 if kind == "zero" else -value
        elif kind == "scale":  # floats only: an int is a size, a count or a node
            if isinstance(value, float):
                parent[path[-1]] = value * draw(st.sampled_from([1e3, -1e3]))
        else:
            parent[path[-1]] = {"bool": True, "none": None, "string": "x", "list": [],
                                "zero": 0, "negative": -1}[kind]
    return scenario


def _is_optional_param(scenario, path):
    """Whether ``path`` names a check param whose adapter gives it a default."""
    if len(path) != 4:
        return False
    adapter = CHECKS[scenario["checks"][path[1]]["name"]]
    return inspect.signature(adapter).parameters[path[3]].default is not inspect.Parameter.empty


@st.composite
def _numeric_param_mutations(draw):
    """Mutations below checks[k].params that keep each param's type: zero or
    negate a number, scale a float, or drop an optional param."""
    scenario = _small_scenario(draw(st.lists(st.sampled_from(_CHECK_NAMES), min_size=2,
                                             max_size=3, unique=True)))
    for _ in range(draw(st.integers(1, 3))):
        sites = [(path, value) for path, value in _mutation_sites(scenario)
                 if _is_check_param(path) and (isinstance(value, (int, float))
                                               or _is_optional_param(scenario, path))]
        path, value = draw(st.sampled_from(sites))
        parent = scenario
        for key in path[:-1]:
            parent = parent[key]
        kinds = ["drop"] if _is_optional_param(scenario, path) else []
        if isinstance(value, (int, float)):
            kinds += ["zero", "negative"] + (["scale"] if isinstance(value, float) else [])
        kind = draw(st.sampled_from(kinds))
        if kind == "drop":
            del parent[path[-1]]
        elif kind == "scale":
            parent[path[-1]] = value * draw(st.sampled_from([1e3, -1e3]))
        else:
            parent[path[-1]] = type(value)(0) if kind == "zero" else -value
    return scenario


def _run_mutated(command, scenario, *extra):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(scenario))
        return main([command, str(path), *extra, "--out-dir", str(Path(tmp) / "out")])


@settings(max_examples=100, deadline=None)
@given(_mutated_scenarios())
def test_mutated_scenarios_never_raise(scenario):
    assert _run_mutated("run", scenario) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(_mutated_scenarios(params_only=True))
def test_mutated_check_params_never_raise(scenario):
    # Sites only below checks[k].params, so most examples reach a check
    # instead of stopping at load on a broken model, field or check object.
    assert _run_mutated("run", scenario) in (0, 1, 2)


@settings(max_examples=100, deadline=None)
@given(_numeric_param_mutations())
def test_mutated_numeric_check_params_never_raise(scenario):
    # Every mutation keeps the param's type, so the schema accepts it and the
    # example reaches its checks' own domain and precondition errors.
    assert _run_mutated("run", scenario) in (0, 1, 2)


@settings(max_examples=40, deadline=None)
@given(_mutated_scenarios(sweep=True))
def test_mutated_sweeps_never_raise(scenario):
    assert _run_mutated("sweep", scenario, "--levels", "3") in (0, 1, 2)


def test_unmutated_small_scenario_passes(tmp_path):
    path = write_scenario(tmp_path, _small_scenario(_CHECK_NAMES))
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize(
    "sweep,fragment",
    [
        ({"factor": "x"}, "sweep.factor"),
        ({"factor": 1}, "sweep.factor"),
        ({"grid_sizes": [24, 48]}, "sweep.grid_sizes"),
        ({"grid_sizes": [24, "a", 96]}, "sweep.grid_sizes"),
        ({"levels": 3}, "unknown parameters"),
    ],
    ids=["factor-string", "factor-1", "grid-sizes-short", "grid-sizes-element", "unknown-key"],
)
def test_bad_sweep_exits_two(tmp_path, capsys, sweep, fragment):
    path = write_scenario(tmp_path, dict(_small_scenario(["li_yau"]), sweep=sweep))
    assert main(["sweep", str(path), "--levels", "3", "--out-dir", str(tmp_path / "out")]) == 2
    assert fragment in capsys.readouterr().err


def test_sweep_with_grid_sizes(tmp_path):
    payload = dict(_small_scenario(["li_yau"]), sweep={"grid_sizes": [24, 36, 48, 60]})
    path = write_scenario(tmp_path, payload)
    assert main(["sweep", str(path), "--levels", "3", "--out-dir", str(tmp_path / "out")]) == 0
    rows = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["24", "36", "48"]


@pytest.mark.parametrize("name,params", [
    ("baudoin_garofalo", {"T": 1000.0, "K": -2.0}),
    ("be_flow", {"t": 1000.0, "K": -2.0}),
    ("pre_li_yau", {"T": 1000.0, "K": -2.0, "profile": "v_bg"}),
])
def test_overflowing_bound_is_an_error_verdict(tmp_path, name, params):
    payload = _small_scenario([])
    payload["checks"] = [{"name": name, "field": "f0", "params": params, "tolerance": 1e-3}]
    path = write_scenario(tmp_path, payload)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    (report,) = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
    assert report["verdict"] == "error"
    assert report["min_margin"] is None
    assert report["notes"].startswith("OverflowError")


def test_empty_kernel_corollary_times_is_an_error(tmp_path):
    payload = _small_scenario([])
    payload["checks"] = [{"name": "kernel_corollary", "params": {"x": 3, "times": []}}]
    path = write_scenario(tmp_path, payload)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 1
    (report,) = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]
    assert report["verdict"] == "error"
    assert "non-empty times" in report["notes"]


_LIBRARY_CASES = {
    "circle": ({"name": "circle", "params": {"n": 40, "circumference": TWO_PI}},
               [{"id": "f0", "profile": "cosine", "params": {"offset": 2.0}},
                {"id": "bump", "profile": "gaussian_bump",
                 "params": {"center": 1.0, "width": 0.5}}],
               {"K": 4.0, "N": 1.0, "n_prime": 1.0}),
    "sphere": ({"name": "sphere_model", "params": {"n": 60, "N": 2.0}},
               [{"id": "f0", "profile": "cosine", "params": {"offset": 2.0}},
                {"id": "bump", "profile": "gaussian_bump",
                 "params": {"center": 0.6, "width": 0.25}}],
               {"K": 16.0, "N": 2.0, "n_prime": 2.0}),
}


@pytest.mark.parametrize("case", sorted(_LIBRARY_CASES))
def test_library_verifiers_equal_cli_reports(tmp_path, case):
    model, fields, vacuous = _LIBRARY_CASES[case]
    cd_star = {"name": "cd_star", "tolerance": 0.05,
               "params": {"t": 0.5, "n_prime": 2.0, "mu0_field": "f0", "mu1_field": "bump"}}
    payload = {
        "seed": 3, "model": model, "fields": fields,
        "checks": [
            {"name": "bochner", "field": "f0", "tolerance": 0.05},
            {"name": "phi_derivative", "field": "f0", "tolerance": 1e-3,
             "params": {"T": 1.0, "t": 0.5, "dt": 0.001}},
            {"name": "laplacian_oracle_error", "tolerance": 0.1},
            {"name": "gamma2_oracle_error", "tolerance": 0.1},
            cd_star,
            dict(cd_star, params=dict(cd_star["params"], t=0.25, **vacuous)),
        ],
    }
    path = write_scenario(tmp_path, payload)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) in (0, 1)
    written = json.loads((tmp_path / "out" / "report.json").read_text())["reports"]

    space = MODEL_BUILDERS[model["name"]](**model["params"])
    solver = build_solver(space)
    f0, bump = (build_fields(space, spec["profile"], spec["params"], 0)[0] for spec in fields)
    cd = space.expected_cd
    bochner = iq.bochner_check(space, f0, cd, tolerance=0.05)
    reports = [
        amend(bochner, field="f0"),
        amend(iq.phi_derivative_report(solver, f0, 1.0, 0.5, 0.001, tolerance=1e-3), field="f0"),
        iq.oracle_error_check(space, "laplacian", 0.1),
        iq.oracle_error_check(space, "gamma2", 0.1),
        cd_star_report(space, f0, bump, 0.5, cd, 2.0, 0.05),
        cd_star_report(space, f0, bump, 0.25, CurvatureDimension(vacuous["K"], vacuous["N"]),
                       vacuous["n_prime"], 0.05),
    ]
    assert reports[-1].verdict == "vacuous-pass"

    def canonical(dicts):
        return sorted(json.dumps(d, sort_keys=True) for d in dicts)

    assert canonical(r.to_dict() for r in reports) == canonical(written)
    rows = (tmp_path / "out" / "margins_bochner.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[1]) for row in rows] == bochner.margin_field.values.tolist()
    assert sorted((tmp_path / "out").glob("margins_*.csv")) == [
        tmp_path / "out" / "margins_bochner.csv"]


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


def _child_env():
    # The child imports the same heatlab as this process, also under a bare
    # `pytest`, whose pythonpath setting does not reach subprocesses.
    source_root = str(Path(heatlab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [source_root, env.get("PYTHONPATH")]))
    return env


def test_console_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "heatlab.cli", "list-models"],
        capture_output=True, text=True, env=_child_env(),
    )
    assert proc.returncode == 0
    assert "hyperbolic_model" in proc.stdout


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def test_in_process_commands_carry_no_state(tmp_path):
    # One process runs flat_circle, then sweeps convergence over n = 50, 100, 200:
    # no state may carry over from one command, model or solver to the next, so
    # each output equals a fresh process's.
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    commands = {
        "run": ["run", str(scenarios / "flat_circle.json")],
        "sweep": ["sweep", str(scenarios / "convergence.json"), "--levels", "3"],
    }
    for name, argv in commands.items():
        assert main([*argv, "--out-dir", str(tmp_path / "together" / name)]) == 0
    for name, argv in commands.items():
        alone = tmp_path / "alone" / name
        subprocess.run([sys.executable, "-m", "heatlab.cli", *argv, "--out-dir", str(alone)],
                       check=True, capture_output=True, env=_child_env())
        together = _tree(tmp_path / "together" / name)
        assert together and together == _tree(alone)


def test_run_scenario_accepts_parsed_object(tmp_path):
    scenario = Scenario.from_dict(basic_scenario())
    assert run_scenario(scenario, tmp_path / "out") == 0


_CIRCLE_RUNS = """
import contextlib, io, json, sys, tempfile
import heatlab.cli as cli
with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.main(["run", path, "--out-dir", out]) for path in sys.argv[1:]]
print(json.dumps({"codes": codes, "scipy": sorted(m for m in sys.modules if m.startswith("scipy"))}))
"""


def test_circle_runs_load_no_scipy():
    # Circles diagonalize in closed form; scipy serves only intervals and the LP oracle.
    scenarios = Path(__file__).resolve().parents[1] / "scenarios"
    proc = subprocess.run(
        [sys.executable, "-c", _CIRCLE_RUNS, *(str(scenarios / f"{name}.json")
                                               for name in ("flat_circle", "convergence"))],
        capture_output=True, text=True, env=_child_env(), check=True)
    assert json.loads(proc.stdout) == {"codes": [0, 0], "scipy": []}
