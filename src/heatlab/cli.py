"""Scenario-driven command line runner.

Subcommands:

* ``run <scenario.json>``: build the model, run every check, write
  ``report.json`` plus ``margins_<check>.csv`` dumps.  Exit code 0 when all
  asserted checks pass, 1 when any fails or errors, 2 on config errors.
* ``sweep <scenario.json> --levels k``: rerun the checks over refined grids
  and fit the convergence order of each check's defect; writes ``sweep.csv``.
* ``list-models``: print the model catalog.

Scenario files are JSON::

    {
      "seed": 7,
      "model": {"name": "circle", "params": {"n": 200, "circumference": 6.2831853}},
      "fields": [{"id": "f0", "profile": "cosine", "params": {"offset": 2.0}}],
      "checks": [{"name": "li_yau", "field": "f0",
                  "params": {"T": 0.5, "N": 1.0}, "tolerance": 1e-6}]
    }

A check's params are the keyword-only arguments of its adapter in ``CHECKS``,
model and field params are those of the model builder and the field profile,
and the optional "sweep" object's are those of ``_sweep_sizes``.  Identical
scenario + seed produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import inspect
import json
import math
import sys
import typing
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import __version__
from . import inequalities as iq
from . import transport as tr
from .calculus import ScalarField
from .errors import HeatlabError, ScenarioError
from .heat import build_solver
from .profiles import FIELD_PROFILES, build_fields, constant_profile
from .reports import InequalityReport, _plain, amend, make_report
from .serialize import margins_to_csv, reports_to_json
from .space import MODEL_BUILDERS, MODEL_CATALOG, CurvatureDimension


# ---------------------------------------------------------------------------
# checks: one adapter each, whose keyword-only parameters are the check's
# scenario params (a default makes one optional; the annotation is its type).
# An adapter that takes ``f`` runs once per member of the check's "field".


def _li_yau(ctx, f, tol, *, T: float, N: float = None):
    return [iq.li_yau_check(ctx.solver, f, float(T), ctx.cd(N=N).N, tolerance=tol)]


def _bakry_qian(ctx, f, tol, *, T: float, K: float = None, N: float = None):
    return [iq.bakry_qian_check(ctx.solver, f, float(T), ctx.cd(K, N), tolerance=tol)]


def _baudoin_garofalo(ctx, f, tol, *, T: float, K: float = None, N: float = None):
    return [iq.baudoin_garofalo_check(ctx.solver, f, float(T), ctx.cd(K, N), tolerance=tol)]


def _harnack(ctx, f, tol, *, x: int, y: int, s: float, t: float,
             K: float = None, N: float = None):
    return [iq.harnack_check(ctx.solver, f, x, y, float(s), float(t), ctx.cd(K, N),
                             tolerance=tol)]


def _harnack_scan(ctx, f, tol, *, xs: list[int], ys: list[int],
                  pairs: list[tuple[float, float]], K: float = None, N: float = None):
    pairs = [(float(s), float(t)) for s, t in pairs]
    return [iq.harnack_scan(ctx.solver, f, xs, ys, pairs, ctx.cd(K, N), tolerance=tol)]


def _harnack_transport(ctx, f, tol, *, x: int, y: int, s: float, t: float,
                       r_steps: float = 2, K: float = None, N: float = None):
    r = float(r_steps) * ctx.space.spacing
    return [tr.harnack_transport_check(ctx.solver, f, x, y, float(s), float(t), ctx.cd(K, N),
                                       r, tolerance=tol)]


def _be_flow(ctx, f, tol, *, t: float, K: float = None, N: float = None):
    return [iq.be_flow_check(ctx.solver, f, float(t), ctx.cd(K, N), tolerance=tol)]


def _eks(ctx, f, tol, *, t: float, K: float = None, N: float = None):
    return [iq.eks_check(ctx.solver, f, float(t), ctx.cd(K, N), tolerance=tol)]


def _bochner(ctx, f, tol, *, K: float = None, N: float = None):
    return [iq.bochner_check(ctx.space, f, ctx.cd(K, N), tolerance=tol)]


def _phi_derivative(ctx, f, tol, *, T: float, t: float, dt: float):
    return [iq.phi_derivative_report(ctx.solver, f, T, t, dt, tolerance=tol)]


def _prop2(ctx, f, tol, *, T: float, times: list[float], dt: float = 1e-3,
           K: float = None, N: float = None):
    cd = ctx.cd(K, N)
    a, a_prime = iq.quadratic_decay_profile(float(T))
    gamma_fn = iq.gamma_for_profile(a, a_prime, cd)
    return [iq.prop2_check(ctx.solver, f, float(T), a, a_prime, gamma_fn,
                           constant_profile(ctx.space), [float(t) for t in times], cd,
                           dt=float(dt), tolerance=tol)]


def _pre_li_yau(ctx, f, tol, *, T: float, profile: typing.Literal[tuple(iq.V_PROFILES)],
                K: float = None, N: float = None):
    cd = ctx.cd(K, N)
    v = iq.V_PROFILES[profile](float(T), cd)
    return [iq.pre_li_yau_check(ctx.solver, f, float(T), v, cd, tolerance=tol)]


def _cd_star(ctx, tol, *, t: float, n_prime: float, mu0_field: str, mu1_field: str,
             K: float = None, N: float = None):
    return [tr.cd_star_report(ctx.space, ctx.fields[mu0_field][0], ctx.fields[mu1_field][0],
                              t, ctx.cd(K, N), n_prime, tol)]


def _kernel_corollary(ctx, tol, *, x: int, times: list[float],
                      K: float = None, N: float = None):
    return iq.kernel_corollary_suite(ctx.solver, x, ctx.cd(K, N), [float(t) for t in times],
                                     tolerance=tol)


def _laplacian_oracle_error(ctx, tol):
    return [iq.oracle_error_check(ctx.space, "laplacian", tol)]


def _gamma2_oracle_error(ctx, tol):
    return [iq.oracle_error_check(ctx.space, "gamma2", tol)]


#: check name -> adapter, named after the adapter; its signature is the check's schema.
CHECKS = {adapter.__name__[1:]: adapter for adapter in (
    _li_yau, _bakry_qian, _baudoin_garofalo, _harnack, _harnack_scan, _harnack_transport,
    _be_flow, _eks, _bochner, _phi_derivative, _prop2, _pre_li_yau, _cd_star,
    _kernel_corollary, _laplacian_oracle_error, _gamma2_oracle_error)}


# ---------------------------------------------------------------------------
# scenario schema

def _scenario_params(fn) -> dict[str, inspect.Parameter]:
    """The parameters of ``fn`` a scenario sets: those annotated with a JSON type."""
    return {name: p for name, p in inspect.signature(fn, eval_str=True).parameters.items()
            if (typing.get_origin(p.annotation) or p.annotation)
            in (float, int, str, list, tuple, typing.Literal)}


def _conforms(value, annotation) -> bool:
    """Whether a parsed JSON value has the annotated type; a tuple is a fixed-length
    list, a Literal one of its values, a bool is never a number and a float is
    finite (and fits a double)."""
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    if origin is typing.Literal:
        return isinstance(value, str) and value in args
    if origin is list:
        return isinstance(value, list) and all(_conforms(v, args[0]) for v in value)
    if origin is tuple:
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_conforms, value, args)))
    if isinstance(value, bool):
        return False
    if annotation is float:
        return isinstance(value, (int, float)) and abs(value) <= sys.float_info.max
    return isinstance(value, annotation)


def _check_params(fail, where: str, fn, params, supplied=()) -> None:
    """Validate ``params`` against ``fn``'s scenario parameters; ``supplied`` ones may be absent."""
    if not isinstance(params, dict):
        fail(where, "expected an object")
    spec = _scenario_params(fn)
    unknown = set(params) - set(spec)
    if unknown:
        fail(where, f"unknown parameters {sorted(unknown)}")
    for name, p in spec.items():
        if name in params:
            if not _conforms(params[name], p.annotation):
                fail(f"{where}.{name}",
                     f"expected {inspect.formatannotation(p.annotation)}, got {params[name]!r}")
        elif p.default is p.empty and name not in supplied:
            fail(where, f"missing required parameter {name!r}")


@dataclass
class Scenario:
    model_name: str
    model_params: dict
    fields: list
    checks: list
    seed: int = 0
    sweep: dict = dc_field(default_factory=dict)

    @classmethod
    def from_file(cls, path) -> "Scenario":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{path}:{exc.lineno}:{exc.colno}: scenario is not valid JSON: {exc.msg}"
            ) from exc
        return cls.from_dict(raw, origin=str(path))

    @classmethod
    def from_dict(cls, raw: dict, origin: str = "<scenario>") -> "Scenario":
        def fail(where, msg):
            raise ScenarioError(f"{origin}: {where}: {msg}")

        if not isinstance(raw, dict):
            fail("top level", "expected a JSON object")
        model = raw.get("model")
        if not isinstance(model, dict) or not isinstance(model.get("name"), str):
            fail("model", 'expected {"name": ..., "params": {...}}')
        name = model["name"]
        if name not in MODEL_BUILDERS:
            fail("model.name", f"unknown model {name!r}; known: {sorted(MODEL_BUILDERS)}")
        params = model.get("params", {})
        _check_params(fail, "model.params", MODEL_BUILDERS[name], params)

        fields = raw.get("fields", [])
        if not isinstance(fields, list):
            fail("fields", "expected a list")
        seen_ids = set()
        for k, f in enumerate(fields):
            if not (isinstance(f, dict) and isinstance(f.get("id"), str)
                    and isinstance(f.get("profile"), str)):
                fail(f"fields[{k}]", 'expected {"id": ..., "profile": ..., "params": {...}}')
            if f["profile"] not in FIELD_PROFILES:
                fail(f"fields[{k}].profile",
                     f"unknown profile {f['profile']!r}; known: {sorted(FIELD_PROFILES)}")
            if f["id"] in seen_ids:
                fail(f"fields[{k}].id", f"duplicate field id {f['id']!r}")
            seen_ids.add(f["id"])
            _check_params(fail, f"fields[{k}].params", FIELD_PROFILES[f["profile"]],
                          f.get("params", {}), supplied=("seed",))

        checks = raw.get("checks", [])
        if not isinstance(checks, list) or not checks:
            fail("checks", "expected a non-empty list")
        for k, c in enumerate(checks):
            if not isinstance(c, dict) or not isinstance(c.get("name"), str):
                fail(f"checks[{k}]", 'expected {"name": ..., "params": {...}}')
            cname = c["name"]
            if cname not in CHECKS:
                fail(f"checks[{k}].name", f"unknown check {cname!r}; known: {sorted(CHECKS)}")
            tol = c.get("tolerance", 1e-6)
            if not _conforms(tol, float) or tol <= 0:
                fail(f"checks[{k}].tolerance", f"tolerance must be > 0, got {tol!r}")
            cparams = c.get("params", {})
            _check_params(fail, f"checks[{k}].params", CHECKS[cname], cparams)
            if "f" not in inspect.signature(CHECKS[cname]).parameters:
                if "field" in c:
                    fail(f"checks[{k}].field", f"check {cname!r} takes no 'field'")
            elif not (isinstance(c.get("field"), str) and c["field"] in seen_ids):
                fail(f"checks[{k}].field",
                     f"check {cname!r} needs a 'field' naming one of {sorted(seen_ids)}")
            for key in ("mu0_field", "mu1_field"):
                if key in cparams and cparams[key] not in seen_ids:
                    fail(f"checks[{k}].params.{key}", f"must name one of {sorted(seen_ids)}")

        seed = raw.get("seed", 0)
        if not _conforms(seed, int):
            fail("seed", f"expected an integer, got {seed!r}")
        sweep = raw.get("sweep", {})
        _check_params(fail, "sweep", _sweep_sizes, sweep)
        return cls(
            model_name=name,
            model_params=dict(params),
            fields=[dict(f) for f in fields],
            checks=[dict(c) for c in checks],
            seed=seed,
            sweep=dict(sweep),
        )


# ---------------------------------------------------------------------------
# execution


class _Context:
    """Model, solver and fields for one grid level; the solver builds lazily."""

    def __init__(self, scenario: Scenario, n_override: int | None = None):
        params = dict(scenario.model_params)
        if n_override is not None:
            params["n"] = n_override
        self.space = MODEL_BUILDERS[scenario.model_name](**params)
        self._solver = None
        self.fields: dict[str, list[ScalarField]] = {}
        for k, spec in enumerate(scenario.fields):
            member_seed = scenario.seed + 1000003 * k
            self.fields[spec["id"]] = build_fields(
                self.space, spec["profile"], spec.get("params", {}), member_seed
            )

    @property
    def solver(self):
        if self._solver is None:
            self._solver = build_solver(self.space)
        return self._solver

    def cd(self, K: float | None = None, N: float | None = None) -> CurvatureDimension:
        """The model's expected (K, N), with either one overridden."""
        base = self.space.expected_cd
        return CurvatureDimension(float(base.K if K is None else K),
                                  float(base.N if N is None else N))


def _run_check(ctx: _Context, check: dict, tolerance_scale: float) -> list[InequalityReport]:
    name = check["name"]
    tolerance = float(check.get("tolerance", 1e-6)) * tolerance_scale
    field_id = check.get("field")
    members = ctx.fields[field_id] if field_id is not None else [None]
    out: list[InequalityReport] = []
    for idx, f in enumerate(members):
        args = (ctx, tolerance) if f is None else (ctx, f, tolerance)
        try:
            reports = CHECKS[name](*args, **check.get("params", {}))
        except (HeatlabError, ArithmeticError) as exc:  # ArithmeticError: an overflowed bound
            reports = [make_report(name.replace("_", "-"),
                                   {"model": ctx.space.model_id, "field": field_id},
                                   math.nan, tolerance, notes=f"{type(exc).__name__}: {exc}")]
        if field_id is not None and len(members) > 1:
            reports = [amend(r, field=f"{field_id}[{idx}]") for r in reports]
        elif field_id is not None:
            reports = [amend(r, field=field_id) for r in reports]
        out.extend(reports)
    return out


def _sorted_reports(reports: list[InequalityReport]) -> list[InequalityReport]:
    return sorted(reports, key=lambda r: (r.name, json.dumps(_plain(r.params), sort_keys=True)))


def run_scenario(scenario: Scenario, out_dir, tolerance_scale: float = 1.0) -> int:
    """Execute all checks; write report.json and margin CSVs; return the exit code."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    ctx = _Context(scenario)
    reports: list[InequalityReport] = []
    for check in scenario.checks:
        reports.extend(_run_check(ctx, check, tolerance_scale))
    reports = _sorted_reports(reports)

    counts = {"pass": 0, "fail": 0, "vacuous-pass": 0, "error": 0}
    for r in reports:
        counts[r.verdict] += 1
    meta = {
        "artifact_version": __version__,
        "model": {
            "name": scenario.model_name,
            "params": scenario.model_params,
            "hash": ctx.space.content_hash(),
            "n": ctx.space.n_nodes,
            "h": ctx.space.spacing,
        },
        "seed": scenario.seed,
        "tolerance_scale": tolerance_scale,
        "summary": counts,
    }
    reports_to_json(reports, meta, out_dir / "report.json")
    used = {}
    for r in reports:
        if r.margin_field is None:
            continue
        stem = r.name
        used[stem] = used.get(stem, -1) + 1
        suffix = f"_{used[stem]}" if used[stem] else ""
        margins_to_csv(r, out_dir / f"margins_{stem}{suffix}.csv")
    for r in reports:
        print(f"[{r.verdict.upper():>12}] {r.name}: min_margin={r.min_margin:.6e} "
              f"tol={r.tolerance:.1e}")
    if counts["fail"] or counts["error"]:
        return 1
    return 0


def _sweep_defect(report: InequalityReport) -> float:
    if math.isnan(report.min_margin):
        return math.nan
    return max(0.0, -report.min_margin)


def _sweep_sizes(n, levels, *, factor: int = 2, grid_sizes: list[int] = None) -> list[int]:
    """Grid sizes of a sweep's levels: the first ``levels`` of ``grid_sizes`` when
    given, else n * factor**k.  Its keyword-only parameters are the "sweep" object."""
    if factor < 2:
        raise ScenarioError(f"sweep.factor must be >= 2, got {factor}")
    if grid_sizes is None:
        return [n * factor**k for k in range(levels)]
    if len(grid_sizes) < levels:
        raise ScenarioError(f"sweep.grid_sizes provides {len(grid_sizes)} levels, need {levels}")
    return grid_sizes[:levels]


def sweep_scenario(scenario: Scenario, levels: int, out_dir,
                   tolerance_scale: float = 1.0) -> int:
    """Re-run every check over refined grids; fit each defect's order in h."""
    if levels < 3:
        raise ScenarioError(f"a sweep needs at least 3 levels, got {levels}")
    grid_sizes = _sweep_sizes(scenario.model_params.get("n", 100), levels, **scenario.sweep)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [check["name"] for check in scenario.checks]
    table: dict[int, list] = {k: [] for k in range(len(scenario.checks))}
    for n in grid_sizes:
        ctx = _Context(scenario, n_override=n)
        for k, check in enumerate(scenario.checks):
            reports = _run_check(ctx, check, tolerance_scale)
            min_margin = min(r.min_margin for r in reports)
            defect = max(_sweep_defect(r) for r in reports)
            table[k].append((n, ctx.space.spacing, min_margin, defect))
    lines = ["check,n,h,min_margin,defect,fitted_order"]
    for k, label in enumerate(labels):
        entries = table[k]
        hs = [h for (_, h, _, d) in entries if d > 0]
        ds = [d for (*_, d) in entries if d > 0]
        if len(ds) >= 2:
            slope = np.polyfit(np.log(hs), np.log(ds), 1)[0]
            order_txt = repr(float(slope))
        else:
            order_txt = ""
        for n, h, mm, d in entries:
            lines.append(f"{label},{n},{float(h)!r},{float(mm)!r},{float(d)!r},{order_txt}")
        print(f"sweep {label}: order={order_txt or 'n/a (defect vanished)'} "
              f"defects={[f'{d:.3e}' for (*_, d) in entries]}")
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")
    return 0


def list_models_text() -> str:
    lines = ["available model constructors:"]
    for name, cd in MODEL_CATALOG.items():
        params = ", ".join(_scenario_params(MODEL_BUILDERS[name]))
        lines.append(f"  {name:<18} params: {params:<22} expected (K, N): {cd}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="heatlab",
        description="Scenario runner for heat-flow inequality checks on model spaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("scenario", help="path to a JSON scenario")
    p_run.add_argument("--out-dir", default="heatlab_out", help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--tolerance-scale", type=float, default=1.0,
                       help="multiply every check tolerance (negative forces failures)")

    p_sweep = sub.add_parser("sweep", help="refinement sweep of a scenario")
    p_sweep.add_argument("scenario")
    p_sweep.add_argument("--levels", type=int, required=True)
    p_sweep.add_argument("--out-dir", default="heatlab_out")
    p_sweep.add_argument("--seed", type=int, default=None)
    p_sweep.add_argument("--tolerance-scale", type=float, default=1.0)

    sub.add_parser("list-models", help="print the model catalog")

    args = parser.parse_args(argv)
    if args.command == "list-models":
        print(list_models_text())
        return 0
    try:
        scenario = Scenario.from_file(args.scenario)
        if args.seed is not None:
            scenario.seed = args.seed
        if args.command == "run":
            return run_scenario(scenario, args.out_dir, args.tolerance_scale)
        return sweep_scenario(scenario, args.levels, args.out_dir, args.tolerance_scale)
    except HeatlabError as exc:  # checks catch their own; these come from parsing or building
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
