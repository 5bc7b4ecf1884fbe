"""CSV and JSON writers for fields, plans, spectra and reports.

Float formatting uses ``repr``, which round-trips and is deterministic, so
identical runs produce byte-identical files; node text is formatted once per space.
"""

from __future__ import annotations

import json
import weakref
from pathlib import Path

from .calculus import ScalarField
from .heat import SpectralSolver
from .reports import InequalityReport
from .transport import InterpolationPath, TransportPlan

_NODE_TEXT = weakref.WeakKeyDictionary()  # ModelSpace -> its "repr(x)," strings; dies with the space


def _write_rows(path, header: str, rows) -> None:
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def _node_rows(space, values, prefix: str = "") -> list[str]:
    """Rows ``prefix + repr(x) + "," + repr(v)`` for each node x and value v."""
    text = _NODE_TEXT.get(space)
    if text is None:
        text = _NODE_TEXT[space] = [f"{float(x)!r}," for x in space.nodes]
    return [prefix + x + repr(v) for x, v in zip(text, values.tolist())]


def field_to_csv(field: ScalarField, path) -> None:
    _write_rows(path, "x,value", _node_rows(field.space, field.values))


def plan_to_csv(plan: TransportPlan, path) -> None:
    _write_rows(
        path,
        "i,j,mass",
        (f"{int(i)},{int(j)},{float(m)!r}"
         for i, j, m in zip(plan.rows, plan.cols, plan.masses)),
    )


def interpolation_to_csv(path_obj: InterpolationPath, path) -> None:
    """Long-format per-slice densities: time, node coordinate, density."""
    space = path_obj.plan.source.space
    rows = []
    for t, mu in zip(path_obj.times, path_obj.measures):
        rows.extend(_node_rows(space, mu.density(), f"{float(t)!r},"))
    _write_rows(path, "t,x,density", rows)


def spectrum_to_csv(solver: SpectralSolver, path) -> None:
    solver.hold(solver.space.n_nodes)
    _write_rows(
        path,
        "k,eigenvalue",
        (f"{k},{float(lam)!r}" for k, lam in enumerate(solver.eigenvalues)),
    )


def margins_to_csv(report: InequalityReport, path) -> None:
    if report.margin_field is None:
        raise ValueError(f"report {report.name!r} carries no margin field")
    _write_rows(path, "x,margin", _node_rows(report.margin_field.space, report.margin_field.values))


def reports_to_json(reports, meta: dict, path) -> None:
    payload = dict(meta)
    payload["reports"] = [r.to_dict() for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
