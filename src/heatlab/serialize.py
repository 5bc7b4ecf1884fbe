"""CSV and JSON writers for fields, plans, spectra and reports.

Every float is written as ``repr`` writes it, which round-trips and is
deterministic, so identical runs produce byte-identical files.  A table of float
columns (field, margins, interpolation slices) is printed in one ``orjson.dumps``
call, whose shortest round-trip digits are ``repr``'s; two spellings are then
rewritten to ``repr``'s: exponents (``e-7`` -> ``e-07``, ``e16`` -> ``e+16``) and
the decade 1e-5 <= |x| < 1e-4, which orjson writes positionally (``0.000012``
-> ``1.2e-05``).  orjson writes nan and +-inf as ``null``, so a table holding any
of them is formatted with ``repr`` value by value.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import orjson

from .calculus import ScalarField
from .heat import SpectralSolver
from .reports import InequalityReport
from .transport import InterpolationPath, TransportPlan

# Both patterns open with a literal, so ``re`` skips straight to candidates.  orjson
# writes an exponent below 1e-5 and from 1e16 on, so a one-digit exponent is
# negative (repr pads it to two digits) and a positive one only lacks repr's "+".
_EXPONENT = re.compile(rb"e-(\d)(?!\d)|e(\d)")
_DECADE_E5 = re.compile(rb"0\.0000([1-9])(\d*)")


def _exponent(m: re.Match) -> bytes:
    return b"e-0" + m[1] if m[1] else b"e+" + m[2]


def _decade_e5(m: re.Match) -> bytes:
    if m.string[m.start() - 1] in b"0123456789":  # the tail of 10.00001 or 1000000.00001
        return m[0]
    return m[1] + (b"." + m[2] if m[2] else b"") + b"e-05"


def _write_rows(path, header: str, rows) -> None:
    Path(path).write_text("\n".join([header, *rows]) + "\n")


def _write_table(path, header: str, table: np.ndarray) -> None:
    """One CSV row per row of a 2-D float64 table, each value as ``repr`` writes it."""
    if not np.isfinite(table).all():
        _write_rows(path, header, (",".join(map(repr, row)) for row in table.tolist()))
        return
    text = orjson.dumps(table, option=orjson.OPT_SERIALIZE_NUMPY)
    text = _DECADE_E5.sub(_decade_e5, _EXPONENT.sub(_exponent, text))
    rows = [text[2:-2].replace(b"],[", b"\n")] if len(table) else []  # [[a,b],[c,d]] -> a,b\nc,d
    Path(path).write_bytes(b"\n".join([header.encode(), *rows]) + b"\n")


def field_to_csv(field: ScalarField, path) -> None:
    _write_table(path, "x,value", np.column_stack((field.space.nodes, field.values)))


def plan_to_csv(plan: TransportPlan, path) -> None:
    _write_rows(
        path,
        "i,j,mass",
        (f"{int(i)},{int(j)},{float(m)!r}"
         for i, j, m in zip(plan.rows, plan.cols, plan.masses)),
    )


def interpolation_to_csv(path_obj: InterpolationPath, path) -> None:
    """Long-format per-slice densities: time, node coordinate, density."""
    nodes = path_obj.plan.source.space.nodes
    table = np.empty((len(path_obj.times), nodes.size, 3))
    table[:, :, 0] = np.reshape(path_obj.times, (-1, 1))
    table[:, :, 1] = nodes
    for rows, mu in zip(table, path_obj.measures):
        rows[:, 2] = mu.density()
    _write_table(path, "t,x,density", table.reshape(-1, 3))


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
    field = report.margin_field
    _write_table(path, "x,margin", np.column_stack((field.space.nodes, field.values)))


def reports_to_json(reports, meta: dict, path) -> None:
    payload = dict(meta)
    payload["reports"] = [r.to_dict() for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
