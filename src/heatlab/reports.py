"""Named check reports shared by the inequality verifiers and the CLI."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from .calculus import ScalarField

VERDICT_PASS = "pass"
VERDICT_FAIL = "fail"
VERDICT_VACUOUS = "vacuous-pass"
VERDICT_ERROR = "error"


@dataclass(frozen=True, eq=False)
class InequalityReport:
    """Outcome of one inequality check.

    ``margin_field`` holds the pointwise LHS-vs-RHS slack where the check has
    one (None for scalar-valued checks); ``min_margin`` is the minimum over
    the asserted (interior) nodes.  The verdict is "pass" exactly when
    min_margin >= -tolerance, or "vacuous-pass" when there was nothing to
    assert (infinite comparison branch, outside the proof's regime).  A
    non-finite min_margin (an errored check, an overflowed bound) is "error".
    """

    name: str
    params: dict
    min_margin: float
    tolerance: float
    verdict: str
    margin_field: Optional[ScalarField] = None
    notes: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in (VERDICT_PASS, VERDICT_VACUOUS)

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "params": _plain(self.params),
            # NaN marks an errored check; strict JSON has no token for NaN or +-inf.
            "min_margin": self.min_margin if math.isfinite(self.min_margin) else None,
            "tolerance": self.tolerance,
            "verdict": self.verdict,
        }
        if self.notes:
            out["notes"] = self.notes
        if self.extras:
            out["extras"] = _plain(self.extras)
        return out


def _plain(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_plain(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def amend(report: InequalityReport, name: str | None = None, **extra_params) -> InequalityReport:
    """Copy a report under a new name and/or with extra parameter entries."""
    return replace(report, name=name or report.name, params={**report.params, **extra_params})


def make_report(
    name: str,
    params: dict,
    min_margin: float,
    tolerance: float,
    margin_field: Optional[ScalarField] = None,
    notes: str = "",
    vacuous: bool = False,
    extras: Optional[dict] = None,
) -> InequalityReport:
    if not math.isfinite(min_margin):
        verdict = VERDICT_ERROR
    elif vacuous:
        verdict = VERDICT_VACUOUS
    else:
        verdict = VERDICT_PASS if min_margin >= -tolerance else VERDICT_FAIL
    return InequalityReport(
        name=name,
        params=params,
        min_margin=float(min_margin),
        tolerance=float(tolerance),
        verdict=verdict,
        margin_field=margin_field,
        notes=notes,
        extras=extras or {},
    )
