"""Regenerate reference.json: for every scenario job the workloads can draw,
the verdict sequence (one letter per report: P pass, V vacuous-pass, F fail,
E error) and each report's min_margin to ten significant digits.

    python3 perfbench/make_reference.py

It runs every (scenario, n, seed) on the workloads' finite grids, about
500 jobs (a few minutes on one core).  Rerun it only when a change is meant
to alter the reports, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import jobs, oracle  # noqa: E402


def reference_jobs() -> list[dict]:
    out = []
    for name, _ in jobs.MIX_ROUND:
        n = jobs.shipped_n(name)
        out += [{"kind": "scenario", "scenario": name, "n": n, "seed": s}
                for s in range(jobs.MIX_SEEDS)]
    for name, _ in jobs.FINE_ROUND:
        out += [{"kind": "scenario", "scenario": name, "n": n, "seed": s}
                for n in jobs.fine_grid_sizes() for s in range(jobs.FINE_SEEDS)]
    return out


def main() -> int:
    work = Path(__file__).resolve().parent / ".work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    runner = jobs.ScenarioRunner(work)
    reference = {}
    todo = reference_jobs()
    try:
        for k, job in enumerate(todo):
            _, output = runner.run(job)
            reports = json.loads((Path(output["out_dir"]) / "report.json").read_text())["reports"]
            reference[jobs.reference_key(job)] = {
                "verdicts": "".join(oracle.verdict_code(r) for r in reports),
                "margins": [None if r["min_margin"] is None else float(f"{r['min_margin']:.10g}")
                            for r in reports],
            }
            shutil.rmtree(output["out_dir"])
            if k % 50 == 0:
                print(f"{k}/{len(todo)} {jobs.reference_key(job)}", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failing = sorted(key for key, ref in reference.items() if not jobs.all_pass(ref))
    print(f"{len(failing)} jobs with a fail/error verdict (left out of the seed pools): "
          f"{failing}", file=sys.stderr)
    jobs.REFERENCE_PATH.write_text(
        "{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(reference.items()))
        + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
