"""Correctness gates, run after each job in a separate worker process.

The worker keeps the gates' memory (the LP oracle's dense constraint matrix,
rebuilt solvers) out of the benchmark process, whose peak RSS is a metric,
and keeps their time out of the timed region.  A job passes its gate when:

* scenario jobs: the CLI exits 0; no report has a ``fail`` or ``error``
  verdict; the report count and verdict sequence equal ``reference.json`` for
  that (scenario, n, seed); every ``min_margin`` lies within
  ``MARGIN_SHARE * tolerance`` of its reference value; and, when asked, the solver that
  ``build_solver`` gives for the job's model passes the m-weighted
  eigen-residual and orthonormality checks below.
* transport jobs: the plan cost equals ``w2_lp`` (circles) or the quantile
  integral written here (intervals) to ``COST_TOL``; the plan's marginals
  match the measures to ``MARGINAL_TOL``; the interpolation's t = 0 and t = 1
  slices are exactly the endpoint measures; and the entropy-convexity defect
  is nonnegative up to roundoff (or vacuous).
"""

from __future__ import annotations

import json
import math
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from perfbench import jobs

MARGIN_SHARE = 0.01
COST_TOL = 1e-12
MARGINAL_TOL = 1e-12
CD_STAR_FLOOR = -1e-9
SOLVER_RESIDUAL_TOL = 1e-12
SOLVER_ORTHO_TOL = 1e-12


def verdict_code(report: dict) -> str:
    return {"pass": "P", "vacuous-pass": "V", "fail": "F", "error": "E"}[report["verdict"]]


# ---------------------------------------------------------------------------
# scenario gates


def solver_defects(space, solver) -> tuple[float, float]:
    """(m-weighted eigen-residual over the spectral radius, orthonormality defect).

    The generator is applied in flux form straight from the model's node
    measure and edge conductances, independently of heatlab's assembly.
    """
    m = space.measure
    vecs = np.asarray(solver.eigenfields)
    vals = np.asarray(solver.eigenvalues)
    cond = (space.edge_weights / space.spacing)[:, None]
    if space.is_circle:
        flux = cond * (np.roll(vecs, -1, axis=0) - vecs)
        lap = flux - np.roll(flux, 1, axis=0)
    else:
        flux = cond * (vecs[1:] - vecs[:-1])
        lap = np.zeros_like(vecs)
        lap[:-1] += flux
        lap[1:] -= flux
    lap /= m[:, None]
    lap -= vecs * vals[None, :]
    residual = math.sqrt(float(np.max(m @ (lap * lap)))) / float(np.max(np.abs(vals)))
    gram = (vecs * m[:, None]).T @ vecs
    gram[np.diag_indices_from(gram)] -= 1.0
    return residual, float(np.max(np.abs(gram)))


def _check_solver(job: dict, cache: dict) -> list[str]:
    from heatlab.heat import build_solver
    from heatlab.space import MODEL_BUILDERS

    model = jobs.scenario_document(job)["model"]
    space = MODEL_BUILDERS[model["name"]](**model["params"])
    key = space.content_hash()
    if key not in cache:
        cache[key] = solver_defects(space, build_solver(space))
    residual, ortho = cache[key]
    problems = []
    if not residual <= SOLVER_RESIDUAL_TOL:
        problems.append(f"solver eigen-residual {residual:.3e} > {SOLVER_RESIDUAL_TOL:g}")
    if not ortho <= SOLVER_ORTHO_TOL:
        problems.append(f"solver orthonormality defect {ortho:.3e} > {SOLVER_ORTHO_TOL:g}")
    return problems


def check_scenario(job: dict, output: dict, reference: dict) -> list[str]:
    problems = []
    if output["exit_code"] != 0:
        problems.append(f"exit code {output['exit_code']}")
    report_path = Path(output["out_dir"]) / "report.json"
    if not report_path.is_file():
        return problems + ["no report.json written"]
    reports = json.loads(report_path.read_text())["reports"]
    verdicts = "".join(verdict_code(r) for r in reports)
    if "F" in verdicts or "E" in verdicts:
        problems.append(f"fail/error verdicts: {verdicts}")
    expected = reference.get(jobs.reference_key(job))
    if expected is None:
        return problems + [f"no reference for {jobs.reference_key(job)}"]
    if verdicts != expected["verdicts"]:
        return problems + [f"verdicts {verdicts} != reference {expected['verdicts']}"]
    for r, ref in zip(reports, expected["margins"]):
        if r["min_margin"] is None or ref is None:
            continue
        # The reference holds ten significant digits.
        band = MARGIN_SHARE * r["tolerance"] + 1e-10 * abs(ref)
        if not abs(r["min_margin"] - ref) <= band:
            problems.append(f"{r['name']}: min_margin {r['min_margin']!r} is not within "
                            f"{band:.3e} of the reference {ref!r}")
    return problems


# ---------------------------------------------------------------------------
# transport gates


def quantile_cost(space, mu0, mu1) -> float:
    """W2^2 on an interval as the integral over u in (0, 1) of |F0^-1(u) - F1^-1(u)|^2."""
    idx0, idx1 = np.flatnonzero(mu0.masses > 0), np.flatnonzero(mu1.masses > 0)
    cum0, cum1 = np.cumsum(mu0.masses[idx0]), np.cumsum(mu1.masses[idx1])
    cum0[-1] = cum1[-1] = 1.0
    upper = np.union1d(cum0, cum1)
    lower = np.concatenate(([0.0], upper[:-1]))
    mid = 0.5 * (lower + upper)
    x0 = space.nodes[idx0[np.searchsorted(cum0, mid)]]
    x1 = space.nodes[idx1[np.searchsorted(cum1, mid)]]
    return float(np.sum((upper - lower) * (x0 - x1) ** 2))


def check_transport(job: dict, output: dict) -> list[str]:
    from heatlab.transport import w2_lp

    space, mu0, mu1, _, _, _ = jobs.transport_inputs(job)
    problems = []
    ref = w2_lp(space, mu0, mu1).cost if space.is_circle else quantile_cost(space, mu0, mu1)
    if not abs(output["cost"] - ref) <= COST_TOL:
        problems.append(f"plan cost {output['cost']!r} != reference {ref!r}")
    n = space.n_nodes
    rows_sum = np.bincount(output["rows"], weights=output["masses"], minlength=n)
    cols_sum = np.bincount(output["cols"], weights=output["masses"], minlength=n)
    defect = max(np.max(np.abs(rows_sum - mu0.masses)), np.max(np.abs(cols_sum - mu1.masses)))
    if not defect <= MARGINAL_TOL:
        problems.append(f"marginal defect {defect:.3e} > {MARGINAL_TOL:g}")
    if not (np.array_equal(output["first_slice"], mu0.masses)
            and np.array_equal(output["last_slice"], mu1.masses)):
        problems.append("interpolation endpoints differ from mu0 / mu1")
    if not (math.isinf(output["defect"]) or output["defect"] >= CD_STAR_FLOOR):
        problems.append(f"cd_star defect {output['defect']!r} < {CD_STAR_FLOOR:g}")
    return problems


# ---------------------------------------------------------------------------
# worker process


def serve(inbox, outbox) -> None:
    """Answer pickled (job, output, check_solver) messages with a list of problems until None."""
    reference = jobs.load_reference()
    solver_cache: dict = {}
    while (message := pickle.load(inbox)) is not None:
        job, output, check_solver = message
        try:
            if job["kind"] == "transport":
                problems = check_transport(job, output)
            else:
                problems = check_scenario(job, output, reference)
                if check_solver:
                    problems += _check_solver(job, solver_cache)
        except Exception as exc:  # a gate that cannot run fails the job, not the run
            problems = [f"gate raised {type(exc).__name__}: {exc}"]
        finally:
            if job["kind"] == "scenario":
                shutil.rmtree(output["out_dir"], ignore_errors=True)
        pickle.dump(problems, outbox)
        outbox.flush()


class Gate:
    """The gate worker process; ``check`` blocks until the verdict is back.

    The worker is a plain child interpreter spoken to over its stdin and
    stdout, so no helper process outlives the run.
    """

    def __enter__(self):
        self._proc = subprocess.Popen([sys.executable, "-m", "perfbench.oracle"],
                                      cwd=jobs.ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def check(self, job: dict, output: dict, check_solver: bool = False) -> list[str]:
        pickle.dump((job, output, check_solver), self._proc.stdin)
        self._proc.stdin.flush()
        return pickle.load(self._proc.stdout)

    def __exit__(self, *exc):
        try:
            pickle.dump(None, self._proc.stdin)
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    sys.path.insert(0, str(jobs.ROOT / "src"))
    replies = sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stray prints out of the reply stream
    serve(sys.stdin.buffer, replies)
