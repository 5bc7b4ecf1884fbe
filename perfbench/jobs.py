"""Seeded job lists for the three workloads, and the timed calls that run them.

A job list is a sequence of rounds.  Round ``r`` of workload ``w`` under
benchmark seed ``s`` is generated from ``(s, w, r)`` alone, so the same seed
always yields the same jobs.  Inside a round the per-class job counts are
fixed and the sizes are stratified (one point per equal-probability stratum,
placed by a low-discrepancy sequence across rounds), so a run's job sizes
cover the same distribution whatever the seed and the run-to-run spread stays
small.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import math
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"
REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

WORKLOADS = ("scenario_mix", "fine_grid", "transport")

# scenario_mix: (scenario, jobs per round), in increasing per-job cost (about
# 4, 40, 58 and 80 ms on a 2-core Xeon with one BLAS thread).  The cumulative shares 0.20 / 0.40 / 0.65 / 1.0
# put job_p50 in the middle of the hyperbolic class and job_p90 inside the
# sphere class, away from a class boundary.
MIX_ROUND = (("convergence", 8), ("flat_circle", 8), ("hyperbolic", 10), ("sphere", 14))
# Job seeds come from range(MIX_SEEDS), less the seeds whose reference run at
# the shipped n has a fail verdict: at the shipped bochner tolerances, 8 of 64
# flat_circle seeds and 7 of 64 sphere seeds fail (see reference.json).
MIX_SEEDS = 64

# fine_grid: interval-topology models are the majority; the circle is the
# control for the dense solver path.  n = 600 + 800 u^3 puts the median near
# n = 700 and job_p90 near n = 1200, so about 30 s of jobs on the machine
# above hold the 100 jobs that job_p90 needs.
FINE_ROUND = (("sphere", 4), ("hyperbolic", 4), ("flat_circle", 2))
FINE_N_MIN, FINE_N_MAX, FINE_N_STEP = 600, 1400, 20
FINE_SEEDS = 2

# transport: 70 % full-support interval-topology pairs, 30 % sparse circles.
TRANSPORT_ROUND = (("interval", 7), ("circle", 3))
INTERVAL_MODELS = ("interval", "sphere_model", "hyperbolic_model")
INTERVAL_N = (2000, 20000)
CIRCLE_ATOMS = (20, 80)
CIRCLE_NODES = (240, 480)
INTERP_TIMES = (0.0, 0.25, 0.5, 0.75, 1.0)


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _strata(offsets: np.ndarray, index: int) -> np.ndarray:
    """One point in each of k equal strata of [0, 1) for round ``index``.

    Inside stratum j the point is frac(offsets[j] + index * golden ratio): a
    low-discrepancy sequence, so the rounds of any run cover each stratum
    evenly and run totals hardly depend on the seed.
    """
    k = len(offsets)
    return (np.arange(k) + (offsets + index * GOLDEN) % 1.0) / k


def fine_grid_sizes() -> range:
    return range(FINE_N_MIN, FINE_N_MAX + 1, FINE_N_STEP)


def all_pass(reference_entry: dict) -> bool:
    return set(reference_entry["verdicts"]) <= {"P", "V"}


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def seed_pool(name: str) -> list[int]:
    """Seeds in range(MIX_SEEDS) whose shipped-size reference run passes every check."""
    n = shipped_n(name)
    ref = load_reference()
    return [s for s in range(MIX_SEEDS) if all_pass(ref[f"{name}|{n}|{s}"])]


def round_jobs(workload: str, seed: int, index: int) -> list[dict]:
    """The jobs of round ``index``, in the order they run."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload), index])
    run_rng = np.random.default_rng([seed, WORKLOADS.index(workload)])  # same in every round
    jobs: list[dict] = []
    if workload == "scenario_mix":
        for name, count in MIX_ROUND:
            n = shipped_n(name)
            for job_seed in rng.choice(seed_pool(name), size=count, replace=False):
                jobs.append({"kind": "scenario", "scenario": name, "n": n, "seed": int(job_seed)})
    elif workload == "fine_grid":
        span = FINE_N_MAX - FINE_N_MIN
        for name, count in FINE_ROUND:
            for u in _strata(run_rng.random(count), index):
                n = FINE_N_MIN + FINE_N_STEP * round(span * u**3 / FINE_N_STEP)
                jobs.append({"kind": "scenario", "scenario": name, "n": int(n),
                             "seed": int(rng.integers(FINE_SEEDS))})
    elif workload == "transport":
        (_, n_intervals), (_, n_circles) = TRANSPORT_ROUND
        lo, hi = INTERVAL_N
        for k, u in enumerate(_strata(run_rng.random(n_intervals), index)):
            jobs.append({"kind": "transport",
                         "model": INTERVAL_MODELS[(index + k) % len(INTERVAL_MODELS)],
                         "n": int(lo + (hi - lo) * u), "seed": int(rng.integers(2**31))})
        lo, hi = CIRCLE_ATOMS
        for k, u in enumerate(_strata(run_rng.random(n_circles), index)):
            # q - p cycles through -6..6 with the round, so the cubic cost of a
            # round's circles, and the p90 it sets, does not hang on the seed.
            p = int(lo + (hi - lo) * u)
            q = min(max(p + 3 * ((index + k) % 5 - 2), lo), hi)
            jobs.append({"kind": "transport", "model": "circle",
                         "n": int(rng.integers(CIRCLE_NODES[0], CIRCLE_NODES[1] + 1)),
                         "p": p, "q": q, "seed": int(rng.integers(2**31))})
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [jobs[i] for i in rng.permutation(len(jobs))]


def job_class(job: dict) -> str:
    return job["scenario"] if job["kind"] == "scenario" else job["model"]


def reference_key(job: dict) -> str:
    return f"{job['scenario']}|{job['n']}|{job['seed']}"


# ---------------------------------------------------------------------------
# scenario jobs


def _shipped(name: str) -> dict:
    return json.loads((SCENARIO_DIR / f"{name}.json").read_text())


def shipped_n(name: str) -> int:
    return int(_shipped(name)["model"]["params"]["n"])


def scenario_document(job: dict) -> dict:
    """The scenario the job runs: the shipped file, re-gridded to the job's n."""
    raw = _shipped(job["scenario"])
    raw["model"]["params"]["n"] = job["n"]
    return raw


class ScenarioRunner:
    """Runs scenario jobs through ``heatlab.cli.main`` in this process.

    Shipped sizes run the shipped file itself; other sizes run a re-gridded
    copy written to the work directory before the timed call.
    """

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.out_dir = work_dir / "out"

    def scenario_path(self, job: dict) -> Path:
        if job["n"] == shipped_n(job["scenario"]):
            return SCENARIO_DIR / f"{job['scenario']}.json"
        path = self.work_dir / f"{job['scenario']}_n{job['n']}.json"
        if not path.exists():
            path.write_text(json.dumps(scenario_document(job)))
        return path

    def run(self, job: dict, traced=contextlib.nullcontext) -> tuple[float, dict]:
        import heatlab.cli as cli

        argv = ["run", str(self.scenario_path(job)), "--out-dir", str(self.out_dir),
                "--seed", str(job["seed"])]
        sink = io.StringIO()
        with traced(), contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            code = cli.main(argv)
            elapsed = time.perf_counter() - start
        return elapsed, {"exit_code": code, "out_dir": str(self.out_dir)}


# ---------------------------------------------------------------------------
# transport jobs


def _smooth_density(nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Positive density: a floor plus three Gaussian bumps on the unit-scaled grid."""
    x = (nodes - nodes[0]) / (nodes[-1] - nodes[0])
    density = np.full(nodes.size, rng.uniform(0.02, 0.2))
    for _ in range(3):
        center, width, height = rng.uniform(), rng.uniform(0.05, 0.3), rng.uniform(0.2, 1.0)
        density += height * np.exp(-(((x - center) / width) ** 2))
    return density


def transport_inputs(job: dict):
    """(space, mu0, mu1, t, cd, n_prime) for a transport job, rebuilt from its seed."""
    from heatlab import space as sp
    from heatlab import transport as tr

    rng = np.random.default_rng(job["seed"])
    model, n = job["model"], job["n"]
    if model == "circle":
        space = sp.build_circle(n, 2.0 * math.pi)

        def sparse(atoms):
            masses = np.zeros(n)
            masses[rng.choice(n, size=atoms, replace=False)] = rng.uniform(0.1, 1.0, atoms)
            return tr.measure_from_masses(space, masses)

        mu0, mu1 = sparse(job["p"]), sparse(job["q"])
    else:
        if model == "interval":
            space = sp.build_interval(n, 1.0)
        elif model == "sphere_model":
            space = sp.build_sphere_model(n, 3.0)
        else:
            space = sp.build_hyperbolic_model(n, 3.0, 2.0)
        mu0 = tr.measure_from_density(space, _smooth_density(space.nodes, rng))
        mu1 = tr.measure_from_density(space, _smooth_density(space.nodes, rng))
    t = float(rng.choice([0.25, 0.5, 0.75]))
    cd = space.expected_cd
    n_prime = cd.N + float(rng.choice([0.0, 1.0]))
    return space, mu0, mu1, t, cd, n_prime


class TransportRunner:
    """Chains w2_quantile -> displacement_interpolation -> cd_star_check."""

    def run(self, job: dict, traced=contextlib.nullcontext) -> tuple[float, dict]:
        from heatlab import transport as tr

        space, mu0, mu1, t, cd, n_prime = transport_inputs(job)
        with traced():
            start = time.perf_counter()
            plan = tr.w2_quantile(space, mu0, mu1)
            path = tr.displacement_interpolation(space, mu0, mu1, INTERP_TIMES)
            defect = tr.cd_star_check(space, mu0, mu1, t, cd, n_prime)
            elapsed = time.perf_counter() - start
        return elapsed, {
            "rows": plan.rows, "cols": plan.cols, "masses": plan.masses, "cost": plan.cost,
            "first_slice": path.measures[0].masses, "last_slice": path.measures[-1].masses,
            "defect": defect,
        }


def make_runner(workload: str, work_dir: Path):
    return TransportRunner() if workload == "transport" else ScenarioRunner(work_dir)
