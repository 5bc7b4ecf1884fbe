"""heatlab benchmark: one process, one job in flight, closed loop.

    python3 perfbench/run.py --workload scenario_mix --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and perfbench/README.md):

* ``scenario_mix`` runs the shipped scenarios through ``heatlab.cli.main``;
* ``fine_grid`` runs sphere, hyperbolic and flat_circle re-gridded to n = 600..1400;
* ``transport`` chains w2_quantile -> displacement_interpolation -> cd_star_check.

With ``--trace 0`` the run reports the end-to-end metrics: it runs whole
rounds of the seeded job list until ``--seconds`` of timed work and at least
``MIN_JOBS`` jobs are done.  With ``--trace 1`` it runs a fixed number of
rounds, each once traced and once untraced, and reports the per-layer
metrics.  Every job passes through the correctness gate of ``oracle.py``
outside the timed region.  Lines before the last describe the run (``record``)
and list every metric with its unit; the last line is the JSON result.
"""

from __future__ import annotations

import os

BLAS_THREADS = 1  # pinned before numpy loads; the gate worker and setup spawns inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import jobs, oracle  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402

MIN_JOBS = 100           # so that at least ten jobs lie beyond job_p90
MAX_TIMED_SECONDS = 40   # a slow machine stops here even below MIN_JOBS
SETUP_SPAWNS = 5         # fresh interpreters per run; setup_s is their median
TRACE_ROUNDS = (1, 2, 3, 4)  # rounds run in a traced run, each traced and untraced
IMPORT_PROBE = "import sys; sys.path.insert(0, 'src'); import heatlab.cli"
IMPORT_METRICS = {"import.heatlab_s": "heatlab",
                  "import.scipy_linalg_s": "scipy.linalg",
                  "import.scipy_integrate_s": "scipy.integrate",
                  "import.scipy_optimize_s": "scipy.optimize"}


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


# ---------------------------------------------------------------------------
# set-up time and import breakdown


def _spawn(extra_flags=()) -> tuple[float, str]:
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *extra_flags, "-c", IMPORT_PROBE], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        fail(f"fresh interpreter could not import heatlab.cli:\n{done.stderr}")
    return elapsed, done.stderr


def setup_seconds() -> float:
    """Median wall time of a fresh interpreter that imports heatlab.cli (one warm-up spawn)."""
    _spawn()
    return statistics.median(_spawn()[0] for _ in range(SETUP_SPAWNS))


def parse_importtime(text: str) -> dict[str, float]:
    """import.* seconds from one ``-X importtime`` log.

    A package's time is the cumulative time of its own line.  Packages that
    scipy loads lazily (scipy.integrate and scipy.optimize) log no line of
    their own; for them it is the sum over their shallowest submodule lines.
    """
    rows = []
    for line in text.splitlines():
        if line.startswith("import time:") and "cumulative" not in line:
            _, cumulative, name = line.split("|")
            rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative) * 1e-6))
    out = {}
    for metric, package in IMPORT_METRICS.items():
        own = [sec for _, mod, sec in rows if mod == package]
        hits = [(depth, sec) for depth, mod, sec in rows if mod.startswith(package + ".")]
        top = min((depth for depth, _ in hits), default=None)
        out[metric] = own[0] if own else sum(sec for depth, sec in hits if depth == top)
    return out


def import_breakdown() -> dict[str, float]:
    _spawn(["-X", "importtime"])
    samples = [parse_importtime(_spawn(["-X", "importtime"])[1]) for _ in range(SETUP_SPAWNS)]
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


# ---------------------------------------------------------------------------
# run record


def run_record(workload: str, seed: int, trace: bool) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "heatlab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS, "cpu": cpu,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "git_commit": commit, "src_sha256": digest.hexdigest()[:16],
    }


# ---------------------------------------------------------------------------
# job loop


class Loop:
    """Runs jobs one at a time and sends each through the gate."""

    def __init__(self, workload: str, seed: int, gate, work_dir: Path):
        self.workload, self.seed, self.gate = workload, seed, gate
        self.runner = jobs.make_runner(workload, work_dir)
        self.attempted = self.failed = 0

    def run(self, job: dict, traced=contextlib.nullcontext, check_solver=False) -> float:
        elapsed, output = self.runner.run(job, traced)
        problems = self.gate.check(job, output, check_solver)
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"perfbench: job {job} failed its gate: {'; '.join(problems)}", file=sys.stderr)
        return elapsed

    def warm_up(self) -> None:
        """First job of each class in round 0, untimed: lazy set-up finishes before timing.

        These jobs also have their solver rebuilt and checked by the gate.
        """
        seen = set()
        for job in jobs.round_jobs(self.workload, self.seed, 0):
            if jobs.job_class(job) not in seen:
                seen.add(jobs.job_class(job))
                self.run(job, check_solver=True)

    def round(self, index: int, traced=contextlib.nullcontext) -> list[float]:
        return [self.run(job, traced) for job in jobs.round_jobs(self.workload, self.seed, index)]


def timed_run(loop: Loop, seconds: float) -> dict:
    loop.warm_up()
    round_times, job_times = [], []
    index = 1
    while (sum(round_times) < seconds or len(job_times) < MIN_JOBS) \
            and sum(round_times) < MAX_TIMED_SECONDS:
        times = loop.round(index)
        round_times.append(sum(times))
        job_times += times
        index += 1
    # The gates run in their own process, so this high-water mark excludes them.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    deciles = statistics.quantiles(job_times, n=10)
    metrics = {"wall_s": statistics.median(round_times),
               "job_p50_s": deciles[4], "job_p90_s": deciles[8], "peak_rss_mb": peak_mb}
    info = {"rounds": len(round_times), "round_s": [round(t, 4) for t in round_times],
            "jobs": len(job_times),
            "jobs_per_round": len(jobs.round_jobs(loop.workload, loop.seed, 1)),
            "jobs_beyond_p90": sum(t > deciles[8] for t in job_times)}
    return {"metrics": metrics, "info": info}


def scenario_checks(rounds) -> set[str]:
    """CLI check names in the scenarios of a round spec."""
    return {c["name"] for name, _ in rounds
            for c in jobs.scenario_document({"scenario": name, "n": 0})["checks"]}


def expected_spans(workload: str) -> set[str]:
    """Span names a workload must record; zero calls to any of them fails the traced run."""
    if workload == "transport":
        return {"transport.w2_quantile", "transport.displacement_interpolation",
                "transport.cd_star_check", "transport.measure_from_masses"}
    rounds = jobs.MIX_ROUND if workload == "scenario_mix" else jobs.FINE_ROUND
    names = {"cli.main", "cli.parse", "cli.run_scenario", "profiles.build_fields",
             "heat.build_solver", "heat.heat_apply", "heat.heat_kernel",
             "calculus.carre_du_champ", "calculus.bochner_margin",
             "inequalities.li_yau_check", "inequalities.harnack_check",
             "inequalities.pre_li_yau_check", "inequalities.kernel_corollary_suite",
             "transport.w2_quantile", "transport.harnack_transport_check",
             "transport.cd_star_check", "transport.measure_from_density",
             "serialize.reports_to_json", "serialize.margins_to_csv"}
    names.update("space.build_" + jobs.scenario_document({"scenario": name, "n": 0})["model"]["name"]
                 for name, _ in rounds)
    names.update("check." + c for c in scenario_checks(rounds))
    return names


def layer_metrics(stats: dict, counters, overhead: float) -> dict:
    def calls(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[0] for n in names)

    def inclusive(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[1] for n in names)

    def self_time(*names):
        return sum(stats.get(n, (0, 0.0, 0.0))[2] for n in names)

    def layer(prefix):
        return [n for n in stats if n.startswith(prefix + ".")]

    def rate(amount, seconds):
        return amount / seconds / 1e9 if seconds > 0 else 0.0

    build_s, apply_s = self_time("heat.build_solver"), self_time("heat.heat_apply")
    applies = calls("heat.heat_apply")
    ineq = layer("inequalities")
    metrics = {
        "heat.build_solver_s": build_s,
        "heat.build_solver_calls": calls("heat.build_solver"),
        "heat.build_solver_ops": counters["heat.build_solver_ops"],
        "heat.build_solver_gflops": rate(counters["heat.build_solver_ops"], build_s),
        "heat.apply_s": apply_s,
        "heat.apply_calls": applies,
        "heat.apply_distinct_frac": counters["heat.apply_distinct"] / applies if applies else 0.0,
        "heat.apply_bytes": counters["heat.apply_bytes"],
        "heat.apply_gbps": rate(counters["heat.apply_bytes"], apply_s),
        "heat.kernel_s": self_time("heat.heat_kernel"),
        "transport.w2_quantile_s": self_time("transport.w2_quantile"),
        "transport.w2_quantile_calls": calls("transport.w2_quantile"),
        "transport.circle_breakpoints": counters["transport.circle_breakpoints"],
        "transport.interp_s": self_time("transport.displacement_interpolation"),
        "transport.cd_star_s": self_time("transport.cd_star_check"),
        "transport.harnack_transport_s": self_time("transport.harnack_transport_check"),
        "inequalities.self_s": self_time(*ineq),
        "inequalities.checks": calls(*(n for n in ineq if n.endswith("_check"))),
        "calculus.s": self_time(*layer("calculus")),
        "calculus.calls": calls(*layer("calculus")),
        "space.build_s": self_time(*layer("space")),
        "space.builds": calls(*layer("space")),
        "profiles.build_fields_s": inclusive("profiles.build_fields"),
        "cli.parse_s": inclusive("cli.parse"),
        "cli.self_s": self_time(*(n for n in layer("cli") if n != "cli.parse"), *layer("check")),
        "serialize.s": self_time(*layer("serialize")),
        "serialize.files": counters["serialize.files"],
        "serialize.bytes": counters["serialize.bytes"],
        "trace.overhead_frac": overhead,
    }
    for name in scenario_checks(jobs.MIX_ROUND + jobs.FINE_ROUND):
        metrics[f"check.{name}_s"] = inclusive(f"check.{name}")
    return metrics


def traced_run(loop: Loop) -> dict:
    tracer = Tracer()
    loop.warm_up()
    pairs = []  # [untraced, traced] seconds per round
    for index in TRACE_ROUNDS:
        pair = [0.0, 0.0]
        for with_trace in ((False, True) if index % 2 else (True, False)):
            if not with_trace:
                pair[0] = sum(loop.round(index))
                continue
            tracer.install()
            try:
                pair[1] = sum(loop.round(index, tracer.tracing))
            finally:
                tracer.uninstall()
        pairs.append(pair)
    plain, traced = (sum(p[k] for p in pairs) for k in (0, 1))
    stats = tracer.summary()
    missing = sorted(n for n in expected_spans(loop.workload) if n not in stats)
    if missing:
        fail(f"traced run recorded no calls to {missing}; the tracer no longer sees them", 3)
    metrics = layer_metrics(stats, tracer.counters, traced / plain - 1.0)
    ranked = sorted(((v[2], n) for n, v in stats.items() if n != "trace.hook"), reverse=True)
    info = {"rounds": len(TRACE_ROUNDS), "spans": len(tracer.spans),
            "round_s_untraced_traced": [[round(a, 4), round(b, 4)] for a, b in pairs],
            "top_self_s": [[n, round(s, 6)] for s, n in ranked[:8]]}
    return {"metrics": metrics, "info": info}


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (SRC / "heatlab" / "__init__.py", ROOT / "scenarios", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            fail(f"{needed.relative_to(ROOT)} is missing; run from a full heatlab checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seed < 0:
        fail("--seed must be nonnegative")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    record = run_record(args.workload, args.seed, bool(args.trace))
    # Fresh interpreters first, while nothing else of the benchmark runs.
    metrics = import_breakdown() if args.trace else {"setup_s": setup_seconds()}
    work_dir = Path(__file__).resolve().parent / ".work" / str(os.getpid())
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        with oracle.Gate() as gate:
            loop = Loop(args.workload, args.seed, gate, work_dir)
            result = traced_run(loop) if args.trace else timed_run(loop, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work_dir.parent.rmdir()
    metrics.update(result["metrics"])
    if set(metrics) != set(declared):
        fail(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(declared))}", 3)
    record.update(result["info"], attempted=loop.attempted, failed=loop.failed,
                  fail_frac=loop.failed / loop.attempted)
    if args.workload == "scenario_mix":
        record["seed_pools"] = {name: len(jobs.seed_pool(name)) for name, _ in jobs.MIX_ROUND}
    print("record " + json.dumps(record, sort_keys=True))
    for name in sorted(metrics):
        print(f"metric {name} = {metrics[name]:.6g} {declared[name]}")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": declared[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
