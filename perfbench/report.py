"""Print every metric of every workload by name with its unit, and whether the gates held.

    python3 perfbench/report.py --seed 1 --seconds 10

Runs ``run.py`` once untraced and once traced per workload, one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True)
            if done.returncode != 0:
                print(f"{workload} trace={trace}: exit {done.returncode}\n{done.stderr}")
                status = 1
                continue
            result = json.loads(done.stdout.splitlines()[-1])
            print(f"== {workload} trace={trace}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}")
            for name, m in result["metrics"].items():
                print(f"{workload:<13} {name:<32} {m['value']:>14.6g} {m['unit']}")
            status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
