"""The benchmark's tracer can still reach every binding of heatlab's functions.

``perfbench.tracer.Tracer.install`` refuses to run when a public heatlab
function is held anywhere it cannot rebind (a tuple, a partial, a default
argument, ...).  The test modules' own imports would count as such holders,
so the traced run happens in a fresh interpreter.  The shipped scenarios
must also record every span the benchmark's traced scenario_mix and fine_grid
runs require, or ``perfbench/run.py --trace 1`` would refuse a refactor that
drops a call path.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_TRACED_RUN = """
import contextlib, io, json, sys, tempfile
from pathlib import Path
sys.path[:0] = ["src", "."]
import heatlab.cli as cli
from perfbench.run import expected_spans
from perfbench.tracer import Tracer

tracer = Tracer()
tracer.install()
codes = {}
with tempfile.TemporaryDirectory() as out:
    for path in sorted(Path("scenarios").glob("*.json")):
        with tracer.tracing(), contextlib.redirect_stdout(io.StringIO()):
            codes[path.stem] = cli.main(["run", str(path), "--out-dir", out])
tracer.uninstall()
print(json.dumps({"codes": codes, "spans": sorted({s[0] for s in tracer.spans}),
                  "expected": sorted(expected_spans("scenario_mix")
                                     | expected_spans("fine_grid"))}))
"""


def test_traced_shipped_scenarios_record_every_check():
    proc = subprocess.run([sys.executable, "-c", _TRACED_RUN], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    scenarios = sorted((ROOT / "scenarios").glob("*.json"))
    assert result["codes"] == {path.stem: 0 for path in scenarios}
    checks = {c["name"] for path in scenarios for c in json.loads(path.read_text())["checks"]}
    missing = {f"check.{name}" for name in checks} - set(result["spans"])
    assert not missing
    unrecorded = set(result["expected"]) - set(result["spans"])
    assert not unrecorded, f"spans the traced benchmark needs but no run recorded: {unrecorded}"
