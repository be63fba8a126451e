"""The benchmark's smoke run: every workload once, untraced and traced.

`perfbench/run.py --smoke` checks every output against its oracle, and the
traced pass fails when a layer its workload must reach shows zero calls, so
this also keeps the wrapped boundaries (the Burnside closure, matrix
products) reachable from the workloads.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_smoke_run_is_correct():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    for name in ("family", "hypergeometric", "weil"):
        assert result["workloads"][name]["failed"] == 0, name
