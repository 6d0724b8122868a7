"""The benchmark's output contract, one short run per workload.

`bench/run.py` prints its result as the last line of stdout. That line must
be strict JSON (no NaN or Infinity), report a correct run with no failed
child, and carry every end-to-end metric BENCHMARK.json declares. A change
to the package can break this only through what the line contains: for
example, when every untraced child fails its checks, `metrics` is empty.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1", "--trace", "0"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    missing = [m["name"] for m in SPEC["end_to_end"] if m["name"] not in result["metrics"]]
    assert missing == [], proc.stderr
