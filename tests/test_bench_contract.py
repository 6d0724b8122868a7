"""The benchmark's output contract, one short run per workload, untraced
and traced.

`bench/run.py` prints its result as the last line of stdout. That line must
be strict JSON (no NaN or Infinity), report a correct run with no failed
child, and carry every end-to-end metric BENCHMARK.json declares, plus,
traced, every per-layer metric. A change to the package can break this only
through what the line contains. For example, when every untraced child
fails its checks, `metrics` is empty; and when a name the tracer wraps
(bench/child.py) is no longer bound where it wraps it, that span is absent
and its per-layer metrics drop out of the line.
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


def result_line(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", "1", "--trace", trace],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    return result, proc.stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_line(workload):
    result, stderr = result_line(workload, "0")
    missing = [m["name"] for m in SPEC["end_to_end"] if m["name"] not in result["metrics"]]
    assert missing == [], stderr


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_result_line(workload):
    result, stderr = result_line(workload, "1")
    missing = [m["name"] for m in SPEC["per_layer"] if m["name"] not in result["metrics"]]
    assert missing == [], stderr
