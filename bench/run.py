"""neurofl benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The benchmark imports neurofl from the `src/` directory of the checkout that
holds it. Each measurement is one fresh, single-threaded child interpreter
(bench/child.py), one at a time. Before the measured window the golden guard
runs `neurofl compare` on tests/golden/golden_config.json and requires
byte-identical CSVs. Every child's outputs are checked; a non-zero exit, a
terminal event or a failed check counts as a failed run.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
children. --trace 1 alternates untraced and traced children and reports the
per-layer metrics. The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import layers
import selftest
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DEFAULT_SEED = 0
# every child must have ended this long after the benchmark started
RUN_BUDGET_S = 170.0
# time a trace-0 run keeps free at the end of its window for its one traced
# child, as a multiple of an untraced child's wall time
TRACED_COST = 1.5
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REQUIRED_FILES = (
    "BENCHMARK.json",
    "src/neurofl/__init__.py",
    workloads.GOLDEN_CONFIG,
    *workloads.GOLDEN_OUTPUTS,
)


class BenchmarkError(Exception):
    """The benchmark cannot run here: missing inputs or a broken tracer."""


class Child:
    """One child process: its wall time, its report and why it failed."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.wall_s = 0.0
        # multiplies this child's times into reference-speed seconds
        self.scale = 1.0
        self.report: dict | None = None
        self.failure: str | None = None
        self.sha256: str | None = None


class Session:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.started = time.monotonic()
        self.proc: subprocess.Popen | None = None
        self.children: list[Child] = []
        self.guard_failure: str | None = None
        self.expected_sha = json.loads((BENCH_DIR / "expected.json").read_text())
        self.runner, generate = workloads.WORKLOADS[workload]
        golden = json.loads((ROOT / workloads.GOLDEN_CONFIG).read_text())
        self.configs = generate(seed, golden)
        self.configs_path = work / "configs.json"
        payload = self.configs[0] if self.runner == workloads.CLI_COMPARE else self.configs
        self.configs_path.write_text(json.dumps(payload, indent=1))

    def spawn(self, runner: str, configs_path: Path, traced: bool, out_dir: Path) -> Child:
        child = Child(traced)
        report_path = self.work / "report.json"
        log_path = self.work / "child.log"
        report_path.unlink(missing_ok=True)
        argv = [
            sys.executable, "-I", str(BENCH_DIR / "child.py"),
            runner, str(configs_path), str(out_dir), str(report_path), "1" if traced else "0",
        ]
        calibration = calibrate.measure()
        remaining = RUN_BUDGET_S - (time.monotonic() - self.started)
        with open(log_path, "wb") as log:
            t0 = time.monotonic()
            self.proc = subprocess.Popen(
                argv, stdout=log, stderr=subprocess.STDOUT, env=dict(os.environ, **CHILD_ENV), cwd=ROOT
            )
            try:
                code = self.proc.wait(timeout=max(remaining, 1.0))
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
                code = None
            child.wall_s = time.monotonic() - t0
            self.proc = None
        child.scale = calibrate.NOMINAL_S / statistics.median(calibration + calibrate.measure())
        if code is None:
            child.failure = "killed: over the time budget"
        elif not report_path.is_file():
            tail = log_path.read_text(errors="replace").strip().splitlines()[-3:]
            child.failure = f"exit {code} without a report: {' | '.join(tail)}"
        else:
            report = json.loads(report_path.read_text())
            if code != 0:
                child.failure = f"exit {code}"
            elif report["t_first_run"] is None:
                child.failure = "no run_closed_loop call"
            else:
                report["import_s"] = report["t_imported"] - t0
                report["setup_s"] = report["t_first_run"] - t0
                child.report = report
        return child

    def stop(self) -> None:
        """Kill and reap a child still running (on SIGTERM or an error)."""
        if self.proc is not None and self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()

    # -- output checks: each returns None when the outputs pass ----------

    def check_compare(self, child: Child, out_dir: Path) -> str | None:
        summary = json.loads((out_dir / "compare_metrics.json").read_text())
        digest = hashlib.sha256()
        runs = []
        for mode in ("baseline", "compensated"):
            data = (out_dir / f"{mode}.csv").read_bytes()
            digest.update(data)
            header, *rows = data.decode().splitlines()
            col = header.split(",").index("d_true")
            if summary[mode]["records"] != len(rows):
                return f"{mode}: compare_metrics.json counts {summary[mode]['records']} records, the CSV {len(rows)}"
            runs.append(
                {
                    "records": len(rows),
                    "bounded": summary[mode]["bounded"],
                    "terminal_event": summary[mode]["terminal_event"],
                    "max_abs_d_true": max(abs(float(row.split(",")[col])) for row in rows),
                }
            )
        child.sha256 = digest.hexdigest()
        return self.check_runs(runs, self.configs * 2, child.sha256)

    def check_runs(self, runs: list, configs: list, digest: str) -> str | None:
        if len(runs) != len(configs):
            return f"{len(runs)} runs, want {len(configs)}"
        for i, (run, cfg) in enumerate(zip(runs, configs)):
            records = workloads.expected_records(cfg)
            bound = workloads.stated_bound(cfg)
            if not run["bounded"] or run["terminal_event"] is not None:
                return f"run {i}: bounded={run['bounded']} terminal_event={run['terminal_event']}"
            if run["records"] != records:
                return f"run {i}: {run['records']} records, want {records}"
            if run["max_abs_d_true"] > bound:
                return f"run {i}: |d_true| reached {run['max_abs_d_true']!r} > bound {bound!r}"
        return self.check_sha(digest)

    def check_sha(self, digest: str) -> str | None:
        want = self.expected_sha.get(self.workload)
        if self.seed == DEFAULT_SEED and digest != want:
            return f"output sha256 {digest} differs from the recorded {want}"
        return None

    # -- runs --------------------------------------------------------------

    def golden_guard(self) -> None:
        out_dir = self.work / "guard"
        child = self.spawn(workloads.CLI_COMPARE, ROOT / workloads.GOLDEN_CONFIG, False, out_dir)
        if child.failure is None:
            for rel in workloads.GOLDEN_OUTPUTS:
                if (out_dir / Path(rel).name).read_bytes() != (ROOT / rel).read_bytes():
                    child.failure = f"golden guard: output differs from {rel}"
                    break
        shutil.rmtree(out_dir, ignore_errors=True)
        self.guard_failure = child.failure
        if child.failure is not None:
            print(f"golden guard failed: {child.failure}", file=sys.stderr)

    def measure(self, traced: bool) -> Child:
        out_dir = self.work / "out"
        child = self.spawn(self.runner, self.configs_path, traced, out_dir)
        if child.failure is None:
            if self.runner == workloads.CLI_COMPARE:
                child.failure = self.check_compare(child, out_dir)
            else:
                child.sha256 = child.report["sha256"]
                child.failure = self.check_runs(child.report["runs"], self.configs, child.sha256)
        shutil.rmtree(out_dir, ignore_errors=True)
        self.children.append(child)
        if child.failure is not None:
            print(f"run {len(self.children)} failed: {child.failure}", file=sys.stderr)
        return child

    def run(self) -> None:
        # the guard also compiles and caches the package's bytecode, so no
        # measured child pays that one-off cost
        self.golden_guard()
        window_end = time.monotonic() + self.seconds

        def fits(seconds):
            return time.monotonic() + seconds <= window_end

        def median_wall(traced):
            return statistics.median(c.wall_s for c in self.children if c.traced == traced)

        if self.trace:
            # pairs of one untraced and one traced child
            while True:
                self.measure(traced=False)
                self.measure(traced=True)
                if not fits(median_wall(False) + median_wall(True)):
                    break
        else:
            # untraced children, then one traced child for the provenance
            # line; the window holds both
            while True:
                self.measure(traced=False)
                if not fits((1.0 + TRACED_COST) * median_wall(False)):
                    break
            self.measure(traced=True)

    # -- results -----------------------------------------------------------

    def result(self, spec: dict) -> tuple[dict, dict, list]:
        """(final JSON object, provenance, table rows)."""
        reported = [c for c in self.children if c.report is not None]
        passed = [c for c in reported if c.failure is None]
        pool = passed or reported
        if not pool:
            raise BenchmarkError("no child produced a report")
        untraced = [c for c in pool if not c.traced]
        traced = [c for c in pool if c.traced]
        failed = sum(c.failure is not None for c in self.children) + (self.guard_failure is not None)
        attempted = len(self.children) + 1

        if self.trace:
            values = {
                name: _median_or_none([c.report["layers"][name] for c in traced]) for name in layers.CHILD_NAMES
            }
            values["python.import_s"] = _median_or_none([c.report["import_s"] for c in untraced])
            traced_wall = _median_or_none([c.wall_s * c.scale for c in traced])
            untraced_wall = _median_or_none([c.wall_s * c.scale for c in untraced])
            if traced_wall is not None and untraced_wall is not None:
                values["trace.overhead_frac"] = traced_wall / untraced_wall - 1.0
            declared = spec["per_layer"]
            counts = {name: len(traced) for name in values}
            counts["python.import_s"] = len(untraced)
        else:
            per_child = {
                "wall_s": [c.wall_s * c.scale for c in untraced],
                "setup_s": [c.report["setup_s"] * c.scale for c in untraced],
                "steps_per_s": [
                    c.report["samples"] / ((c.wall_s - c.report["setup_s"]) * c.scale) for c in untraced
                ],
                "peak_rss_mb": [c.report["peak_rss_kb"] / 1024.0 for c in untraced],
            }
            values = {name: _median_or_none(v) for name, v in per_child.items()}
            declared = spec["end_to_end"]
            counts = {name: len(v) for name, v in per_child.items()}

        metrics, rows = {}, []
        for m in declared:
            value = values.get(m["name"])
            rows.append((m["name"], value, m["unit"], counts.get(m["name"], 0)))
            if value is not None:
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        rows.append(("fail_ratio", failed / attempted, f"{failed}/{attempted}", attempted))

        last = pool[-1]
        provenance = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "git_commit": _git_commit(),
            "source_sha256": _source_digest(),
            "output_sha256": next((c.sha256 for c in reversed(self.children) if c.sha256), None),
            "python": last.report["python"],
            "numpy": last.report["numpy"],
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(),
            # measured wall-clock medians, before rescaling to the reference speed
            "untraced_wall_s": _median_or_none([c.wall_s for c in untraced]),
            "traced_wall_s": _median_or_none([c.wall_s for c in traced]),
            "calibration_s": statistics.median(calibrate.NOMINAL_S / c.scale for c in pool),
            "children": {"untraced": len(untraced), "traced": len(traced)},
            "golden_guard": "pass" if self.guard_failure is None else self.guard_failure,
        }
        final = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        return final, provenance, rows


def _median_or_none(values):
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_digest() -> str:
    """sha256 over src/neurofl's Python files, identifying the code measured
    even where the checkout is not a git repository."""
    h = hashlib.sha256()
    src = ROOT / "src" / "neurofl"
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _load_spec() -> dict:
    missing = [rel for rel in REQUIRED_FILES if not (ROOT / rel).is_file()]
    if missing:
        raise BenchmarkError(f"not a neurofl checkout, missing: {', '.join(missing)}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]}
    if declared != set(layers.NAMES):
        raise BenchmarkError(f"per_layer metrics differ from bench/layers.py: {sorted(declared ^ set(layers.NAMES))}")
    return spec


def _print_report(final: dict, provenance: dict, rows: list) -> None:
    p = provenance
    print(f"# neurofl benchmark: workload {p['workload']}, seed {p['seed']}, trace {p['trace']}, {p['seconds']:g} s")
    for name, value, unit, n in rows:
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name:<42} {shown:>14}  {unit:<8} n={n}")
    print("provenance " + json.dumps(p, sort_keys=True))
    print(json.dumps(final))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        spec = _load_spec()
        selftest.run()
    except (BenchmarkError, selftest.SelfTestError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2

    # on SIGTERM, unwind through the finally below so the running child is
    # killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = ROOT / ".bench_run"
    base.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=base))
    session = None
    try:
        session = Session(args.workload, args.seed, args.seconds, bool(args.trace), work)
        session.run()
        final, provenance, rows = session.result(spec)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if session is not None:
            session.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            base.rmdir()
        except OSError:
            pass
    _print_report(final, provenance, rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
