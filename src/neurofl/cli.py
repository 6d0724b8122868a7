"""Command-line front end: run experiments, A/B-compare controller modes, and
emit CSV trajectories plus metric summaries.

Exit codes: 0 success, 2 config error, 3 runtime fault, 4 I/O error.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .config import BASELINE, COMPENSATED, ExperimentConfig, build_experiment, load_config
from .controller import ControllerState
from .errors import ConfigError
from .simulation import Metrics, Trajectory, compute_metrics, run_closed_loop

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAULT = 3
EXIT_IO = 4


def csv_header(order: int) -> list[str]:
    cols = ["t"]
    cols += [f"x{i}" for i in range(order)]
    cols += [f"xd{i}" for i in range(order)]
    cols += ["u", "s", "d_hat", "d_true", "w_norm", "event"]
    return cols


def write_trajectory_csv(traj: Trajectory, path: Path) -> None:
    """One row per control sample; floats use shortest round-trip formatting
    so files are byte-stable across identical runs."""
    columns = [traj.t, *traj.x.T, *traj.x_d.T, traj.u, traj.s, traj.d_hat, traj.d_true, traj.w_norm]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(csv_header(traj.order)) + "\n")
        # a block of rows at a time: each column converted to Python floats
        # once, the rows formatted and written
        for block in (slice(k, k + 1024) for k in range(0, len(traj), 1024)):
            cells = zip(*(map(repr, col[block].tolist()) for col in columns), traj.event[block])
            fh.writelines(",".join(row) + "\n" for row in cells)


def _json_value(value):
    """A non-finite float as the string "inf", "-inf" or "nan", which strict
    JSON has no number for; any other value as it is."""
    return str(value) if isinstance(value, float) and not math.isfinite(value) else value


def _metrics_dict(metrics: Metrics, traj: Trajectory) -> dict:
    # a Metrics holds exactly its fields, in their constructor's order
    out = {key: _json_value(value) for key, value in vars(metrics).items()}
    out["terminal_event"] = traj.terminal_event
    out["terminal_t"] = traj.terminal_t
    out["records"] = len(traj)
    return out


def _ending(traj: Trajectory) -> str:
    return f"{traj.terminal_event} at t={traj.terminal_t:.6g}"


def _print_metrics_table(rows: dict[str, dict]) -> None:
    keys = ["rms_error", "iae", "steady_state_error", "max_abs_u", "bounded", "terminal_event"]
    label_w = max(len(k) for k in keys) + 2
    col_w = max(14, *(len(name) + 2 for name in rows))
    print(f"{'metric':<{label_w}}" + "".join(f"{name:>{col_w}}" for name in rows))
    for key in keys:
        cells = []
        for name in rows:
            val = rows[name][key]
            if isinstance(val, float):
                cells.append(f"{val:>{col_w}.6g}")
            else:
                cells.append(f"{str(val):>{col_w}}")
        print(f"{key:<{label_w}}" + "".join(cells))


def resolve_out_dir(cli_value: str | None, cfg: ExperimentConfig) -> Path:
    """Precedence: --out-dir flag, then config output.dir, then NEUROFL_OUT_DIR,
    then the working directory."""
    if cli_value:
        return Path(cli_value)
    if cfg.out_dir:
        return Path(cfg.out_dir)
    env = os.environ.get("NEUROFL_OUT_DIR")
    if env:
        return Path(env)
    return Path(".")


def _write_outputs(out_dir: Path, trajectories: dict, summary_name: str, summary: dict) -> int:
    """Write each trajectory to out_dir/<name>.csv and the summary to
    out_dir/summary_name: EXIT_OK, or EXIT_IO with the error on stderr."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, traj in trajectories.items():
            write_trajectory_csv(traj, out_dir / f"{name}.csv")
        (out_dir / summary_name).write_text(json.dumps(summary, indent=2, allow_nan=False) + "\n", encoding="utf-8")
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run one experiment; write trajectory.csv and metrics.json."""
    setup = build_experiment(cfg)
    # the setup's fields are run_closed_loop's parameters, in order
    traj = run_closed_loop(**vars(setup))
    summary = _metrics_dict(compute_metrics(traj), traj)
    status = _write_outputs(out_dir, {"trajectory": traj}, "metrics.json", summary)
    if status != EXIT_OK:
        return status
    print(f"wrote {out_dir / 'trajectory.csv'} ({len(traj)} records)")
    _print_metrics_table({cfg.mode: summary})
    if traj.terminal_event is not None:
        print(f"run ended early: {_ending(traj)}", file=sys.stderr)
        return EXIT_FAULT
    return EXIT_OK


def sse_ratio(sse_baseline: float, sse_compensated: float) -> float:
    """|baseline| / |compensated| steady-state error ratio; 0/0 reads as 1."""
    if sse_compensated == 0.0:
        return 1.0 if sse_baseline == 0.0 else math.inf
    return abs(sse_baseline) / abs(sse_compensated)


def cmd_compare(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run the identical scenario without and with the network and write
    baseline.csv, compensated.csv and compare_metrics.json."""
    setup = build_experiment(cfg if cfg.mode == COMPENSATED else replace(cfg, mode=COMPENSATED))
    ctrl = setup.ctrl
    halves = {BASELINE: ControllerState(ctrl.gains, None, ctrl.u_limit), COMPENSATED: ctrl}
    trajs, metrics = {}, {}
    for mode, half in halves.items():
        trajs[mode] = run_closed_loop(**dict(vars(setup), ctrl=half))
        metrics[mode] = compute_metrics(trajs[mode])

    summaries = {mode: _metrics_dict(metrics[mode], trajs[mode]) for mode in halves}
    ratio = sse_ratio(metrics[BASELINE].steady_state_error, metrics[COMPENSATED].steady_state_error)
    combined = {**summaries, "sse_ratio": _json_value(ratio)}
    status = _write_outputs(out_dir, trajs, "compare_metrics.json", combined)
    if status != EXIT_OK:
        return status
    _print_metrics_table(summaries)
    print(f"steady-state error ratio (baseline/compensated): {ratio:.6g}")
    faulted = [mode for mode, traj in trajs.items() if traj.terminal_event is not None]
    if faulted:
        for mode in faulted:
            print(f"{mode} run ended early: {_ending(trajs[mode])}", file=sys.stderr)
        return EXIT_FAULT
    return EXIT_OK


def main(argv=None) -> int:
    # imported here, so that importing the library does not load it
    import argparse

    parser = argparse.ArgumentParser(
        prog="neurofl",
        description="Feedback-linearization control experiments with an online RBF disturbance compensator.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def directory(value: str) -> str:
        # resolve_out_dir would pass over "" to the config's directory
        if not value:
            raise argparse.ArgumentTypeError("must be a non-empty path")
        return value

    for name, doc in (
        ("simulate", "run one experiment and write trajectory.csv + metrics.json"),
        ("compare", "run baseline and compensated on the same scenario and write both CSVs"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", required=True, help="path to the JSON experiment config")
        p.add_argument(
            "--out-dir", type=directory, help="output directory (default: output.dir, $NEUROFL_OUT_DIR or .)"
        )
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        out_dir = resolve_out_dir(args.out_dir, cfg)
        if args.command == "simulate":
            return cmd_simulate(cfg, out_dir)
        return cmd_compare(cfg, out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
