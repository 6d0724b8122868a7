"""One benchmark child process: run one workload once and write a report.

run.py starts this script in a fresh single-threaded interpreter, one child at
a time:

    python -I bench/child.py <runner> <configs.json> <out-dir> <report.json> <trace 0|1>

<runner> is `cli-compare` (`neurofl compare` on the single config) or
`library` (config_from_dict -> build_experiment for every config, then
run_closed_loop -> compute_metrics for every config). With trace 1 the
package's call sites are wrapped by the tracer and the report carries the
per-layer figures. The report holds monotonic timestamps that run.py, which
shares the clock, turns into set-up and wall times.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class RunProbe:
    """Wraps run_closed_loop at its call sites: the time the first run began
    and the control samples all runs produced."""

    def __init__(self):
        self.first_start = None
        self.samples = 0

    def install(self, module) -> None:
        fn = module.run_closed_loop

        def probed(*args, **kwargs):
            if self.first_start is None:
                self.first_start = time.monotonic()
            traj = fn(*args, **kwargs)
            self.samples += len(traj)
            return traj

        module.run_closed_loop = probed


def install_trace(tracer, counters, nf) -> None:
    """Wrap each layer's entry points where the package calls them."""
    cli, config, simulation = nf.cli, nf.config, nf.simulation
    controller, dynamics, plants = nf.controller, nf.dynamics, nf.plants

    def count_csv_bytes(args, kwargs, result):
        counters["csv_bytes"] += os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

    def count_noise(args, kwargs, result):
        counters["noise_generated"] += len(result)

    call_sites = [
        (cli, "main", "cli.main", None),
        (cli, "write_trajectory_csv", "cli.write_trajectory_csv", count_csv_bytes),
        (cli, "load_config", "config.load_config", None),
        (cli, "build_experiment", "config.build_experiment", None),
        (cli, "run_closed_loop", "simulation.run_closed_loop", None),
        (cli, "compute_metrics", "simulation.compute_metrics", None),
        (config, "config_from_dict", "config.config_from_dict", None),
        (config, "build_experiment", "config.build_experiment", None),
        (simulation, "run_closed_loop", "simulation.run_closed_loop", None),
        (simulation, "compute_metrics", "simulation.compute_metrics", None),
        (simulation, "reference_at", "simulation.reference_at", None),
        (simulation, "control_step", "controller.control_step", None),
        (simulation, "integrate_interval", "simulation.integrate_interval", None),
        (simulation, "rk4_step", "simulation.rk4_step", None),
        (simulation, "disturbance_sample", "plants.disturbance_sample", None),
        (controller, "tracking_error", "dynamics.tracking_error", None),
        (controller, "filtered_error", "dynamics.filtered_error", None),
        (controller, "activations", "rbf.activations", None),
        (controller, "_adapt_with_phi", "rbf.adapt", None),
        (plants, "_noise_series", "plants.noise_series", count_noise),
        (getattr(dynamics, "StateVector", None), "__post_init__", "dynamics.StateVector", None),
    ]
    for owner, attr, name, after in call_sites:
        tracer.patch(owner, attr, name, after)

    # The right-hand side the integrator evaluates is a closure built per
    # control interval; trace each one as it is built.
    plant_deriv = getattr(simulation, "_plant_deriv", None)
    if callable(plant_deriv):
        tracer.declare("simulation.rhs")
        simulation._plant_deriv = lambda *a, **k: tracer.wrap("simulation.rhs", plant_deriv(*a, **k))
    else:
        tracer.absent.add("simulation.rhs")

    # f and b are closures held by each plant; trace them on the plants the
    # config layer builds.
    builders = getattr(config, "PLANT_BUILDERS", None)
    if isinstance(builders, dict):
        tracer.declare("plants.f_eval", "plants.b_eval")

        def traced_builder(build):
            def build_traced(*args, **kwargs):
                plant = build(*args, **kwargs)
                return dataclasses.replace(
                    plant,
                    f_eval=tracer.wrap("plants.f_eval", plant.f_eval),
                    b_eval=tracer.wrap("plants.b_eval", plant.b_eval),
                )

            return build_traced

        config.PLANT_BUILDERS = {name: traced_builder(b) for name, b in builders.items()}
    else:
        tracer.absent.update(("plants.f_eval", "plants.b_eval"))


def run_library(nf, configs: list) -> list:
    """Build every experiment, then run and score each one."""
    config, simulation = nf.config, nf.simulation
    setups = [config.build_experiment(config.config_from_dict(raw)) for raw in configs]
    results = []
    for setup in setups:
        traj = simulation.run_closed_loop(
            truth=setup.truth,
            nominal=setup.nominal,
            ctrl=setup.ctrl,
            ref=setup.ref,
            dist=setup.dist,
            lam=setup.lam,
            T=setup.T,
            dt_ctrl=setup.dt_ctrl,
            substeps=setup.substeps,
            x0=setup.x0,
        )
        results.append((setup, traj, simulation.compute_metrics(traj)))
    return results


def trajectory_digest(results) -> str:
    h = hashlib.sha256()
    for _, traj, _ in results:
        for arr in (traj.t, traj.x, traj.x_d, traj.u, traj.s, traj.d_hat, traj.d_true, traj.w_norm):
            h.update(arr.astype("<f8", copy=False).tobytes())
        h.update("\n".join(traj.event).encode())
    return h.hexdigest()


def noise_samples_used(results) -> int:
    """Noise grid samples a run over [0, T] reads: floor(T/sample_dt) + 1."""
    return sum(
        int(math.floor(setup.T / setup.dist.sample_dt + 1e-9)) + 1
        for setup, _, _ in results
        if setup.dist.kind == "band-limited-noise"
    )


def main(argv: list[str]) -> int:
    runner, configs_path, out_dir, report_path, trace = argv
    src = ROOT / "src"
    sys.path[:0] = [str(src), str(BENCH_DIR)]
    import numpy as np

    import neurofl
    import neurofl.cli

    t_imported = time.monotonic()
    if Path(neurofl.__file__).resolve().parent != src / "neurofl":
        print(f"imported neurofl from {neurofl.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = counters = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        counters = {"csv_bytes": 0, "noise_generated": 0}
        install_trace(tracer, counters, neurofl)
    probe = RunProbe()
    probe.install(neurofl.cli)
    probe.install(neurofl.simulation)

    t_body = time.monotonic()
    if runner == "cli-compare":
        exit_code = neurofl.cli.main(["compare", "--config", configs_path, "--out-dir", out_dir])
        results = []
    else:
        with open(configs_path, encoding="utf-8") as fh:
            configs = json.load(fh)
        exit_code = 0
        results = run_library(neurofl, configs)
    t_body_end = time.monotonic()

    report = {
        "t_imported": t_imported,
        "t_first_run": probe.first_start,
        "body_s": t_body_end - t_body,
        "samples": probe.samples,
        "runs": [
            {
                "records": len(traj),
                "bounded": metrics.bounded,
                "terminal_event": traj.terminal_event,
                "max_abs_d_true": float(np.max(np.abs(traj.d_true))),
            }
            for _, traj, metrics in results
        ],
        "sha256": trajectory_digest(results) if results else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        import layers

        report["layers"] = layers.layer_values(
            tracer, counters, probe.samples, noise_samples_used(results), report["body_s"]
        )
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
