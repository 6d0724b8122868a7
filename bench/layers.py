"""Per-layer metrics computed from one traced child's spans.

Every name here is a `per_layer` metric of BENCHMARK.json except
`python.import_s` and `trace.overhead_frac`, which run.py derives from
timestamps. A metric whose span could not be installed (the wrapped name no
longer exists) is None, reported as absent. A layer the workload does not
exercise reads 0.
"""

from __future__ import annotations

from statistics import median

from tracer import Tracer, percentile

MODULES = ("cli", "config", "simulation", "plants", "controller", "rbf", "dynamics")

# metric, span, per-call quantity ("incl" or "self"), p99 metric or None.
# The p99 is taken of the same quantity as the median; it is only reported
# where every exercising workload makes well over a thousand calls.
PER_CALL = (
    ("config.load_us", "config.config_from_dict", "incl", None),
    ("config.build_us", "config.build_experiment", "incl", None),
    ("simulation.reference_at_us", "simulation.reference_at", "incl", "simulation.reference_at_p99_us"),
    ("simulation.rk4_step_self_us", "simulation.rk4_step", "self", "simulation.rk4_step_p99_us"),
    (
        "simulation.integrate_interval_self_us",
        "simulation.integrate_interval",
        "self",
        "simulation.integrate_interval_p99_us",
    ),
    ("simulation.rhs_self_us", "simulation.rhs", "self", "simulation.rhs_p99_us"),
    ("simulation.compute_metrics_us", "simulation.compute_metrics", "incl", None),
    ("plants.f_eval_us", "plants.f_eval", "incl", "plants.f_eval_p99_us"),
    ("plants.disturbance_sample_us", "plants.disturbance_sample", "incl", "plants.disturbance_sample_p99_us"),
    ("controller.control_step_self_us", "controller.control_step", "self", "controller.control_step_p99_us"),
    ("rbf.activations_us", "rbf.activations", "incl", "rbf.activations_p99_us"),
    ("rbf.adapt_us", "rbf.adapt", "incl", "rbf.adapt_p99_us"),
    ("dynamics.tracking_error_us", "dynamics.tracking_error", "incl", "dynamics.tracking_error_p99_us"),
    ("dynamics.filtered_error_us", "dynamics.filtered_error", "incl", "dynamics.filtered_error_p99_us"),
)

# metric, span: calls of the span per control sample
PER_STEP_CALLS = (
    ("simulation.rhs_evals_per_step", "simulation.rhs"),
    ("plants.disturbance_calls_per_step", "plants.disturbance_sample"),
    ("dynamics.state_vectors_per_step", "dynamics.StateVector"),
)


# run.py derives these from timestamps of untraced and traced children
PARENT_NAMES = ("python.import_s", "trace.overhead_frac")
CHILD_NAMES = (
    *(name for metric, _, _, p99 in PER_CALL for name in (metric, p99) if name is not None),
    *(metric for metric, _ in PER_STEP_CALLS),
    "simulation.loop_self_us_per_step",
    "cli.write_csv_s",
    "cli.csv_bytes",
    "plants.noise_samples_generated",
    "plants.noise_used_ratio",
    *(f"{module}.self_s" for module in MODULES),
    "trace.covered_frac",
)
NAMES = CHILD_NAMES + PARENT_NAMES


def layer_values(tracer: Tracer, counters: dict, samples: int, noise_used: int, body_s: float) -> dict:
    """Every CHILD_NAMES metric of one traced child; None marks it absent."""
    spans = tracer.spans
    out: dict = {}

    def present(span):
        return span not in tracer.absent

    for metric, span, quantity, p99_metric in PER_CALL:
        names = (metric,) if p99_metric is None else (metric, p99_metric)
        if not present(span):
            out.update(dict.fromkeys(names))
            continue
        values = spans[span].incl if quantity == "incl" else spans[span].self_
        out[metric] = median(values) * 1e6 if values else 0.0
        if p99_metric is not None:
            out[p99_metric] = percentile(values, 99.0) * 1e6 if values else 0.0

    for metric, span in PER_STEP_CALLS:
        out[metric] = spans[span].calls / samples if present(span) else None

    loop = "simulation.run_closed_loop"
    out["simulation.loop_self_us_per_step"] = sum(spans[loop].self_) * 1e6 / samples if present(loop) else None

    csv = "cli.write_trajectory_csv"
    out["cli.write_csv_s"] = sum(spans[csv].incl) if present(csv) else None
    out["cli.csv_bytes"] = counters["csv_bytes"] if present(csv) else None

    noise = "plants.noise_series"
    generated = counters["noise_generated"]
    out["plants.noise_samples_generated"] = generated if present(noise) else None
    out["plants.noise_used_ratio"] = (noise_used / generated if generated else 0.0) if present(noise) else None

    for module in MODULES:
        out[f"{module}.self_s"] = tracer.module_self_s(module)
    out["trace.covered_frac"] = tracer.root_s / body_s
    return out
