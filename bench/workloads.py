"""Workload inputs, generated from the benchmark seed.

Each workload is a list of experiment configs in neurofl's JSON schema; the
program only ever sees these generated configs. The seed changes initial
states, reference and disturbance parameters and noise seeds, never the size
of the work (horizon, control rate, substeps, neuron count, grid shape), so
runs at different seeds do the same amount of work.
"""

from __future__ import annotations

import copy
import math
import random

GOLDEN_CONFIG = "tests/golden/golden_config.json"
GOLDEN_OUTPUTS = ("tests/golden/baseline.csv", "tests/golden/compensated.csv")

# How the child process drives the configs: through `neurofl compare`, or
# through the library (config_from_dict -> build_experiment for every config,
# then run_closed_loop -> compute_metrics for every config).
CLI_COMPARE = "cli-compare"
LIBRARY = "library"


def compare_golden(seed: int, golden: dict) -> list[dict]:
    """The golden A/B experiment stretched to 5 s at 1 kHz with 2 substeps."""
    rng = random.Random(seed)
    cfg = copy.deepcopy(golden)
    cfg["seed"] = seed
    cfg["reference"]["phase"] = rng.uniform(0.0, 2.0 * math.pi)
    cfg["simulation"] = {
        "T": 5.0,
        "dt_ctrl": 1e-3,
        "substeps": 2,
        "x0": [rng.uniform(0.2, 0.6), rng.uniform(-0.2, 0.2)],
    }
    return [cfg]


def rbf_wide(seed: int) -> list[dict]:
    """One long compensated Van der Pol run with a wide (61-neuron) network."""
    rng = random.Random(seed)
    amplitude = rng.uniform(0.2, 0.5)
    return [
        {
            "name": "rbf-wide",
            "seed": seed,
            "plant": {"name": "vanderpol", "params": {"mu": rng.uniform(0.5, 1.5), "gain": 1.0}},
            "disturbance": {
                "kind": "band-limited-noise",
                "amplitude": amplitude,
                "cutoff_hz": rng.uniform(1.0, 5.0),
                "seed": rng.randrange(2**31),
                "bound": amplitude,
            },
            "reference": {
                "kind": "sum-of-sinusoids",
                "components": [
                    {
                        "amplitude": rng.uniform(0.4, 0.8),
                        "omega": rng.uniform(0.5, 1.5),
                        "phase": rng.uniform(0.0, 2.0 * math.pi),
                    },
                    {
                        "amplitude": rng.uniform(0.1, 0.3),
                        "omega": rng.uniform(2.0, 4.0),
                        "phase": rng.uniform(0.0, 2.0 * math.pi),
                    },
                ],
            },
            "controller": {
                "mode": "compensated",
                "lambda": 3.0,
                "network": {"neurons": 61, "s_range": 1.0, "eta": 5.0, "kappa": 0.01},
            },
            "simulation": {"T": 5.0, "dt_ctrl": 1e-3, "substeps": 1, "x0": [0.0, 0.0]},
        }
    ]


SWEEP_PLANTS = ("pendulum", "duffing", "vanderpol")
SWEEP_LAMBDAS = (1.0, 2.0, 4.0, 8.0)
SWEEP_MODES = ("baseline", "compensated")


def _sweep_disturbances(rng: random.Random) -> list[dict]:
    offset = rng.uniform(0.1, 0.5)
    amplitude = rng.uniform(0.1, 0.5)
    noise = rng.uniform(0.1, 0.5)
    return [
        {"kind": "none"},
        {"kind": "constant", "offset": offset, "bound": offset},
        {
            "kind": "sinusoid",
            "amplitude": amplitude,
            "frequency_hz": rng.uniform(0.5, 3.0),
            "phase": rng.uniform(0.0, 2.0 * math.pi),
            "bound": amplitude,
        },
        {
            "kind": "band-limited-noise",
            "amplitude": noise,
            "cutoff_hz": rng.uniform(2.0, 10.0),
            "seed": rng.randrange(2**31),
            "bound": noise,
        },
    ]


def sweep_grid(seed: int) -> list[dict]:
    """96 short experiments: plants x disturbance kinds x modes x lambda."""
    rng = random.Random(seed)
    configs = []
    for plant in SWEEP_PLANTS:
        for dist in _sweep_disturbances(rng):
            for mode in SWEEP_MODES:
                for lam in SWEEP_LAMBDAS:
                    d = dict(dist)
                    if d["kind"] == "band-limited-noise":
                        d["seed"] = rng.randrange(2**31)
                    configs.append(
                        {
                            "name": f"sweep-{plant}-{d['kind']}-{mode}-{lam:g}",
                            "seed": seed,
                            "plant": {"name": plant},
                            "disturbance": d,
                            "reference": {
                                "kind": "sinusoid",
                                "amplitude": 0.5,
                                "omega": rng.uniform(1.0, 2.0),
                                "phase": rng.uniform(0.0, 2.0 * math.pi),
                            },
                            "controller": {
                                "mode": mode,
                                "lambda": lam,
                                "network": {"neurons": 7, "s_range": 1.0, "eta": 5.0, "kappa": 0.01},
                            },
                            "simulation": {"T": 0.08, "dt_ctrl": 1e-3, "substeps": 4},
                        }
                    )
    return configs


# name -> (runner, generator); `golden` is the parsed golden config
WORKLOADS = {
    "compare-golden": (CLI_COMPARE, lambda seed, golden: compare_golden(seed, golden)),
    "rbf-wide": (LIBRARY, lambda seed, golden: rbf_wide(seed)),
    "sweep-grid": (LIBRARY, lambda seed, golden: sweep_grid(seed)),
}


def expected_records(cfg: dict) -> int:
    """Control samples a complete run of cfg produces: floor(T/dt_ctrl) + 1."""
    sim = cfg["simulation"]
    return int(math.floor(sim["T"] / sim["dt_ctrl"] + 1e-9)) + 1


def stated_bound(cfg: dict) -> float:
    """The disturbance bound cfg states, explicitly or by the documented
    default (|offset| for constant, |amplitude| otherwise, 0 for none)."""
    dist = cfg.get("disturbance", {"kind": "none"})
    if "bound" in dist:
        return float(dist["bound"])
    if dist["kind"] == "none":
        return 0.0
    if dist["kind"] == "constant":
        return abs(float(dist["offset"]))
    return abs(float(dist["amplitude"]))
