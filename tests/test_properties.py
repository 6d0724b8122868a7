"""Properties of generated valid configs, run end to end through the CLI.

Every plant, disturbance kind, reference kind and controller mode is drawn,
with short horizons. For each config: to_dict round-trips, every recorded
disturbance sample obeys its stated bound, and both metrics files are strict
JSON.
"""

import csv
import json
import tempfile
from dataclasses import replace
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from neurofl.cli import main
from neurofl.config import build_experiment, config_from_dict
from test_config_cli import strict_json


def real(lo, hi):
    return st.floats(min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False)


PLANTS = {
    "pendulum": {"m": real(0.5, 2.0), "l": real(0.5, 2.0), "c": real(0.0, 1.0), "g": real(0.0, 10.0)},
    "duffing": {"a": real(-0.5, 0.5), "b1": real(-1.0, 1.0), "b2": real(-1.0, 1.0), "gain": real(0.5, 2.0)},
    "vanderpol": {"mu": real(0.0, 2.0), "gain": real(-2.0, -0.5) | real(0.5, 2.0)},
}

plants = st.sampled_from(sorted(PLANTS)).flatmap(
    lambda name: st.fixed_dictionaries(
        {"name": st.just(name)}, optional={"params": st.fixed_dictionaries({}, optional=PLANTS[name])}
    )
)


@st.composite
def bounded(draw, keys, value_key):
    """A disturbance section whose optional bound is at least |value_key|."""
    section = draw(keys)
    if draw(st.booleans()):
        section["bound"] = abs(section[value_key]) + draw(real(0.0, 1.0))
    return section


phase = {"phase": real(-3.0, 3.0)}
disturbances = st.one_of(
    st.just({"kind": "none"}),
    bounded(st.fixed_dictionaries({"kind": st.just("constant"), "offset": real(-1.0, 1.0)}), "offset"),
    bounded(
        st.fixed_dictionaries(
            {"kind": st.just("sinusoid"), "amplitude": real(-1.0, 1.0), "frequency_hz": real(0.1, 5.0)},
            optional=phase,
        ),
        "amplitude",
    ),
    # noise is clamped to its bound, which may sit below the amplitude
    st.fixed_dictionaries(
        {"kind": st.just("band-limited-noise"), "amplitude": real(0.0, 1.0), "cutoff_hz": real(0.5, 20.0)},
        optional={
            "seed": st.integers(0, 1000),
            "sample_dt": st.sampled_from([0.003, 0.01, 0.02]),
            "bound": real(0.0, 2.0),
        },
    ),
)

sinusoid = {"amplitude": real(-1.0, 1.0), "omega": real(0.1, 10.0)}
references = st.one_of(
    st.fixed_dictionaries({"kind": st.just("constant")}, optional={"level": real(-1.0, 1.0)}),
    st.fixed_dictionaries({"kind": st.just("sinusoid"), **sinusoid}, optional=phase),
    st.fixed_dictionaries(
        {
            "kind": st.just("sum-of-sinusoids"),
            "components": st.lists(st.fixed_dictionaries(sinusoid, optional=phase), min_size=1, max_size=3),
        }
    ),
)

controllers = st.fixed_dictionaries(
    {"mode": st.sampled_from(["baseline", "compensated"])},
    optional={
        "lambda": real(0.5, 5.0),
        "u_limit": real(1.0, 50.0),
        "network": st.fixed_dictionaries(
            {},
            optional={
                "neurons": st.integers(1, 9),
                "s_range": real(0.1, 3.0),
                "eta": real(0.1, 50.0),
                "kappa": real(0.0, 10.0),
                "weight_cap": real(0.1, 10.0),
            },
        ),
    },
)


@st.composite
def simulations(draw):
    dt_ctrl = draw(st.sampled_from([0.005, 0.01, 0.02]))
    section = {"T": draw(st.integers(1, 10)) * dt_ctrl, "dt_ctrl": dt_ctrl, "substeps": draw(st.integers(1, 3))}
    if draw(st.booleans()):
        section["x0"] = draw(st.lists(real(-1.0, 1.0), min_size=2, max_size=2))
    return section


configs = st.fixed_dictionaries(
    {
        "plant": plants,
        "disturbance": disturbances,
        "reference": references,
        "controller": controllers,
        "simulation": simulations(),
    },
    optional={"seed": st.integers(0, 1000), "name": st.text("abc-", min_size=1, max_size=8)},
)


def d_true_column(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    return [float(row["d_true"]) for row in rows]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(raw=configs)
def test_generated_configs_round_trip_respect_bounds_and_write_strict_json(raw):
    cfg = config_from_dict(raw)
    assert config_from_dict(cfg.to_dict()) == cfg
    # the config's gate accepts its own normalized fields
    assert replace(cfg) == cfg
    bound = build_experiment(cfg).dist.bound

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        path = out / "config.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) in (0, 3)
        assert main(["compare", "--config", str(path), "--out-dir", str(out)]) in (0, 3)

        strict_json(out / "metrics.json")
        strict_json(out / "compare_metrics.json")
        for name in ("trajectory.csv", "baseline.csv", "compensated.csv"):
            assert all(abs(d) <= bound for d in d_true_column(out / name)), name
