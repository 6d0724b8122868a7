import copy
import inspect
import json
import math
import os
import pickle
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from neurofl import config
from neurofl.cli import _json_value, _metrics_dict, csv_header, main, resolve_out_dir, sse_ratio, write_trajectory_csv
from neurofl.config import ExperimentConfig, ExperimentSetup, build_experiment, config_from_dict, load_config
from neurofl.errors import ConfigError
from neurofl.rbf import RbfNetwork
from neurofl.simulation import Metrics, Trajectory, run_closed_loop

GOLDEN = Path(__file__).parent / "golden"


def minimal_config(**overrides):
    cfg = {"plant": {"name": "pendulum"}}
    cfg.update(overrides)
    return cfg


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


NOISE = {"kind": "band-limited-noise", "amplitude": 0.1, "cutoff_hz": 5.0}

# One row per value rule: the dotted key its message begins with, the one
# function that raises it (module.Class for a constructor's check), and the
# sections that break it. Config checks only the JSON's shape and names the
# key of a library ValueError.
VALUE_RULES = [
    ("controller.lambda", "dynamics.GainVector", {"controller": {"lambda": 0.0}}),
    # an enum, checked by the config's gate like plant.name
    ("controller.mode", "config._enum", {"controller": {"mode": "adaptive"}}),
    ("controller.u_limit", "controller.ControllerState", {"controller": {"u_limit": -1.0}}),
    ("controller.network.eta", "rbf.RbfNetwork", {"controller": {"network": {"eta": 0.0}}}),
    ("controller.network.kappa", "rbf.RbfNetwork", {"controller": {"network": {"kappa": -0.5}}}),
    ("controller.network.weight_cap", "rbf.RbfNetwork", {"controller": {"network": {"weight_cap": 0.0}}}),
    ("controller.network.neurons", "rbf.default_network", {"controller": {"network": {"neurons": 0}}}),
    ("controller.network.s_range", "rbf.default_network", {"controller": {"network": {"s_range": -1.0}}}),
    ("simulation.T", "simulation._control_steps", {"simulation": {"T": 0.0}}),
    ("simulation.dt_ctrl", "simulation._control_steps", {"simulation": {"dt_ctrl": -1e-3}}),
    ("simulation.substeps", "simulation._control_steps", {"simulation": {"substeps": 0}}),
    ("simulation.x0", "simulation._initial_state", {"simulation": {"x0": [0.1]}}),
    ("simulation.x0", "simulation._initial_state", {"simulation": {"x0": [2e9, 0.0]}}),
    ("disturbance.offset", "plants.DisturbanceSpec", {"disturbance": {"kind": "constant", "offset": 1, "bound": 0.5}}),
    (
        "disturbance.amplitude",
        "plants.DisturbanceSpec",
        {"disturbance": {"kind": "sinusoid", "amplitude": 1.0, "frequency_hz": 1.0, "bound": 0.5}},
    ),
    ("disturbance.cutoff_hz", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "cutoff_hz": 0}}),
    ("disturbance.amplitude", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "amplitude": -0.1}}),
    ("disturbance.sample_dt", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "sample_dt": 0}}),
    ("disturbance.bound", "plants.DisturbanceSpec", {"disturbance": {"kind": "constant", "offset": 0.0, "bound": -1.0}}),
    ("reference.omega", "simulation._sinusoid_terms", {"reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 1e200}}),
    (
        "reference.components",
        "simulation._sinusoid_terms",
        {"reference": {"kind": "sum-of-sinusoids", "components": [{"amplitude": 1.0, "omega": 1e200}]}},
    ),
    # a JSON integer has no size limit, and this one is beyond the float range
    ("controller.lambda", "config._number", {"controller": {"lambda": 10**400}}),
    ("plant.params.m", "plants.pendulum_plant", {"plant": {"name": "pendulum", "params": {"m": 0.0}}}),
    ("plant.params.l", "plants.pendulum_plant", {"plant": {"name": "pendulum", "params": {"l": -1.0}}}),
    ("plant.params.c", "plants.pendulum_plant", {"plant": {"name": "pendulum", "params": {"c": -0.1}}}),
    ("plant.params.g", "plants.pendulum_plant", {"plant": {"name": "pendulum", "params": {"g": -9.81}}}),
    # m*l^2 beyond the float range: 1/(m*l^2) is 0, and the guard with it
    ("plant.params.m", "plants.pendulum_plant", {"plant": {"name": "pendulum", "params": {"m": 1e300, "l": 1e300}}}),
    # m*l^2 underflows to 0: 1/(m*l^2) would divide by zero
    ("plant.params.m", "plants.pendulum_plant", {"plant": {"name": "pendulum", "params": {"m": 1e-200, "l": 1e-100}}}),
    ("plant.params.gain", "plants._gain_guard", {"plant": {"name": "duffing", "params": {"gain": 0.0}}}),
    ("plant.params.gain", "plants._gain_guard", {"plant": {"name": "vanderpol", "params": {"gain": 0.0}}}),
    # |gain|/2 underflows to 0
    ("plant.params.gain", "plants._gain_guard", {"plant": {"name": "duffing", "params": {"gain": 5e-324}}}),
    # lambda^2 underflows to 0, so the gains are not Hurwitz
    ("controller.lambda", "dynamics.GainVector", {"controller": {"lambda": 1e-200}}),
    # the noise's seed is its own or, when it gives none, the root seed
    ("disturbance.seed", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "seed": -3}}),
    ("seed", "plants.DisturbanceSpec", {"seed": -1, "disturbance": NOISE}),
    # no control interval fits in T, and T/dt_ctrl beyond the float range
    ("simulation.T", "simulation._control_steps", {"simulation": {"T": 1.0, "dt_ctrl": 1e12}}),
    ("simulation.T", "simulation._control_steps", {"simulation": {"T": 1e300, "dt_ctrl": 1e-300}}),
    ("reference.omega", "simulation.ReferenceSpec", {"reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 0.0}}),
    (
        "reference.components[1].omega",
        "simulation.ReferenceSpec",
        {
            "reference": {
                "kind": "sum-of-sinusoids",
                "components": [{"amplitude": 1.0, "omega": 1.0}, {"amplitude": 1.0, "omega": -2.0}],
            }
        },
    ),
    # 2*pi*frequency_hz*t overflows from t = 2.9 on, inside the horizon
    (
        "disturbance.frequency_hz",
        "plants._check_sinusoid_angle",
        {
            "disturbance": {"kind": "sinusoid", "amplitude": 0.1, "frequency_hz": 1e307, "bound": 0.5},
            "simulation": {"T": 10.0, "dt_ctrl": 0.01},
        },
    ),
    # numpy's linspace failed with "Maximum allowed size exceeded", naming no key
    ("controller.network.neurons", "rbf.default_network", {"controller": {"network": {"neurons": 10**400}}}),
    # 1e300 noise samples: numpy failed with "Maximum allowed dimension exceeded"
    (
        "disturbance.sample_dt",
        "plants._noise_sample_count",
        {"disturbance": {**NOISE, "sample_dt": 1e-300}, "simulation": {"T": 1.0, "dt_ctrl": 0.01}},
    ),
    # the drive's range 2*amplitude overflows: numpy raised a bare OverflowError
    ("disturbance.amplitude", "plants.DisturbanceSpec", {"disturbance": {**NOISE, "amplitude": 1e308, "bound": 1e308}}),
]

# Where each ExperimentConfig field sits in the JSON.
FIELD_KEYS = {
    "plant_name": ("plant", "name"),
    "plant_params": ("plant", "params"),
    "disturbance": ("disturbance",),
    "reference": ("reference",),
    "mode": ("controller", "mode"),
    "lam": ("controller", "lambda"),
    "u_limit": ("controller", "u_limit"),
    "network": ("controller", "network"),
    "T": ("simulation", "T"),
    "dt_ctrl": ("simulation", "dt_ctrl"),
    "substeps": ("simulation", "substeps"),
    "x0": ("simulation", "x0"),
    "seed": ("seed",),
    "out_dir": ("output", "dir"),
    "name": ("name",),
}

SUM = "sum-of-sinusoids"

# One row per shape rule the config holds: the dotted key its message begins
# with, and a field value that breaks it.
SHAPE_RULES = [
    ("plant.name", "plant_name", "rocket"),
    ("plant.name", "plant_name", ["pendulum"]),
    ("controller.mode", "mode", "adaptive"),
    ("disturbance.kind", "disturbance", {"kind": "steps"}),
    ("disturbance.kind", "disturbance", {"kind": ["none"]}),
    ("reference.kind", "reference", {"kind": "ramp"}),
    ("plant.params", "plant_params", {"mass": 2.0}),
    ("disturbance", "disturbance", {"kind": "constant", "offset": 0.1, "ofset": 0.1}),
    ("reference", "reference", {"kind": "constant", "levle": 1.0}),
    ("controller.network", "network", {"eta": 1.0, "neuron": 3}),
    ("reference.components[0]", "reference", {"kind": SUM, "components": [{"amplitude": 1.0, "omga": 1.0}]}),
    ("disturbance.offset", "disturbance", {"kind": "constant"}),
    ("disturbance.frequency_hz", "disturbance", {"kind": "sinusoid", "amplitude": 0.1}),
    ("reference.omega", "reference", {"kind": "sinusoid", "amplitude": 1.0}),
    ("simulation.substeps", "substeps", 2.5),
    ("controller.network.neurons", "network", {"neurons": 3.0}),
    ("seed", "seed", 1.5),
    ("disturbance.seed", "disturbance", {**NOISE, "seed": True}),
    ("controller.lambda", "lam", "2"),
    ("controller.u_limit", "u_limit", True),
    ("simulation.T", "T", math.inf),
    ("simulation.dt_ctrl", "dt_ctrl", math.nan),
    ("plant.params.m", "plant_params", {"m": "1"}),
    ("disturbance.offset", "disturbance", {"kind": "constant", "offset": None}),
    ("reference.level", "reference", {"kind": "constant", "level": -math.inf}),
    ("controller.network.eta", "network", {"eta": "5"}),
    ("reference.omega", "reference", {"kind": "sinusoid", "amplitude": 1.0, "omega": "2"}),
    ("simulation.x0", "x0", "0, 0"),
    ("simulation.x0[1]", "x0", [0.0, "0"]),
    ("name", "name", 3),
    ("output.dir", "out_dir", ["out"]),
    # "" would leave the directory to NEUROFL_OUT_DIR or the working directory
    ("output.dir", "out_dir", ""),
    ("plant.params", "plant_params", [1.0]),
    ("disturbance", "disturbance", "none"),
    ("reference", "reference", 0.0),
    ("controller.network", "network", [9]),
    ("reference.components", "reference", {"kind": SUM, "components": []}),
    ("reference.components[0]", "reference", {"kind": SUM, "components": [1.0]}),
    ("reference.components", "reference", {"kind": SUM}),
    ("reference.components[0]", "reference", {"kind": SUM, "components": [None]}),
]


def strict_json(path: Path):
    """The file parsed as strict JSON: NaN, Infinity and -Infinity are errors."""

    def reject(name):
        raise ValueError(f"{path.name}: {name} is not strict JSON")

    return json.loads(path.read_text(encoding="utf-8"), parse_constant=reject)


def raised_in(exc: BaseException) -> str:
    """module.function where exc was raised, or module.Class for a check in
    a dataclass's __post_init__."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    code = tb.tb_frame.f_code
    name = code.co_name
    if name == "__post_init__":
        name = type(tb.tb_frame.f_locals["self"]).__name__
    return f"{Path(code.co_filename).stem}.{name}"


@pytest.mark.parametrize("mode", ["baseline", "compensated"])
@pytest.mark.parametrize(
    "key, home, sections", VALUE_RULES, ids=[f"{i}-{key}" for i, (key, _, _) in enumerate(VALUE_RULES)]
)
def test_value_rule_has_one_home_and_names_its_key(key, home, sections, mode):
    raw = minimal_config(**copy.deepcopy(sections))
    raw.setdefault("controller", {}).setdefault("mode", mode)
    with pytest.raises(ConfigError) as exc:
        config_from_dict(raw)
    assert str(exc.value).startswith(f"{key}: "), str(exc.value)
    # a library rule reaches config as the cause of the ConfigError
    assert raised_in(exc.value.__cause__ or exc.value) == home
    # assembly shares what it built before, never a failed build
    with pytest.raises(ConfigError) as again:
        config_from_dict(raw)
    assert str(again.value) == str(exc.value)


@pytest.mark.parametrize(
    "key, name, value", SHAPE_RULES, ids=[f"{i}-{key}" for i, (key, _, _) in enumerate(SHAPE_RULES)]
)
def test_shape_rule_gives_one_error_by_every_route(key, name, value):
    base = config_from_dict(minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}))
    raw = base.to_dict()
    *sections, last = FIELD_KEYS[name]
    section = raw
    for part in sections:
        section = section.setdefault(part, {})
    section[last] = copy.deepcopy(value)
    given = {f.name: getattr(base, f.name) for f in fields(base) if f.init}
    routes = {
        "config_from_dict": lambda: config_from_dict(raw),
        "replace": lambda: replace(base, **{name: copy.deepcopy(value)}),
        "ExperimentConfig": lambda: ExperimentConfig(**{**given, name: copy.deepcopy(value)}),
    }
    messages = {}
    for route, build in routes.items():
        with pytest.raises(ConfigError) as exc:
            build()
        messages[route] = str(exc.value)
    assert messages["config_from_dict"].startswith(f"{key}: "), messages
    assert len(set(messages.values())) == 1, messages


def test_config_keeps_no_reference_to_a_callers_dict():
    base = config_from_dict(minimal_config(controller={"mode": "compensated"}, simulation={"T": 0.1, "dt_ctrl": 0.01}))
    params, network, comps = {"m": 2.0}, {"eta": 3.0}, [{"amplitude": 0.5, "omega": 2.0}]
    dist = {"kind": "constant", "offset": 0.1, "bound": 0.5}
    given = {
        "plant_params": params,
        "disturbance": dist,
        "network": network,
        "reference": {"kind": SUM, "components": comps},
    }
    cfg = replace(base, **given)
    written = cfg.to_dict()
    params["m"], dist["offset"], network["eta"], comps[0]["omega"] = 5.0, 0.4, 9.0, 7.0
    assert cfg.to_dict() == written
    # nor does an edit of what to_dict returns
    cfg.to_dict()["reference"]["components"][0]["omega"] = 7.0
    assert cfg.to_dict() == written
    setup = build_experiment(cfg)
    assert setup.truth.params["m"] == 2.0 and setup.dist.offset == 0.1
    assert setup.ctrl.network.learning_rate == 3.0 and setup.ref.components[0][1] == 2.0
    # the edited dicts describe another experiment
    assert replace(base, **given) != cfg


def test_stored_sections_are_read_only():
    cfg = load_config(GOLDEN / "golden_config.json")
    written = cfg.to_dict()
    components = replace(cfg, reference={"kind": SUM, "components": [{"amplitude": 0.5, "omega": 2.0}]})
    edits = [
        lambda: cfg.disturbance.__setitem__("offset", 0.4),
        lambda: cfg.network.__setitem__("eta", 99.0),
        lambda: cfg.plant_params.update(m=2.0),
        lambda: cfg.reference.pop("phase"),
        lambda: cfg.network.setdefault("weight_cap", 1.0),
        lambda: cfg.plant_params.clear(),
        lambda: cfg.disturbance.__delitem__("offset"),
        lambda: cfg.network.popitem(),
        lambda: cfg.reference.__ior__({"omega": 3.0}),
        lambda: components.reference["components"][0].__setitem__("omega", 7.0),
        lambda: components.reference["components"].append({"amplitude": 1.0, "omega": 1.0}),
    ]
    for edit in edits:
        with pytest.raises((TypeError, AttributeError)):
            edit()
    # what the config reports is what its setup runs
    assert cfg.to_dict() == written
    setup = build_experiment(cfg)
    assert setup.dist.offset == written["disturbance"]["offset"] == 0.3
    assert setup.ctrl.network.learning_rate == written["controller"]["network"]["eta"] == 8.0
    # equality, to_dict, replace, copies and pickles work as on plain dicts
    assert cfg.disturbance == {"kind": "constant", "offset": 0.3}
    assert config_from_dict(written) == cfg
    assert copy.deepcopy(cfg) == cfg and pickle.loads(pickle.dumps(cfg)) == cfg
    assert type(written["disturbance"]) is dict and type(components.to_dict()["reference"]["components"]) is list
    changed = replace(cfg, disturbance={**cfg.disturbance, "offset": 0.4})
    assert build_experiment(changed).dist.offset == 0.4 and cfg.disturbance["offset"] == 0.3


def test_equal_configs_hash_alike():
    cfg = load_config(GOLDEN / "golden_config.json")
    assert hash(replace(cfg)) == hash(cfg)
    assert len({cfg, replace(cfg)}) == 1
    # a section's hash ignores its key order, as its equality does
    network = config._Section(reversed(list(cfg.network.items())))
    assert list(network) != list(cfg.network) and network == cfg.network and hash(network) == hash(cfg.network)


def test_field_keys_are_the_declared_keys():
    declared = {f.name: tuple(f.metadata["key"].split(".")) for f in fields(ExperimentConfig) if f.init}
    assert declared == FIELD_KEYS


def test_setup_fields_are_the_run_parameters():
    # the CLI and the benchmark run a setup as run_closed_loop(**vars(setup))
    run = list(inspect.signature(run_closed_loop).parameters)
    assert run[-1] == "record_weights"
    assert list(inspect.signature(ExperimentSetup).parameters) == run[:-1]
    setup = build_experiment(config_from_dict(minimal_config(controller={"mode": "compensated"})))
    assert list(vars(setup)) == run[:-1]


def test_config_root_must_be_an_object():
    for raw in ([minimal_config()], "pendulum", None, 1.0):
        with pytest.raises(ConfigError, match=r"^config root: must be an object$"):
            config_from_dict(raw)


def test_library_and_json_routes_share_the_defaults():
    assert ExperimentConfig(plant_name="pendulum") == config_from_dict(minimal_config())


def test_readme_schema_is_the_minimal_config():
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```jsonc\n(.*?)```", readme, re.DOTALL).group(1)
    raw = json.loads(re.sub(r"//.*", "", block))
    cfg = config_from_dict(raw)
    assert cfg == config_from_dict(minimal_config()) == ExperimentConfig(plant_name="pendulum")


REQUIRED, UNSTORED = "required", "unstored"
PENDULUM = {"name": "pendulum"}

# Each section whose keys are a builder's parameters: its dotted key, the
# config that holds a given section there, and every key with a valid value,
# the value stored for it (a float parameter given as a JSON integer is
# stored as a float), and what the section stores when the key is absent: a
# default, REQUIRED, or UNSTORED for nothing.
BUILDER_SECTIONS = {
    "pendulum": (
        "plant.params",
        lambda s: {"plant": {**PENDULUM, "params": s}},
        {"m": (2, 2.0, 1.0), "l": (2, 2.0, 1.0), "c": (1, 1.0, 0.0), "g": (10, 10.0, 9.81)},
    ),
    "duffing": (
        "plant.params",
        lambda s: {"plant": {"name": "duffing", "params": s}},
        {"a": (1, 1.0, 0.2), "b1": (2, 2.0, 1.0), "b2": (3, 3.0, 1.0), "gain": (2, 2.0, 1.0)},
    ),
    "vanderpol": (
        "plant.params",
        lambda s: {"plant": {"name": "vanderpol", "params": s}},
        {"mu": (2, 2.0, 1.0), "gain": (2, 2.0, 1.0)},
    ),
    "network": (
        "controller.network",
        lambda s: {"plant": PENDULUM, "controller": {"mode": "compensated", "network": s}},
        {
            "neurons": (5, 5, 9),
            "s_range": (2, 2.0, 1.0),
            "eta": (3, 3.0, 5.0),
            "kappa": (1, 1.0, 0.0),
            "weight_cap": (4, 4.0, UNSTORED),
        },
    ),
    "constant disturbance": (
        "disturbance",
        lambda s: {"plant": PENDULUM, "disturbance": {"kind": "constant", **s}},
        {"offset": (1, 1.0, REQUIRED), "bound": (2, 2.0, UNSTORED)},
    ),
    "sinusoid disturbance": (
        "disturbance",
        lambda s: {"plant": PENDULUM, "disturbance": {"kind": "sinusoid", **s}},
        {
            "amplitude": (1, 1.0, REQUIRED),
            "frequency_hz": (2, 2.0, REQUIRED),
            "phase": (1, 1.0, UNSTORED),
            "bound": (2, 2.0, UNSTORED),
        },
    ),
    # the noise's seed and sample_dt follow the root seed and dt_ctrl unless given
    "noise disturbance": (
        "disturbance",
        lambda s: {"plant": PENDULUM, "disturbance": {"kind": "band-limited-noise", **s}},
        {
            "amplitude": (1, 1.0, REQUIRED),
            "cutoff_hz": (5, 5.0, REQUIRED),
            "seed": (3, 3, UNSTORED),
            "sample_dt": (1, 1.0, UNSTORED),
            "bound": (2, 2.0, UNSTORED),
        },
    ),
    "constant reference": (
        "reference",
        lambda s: {"plant": PENDULUM, "reference": {"kind": "constant", **s}},
        {"level": (2, 2.0, 0.0)},
    ),
    "sinusoid reference": (
        "reference",
        lambda s: {"plant": PENDULUM, "reference": {"kind": "sinusoid", **s}},
        {"amplitude": (1, 1.0, REQUIRED), "omega": (2, 2.0, REQUIRED), "phase": (1, 1.0, 0.0)},
    ),
    "sum component": (
        "reference.components[0]",
        lambda s: {"plant": PENDULUM, "reference": {"kind": SUM, "components": [s]}},
        {"amplitude": (1, 1.0, REQUIRED), "omega": (2, 2.0, REQUIRED), "phase": (1, 1.0, 0.0)},
    ),
}


def section_at(cfg: dict, where: str):
    """The value at a dotted key such as reference.components[0]."""
    for part in where.split("."):
        name, _, index = part.partition("[")
        cfg = cfg[name]
        if index:
            cfg = cfg[int(index[:-1])]
    return cfg


@pytest.mark.parametrize(
    "section, key",
    [(section, key) for section, (_, _, keys) in BUILDER_SECTIONS.items() for key in keys],
    ids=lambda v: v.replace(" ", "-"),
)
def test_builder_keys_are_checked_by_their_annotation(section, key):
    where, place, keys = BUILDER_SECTIONS[section]
    full = {k: given for k, (given, _, _) in keys.items()}
    _, stored, absent = keys[key]
    value = section_at(config_from_dict(place(full)).to_dict(), where)[key]
    assert value == stored and type(value) is type(stored)
    # an int parameter takes a JSON integer, any other parameter a number
    wrong, rule = ((2.5, True), "must be an integer") if type(stored) is int else (("2", True), "must be a number")
    for bad in wrong:
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}\.{key}: {rule}$"):
            config_from_dict(place({**full, key: bad}))
    rest = {k: v for k, v in full.items() if k != key}
    if absent == REQUIRED:
        with pytest.raises(ConfigError, match=rf"^{re.escape(where)}\.{key}: required key is missing$"):
            config_from_dict(place(rest))
        return
    given = section_at(config_from_dict(place(rest)).to_dict(), where)
    if absent == UNSTORED:
        assert key not in given
    else:
        assert given[key] == absent and type(given[key]) is type(absent)


# json.dumps(to_dict()) of one config per plant, disturbance kind and
# reference kind, frozen: the key order and every stored default
FROZEN_TO_DICT = [
    (
        minimal_config(),
        '{"name": "experiment", "seed": 0, "plant": {"name": "pendulum", "params": {"m": 1.0, "l": 1.0, "c": 0.0, '
        '"g": 9.81}}, "disturbance": {"kind": "none"}, "reference": {"kind": "constant", "level": 0.0}, '
        '"controller": {"mode": "baseline", "lambda": 1.0, "network": {"neurons": 9, "s_range": 1.0, "eta": 5.0, '
        '"kappa": 0.0}}, "simulation": {"T": 10.0, "dt_ctrl": 0.001, "substeps": 1}}',
    ),
    (
        {
            "plant": {"name": "duffing", "params": {"gain": 2, "a": 0.1}},
            "disturbance": {"sample_dt": 0.002, "amplitude": 0.1, "cutoff_hz": 5, "kind": "band-limited-noise"},
            "reference": {
                "kind": SUM,
                "components": [{"omega": 1, "amplitude": 0.5}, {"phase": 0.2, "amplitude": 0.1, "omega": 3.0}],
            },
            "controller": {"network": {"weight_cap": 3, "eta": 2, "neurons": 5}, "mode": "compensated", "u_limit": 50},
        },
        '{"name": "experiment", "seed": 0, "plant": {"name": "duffing", "params": {"a": 0.1, "b1": 1.0, "b2": 1.0, '
        '"gain": 2.0}}, "disturbance": {"kind": "band-limited-noise", "amplitude": 0.1, "cutoff_hz": 5.0, '
        '"sample_dt": 0.002}, "reference": {"kind": "sum-of-sinusoids", "components": [{"amplitude": 0.5, '
        '"omega": 1.0, "phase": 0.0}, {"amplitude": 0.1, "omega": 3.0, "phase": 0.2}]}, "controller": {"mode": '
        '"compensated", "lambda": 1.0, "network": {"neurons": 5, "s_range": 1.0, "eta": 2.0, "kappa": 0.0, '
        '"weight_cap": 3.0}, "u_limit": 50.0}, "simulation": {"T": 10.0, "dt_ctrl": 0.001, "substeps": 1}}',
    ),
    (
        {
            "name": "x",
            "seed": 7,
            "plant": {"name": "vanderpol"},
            "disturbance": {"kind": "sinusoid", "frequency_hz": 1, "amplitude": 0.2, "bound": 0.5},
            "reference": {"kind": "sinusoid", "omega": 2.0, "amplitude": 1},
            "output": {"dir": "o"},
        },
        '{"name": "x", "seed": 7, "plant": {"name": "vanderpol", "params": {"mu": 1.0, "gain": 1.0}}, '
        '"disturbance": {"kind": "sinusoid", "amplitude": 0.2, "frequency_hz": 1.0, "bound": 0.5}, "reference": '
        '{"kind": "sinusoid", "amplitude": 1.0, "omega": 2.0, "phase": 0.0}, "controller": {"mode": "baseline", '
        '"lambda": 1.0, "network": {"neurons": 9, "s_range": 1.0, "eta": 5.0, "kappa": 0.0}}, "simulation": '
        '{"T": 10.0, "dt_ctrl": 0.001, "substeps": 1}, "output": {"dir": "o"}}',
    ),
    (
        {
            "plant": {"name": "pendulum", "params": None},
            "disturbance": {"bound": 1, "offset": 0.5, "kind": "constant"},
            "reference": {"level": 2, "kind": "constant"},
            "simulation": {"x0": [1, 2], "T": 1, "dt_ctrl": 0.01, "substeps": 2},
        },
        '{"name": "experiment", "seed": 0, "plant": {"name": "pendulum", "params": {"m": 1.0, "l": 1.0, "c": 0.0, '
        '"g": 9.81}}, "disturbance": {"kind": "constant", "offset": 0.5, "bound": 1.0}, "reference": {"kind": '
        '"constant", "level": 2.0}, "controller": {"mode": "baseline", "lambda": 1.0, "network": {"neurons": 9, '
        '"s_range": 1.0, "eta": 5.0, "kappa": 0.0}}, "simulation": {"T": 1.0, "dt_ctrl": 0.01, "substeps": 2, '
        '"x0": [1.0, 2.0]}}',
    ),
    (
        minimal_config(disturbance={"seed": 3, "kind": "band-limited-noise", "amplitude": 0.1, "cutoff_hz": 5, "bound": 0.2}),
        '{"name": "experiment", "seed": 0, "plant": {"name": "pendulum", "params": {"m": 1.0, "l": 1.0, "c": 0.0, '
        '"g": 9.81}}, "disturbance": {"kind": "band-limited-noise", "amplitude": 0.1, "cutoff_hz": 5.0, "seed": 3, '
        '"bound": 0.2}, "reference": {"kind": "constant", "level": 0.0}, "controller": {"mode": "baseline", '
        '"lambda": 1.0, "network": {"neurons": 9, "s_range": 1.0, "eta": 5.0, "kappa": 0.0}}, "simulation": '
        '{"T": 10.0, "dt_ctrl": 0.001, "substeps": 1}}',
    ),
]


@pytest.mark.parametrize("raw, frozen", FROZEN_TO_DICT, ids=range(len(FROZEN_TO_DICT)))
def test_to_dict_is_frozen(raw, frozen):
    cfg = config_from_dict(raw)
    assert json.dumps(cfg.to_dict()) == frozen
    # and what it writes loads back to the same config
    assert config_from_dict(json.loads(frozen)) == cfg


class TestConfigValidation:
    def test_minimal_config_gets_defaults(self):
        cfg = config_from_dict(minimal_config())
        assert cfg.plant_name == "pendulum"
        assert cfg.plant_params == {"m": 1.0, "l": 1.0, "c": 0.0, "g": 9.81}
        assert cfg.disturbance == {"kind": "none"}
        assert cfg.reference == {"kind": "constant", "level": 0.0}
        assert cfg.mode == "baseline"
        assert cfg.lam == 1.0
        assert cfg.T == 10.0 and cfg.dt_ctrl == 1e-3 and cfg.substeps == 1
        assert cfg.x0 is None and cfg.seed == 0

    def test_negative_lambda_names_key_and_constraint(self):
        with pytest.raises(ConfigError, match=r"lambda.*must be > 0"):
            config_from_dict(minimal_config(controller={"lambda": -1.0}))

    def test_lambda_beyond_float_range_names_key(self):
        with pytest.raises(ConfigError, match=r"controller\.lambda: lambda=1e\+200 gives order-2 gains"):
            config_from_dict(minimal_config(controller={"lambda": 1e200}))
        # the gains of 1e150 are finite, and checking them warns of no overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert config_from_dict(minimal_config(controller={"lambda": 1e150})).lam == 1e150

    def test_unknown_key_suggests_neighbour(self):
        with pytest.raises(ConfigError, match=r"unknown key 'lamda'.*did you mean 'lambda'"):
            config_from_dict(minimal_config(controller={"lamda": 2.0}))

    def test_unknown_root_key(self):
        with pytest.raises(ConfigError, match=r"unknown key 'plnt'.*did you mean 'plant'"):
            config_from_dict({"plnt": {"name": "pendulum"}, "plant": {"name": "pendulum"}})

    def test_unknown_plant(self):
        with pytest.raises(ConfigError, match=r"plant\.name"):
            config_from_dict({"plant": {"name": "rocket"}})

    def test_unknown_plant_param(self):
        with pytest.raises(ConfigError, match=r"unknown key 'mass'"):
            config_from_dict({"plant": {"name": "pendulum", "params": {"mass": 2.0}}})

    def test_bad_plant_param_value(self):
        with pytest.raises(ConfigError, match=r"^plant\.params\.m: must be > 0$"):
            config_from_dict({"plant": {"name": "pendulum", "params": {"m": -1.0}}})

    def test_missing_plant_section(self):
        with pytest.raises(ConfigError, match=r"plant.*missing"):
            config_from_dict({})

    def test_bad_disturbance_kind(self):
        with pytest.raises(ConfigError, match="disturbance.kind"):
            config_from_dict(minimal_config(disturbance={"kind": "steps"}))

    def test_sinusoid_disturbance_requires_frequency(self):
        with pytest.raises(ConfigError, match="frequency_hz"):
            config_from_dict(minimal_config(disturbance={"kind": "sinusoid", "amplitude": 1.0}))

    def test_x0_length_checked(self):
        with pytest.raises(ConfigError, match="x0"):
            config_from_dict(minimal_config(simulation={"x0": [0.1]}))

    def test_network_validation(self):
        with pytest.raises(ConfigError, match=r"neurons"):
            config_from_dict(
                minimal_config(controller={"mode": "compensated", "network": {"neurons": 0}})
            )
        with pytest.raises(ConfigError, match=r"eta.*must be > 0"):
            config_from_dict(
                minimal_config(controller={"mode": "compensated", "network": {"eta": -2.0}})
            )

    def test_leakage_step_must_decay(self):
        # kappa 1e4 at dt_ctrl 1e-3 grew the weights to inf; 2000 does not
        # decay either. Compare runs both modes, so both are checked.
        for kappa in (1e4, 2000.0):
            for mode in ("baseline", "compensated"):
                raw = minimal_config(
                    controller={"mode": mode, "lambda": 2.0, "network": {"kappa": kappa}},
                    simulation={"T": 1.0, "dt_ctrl": 1e-3, "x0": [0.5, 0.0]},
                )
                with pytest.raises(ConfigError, match=r"controller\.network\.kappa: dt_ctrl\*kappa must be < 2"):
                    config_from_dict(raw)
        raw["controller"]["network"]["kappa"] = 1500.0
        assert config_from_dict(raw).network["kappa"] == 1500.0

    def test_controller_holds_the_network_only_in_compensated_mode(self):
        # the network is built, and so checked, in both modes: compare runs both
        for mode, attached in (("baseline", False), ("compensated", True)):
            setup = build_experiment(config_from_dict(minimal_config(controller={"mode": mode})))
            assert (setup.ctrl.network is not None) is attached

    def test_dt_and_T_validation(self):
        with pytest.raises(ConfigError, match=r"dt_ctrl.*must be > 0"):
            config_from_dict(minimal_config(simulation={"dt_ctrl": 0.0}))
        with pytest.raises(ConfigError, match=r"T.*must be > 0"):
            config_from_dict(minimal_config(simulation={"T": -1.0}))
        with pytest.raises(ConfigError, match=r"substeps"):
            config_from_dict(minimal_config(simulation={"substeps": 0}))

    def test_T_must_be_whole_number_of_dt_ctrl(self):
        # T = 1.0 at dt_ctrl = 0.3 would end the run at t = 0.9
        with pytest.raises(ConfigError, match=r"simulation\.T: must be a whole number of dt_ctrl"):
            config_from_dict(minimal_config(simulation={"T": 1.0, "dt_ctrl": 0.3}))
        with pytest.raises(ConfigError, match=r"simulation\.T"):
            config_from_dict(minimal_config(simulation={"T": 0.5, "dt_ctrl": 1.0}))
        # quotients off an integer by rounding only pass: 0.08/1e-3 = 80.00000000000001
        for T, dt in ((0.08, 1e-3), (0.3, 1e-2), (2.0, 0.01), (1.0, 0.1), (0.9, 0.3)):
            assert config_from_dict(minimal_config(simulation={"T": T, "dt_ctrl": dt})).T == T

    def test_x0_beyond_divergence_limit_rejected(self):
        with pytest.raises(ConfigError, match=r"simulation\.x0: entries must not exceed 1e\+09"):
            config_from_dict(minimal_config(simulation={"x0": [1e307, 1e307]}))
        with pytest.raises(ConfigError, match=r"simulation\.x0"):
            config_from_dict(minimal_config(simulation={"x0": [0.0, -1.5e9]}))
        assert config_from_dict(minimal_config(simulation={"x0": [1e9, -1e9]})).x0 == (1e9, -1e9)

    def test_integer_beyond_float_range_names_key(self, tmp_path):
        # float() of a 401-digit JSON integer raises OverflowError
        huge = 10**400
        cases = (
            ("controller.lambda", {"controller": {"lambda": huge}}),
            ("plant.params.m", {"plant": {"name": "pendulum", "params": {"m": huge}}}),
            ("simulation.x0[1]", {"simulation": {"x0": [0.0, -huge]}}),
        )
        for key, sections in cases:
            path = write_config(tmp_path, minimal_config(**sections))
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: integer is beyond the float range$"):
                load_config(path)
            assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_seed_must_be_integer(self):
        with pytest.raises(ConfigError, match="seed"):
            config_from_dict(minimal_config(seed=1.5))

    def test_round_trip(self):
        raw = {
            "name": "roundtrip",
            "seed": 3,
            "plant": {"name": "duffing", "params": {"a": 0.3}},
            "disturbance": {"kind": "sinusoid", "amplitude": 0.5, "frequency_hz": 1.0, "phase": 0.1},
            "reference": {"kind": "sinusoid", "amplitude": 1.0, "omega": 2.0, "phase": 0.0},
            "controller": {
                "mode": "compensated",
                "lambda": 3.0,
                "u_limit": 20.0,
                "network": {"neurons": 7, "s_range": 2.0, "eta": 10.0, "kappa": 0.1},
            },
            "simulation": {"T": 5.0, "dt_ctrl": 0.01, "substeps": 2, "x0": [0.1, 0.2]},
            "output": {"dir": "somewhere"},
        }
        cfg = config_from_dict(raw)
        assert config_from_dict(cfg.to_dict()) == cfg

    def test_load_config_reports_parse_position(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"plant": }', encoding="utf-8")
        with pytest.raises(ConfigError, match=r"line 1 column 11"):
            load_config(path)

    def test_repeated_key_names_its_dotted_key(self, tmp_path):
        # a plain dict would keep the last value, lambda = 5.0, silently
        cases = (
            ("controller.lambda", '{"plant": {"name": "pendulum"}, "controller": {"lambda": 1, "lambda": 5}}'),
            ("seed", '{"seed": 1, "plant": {"name": "pendulum"}, "seed": 2}'),
            (
                "reference.components[1].omega",
                '{"plant": {"name": "pendulum"}, "reference": {"kind": "sum-of-sinusoids", "components": '
                '[{"amplitude": 1, "omega": 1}, {"amplitude": 1, "omega": 2, "omega": 3}]}}',
            ),
        )
        for key, text in cases:
            path = tmp_path / "repeated.json"
            path.write_text(text, encoding="utf-8")
            with pytest.raises(ConfigError, match=rf"^{re.escape(key)}: key is given more than once$"):
                load_config(path)
            assert main(["simulate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_load_config_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.json")


@pytest.fixture
def plant_builds(monkeypatch):
    """The plants built while the test runs, counted at config.PLANT_BUILDERS,
    the seam the benchmark's tracer wraps."""
    built = []

    def counted(build):
        def build_counted(*args, **kwargs):
            built.append(build)
            return build(*args, **kwargs)

        return build_counted

    monkeypatch.setattr(config, "PLANT_BUILDERS", {name: counted(b) for name, b in config.PLANT_BUILDERS.items()})
    return built


class TestAssembledOnce:
    """A config assembles its experiment when it is built, by any route."""

    def test_load_then_build_assembles_once(self, plant_builds):
        setup = build_experiment(config_from_dict(minimal_config(controller={"mode": "compensated"})))
        assert setup.ctrl.network is not None
        assert len(plant_builds) == 1

    def test_compare_assembles_once(self, tmp_path, plant_builds):
        assert main(["compare", "--config", str(GOLDEN / "golden_config.json"), "--out-dir", str(tmp_path)]) == 0
        assert len(plant_builds) == 1

    def test_compare_of_a_baseline_mode_config_assembles_at_most_twice(self, tmp_path, plant_builds):
        raw = json.loads((GOLDEN / "golden_config.json").read_text())
        raw["controller"]["mode"] = "baseline"
        path = write_config(tmp_path, raw)
        assert main(["compare", "--config", str(path), "--out-dir", str(tmp_path)]) == 0
        assert len(plant_builds) <= 2

    def test_one_build_constructs_one_network(self, monkeypatch):
        config._built.cache_clear()
        built = []
        post_init = RbfNetwork.__post_init__

        def counted(net):
            built.append(net)
            post_init(net)

        monkeypatch.setattr(RbfNetwork, "__post_init__", counted)
        raw = json.loads((GOLDEN / "golden_config.json").read_text())
        raw["controller"]["network"]["weight_cap"] = 2.0
        setup = build_experiment(config_from_dict(raw))
        assert len(built) == 1 and built[0] is setup.ctrl.network
        assert (setup.ctrl.network.leakage, setup.ctrl.network.weight_cap) == (0.01, 2.0)

    def test_configs_that_agree_share_their_network_and_gains(self):
        cfg = load_config(GOLDEN / "golden_config.json")
        ctrl = build_experiment(cfg).ctrl
        # a baseline-mode config builds the same network, which its controller leaves out
        baseline = replace(cfg, mode="baseline")
        assert build_experiment(baseline).ctrl.network is None
        others = (replace(cfg, seed=cfg.seed + 1), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg)))
        for other in (*others, replace(baseline, mode="compensated")):
            assert build_experiment(other).ctrl.network is ctrl.network
            assert build_experiment(other).ctrl.gains is ctrl.gains

    def test_kappa_zero_and_minus_zero_build_distinct_networks(self):
        nets = [
            build_experiment(
                config_from_dict(minimal_config(controller={"mode": "compensated", "network": {"kappa": kappa}}))
            ).ctrl.network
            for kappa in (0.0, -0.0)
        ]
        assert nets[0] is not nets[1]
        assert [math.copysign(1.0, net.leakage) for net in nets] == [1.0, -1.0]

    def test_replace_checks_value_rules_at_construction(self):
        cfg = config_from_dict(minimal_config())
        with pytest.raises(ConfigError, match=r"^controller\.lambda: "):
            replace(cfg, lam=-1.0)
        with pytest.raises(ConfigError, match=r"^simulation\.x0: "):
            replace(cfg, x0=(0.1,))

    def test_replaced_config_holds_its_own_setup(self):
        cfg = config_from_dict(minimal_config(controller={"lambda": 2.0}))
        assert build_experiment(replace(cfg, lam=3.0)).ctrl.gains.lam == 3.0
        assert build_experiment(cfg).ctrl.gains.lam == 2.0

    def test_pickled_and_copied_configs_run_the_same(self, tmp_path):
        cfg = config_from_dict(
            minimal_config(
                disturbance=NOISE,
                controller={"mode": "compensated", "lambda": 2.0},
                simulation={"T": 0.5, "dt_ctrl": 0.01, "x0": [0.3, 0.0]},
            )
        )
        copies = (pickle.loads(pickle.dumps(cfg)), copy.deepcopy(cfg))
        runs = []
        for i, c in enumerate((cfg, *copies)):
            assert c == cfg
            setup = build_experiment(c)
            write_trajectory_csv(run_closed_loop(**vars(setup)), tmp_path / f"{i}.csv")
            runs.append((tmp_path / f"{i}.csv").read_bytes())
        assert runs[1] == runs[0] and runs[2] == runs[0]


class TestCsvContract:
    def test_header_order(self):
        assert csv_header(2) == [
            "t", "x0", "x1", "xd0", "xd1", "u", "s", "d_hat", "d_true", "w_norm", "event",
        ]

    def test_header_scales_with_order(self):
        assert csv_header(3)[:7] == ["t", "x0", "x1", "x2", "xd0", "xd1", "xd2"]


class TestSseRatio:
    def test_zero_over_zero_reads_as_one(self):
        assert sse_ratio(0.0, 0.0) == 1.0

    def test_regular_ratio(self):
        assert sse_ratio(0.125, -0.0125) == pytest.approx(10.0)

    def test_perfect_compensation(self):
        assert sse_ratio(0.125, 0.0) == math.inf


class TestCmdSimulate:
    def test_zero_everything_writes_zero_csv(self, tmp_path):
        cfg = minimal_config(
            reference={"kind": "constant", "level": 0.0},
            simulation={"T": 0.5, "dt_ctrl": 0.01, "x0": [0.0, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 0
        lines = (out / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == ",".join(csv_header(2))
        assert len(lines) == 52  # header + floor(0.5/0.01)+1 records
        for line in lines[1:]:
            cells = line.split(",")
            assert all(float(c) == 0.0 for c in cells[1:-1])
            assert cells[-1] == ""
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["bounded"] is True
        assert metrics["rms_error"] == 0.0
        assert metrics["terminal_event"] is None and metrics["terminal_t"] is None

    def test_diverging_config_exits_with_fault(self, tmp_path, capsys):
        # receptive field wide enough to keep pumping as the state runs away
        # past the divergence limit at sample 4; the same config with a small
        # learning rate stays bounded
        cfg = minimal_config(
            plant={"name": "pendulum", "params": {"c": 0.1}},
            disturbance={"kind": "constant", "offset": 0.5},
            controller={
                "mode": "compensated",
                "lambda": 2.0,
                "network": {"neurons": 9, "s_range": 1e12, "eta": 1e8},
            },
            simulation={"T": 2.0, "dt_ctrl": 0.01, "x0": [0.5, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "diverged"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 3
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["terminal_event"] == "divergence"
        assert metrics["bounded"] is False
        # terminal_t is the t of the row that carries the event
        last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
        assert last[-1] == "divergence" and metrics["terminal_t"] == float(last[0]) == 0.04
        assert capsys.readouterr().err == "run ended early: divergence at t=0.04\n"
        assert main(["compare", "--config", str(path), "--out-dir", str(out)]) == 3
        combined = json.loads((out / "compare_metrics.json").read_text())
        assert combined["compensated"]["terminal_t"] == 0.04 and combined["baseline"]["terminal_t"] is None
        assert capsys.readouterr().err == "compensated run ended early: divergence at t=0.04\n"

        cfg["controller"]["network"]["eta"] = 5.0
        cfg["controller"]["network"]["s_range"] = 1.0
        path2 = write_config(tmp_path, cfg, "tame.json")
        assert main(["simulate", "--config", str(path2), "--out-dir", str(tmp_path / "tame")]) == 0

    @pytest.mark.parametrize(
        "sections",
        [
            {"simulation": {"T": 1e201, "dt_ctrl": 1e200, "x0": [1.0, 0.0]}},
            {
                "reference": {"kind": "sinusoid", "omega": 1e100, "amplitude": 1e-100},
                "simulation": {"T": 1e210, "dt_ctrl": 1e209},
            },
        ],
        ids=["huge-step", "fast-reference"],
    )
    def test_stage_state_beyond_the_float_range_exits_3(self, tmp_path, capsys, sections):
        # an RK4 stage overflows to inf, and the pendulum's math.sin(inf)
        # raises ValueError: the run ends in a divergence, not a traceback
        path = write_config(tmp_path, minimal_config(**sections))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 3
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["terminal_event"] == "divergence" and metrics["terminal_t"] == 0.0
        assert capsys.readouterr().err == "run ended early: divergence at t=0\n"

    def test_byte_identical_across_processes(self, tmp_path):
        cfg = minimal_config(
            disturbance={**NOISE, "seed": 11},
            reference={"kind": "sinusoid", "amplitude": 0.5, "omega": 2.0},
            controller={"mode": "compensated", "lambda": 3.0, "network": {"neurons": 7, "eta": 10.0}},
            simulation={"T": 1.0, "dt_ctrl": 0.005, "substeps": 2, "x0": [0.2, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        src = str(Path(__file__).resolve().parent.parent / "src")
        outputs = []
        for hash_seed in ("0", "1"):
            out = tmp_path / f"seed{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            proc = subprocess.run(
                [sys.executable, "-m", "neurofl.cli", "simulate", "--config", str(path), "--out-dir", str(out)],
                env=env,
                capture_output=True,
                text=True,
                timeout=120,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / name).read_bytes() for name in ("trajectory.csv", "metrics.json")])
        assert outputs[0] == outputs[1]

    def test_config_error_exit_code(self, tmp_path):
        path = write_config(tmp_path, minimal_config(controller={"lambda": -1.0}))
        assert main(["simulate", "--config", str(path)]) == 2
        # numpy rejects a negative noise seed; a config does so at load
        for sections in ({"seed": -1, "disturbance": NOISE}, {"disturbance": {**NOISE, "seed": -1}}):
            path = write_config(tmp_path, minimal_config(**sections))
            for command in ("simulate", "compare"):
                assert main([command, "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2

    def test_horizon_without_a_whole_interval_exits_2(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_config(simulation={"T": 1.0, "dt_ctrl": 1e12}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert "simulation.T: must be at least one dt_ctrl" in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_disturbance_angle_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # the angle 2*pi*frequency_hz*t overflows partway through the run
        disturbance = {"kind": "sinusoid", "amplitude": 0.1, "frequency_hz": 1e307, "bound": 0.5}
        path = write_config(tmp_path, minimal_config(disturbance=disturbance, simulation={"T": 10.0, "dt_ctrl": 0.01}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert "disturbance.frequency_hz: " in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_noise_beyond_the_sample_limit_exits_2(self, tmp_path, capsys):
        disturbance = {**NOISE, "sample_dt": 1e-300}
        path = write_config(tmp_path, minimal_config(disturbance=disturbance, simulation={"T": 1.0, "dt_ctrl": 0.01}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert "disturbance.sample_dt: " in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_noise_drive_range_beyond_the_float_range_exits_2(self, tmp_path, capsys):
        # numpy's uniform(-a, a) raised OverflowError, and the CLI exited 1
        cfg = json.loads((GOLDEN / "golden_config.json").read_text())
        cfg["disturbance"] = {"kind": "band-limited-noise", "amplitude": 1e308, "bound": 1e308, "cutoff_hz": 2, "seed": 1}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 2
        assert "disturbance.amplitude: " in capsys.readouterr().err
        assert not (out / "trajectory.csv").exists()

    def test_io_error_exit_code(self, tmp_path, capsys):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory", encoding="utf-8")
        path = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}))
        for command, out_dir in (("simulate", blocker), ("compare", blocker), ("compare", blocker / "out")):
            assert main([command, "--config", str(path), "--out-dir", str(out_dir)]) == 4
            captured = capsys.readouterr()
            # nothing is reported as written, and no metrics table is printed
            assert captured.out == "" and captured.err.startswith("i/o error: ")
        assert blocker.read_text(encoding="utf-8") == "not a directory"

    def test_golden_run_matches_frozen_file(self, tmp_path):
        assert (
            main(
                [
                    "simulate",
                    "--config",
                    str(GOLDEN / "golden_config.json"),
                    "--out-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        got = (tmp_path / "trajectory.csv").read_bytes()
        assert got == (GOLDEN / "compensated.csv").read_bytes()

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUROFL_OUT_DIR", str(tmp_path / "envout"))
        path = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}))
        assert main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()

    def test_out_dir_from_config_before_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("NEUROFL_OUT_DIR", str(tmp_path / "envout"))
        cfg = config_from_dict(minimal_config(output={"dir": str(tmp_path / "cfgout")}))
        assert resolve_out_dir(None, cfg) == tmp_path / "cfgout"
        assert resolve_out_dir(str(tmp_path / "flag"), cfg) == tmp_path / "flag"
        path = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}, output={"dir": "cfgout"}))
        monkeypatch.chdir(tmp_path)
        assert main(["simulate", "--config", str(path)]) == 0
        assert (tmp_path / "cfgout" / "trajectory.csv").exists() and not (tmp_path / "envout").exists()

    def test_out_dir_falls_back_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.delenv("NEUROFL_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        assert resolve_out_dir(None, config_from_dict(minimal_config())) == Path(".")
        path = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}))
        assert main(["compare", "--config", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "baseline.csv", "compare_metrics.json", "compensated.csv", "config.json",
        ]

    def test_empty_out_dir_is_rejected(self, tmp_path, monkeypatch, capsys):
        # were "" accepted, resolve_out_dir would pass over it to NEUROFL_OUT_DIR
        monkeypatch.setenv("NEUROFL_OUT_DIR", str(tmp_path / "envout"))
        path = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}, output={"dir": ""}))
        with pytest.raises(ConfigError, match=r"^output.dir: must be a non-empty string$"):
            load_config(path)
        for command in ("simulate", "compare"):
            assert main([command, "--config", str(path)]) == 2
            assert capsys.readouterr().err == "config error: output.dir: must be a non-empty string\n"
        # an empty --out-dir is a usage error, as argparse reports one
        good = write_config(tmp_path, minimal_config(simulation={"T": 0.1, "dt_ctrl": 0.01}), "good.json")
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--config", str(good), "--out-dir", ""])
        assert exc.value.code == 2
        assert "argument --out-dir: must be a non-empty path" in capsys.readouterr().err
        assert not (tmp_path / "envout").exists()


class TestStrictMetricsJson:
    def test_fault_before_any_input_reports_zero_max_abs_u(self, tmp_path):
        # the feedback overflows at sample 0, so no input is ever applied
        cfg = minimal_config(
            controller={"mode": "baseline", "lambda": 1e150}, simulation={"T": 0.01, "x0": [1e9, 0.0]}
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        with pytest.warns(RuntimeWarning, match="overflow encountered in dot"):
            assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 3
        metrics = strict_json(out / "metrics.json")
        assert metrics["max_abs_u"] == 0.0
        assert metrics["terminal_event"] == "divergence" and metrics["records"] == 1

    def test_non_finite_metric_is_written_as_a_string(self):
        traj = Trajectory(
            t=np.zeros(1), x=np.zeros((1, 2)), x_d=np.zeros((1, 2)), u=np.zeros(1), s=np.zeros(1),
            d_hat=np.zeros(1), d_true=np.zeros(1), w_norm=np.zeros(1), event=[""], order=2, dt_ctrl=0.01,
        )
        metrics = Metrics(rms_error=math.inf, iae=-math.inf, steady_state_error=math.nan, max_abs_u=1.5, bounded=False)
        text = json.dumps(_metrics_dict(metrics, traj), allow_nan=False)
        summary = json.loads(text)
        assert (summary["rms_error"], summary["iae"], summary["steady_state_error"]) == ("inf", "-inf", "nan")
        assert summary["max_abs_u"] == 1.5 and summary["bounded"] is False
        # perfect compensation against a steady-state error
        assert _json_value(sse_ratio(0.125, 0.0)) == "inf"

    def test_rms_of_a_finite_error_beyond_the_square_range_is_finite(self, tmp_path):
        # an error of 1e300 squares to inf; the rms is still 1e300, and no
        # overflow warning is raised
        cfg = minimal_config(
            reference={"kind": "constant", "level": 1e300}, simulation={"T": 0.01, "x0": [0.0, 0.0]}
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--out-dir", str(out)]) == 3
        assert main(["compare", "--config", str(path), "--out-dir", str(out)]) == 3
        metrics = strict_json(out / "metrics.json")
        assert metrics["rms_error"] == 1e300 and metrics["max_abs_u"] == 1e300
        combined = strict_json(out / "compare_metrics.json")
        assert combined["baseline"]["rms_error"] == combined["compensated"]["rms_error"] == 1e300
        # s = -1e300 overflows the RBF basis at sample 0: no input applied
        assert combined["compensated"]["max_abs_u"] == 0.0


class TestCmdCompare:
    def test_identical_when_nothing_to_compensate(self, tmp_path):
        cfg = minimal_config(
            reference={"kind": "constant", "level": 0.0},
            controller={"lambda": 2.0, "network": {"neurons": 5}},
            simulation={"T": 0.5, "dt_ctrl": 0.01, "x0": [0.0, 0.0]},
        )
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out-dir", str(out)]) == 0
        base = (out / "baseline.csv").read_bytes()
        comp = (out / "compensated.csv").read_bytes()
        assert base == comp
        combined = json.loads((out / "compare_metrics.json").read_text())
        assert combined["sse_ratio"] == 1.0

    def test_compensation_beats_baseline_under_constant_load(self, tmp_path):
        cfg = {
            "plant": {"name": "pendulum", "params": {"c": 0.0}},
            "disturbance": {"kind": "constant", "offset": 0.5},
            "reference": {"kind": "constant", "level": 0.0},
            "controller": {
                "mode": "baseline",
                "lambda": 2.0,
                "network": {"neurons": 11, "s_range": 0.5, "eta": 20.0, "kappa": 0.0},
            },
            "simulation": {"T": 10.0, "dt_ctrl": 0.005, "x0": [0.0, 0.0]},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["compare", "--config", str(path), "--out-dir", str(out)]) == 0
        combined = json.loads((out / "compare_metrics.json").read_text())
        sse_b = combined["baseline"]["steady_state_error"]
        sse_c = combined["compensated"]["steady_state_error"]
        assert sse_b == pytest.approx(0.125, rel=0.01)
        assert abs(sse_c) <= abs(sse_b) / 10.0

    def test_golden_compare_matches_frozen_files(self, tmp_path):
        # compare runs both halves whichever mode the config names
        raw = json.loads((GOLDEN / "golden_config.json").read_text())
        raw["controller"]["mode"] = "baseline"
        configs = (GOLDEN / "golden_config.json", write_config(tmp_path, raw, "baseline_mode.json"))
        for i, path in enumerate(configs):
            out = tmp_path / f"out{i}"
            assert main(["compare", "--config", str(path), "--out-dir", str(out)]) == 0
            for name in ("baseline.csv", "compensated.csv"):
                assert (out / name).read_bytes() == (GOLDEN / name).read_bytes(), (path.name, name)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "neurofl" in capsys.readouterr().out
