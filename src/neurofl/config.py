"""Experiment configuration: strict JSON loading, validation, and assembly of
the simulation objects.

The schema is documented in the README. This module checks the JSON's shape:
unknown keys (with a nearest-key suggestion when one is an edit away) and
required keys, types, finite numbers, integers, and defaults. Every rule on a
value has one home, the library constructor or helper that owns the value;
config_from_dict builds the objects eagerly, so each rule runs before a run
starts, and a library ValueError "key: ..." becomes a ConfigError
"section.key: ...".
"""

from __future__ import annotations

import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields, replace

from .controller import BASELINE, COMPENSATED, ControllerState
from .dynamics import binomial_gains
from .errors import ConfigError
from .plants import (
    DISTURBANCE_BUILDERS,
    DisturbanceSpec,
    PlantModel,
    duffing_plant,
    pendulum_plant,
    vanderpol_plant,
)
from .rbf import RbfNetwork, _check_leakage_step, default_network
from .simulation import REFERENCE_BUILDERS, ReferenceSpec, _control_steps, _initial_state

__all__ = ["ExperimentConfig", "ExperimentSetup", "load_config", "config_from_dict", "build_experiment"]

PLANT_BUILDERS = {
    "pendulum": pendulum_plant,
    "duffing": duffing_plant,
    "vanderpol": vanderpol_plant,
}


def _parameters(build, skip=()) -> dict:
    """A builder's parameters mapped to their defaults (Parameter.empty if required)."""
    return {name: p.default for name, p in inspect.signature(build).parameters.items() if name not in skip}


# Read from the signatures once, at import: the benchmark's traced run
# replaces PLANT_BUILDERS with (*args, **kwargs) wrappers afterwards.
PLANT_DEFAULTS = {name: _parameters(build) for name, build in PLANT_BUILDERS.items()}
DISTURBANCE_KEYS = {kind: _parameters(build) for kind, build in DISTURBANCE_BUILDERS.items()}
# the reference's order is the plant's, not a key
REFERENCE_KEYS = {
    kind: tuple(_parameters(build, skip=("order",))) for kind, build in REFERENCE_BUILDERS.items()
}


@dataclass(frozen=True)
class NetworkConfig:
    neurons: int = 9
    s_range: float = 1.0
    eta: float = 5.0
    kappa: float = 0.0
    weight_cap: float | None = None


NETWORK_DEFAULTS = {f.name: f.default for f in fields(NetworkConfig)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted description of one experiment."""

    plant_name: str
    plant_params: dict
    disturbance: dict
    reference: dict
    mode: str
    lam: float
    network: NetworkConfig
    u_limit: float | None
    T: float
    dt_ctrl: float
    substeps: int
    x0: tuple | None
    seed: int
    out_dir: str | None
    name: str

    def to_dict(self) -> dict:
        """JSON-ready mapping; load_config on the result round-trips."""
        cfg = {
            "name": self.name,
            "seed": self.seed,
            "plant": {"name": self.plant_name, "params": dict(self.plant_params)},
            "disturbance": dict(self.disturbance),
            "reference": dict(self.reference),
            "controller": {
                "mode": self.mode,
                "lambda": self.lam,
                "network": {k: v for k, v in asdict(self.network).items() if v is not None},
            },
            "simulation": {
                "T": self.T,
                "dt_ctrl": self.dt_ctrl,
                "substeps": self.substeps,
            },
        }
        if self.u_limit is not None:
            cfg["controller"]["u_limit"] = self.u_limit
        if self.x0 is not None:
            cfg["simulation"]["x0"] = list(self.x0)
        if self.out_dir is not None:
            cfg["output"] = {"dir": self.out_dir}
        return cfg


@dataclass(frozen=True)
class ExperimentSetup:
    """Simulation objects assembled from a config, ready for run_closed_loop."""

    truth: PlantModel
    nominal: PlantModel
    ctrl: ControllerState
    ref: ReferenceSpec
    dist: DisturbanceSpec
    lam: float
    T: float
    dt_ctrl: float
    substeps: int
    x0: tuple | None


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


def _reject_unknown(mapping: dict, known, context: str):
    for key in mapping:
        if key not in known:
            close = [k for k in known if _edit_distance(key, k) == 1]
            hint = f"; did you mean '{close[0]}'?" if close else ""
            raise ConfigError(f"{context}: unknown key '{key}'{hint}")


def _number(val, where: str) -> float:
    """A JSON number as a finite float."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{where}: must be a number")
    try:
        val = float(val)
    except OverflowError:
        # a JSON integer has no size limit
        raise ConfigError(f"{where}: integer is beyond the float range") from None
    if not math.isfinite(val):
        raise ConfigError(f"{where}: must be finite")
    return val


def _get_number(mapping: dict, key: str, context: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{context}.{key}: required key is missing")
        return default
    return _number(mapping[key], f"{context}.{key}")


def _get_integer(mapping: dict, key: str, where: str, default: int) -> int:
    val = mapping.get(key, default)
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{where}: must be an integer")
    return val


@contextmanager
def _keyed(prefix: str):
    """Re-raise a library ValueError as a ConfigError with prefix in front of
    its message: under "controller.", GainVector's "lambda: must be > 0"
    reads "controller.lambda: must be > 0"."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(prefix + str(exc)) from exc


def _parse_plant(section) -> tuple[str, dict]:
    if not isinstance(section, dict):
        raise ConfigError("plant: must be an object")
    _reject_unknown(section, ("name", "params"), "plant")
    name = section.get("name")
    if name not in PLANT_BUILDERS:
        raise ConfigError(
            f"plant.name: must be one of {sorted(PLANT_BUILDERS)}, got {name!r}"
        )
    params = dict(PLANT_DEFAULTS[name])
    given = section.get("params", {})
    if not isinstance(given, dict):
        raise ConfigError("plant.params: must be an object")
    _reject_unknown(given, tuple(params), f"plant.params ({name})")
    for key in given:
        params[key] = _get_number(given, key, f"plant.params", required=True)
    return name, params


def _parse_disturbance(section) -> dict:
    if section is None:
        return {"kind": "none"}
    if not isinstance(section, dict):
        raise ConfigError("disturbance: must be an object")
    kind = section.get("kind", "none")
    if kind not in DISTURBANCE_KEYS:
        raise ConfigError(
            f"disturbance.kind: must be one of {sorted(DISTURBANCE_KEYS)}, got {kind!r}"
        )
    keys = DISTURBANCE_KEYS[kind]
    _reject_unknown(section, ("kind", *keys), "disturbance")
    out = {"kind": kind}
    for key in keys:
        if key in section:
            if key == "seed":
                out[key] = _get_integer(section, key, "disturbance.seed", 0)
            else:
                out[key] = _get_number(section, key, "disturbance", required=True)
    for key, default in keys.items():
        if default is inspect.Parameter.empty and key not in out:
            raise ConfigError(f"disturbance.{key}: required for kind '{kind}'")
    return out


def _parse_reference(section) -> dict:
    if section is None:
        return {"kind": "constant", "level": 0.0}
    if not isinstance(section, dict):
        raise ConfigError("reference: must be an object")
    kind = section.get("kind", "constant")
    if kind not in REFERENCE_KEYS:
        raise ConfigError(
            f"reference.kind: must be one of {sorted(REFERENCE_KEYS)}, got {kind!r}"
        )
    _reject_unknown(section, ("kind", *REFERENCE_KEYS[kind]), "reference")
    out = {"kind": kind}
    if kind == "constant":
        out["level"] = _get_number(section, "level", "reference", default=0.0)
    elif kind == "sinusoid":
        out.update(_parse_sinusoid(section, "reference"))
    else:
        comps = section.get("components")
        if not isinstance(comps, list) or not comps:
            raise ConfigError("reference.components: must be a non-empty list")
        parsed = []
        for i, comp in enumerate(comps):
            ctx = f"reference.components[{i}]"
            if not isinstance(comp, dict):
                raise ConfigError(f"{ctx}: must be an object")
            _reject_unknown(comp, REFERENCE_KEYS["sinusoid"], ctx)
            parsed.append(_parse_sinusoid(comp, ctx))
        out["components"] = parsed
    return out


def _parse_sinusoid(section: dict, context: str) -> dict:
    """One sinusoid: a sinusoid reference or one component of a sum."""
    out = {
        "amplitude": _get_number(section, "amplitude", context, required=True),
        "omega": _get_number(section, "omega", context, required=True),
        "phase": _get_number(section, "phase", context, default=0.0),
    }
    # the library accepts any finite omega; a config asks for a frequency
    if not (out["omega"] > 0.0):
        raise ConfigError(f"{context}.omega: must be > 0")
    return out


def _parse_network(section) -> NetworkConfig:
    if section is None:
        return NetworkConfig()
    if not isinstance(section, dict):
        raise ConfigError("controller.network: must be an object")
    _reject_unknown(section, NETWORK_DEFAULTS, "controller.network")
    values = {
        key: _get_number(section, key, "controller.network", default=default)
        for key, default in NETWORK_DEFAULTS.items()
        if key != "neurons"
    }
    neurons = _get_integer(section, "neurons", "controller.network.neurons", NETWORK_DEFAULTS["neurons"])
    return NetworkConfig(neurons=neurons, **values)


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a parsed JSON mapping and fill the documented defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: must be an object")
    _reject_unknown(
        raw,
        ("name", "seed", "plant", "disturbance", "reference", "controller", "simulation", "output"),
        "config root",
    )
    if "plant" not in raw:
        raise ConfigError("plant: required section is missing")
    plant_name, plant_params = _parse_plant(raw["plant"])
    disturbance = _parse_disturbance(raw.get("disturbance"))
    reference = _parse_reference(raw.get("reference"))

    ctrl_section = raw.get("controller", {})
    if not isinstance(ctrl_section, dict):
        raise ConfigError("controller: must be an object")
    _reject_unknown(ctrl_section, ("mode", "lambda", "u_limit", "network"), "controller")
    mode = ctrl_section.get("mode", BASELINE)
    lam = _get_number(ctrl_section, "lambda", "controller", default=1.0)
    u_limit = _get_number(ctrl_section, "u_limit", "controller", default=None)
    network = _parse_network(ctrl_section.get("network"))

    sim_section = raw.get("simulation", {})
    if not isinstance(sim_section, dict):
        raise ConfigError("simulation: must be an object")
    _reject_unknown(sim_section, ("T", "dt_ctrl", "substeps", "x0"), "simulation")
    T = _get_number(sim_section, "T", "simulation", default=10.0)
    dt_ctrl = _get_number(sim_section, "dt_ctrl", "simulation", default=1e-3)
    substeps = _get_integer(sim_section, "substeps", "simulation.substeps", 1)
    x0 = sim_section.get("x0")
    if x0 is not None:
        if not isinstance(x0, list):
            raise ConfigError("simulation.x0: must be a list of numbers")
        x0 = tuple(_number(v, f"simulation.x0[{i}]") for i, v in enumerate(x0))

    out_section = raw.get("output")
    out_dir = None
    if out_section is not None:
        if not isinstance(out_section, dict):
            raise ConfigError("output: must be an object")
        _reject_unknown(out_section, ("dir",), "output")
        out_dir = out_section.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("output.dir: must be a string")

    seed = _get_integer(raw, "seed", "seed", 0)
    name = raw.get("name", "experiment")
    if not isinstance(name, str):
        raise ConfigError("name: must be a string")

    cfg = ExperimentConfig(
        plant_name=plant_name,
        plant_params=plant_params,
        disturbance=disturbance,
        reference=reference,
        mode=mode,
        lam=lam,
        network=network,
        u_limit=u_limit,
        T=T,
        dt_ctrl=dt_ctrl,
        substeps=substeps,
        x0=x0,
        seed=seed,
        out_dir=out_dir,
        name=name,
    )
    # assembling the objects runs every value rule; compare runs both modes,
    # so the network is built here when the configured mode does not build it
    if mode != COMPENSATED:
        _build_network(cfg)
    build_experiment(cfg)
    return cfg


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"config parse error at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    return config_from_dict(raw)


def _build_disturbance(spec: dict, default_seed: int, control_dt: float) -> DisturbanceSpec:
    params = {key: value for key, value in spec.items() if key != "kind"}
    if spec["kind"] == "band-limited-noise":
        # the noise grid follows the control rate unless pinned explicitly
        params.setdefault("seed", default_seed)
        params.setdefault("sample_dt", control_dt)
    return DISTURBANCE_BUILDERS[spec["kind"]](**params)


def _build_reference(spec: dict, order: int) -> ReferenceSpec:
    params = {key: value for key, value in spec.items() if key != "kind"}
    if "components" in params:
        params["components"] = [(c["amplitude"], c["omega"], c["phase"]) for c in params["components"]]
    return REFERENCE_BUILDERS[spec["kind"]](**params, order=order)


def _build_network(cfg: ExperimentConfig) -> RbfNetwork:
    net = cfg.network
    with _keyed("controller.network."):
        _check_leakage_step(net.kappa, cfg.dt_ctrl)
        return replace(
            default_network(net.neurons, net.s_range, net.eta), leakage=net.kappa, weight_cap=net.weight_cap
        )


def build_experiment(cfg: ExperimentConfig, mode: str | None = None) -> ExperimentSetup:
    """Assemble plants, controller, reference and disturbance from a config.

    `mode` overrides the configured controller mode (used by compare runs).
    """
    with _keyed("plant.params: "):
        plant = PLANT_BUILDERS[cfg.plant_name](**cfg.plant_params)
    mode = cfg.mode if mode is None else mode
    network = _build_network(cfg) if mode == COMPENSATED else None
    with _keyed("controller."):
        gains = binomial_gains(plant.order, cfg.lam)
        ctrl = ControllerState(gains=gains, mode=mode, network=network, u_limit=cfg.u_limit)
    with _keyed("reference."):
        ref = _build_reference(cfg.reference, plant.order)
    with _keyed("disturbance."):
        dist = _build_disturbance(cfg.disturbance, cfg.seed, cfg.dt_ctrl)
    with _keyed("simulation."):
        _control_steps(cfg.T, cfg.dt_ctrl, cfg.substeps)
        if cfg.x0 is not None:
            _initial_state(cfg.x0, plant.order)
    return ExperimentSetup(
        truth=plant,
        nominal=plant,
        ctrl=ctrl,
        ref=ref,
        dist=dist,
        lam=cfg.lam,
        T=cfg.T,
        dt_ctrl=cfg.dt_ctrl,
        substeps=cfg.substeps,
        x0=cfg.x0,
    )
