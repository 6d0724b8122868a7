"""Experiment configuration: strict JSON loading, validation, and assembly of
the simulation objects.

The schema is documented in the README. Validation is eager and strict:
unknown keys are rejected (with a nearest-key suggestion when one is an edit
away), and every precondition of the inner modules is checked before a run
starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, replace

from .controller import BASELINE, COMPENSATED, ControllerState
from .dynamics import binomial_gains
from .errors import ConfigError
from .plants import (
    DisturbanceSpec,
    PlantModel,
    constant_disturbance,
    duffing_plant,
    no_disturbance,
    noise_disturbance,
    pendulum_plant,
    sinusoid_disturbance,
    vanderpol_plant,
)
from .rbf import default_network
from .simulation import (
    DIVERGENCE_LIMIT,
    ReferenceSpec,
    constant_reference,
    sinusoid_reference,
    sum_of_sinusoids_reference,
)

__all__ = ["ExperimentConfig", "ExperimentSetup", "load_config", "config_from_dict", "build_experiment"]

PLANT_DEFAULTS = {
    "pendulum": {"m": 1.0, "l": 1.0, "c": 0.0, "g": 9.81},
    "duffing": {"a": 0.2, "b1": 1.0, "b2": 1.0, "gain": 1.0},
    "vanderpol": {"mu": 1.0, "gain": 1.0},
}
PLANT_BUILDERS = {
    "pendulum": pendulum_plant,
    "duffing": duffing_plant,
    "vanderpol": vanderpol_plant,
}


@dataclass(frozen=True)
class NetworkConfig:
    neurons: int = 9
    s_range: float = 1.0
    eta: float = 5.0
    kappa: float = 0.0
    weight_cap: float | None = None


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


def _get_number(mapping: dict, key: str, context: str, default=None, required=False):
    if key not in mapping:
        if required:
            raise ConfigError(f"{context}.{key}: required key is missing")
        return default
    val = mapping[key]
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        raise ConfigError(f"{context}.{key}: must be a number")
    if not math.isfinite(val):
        raise ConfigError(f"{context}.{key}: must be finite")
    return float(val)


def _require_positive(value, key: str, context: str):
    if not (value > 0.0):
        raise ConfigError(f"{context}.{key}: must be > 0")
    return value


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
    keys_by_kind = {
        "none": ("kind",),
        "constant": ("kind", "offset", "bound"),
        "sinusoid": ("kind", "amplitude", "frequency_hz", "phase", "bound"),
        "band-limited-noise": ("kind", "amplitude", "cutoff_hz", "seed", "sample_dt", "bound"),
    }
    if kind not in keys_by_kind:
        raise ConfigError(
            f"disturbance.kind: must be one of {sorted(keys_by_kind)}, got {kind!r}"
        )
    _reject_unknown(section, keys_by_kind[kind], "disturbance")
    out = {"kind": kind}
    for key in keys_by_kind[kind][1:]:
        if key in section:
            if key == "seed":
                if not isinstance(section[key], int) or isinstance(section[key], bool):
                    raise ConfigError("disturbance.seed: must be an integer")
                out[key] = section[key]
            else:
                out[key] = _get_number(section, key, "disturbance", required=True)
    if kind == "constant" and "offset" not in out:
        raise ConfigError("disturbance.offset: required for kind 'constant'")
    if kind == "sinusoid":
        for req in ("amplitude", "frequency_hz"):
            if req not in out:
                raise ConfigError(f"disturbance.{req}: required for kind 'sinusoid'")
    if kind == "band-limited-noise":
        for req in ("amplitude", "cutoff_hz"):
            if req not in out:
                raise ConfigError(f"disturbance.{req}: required for kind 'band-limited-noise'")
    return out


def _parse_reference(section) -> dict:
    if section is None:
        return {"kind": "constant", "level": 0.0}
    if not isinstance(section, dict):
        raise ConfigError("reference: must be an object")
    kind = section.get("kind", "constant")
    keys_by_kind = {
        "constant": ("kind", "level"),
        "sinusoid": ("kind", "amplitude", "omega", "phase"),
        "sum-of-sinusoids": ("kind", "components"),
    }
    if kind not in keys_by_kind:
        raise ConfigError(
            f"reference.kind: must be one of {sorted(keys_by_kind)}, got {kind!r}"
        )
    _reject_unknown(section, keys_by_kind[kind], "reference")
    out = {"kind": kind}
    if kind == "constant":
        out["level"] = _get_number(section, "level", "reference", default=0.0)
    elif kind == "sinusoid":
        out["amplitude"] = _get_number(section, "amplitude", "reference", required=True)
        out["omega"] = _require_positive(
            _get_number(section, "omega", "reference", required=True), "omega", "reference"
        )
        out["phase"] = _get_number(section, "phase", "reference", default=0.0)
    else:
        comps = section.get("components")
        if not isinstance(comps, list) or not comps:
            raise ConfigError("reference.components: must be a non-empty list")
        parsed = []
        for i, comp in enumerate(comps):
            ctx = f"reference.components[{i}]"
            if not isinstance(comp, dict):
                raise ConfigError(f"{ctx}: must be an object")
            _reject_unknown(comp, ("amplitude", "omega", "phase"), ctx)
            parsed.append(
                {
                    "amplitude": _get_number(comp, "amplitude", ctx, required=True),
                    "omega": _require_positive(
                        _get_number(comp, "omega", ctx, required=True), "omega", ctx
                    ),
                    "phase": _get_number(comp, "phase", ctx, default=0.0),
                }
            )
        out["components"] = parsed
    return out


def _parse_network(section) -> NetworkConfig:
    if section is None:
        return NetworkConfig()
    if not isinstance(section, dict):
        raise ConfigError("controller.network: must be an object")
    _reject_unknown(
        section, ("neurons", "s_range", "eta", "kappa", "weight_cap"), "controller.network"
    )
    neurons = section.get("neurons", 9)
    if not isinstance(neurons, int) or isinstance(neurons, bool) or neurons < 1:
        raise ConfigError("controller.network.neurons: must be an integer >= 1")
    s_range = _require_positive(
        _get_number(section, "s_range", "controller.network", default=1.0),
        "s_range",
        "controller.network",
    )
    eta = _require_positive(
        _get_number(section, "eta", "controller.network", default=5.0),
        "eta",
        "controller.network",
    )
    kappa = _get_number(section, "kappa", "controller.network", default=0.0)
    if kappa < 0.0:
        raise ConfigError("controller.network.kappa: must be >= 0")
    cap = _get_number(section, "weight_cap", "controller.network", default=None)
    if cap is not None:
        _require_positive(cap, "weight_cap", "controller.network")
    return NetworkConfig(neurons=neurons, s_range=s_range, eta=eta, kappa=kappa, weight_cap=cap)


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
    if mode not in (BASELINE, COMPENSATED):
        raise ConfigError(
            f"controller.mode: must be '{BASELINE}' or '{COMPENSATED}', got {mode!r}"
        )
    lam = _require_positive(
        _get_number(ctrl_section, "lambda", "controller", default=1.0), "lambda", "controller"
    )
    u_limit = _get_number(ctrl_section, "u_limit", "controller", default=None)
    if u_limit is not None:
        _require_positive(u_limit, "u_limit", "controller")
    network = _parse_network(ctrl_section.get("network"))

    sim_section = raw.get("simulation", {})
    if not isinstance(sim_section, dict):
        raise ConfigError("simulation: must be an object")
    _reject_unknown(sim_section, ("T", "dt_ctrl", "substeps", "x0"), "simulation")
    T = _require_positive(
        _get_number(sim_section, "T", "simulation", default=10.0), "T", "simulation"
    )
    dt_ctrl = _require_positive(
        _get_number(sim_section, "dt_ctrl", "simulation", default=1e-3), "dt_ctrl", "simulation"
    )
    # the loop runs floor(T/dt_ctrl + 1e-9) intervals, so a remainder would be cut off
    if T / dt_ctrl - math.floor(T / dt_ctrl + 1e-9) > 1e-9:
        raise ConfigError(f"simulation.T: must be a whole number of dt_ctrl ({dt_ctrl:g}), got {T:g}")
    substeps = sim_section.get("substeps", 1)
    if not isinstance(substeps, int) or isinstance(substeps, bool) or substeps < 1:
        raise ConfigError("simulation.substeps: must be an integer >= 1")
    x0 = sim_section.get("x0")
    if x0 is not None:
        if not isinstance(x0, list) or not all(
            isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
            for v in x0
        ):
            raise ConfigError("simulation.x0: must be a list of finite numbers")
        if any(abs(v) > DIVERGENCE_LIMIT for v in x0):
            raise ConfigError(f"simulation.x0: entries must not exceed {DIVERGENCE_LIMIT:.0e} in magnitude")
        x0 = tuple(float(v) for v in x0)

    out_section = raw.get("output")
    out_dir = None
    if out_section is not None:
        if not isinstance(out_section, dict):
            raise ConfigError("output: must be an object")
        _reject_unknown(out_section, ("dir",), "output")
        out_dir = out_section.get("dir")
        if out_dir is not None and not isinstance(out_dir, str):
            raise ConfigError("output.dir: must be a string")

    seed = raw.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise ConfigError("seed: must be an integer")
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
    # assembling the objects runs every remaining module precondition eagerly
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
    kind = spec["kind"]
    if kind == "none":
        return no_disturbance()
    if kind == "constant":
        return constant_disturbance(spec["offset"], bound=spec.get("bound"))
    if kind == "sinusoid":
        return sinusoid_disturbance(
            spec["amplitude"],
            spec["frequency_hz"],
            phase=spec.get("phase", 0.0),
            bound=spec.get("bound"),
        )
    # the noise grid follows the control rate unless pinned explicitly
    return noise_disturbance(
        spec["amplitude"],
        spec["cutoff_hz"],
        seed=spec.get("seed", default_seed),
        sample_dt=spec.get("sample_dt", control_dt),
        bound=spec.get("bound"),
    )


def _build_reference(spec: dict, order: int) -> ReferenceSpec:
    if spec["kind"] == "constant":
        return constant_reference(spec["level"], order)
    if spec["kind"] == "sinusoid":
        return sinusoid_reference(spec["amplitude"], spec["omega"], spec["phase"], order)
    comps = [(c["amplitude"], c["omega"], c["phase"]) for c in spec["components"]]
    return sum_of_sinusoids_reference(comps, order)


def build_experiment(cfg: ExperimentConfig, mode: str | None = None) -> ExperimentSetup:
    """Assemble plants, controller, reference and disturbance from a config.

    `mode` overrides the configured controller mode (used by compare runs).
    """
    try:
        plant = PLANT_BUILDERS[cfg.plant_name](**cfg.plant_params)
    except ValueError as exc:
        raise ConfigError(f"plant.params: {exc}") from exc
    if cfg.x0 is not None and len(cfg.x0) != plant.order:
        raise ConfigError(f"simulation.x0: must have {plant.order} entries for this plant")
    mode = cfg.mode if mode is None else mode
    try:
        gains = binomial_gains(plant.order, cfg.lam)
        network = None
        if mode == COMPENSATED:
            net = default_network(cfg.network.neurons, cfg.network.s_range, cfg.network.eta)
            network = replace(net, leakage=cfg.network.kappa, weight_cap=cfg.network.weight_cap)
        ctrl = ControllerState(gains=gains, mode=mode, network=network, u_limit=cfg.u_limit)
        ref = _build_reference(cfg.reference, plant.order)
        dist = _build_disturbance(cfg.disturbance, cfg.seed, cfg.dt_ctrl)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
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
