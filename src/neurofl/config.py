"""Experiment configuration: strict JSON loading, validation, and assembly of
the simulation objects.

The schema is documented in the README. Building an ExperimentConfig is the
one gate into a config, by config_from_dict, directly or by
dataclasses.replace: it checks the shape of each field (unknown and required
keys, with a nearest-key suggestion when one is an edit away, enums, types,
finite numbers, integers, defaults), stores a normalized copy, and assembles
the simulation objects. Every rule on a value has one home, the library
constructor or helper that owns the value; assembly runs each rule, a library
ValueError "key: ..." becomes a ConfigError "section.key: ...", and
build_experiment returns the objects the config holds. config_from_dict only
unpacks the JSON: root and section objects, their keys, repeated keys and the
required plant section.
"""

from __future__ import annotations

import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, fields

from .controller import ControllerState
from .dynamics import GainVector
from .errors import ConfigError
from .plants import (
    DISTURBANCE_BUILDERS,
    DisturbanceSpec,
    PlantModel,
    duffing_plant,
    pendulum_plant,
    vanderpol_plant,
)
from .rbf import _check_leakage_step, default_network
from .simulation import REFERENCE_BUILDERS, ReferenceSpec, _control_steps, _initial_state

__all__ = ["ExperimentConfig", "ExperimentSetup", "load_config", "config_from_dict", "build_experiment"]

# controller modes: a compensated run's controller holds the network
BASELINE = "baseline"
COMPENSATED = "compensated"

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
# a network without weight_cap has no cap
NETWORK_DEFAULTS = _parameters(default_network, skip=("weight_cap",))


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted description of one experiment. Building one,
    by any route, checks and copies its fields and assembles its simulation
    objects, so an invalid field is a ConfigError naming its key then. The
    stored sections are read-only: dataclasses.replace makes a changed
    config."""

    plant_name: str
    plant_params: dict
    disturbance: dict
    reference: dict
    mode: str
    lam: float
    network: dict
    u_limit: float | None
    T: float
    dt_ctrl: float
    substeps: int
    x0: tuple | None
    seed: int
    out_dir: str | None
    name: str
    # the objects assembled from the fields above; build_experiment returns them
    _setup: ExperimentSetup = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # dataclasses.replace passes every stored field back in, so each
        # check accepts its own output
        checked = {
            "plant_params": _parse_plant(self.plant_name, self.plant_params),
            "disturbance": _parse_disturbance(self.disturbance),
            "reference": _parse_reference(self.reference),
            "mode": _enum(self.mode, (BASELINE, COMPENSATED), "controller.mode"),
            "lam": _number(self.lam, "controller.lambda"),
            "u_limit": None if self.u_limit is None else _number(self.u_limit, "controller.u_limit"),
            "network": _parse_network(self.network),
            "T": _number(self.T, "simulation.T"),
            "dt_ctrl": _number(self.dt_ctrl, "simulation.dt_ctrl"),
            "substeps": _integer(self.substeps, "simulation.substeps"),
            "x0": _parse_x0(self.x0),
            "out_dir": None if self.out_dir is None else _string(self.out_dir, "output.dir"),
            "seed": _integer(self.seed, "seed"),
            "name": _string(self.name, "name"),
        }
        for key, value in checked.items():
            object.__setattr__(self, key, _frozen(value))
        object.__setattr__(self, "_setup", _assemble(self))

    def __reduce__(self):
        # the setup holds closures: a copy or an unpickled config assembles its own
        return ExperimentConfig, tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def to_dict(self) -> dict:
        """JSON-ready mapping; load_config on the result round-trips."""
        cfg = {
            "name": self.name,
            "seed": self.seed,
            "plant": {"name": self.plant_name, "params": self.plant_params},
            "disturbance": self.disturbance,
            "reference": self.reference,
            "controller": {"mode": self.mode, "lambda": self.lam, "network": self.network},
            "simulation": {
                "T": self.T,
                "dt_ctrl": self.dt_ctrl,
                "substeps": self.substeps,
            },
        }
        if self.u_limit is not None:
            cfg["controller"]["u_limit"] = self.u_limit
        if self.x0 is not None:
            cfg["simulation"]["x0"] = self.x0
        if self.out_dir is not None:
            cfg["output"] = {"dir": self.out_dir}
        # a caller may edit the result, and no edit reaches the config
        return _thawed(cfg)


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


class _Section(dict):
    """A stored config section: a dict that refuses in-place edits, so that
    what to_dict reports is what the setup runs."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a config section is read-only; dataclasses.replace makes a changed config")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self):
        # copy and pickle rebuild it whole rather than item by item
        return _Section, (dict(self),)


def _frozen(value):
    """value with every dict a _Section and every list a tuple."""
    if isinstance(value, dict):
        return _Section({key: _frozen(item) for key, item in value.items()})
    if isinstance(value, list):
        return tuple(_frozen(item) for item in value)
    return value


def _thawed(value):
    """A new plain-JSON copy of value: dicts and lists for sections and tuples."""
    if isinstance(value, dict):
        return {key: _thawed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_thawed(item) for item in value]
    return value


def _edit_distance(a: str, b: str) -> int:
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1, cur[j - 1] + 1, prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[-1]


class _JsonObject(dict):
    """A parsed JSON object; repeated is the first key its text gives twice,
    which a plain dict would keep silently, with the last value given."""

    def __init__(self, pairs):
        super().__init__(pairs)
        keys = [key for key, _ in pairs]
        self.repeated = next((key for i, key in enumerate(keys) if key in keys[:i]), None)


def _reject_unknown(mapping: dict, known, context: str):
    """Reject a key that load_config read twice or that is not in known;
    context is the mapping's dotted key, "" at the root."""
    if getattr(mapping, "repeated", None) is not None:
        key = f"{context}.{mapping.repeated}" if context else mapping.repeated
        raise ConfigError(f"{key}: key is given more than once")
    for key in mapping:
        if key not in known:
            close = [k for k in known if _edit_distance(key, k) == 1]
            hint = f"; did you mean '{close[0]}'?" if close else ""
            raise ConfigError(f"{context or 'config root'}: unknown key '{key}'{hint}")


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


def _integer(val, where: str) -> int:
    if not isinstance(val, int) or isinstance(val, bool):
        raise ConfigError(f"{where}: must be an integer")
    return val


def _string(val, where: str) -> str:
    if not isinstance(val, str):
        raise ConfigError(f"{where}: must be a string")
    return val


def _enum(val, choices, where: str) -> str:
    if not isinstance(val, str) or val not in choices:
        raise ConfigError(f"{where}: must be one of {sorted(choices)}, got {val!r}")
    return val


def _object(val, where: str) -> dict:
    """A JSON object; null is an absent one."""
    if val is None:
        return {}
    if not isinstance(val, dict):
        raise ConfigError(f"{where}: must be an object")
    return val


@contextmanager
def _keyed(prefix: str, root_keys=()):
    """Re-raise a library ValueError as a ConfigError with prefix in front of
    its message: under "controller.", GainVector's "lambda: must be > 0"
    reads "controller.lambda: must be > 0". A message on one of root_keys, a
    value the section takes from the config root, names the root key."""
    try:
        yield
    except ValueError as exc:
        message = str(exc)
        raise ConfigError(("" if message.partition(":")[0] in root_keys else prefix) + message) from exc


def _parse_plant(name, given) -> dict:
    """The plant's parameters: the builder's defaults updated by given."""
    _enum(name, PLANT_DEFAULTS, "plant.name")
    given = _object(given, "plant.params")
    _reject_unknown(given, PLANT_DEFAULTS[name], "plant.params")
    return {**PLANT_DEFAULTS[name], **{key: _number(val, f"plant.params.{key}") for key, val in given.items()}}


def _parse_disturbance(section) -> dict:
    section = _object(section, "disturbance")
    kind = _enum(section.get("kind", "none"), DISTURBANCE_KEYS, "disturbance.kind")
    keys = DISTURBANCE_KEYS[kind]
    _reject_unknown(section, ("kind", *keys), "disturbance")
    out = {"kind": kind}
    for key in keys:
        if key in section:
            check = _integer if key == "seed" else _number
            out[key] = check(section[key], f"disturbance.{key}")
    for key, default in keys.items():
        if default is inspect.Parameter.empty and key not in out:
            raise ConfigError(f"disturbance.{key}: required for kind '{kind}'")
    return out


def _parse_reference(section) -> dict:
    section = _object(section, "reference")
    kind = _enum(section.get("kind", "constant"), REFERENCE_KEYS, "reference.kind")
    _reject_unknown(section, ("kind", *REFERENCE_KEYS[kind]), "reference")
    out = {"kind": kind}
    if kind == "constant":
        out["level"] = _get_number(section, "level", "reference", default=0.0)
    elif kind == "sinusoid":
        out.update(_parse_sinusoid(section, "reference"))
    else:
        comps = section.get("components")
        # a stored config holds its components as a tuple
        if not isinstance(comps, (list, tuple)) or not comps:
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


def _parse_network(section) -> dict:
    section = _object(section, "controller.network")
    _reject_unknown(section, (*NETWORK_DEFAULTS, "weight_cap"), "controller.network")
    out = dict(NETWORK_DEFAULTS)
    for key, val in section.items():
        where = f"controller.network.{key}"
        out[key] = _integer(val, where) if key == "neurons" else _number(val, where)
    return out


def _parse_x0(x0) -> tuple | None:
    if x0 is None:
        return None
    if not isinstance(x0, (list, tuple)):
        raise ConfigError("simulation.x0: must be a list of numbers")
    return tuple(_number(v, f"simulation.x0[{i}]") for i, v in enumerate(x0))


def _section(raw: dict, key: str, known) -> dict:
    section = _object(raw.get(key), key)
    _reject_unknown(section, known, key)
    return section


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Unpack a parsed JSON mapping into an ExperimentConfig, with the
    documented defaults; the config checks every field."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: must be an object")
    _reject_unknown(
        raw, ("name", "seed", "plant", "disturbance", "reference", "controller", "simulation", "output"), ""
    )
    if raw.get("plant") is None:
        raise ConfigError("plant: required section is missing")
    plant = _section(raw, "plant", ("name", "params"))
    ctrl = _section(raw, "controller", ("mode", "lambda", "u_limit", "network"))
    sim = _section(raw, "simulation", ("T", "dt_ctrl", "substeps", "x0"))
    output = _section(raw, "output", ("dir",))
    return ExperimentConfig(
        plant_name=plant.get("name"),
        plant_params=plant.get("params"),
        disturbance=raw.get("disturbance"),
        reference=raw.get("reference"),
        mode=ctrl.get("mode", BASELINE),
        lam=ctrl.get("lambda", 1.0),
        network=ctrl.get("network"),
        u_limit=ctrl.get("u_limit"),
        T=sim.get("T", 10.0),
        dt_ctrl=sim.get("dt_ctrl", 1e-3),
        substeps=sim.get("substeps", 1),
        x0=sim.get("x0"),
        seed=raw.get("seed", 0),
        out_dir=output.get("dir"),
        name=raw.get("name", "experiment"),
    )


def load_config(path) -> ExperimentConfig:
    """Read and validate a JSON experiment config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_JsonObject)
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


def build_experiment(cfg: ExperimentConfig) -> ExperimentSetup:
    """The plants, controller, reference and disturbance cfg assembled when it
    was built."""
    return cfg._setup


def _assemble(cfg: ExperimentConfig) -> ExperimentSetup:
    """Build the simulation objects of a config, which runs every value rule.

    The network is built, and so checked, in either mode; the controller
    holds it only in compensated mode, and compare runs the setup with and
    without it.
    """
    with _keyed("plant.params."):
        plant = PLANT_BUILDERS[cfg.plant_name](**cfg.plant_params)
    with _keyed("controller.network."):
        _check_leakage_step(cfg.network["kappa"], cfg.dt_ctrl)
        network = default_network(**cfg.network)
    with _keyed("controller."):
        gains = GainVector(cfg.lam, plant.order)
        ctrl = ControllerState(gains, network if cfg.mode == COMPENSATED else None, cfg.u_limit)
    with _keyed("reference."):
        ref = _build_reference(cfg.reference, plant.order)
    # a noise disturbance without a seed of its own draws from the root seed
    with _keyed("disturbance.", root_keys=() if "seed" in cfg.disturbance else ("seed",)):
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
