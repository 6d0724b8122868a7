"""Experiment configuration: strict JSON loading, validation, and assembly of
the simulation objects.

The schema is documented in the README and declared once, on the fields of
ExperimentConfig: each gives its dotted JSON key, its default and its shape
check. Building an ExperimentConfig is the one gate into a config, by
config_from_dict, directly or by dataclasses.replace: it runs each field's
check (unknown and required keys, with a nearest-key suggestion when one is
an edit away, enums, types, finite numbers, integers, defaults), stores a
normalized copy, and assembles the simulation objects. Every rule on a value
has one home, the library constructor or helper that owns the value; assembly
runs each rule, a library ValueError "key: ..." becomes a ConfigError
"section.key: ...", and build_experiment returns the objects the config
holds. config_from_dict only unpacks the JSON: root and section objects,
their keys, repeated keys and the required plant section, with the keys read
from the declarations; the defaults fill in the keys the JSON leaves out, and
to_dict writes the same keys back.
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
    _check_sinusoid_angle,
    duffing_plant,
    pendulum_plant,
    vanderpol_plant,
)
from .rbf import _check_leakage_step, default_network
from .simulation import REFERENCE_BUILDERS, ReferenceSpec, _control_steps, _disturbance_horizon, _initial_state

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


def _parse_plant(given, context: str, name: str) -> dict:
    """The parameters of plant name: the builder's defaults updated by given."""
    given = _object(given, context)
    _reject_unknown(given, PLANT_DEFAULTS[name], context)
    return {**PLANT_DEFAULTS[name], **{key: _number(val, f"{context}.{key}") for key, val in given.items()}}


def _parse_disturbance(section, context: str) -> dict:
    section = _object(section, context)
    kind = _enum(section.get("kind", "none"), DISTURBANCE_KEYS, f"{context}.kind")
    keys = DISTURBANCE_KEYS[kind]
    _reject_unknown(section, ("kind", *keys), context)
    out = {"kind": kind}
    for key in keys:
        if key in section:
            check = _integer if key == "seed" else _number
            out[key] = check(section[key], f"{context}.{key}")
    for key, default in keys.items():
        if default is inspect.Parameter.empty and key not in out:
            raise ConfigError(f"{context}.{key}: required for kind '{kind}'")
    return out


def _parse_reference(section, context: str) -> dict:
    section = _object(section, context)
    kind = _enum(section.get("kind", "constant"), REFERENCE_KEYS, f"{context}.kind")
    _reject_unknown(section, ("kind", *REFERENCE_KEYS[kind]), context)
    out = {"kind": kind}
    if kind == "constant":
        out["level"] = _get_number(section, "level", context, default=0.0)
    elif kind == "sinusoid":
        out.update(_parse_sinusoid(section, context))
    else:
        comps = section.get("components")
        # a stored config holds its components as a tuple
        if not isinstance(comps, (list, tuple)) or not comps:
            raise ConfigError(f"{context}.components: must be a non-empty list")
        parsed = []
        for i, comp in enumerate(comps):
            ctx = f"{context}.components[{i}]"
            if not isinstance(comp, dict):
                raise ConfigError(f"{ctx}: must be an object")
            _reject_unknown(comp, REFERENCE_KEYS["sinusoid"], ctx)
            parsed.append(_parse_sinusoid(comp, ctx))
        out["components"] = parsed
    return out


def _parse_sinusoid(section: dict, context: str) -> dict:
    """One sinusoid: a sinusoid reference or one component of a sum."""
    return {
        "amplitude": _get_number(section, "amplitude", context, required=True),
        "omega": _get_number(section, "omega", context, required=True),
        "phase": _get_number(section, "phase", context, default=0.0),
    }


def _parse_network(section, context: str) -> dict:
    section = _object(section, context)
    _reject_unknown(section, (*NETWORK_DEFAULTS, "weight_cap"), context)
    out = dict(NETWORK_DEFAULTS)
    for key, val in section.items():
        where = f"{context}.{key}"
        out[key] = _integer(val, where) if key == "neurons" else _number(val, where)
    return out


def _parse_x0(x0, where: str) -> tuple | None:
    if x0 is None:
        return None
    if not isinstance(x0, (list, tuple)):
        raise ConfigError(f"{where}: must be a list of numbers")
    return tuple(_number(v, f"{where}[{i}]") for i, v in enumerate(x0))


def _field(key: str, check, default=None, *, reads: str | None = None, required: bool = False):
    """An ExperimentConfig field: its dotted JSON key, its default, and
    check(value, key), or check(value, key, value of the field named reads),
    which gives the stored value. A required field's JSON section must be
    given."""
    return field(default=default, metadata={"key": key, "check": check, "reads": reads, "required": required})


def _one_of(choices):
    """The check of an enum."""
    return lambda val, where: _enum(val, choices, where)


def _optional(check):
    """check, with None for an absent value."""
    return lambda val, where: None if val is None else check(val, where)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated, fully-defaulted description of one experiment. Building one,
    by any route, checks and copies its fields and assembles its simulation
    objects, so an invalid field is a ConfigError naming its key then. The
    stored sections are read-only: dataclasses.replace makes a changed
    config.

    Each field declares its JSON key, its default and its shape check, in
    the order to_dict writes them; config_from_dict and to_dict read the
    keys from here."""

    name: str = _field("name", _string, "experiment")
    seed: int = _field("seed", _integer, 0)
    # None fails the enum: a config names its plant
    plant_name: str = _field("plant.name", _one_of(PLANT_DEFAULTS), required=True)
    plant_params: dict = _field("plant.params", _parse_plant, reads="plant_name")
    disturbance: dict = _field("disturbance", _parse_disturbance)
    reference: dict = _field("reference", _parse_reference)
    mode: str = _field("controller.mode", _one_of((BASELINE, COMPENSATED)), BASELINE)
    lam: float = _field("controller.lambda", _number, 1.0)
    network: dict = _field("controller.network", _parse_network)
    u_limit: float | None = _field("controller.u_limit", _optional(_number))
    T: float = _field("simulation.T", _number, 10.0)
    dt_ctrl: float = _field("simulation.dt_ctrl", _number, 1e-3)
    substeps: int = _field("simulation.substeps", _integer, 1)
    x0: tuple | None = _field("simulation.x0", _parse_x0)
    out_dir: str | None = _field("output.dir", _optional(_string))
    # the objects assembled from the fields above; build_experiment returns them
    _setup: ExperimentSetup = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        # dataclasses.replace passes every stored field back in, so each
        # check accepts its own output; a field is checked after the one it
        # reads
        for f in _FIELDS:
            meta = f.metadata
            read = () if meta["reads"] is None else (getattr(self, meta["reads"]),)
            value = meta["check"](getattr(self, f.name), meta["key"], *read)
            object.__setattr__(self, f.name, _frozen(value))
        object.__setattr__(self, "_setup", _assemble(self))

    def __reduce__(self):
        # the setup holds closures: a copy or an unpickled config assembles its own
        return ExperimentConfig, tuple(getattr(self, f.name) for f in _FIELDS)

    def to_dict(self) -> dict:
        """JSON-ready mapping, without the optional keys that are None;
        load_config on the result round-trips."""
        cfg = {}
        for name, section, key in _PATHS:
            value = getattr(self, name)
            if value is not None:
                (cfg.setdefault(section, {}) if section else cfg)[key] = value
        # a caller may edit the result, and no edit reaches the config
        return _thawed(cfg)


_FIELDS = tuple(f for f in fields(ExperimentConfig) if f.init)
# each field's (name, section, key in the section); section "" is the root
_PATHS = tuple((f.name, *f.metadata["key"].rpartition(".")[::2]) for f in _FIELDS)
_ROOT_KEYS = tuple(dict.fromkeys(section or key for _, section, key in _PATHS))
_SECTIONS = {section: tuple(key for _, s, key in _PATHS if s == section) for _, section, _ in _PATHS if section}
_REQUIRED_SECTIONS = {f.metadata["key"].rpartition(".")[0] for f in _FIELDS if f.metadata["required"]}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Unpack a parsed JSON mapping into an ExperimentConfig, passing the keys
    it gives; the config fills in the defaults and checks every field."""
    if not isinstance(raw, dict):
        raise ConfigError("config root: must be an object")
    _reject_unknown(raw, _ROOT_KEYS, "")
    sections = {"": raw}
    for section, known in _SECTIONS.items():
        if section in _REQUIRED_SECTIONS and raw.get(section) is None:
            raise ConfigError(f"{section}: required section is missing")
        sections[section] = _object(raw.get(section), section)
        _reject_unknown(sections[section], known, section)
    return ExperimentConfig(
        **{name: sections[section][key] for name, section, key in _PATHS if key in sections[section]}
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
    with _keyed("simulation."):
        steps = _control_steps(cfg.T, cfg.dt_ctrl, cfg.substeps)
        if cfg.x0 is not None:
            _initial_state(cfg.x0, plant.order)
    # a noise disturbance without a seed of its own draws from the root seed
    with _keyed("disturbance.", root_keys=() if "seed" in cfg.disturbance else ("seed",)):
        dist = _build_disturbance(cfg.disturbance, cfg.seed, cfg.dt_ctrl)
        _check_sinusoid_angle(dist, _disturbance_horizon(steps, cfg.dt_ctrl, cfg.substeps))
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
