"""Benchmark plants in companion form x^(n) = f(x,t) + b(x,t)*u + d, plus
bounded disturbance generators.

Plant evaluators accept anything indexable as the state (StateVector, a raw
array, or the tuple of an RK4 stage); the config plants' are Expressions,
data that a run's generated loop inlines.
"""

from __future__ import annotations

import builtins
import functools
import itertools
import linecache
import math
import sys
import types
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PlantModel",
    "DisturbanceSpec",
    "pendulum_plant",
    "duffing_plant",
    "vanderpol_plant",
    "no_disturbance",
    "constant_disturbance",
    "sinusoid_disturbance",
    "noise_disturbance",
    "disturbance_sampler",
    "disturbance_sample",
    "Expression",
]


# numbers the generated sources registered with linecache
_SOURCES = itertools.count()


def _function_code(source: str, name: str | None = None):
    """The code of the one function that source defines. Given a name, the
    source is registered with linecache as "<neurofl name #serial>", so that
    tracebacks and profiles through the code show its lines."""
    filename = "<generated>" if name is None else f"<neurofl {name} #{next(_SOURCES)}>"
    if name is not None:
        # generated sources share most of their lines
        linecache.cache[filename] = (len(source), None, [sys.intern(line) for line in source.splitlines(True)], filename)
    return next(c for c in compile(source, filename, "exec").co_consts if isinstance(c, types.CodeType))


@functools.cache
def _expression_code(text: str, signature: str):
    """An Expression's compiled function and the names its text reads."""
    names = compile(text, "<expression>", "eval").co_names
    reads = "".join(f"    {v} = x[{int(v[1:])}]\n" for v in names if v[0] == "x" and v[1:].isdecimal())
    return _function_code(f"def expression({signature}):\n{reads if 'x' in signature else ''}    return {text}"), names


class Expression(functools.partial):
    """A plant term f(x, t) or b(x, t), or a disturbance d(t) (signature
    "t"), as data: one Python expression over the state x0, x1, ..., the time
    t and the values in params (functions such as math.sin included),
    compiled once per text. A run's generated loop inlines the text with the
    same values bound, so both give the same bits. A partial of the compiled
    function, whose globals are the parameters, so that a call costs what a
    closure's does."""

    __slots__ = ("text", "signature", "names")

    def __new__(cls, text: str, params: dict | None = None, signature: str = "x, t"):
        params = dict(params or {})
        code, names = _expression_code(text, signature)
        self = super().__new__(cls, types.FunctionType(code, params))
        self.text, self.signature, self.names = text, signature, names
        return self

    @property
    def params(self) -> dict:
        return self.func.__globals__

    def __reduce__(self):
        return (Expression, (self.text, self.params, self.signature))


_BUILTINS = vars(builtins)


def _inline(params: dict, local, *terms) -> bool:
    """Whether generated code may inline the terms' texts with their
    parameters as its globals: each term is an Expression that reads only its
    parameters, the names in local and builtins, and no parameter is named
    like a builtin, begins with "_", as generated code's own names do, or is
    bound in params, or in another term, to another object. If so, the
    parameters are added to params."""
    merged = dict(params)
    for term in terms:
        if not isinstance(term, Expression):
            return False
        own = term.params
        for name in term.names:
            if name not in own and name not in local and name not in _BUILTINS:
                return False
        for name, value in own.items():
            if name.startswith("_") or name in _BUILTINS or merged.setdefault(name, value) is not value:
                return False
    params.update(merged)
    return True


def _inline_plant(plant, params: dict) -> tuple:
    """(f text, b text) of a plant that generated code may inline (see
    _inline), with b a constant that passes the guard b_min; (None, None),
    and params unchanged, when its terms must be called."""
    f, b = plant.f_eval, plant.b_eval
    constant = isinstance(b, Expression) and set(b.names) <= b.params.keys() and not abs(b(None, 0.0)) < plant.b_min
    if constant and _inline(params, {"t", *(f"x{i}" for i in range(plant.order))}, f, b):
        return f.text, b.text
    return None, None


@dataclass(frozen=True, eq=False)
class PlantModel:
    """Companion-form plant: f and b evaluators, relative degree, and the
    controllability guard b_min (|b| below it is a fault, not a warning)."""

    order: int
    f_eval: object
    b_eval: object
    b_min: float
    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("plant order must be >= 1")
        if not (self.b_min > 0.0):
            raise ValueError("b_min must be > 0")


def pendulum_plant(m: float = 1.0, l: float = 1.0, c: float = 0.0, g: float = 9.81) -> PlantModel:
    """Damped pendulum: acceleration -(g/l) sin(x) - c*xdot + u/(m l^2)."""
    for key, value in (("m", m), ("l", l)):
        if not (value > 0.0):
            raise ValueError(f"{key}: must be > 0")
    for key, value in (("c", c), ("g", g)):
        if not (value >= 0.0):
            raise ValueError(f"{key}: must be >= 0")
    # m*l^2 can leave the float range, at either end, while m and l are in it
    inertia = m * l * l
    b = 1.0 / inertia if inertia > 0.0 else math.inf
    if not (b / 2.0 > 0.0 and b < math.inf):
        raise ValueError(f"m: m*l^2 = {inertia:g} (l = {l:g}) leaves no positive finite input gain 1/(m*l^2)")
    return PlantModel(
        order=2,
        f_eval=Expression("-(g / l) * sin(x0) - c * x1", {"g": g, "l": l, "c": c, "sin": math.sin}),
        b_eval=Expression("b", {"b": b}),
        b_min=b / 2.0,
        name="pendulum",
        params={"m": m, "l": l, "c": c, "g": g},
    )


def _gain_guard(gain: float) -> float:
    """The controllability guard |gain|/2 of a constant input gain."""
    if not (abs(gain) / 2.0 > 0.0):
        raise ValueError(f"gain: must be nonzero, and |gain| >= 1e-323 for a guard |gain|/2 > 0, got {gain:g}")
    return abs(gain) / 2.0


def duffing_plant(a: float = 0.2, b1: float = 1.0, b2: float = 1.0, gain: float = 1.0) -> PlantModel:
    """Duffing oscillator: acceleration -a*xdot - b1*x - b2*x^3 + gain*u."""
    return PlantModel(
        order=2,
        f_eval=Expression("-a * x1 - b1 * x0 - b2 * x0 ** 3", {"a": a, "b1": b1, "b2": b2}),
        b_eval=Expression("gain", {"gain": gain}),
        b_min=_gain_guard(gain),
        name="duffing",
        params={"a": a, "b1": b1, "b2": b2, "gain": gain},
    )


def vanderpol_plant(mu: float = 1.0, gain: float = 1.0) -> PlantModel:
    """Van der Pol oscillator: acceleration mu*(1 - x^2)*xdot - x + gain*u."""
    return PlantModel(
        order=2,
        f_eval=Expression("mu * (1.0 - x0 ** 2) * x1 - x0", {"mu": mu}),
        b_eval=Expression("gain", {"gain": gain}),
        b_min=_gain_guard(gain),
        name="vanderpol",
        params={"mu": mu, "gain": gain},
    )


@dataclass(frozen=True, eq=False)
class DisturbanceSpec:
    """Bounded additive disturbance: |d(t)| <= bound for every t.

    Band-limited noise is a seeded uniform drive put through a first-order
    low-pass (filter constant from cutoff_hz and sample_dt), held constant
    between grid points and clamped to the bound; fixed seed means a
    bit-reproducible signal.
    """

    kind: str
    bound: float
    offset: float = 0.0
    amplitude: float = 0.0
    frequency_hz: float = 0.0
    phase: float = 0.0
    cutoff_hz: float = 0.0
    seed: int = 0
    sample_dt: float = 1e-3

    def __post_init__(self):
        if self.kind not in DISTURBANCE_BUILDERS:
            raise ValueError(f"unknown disturbance kind '{self.kind}'")
        if self.bound < 0.0 or not math.isfinite(self.bound):
            raise ValueError("bound: must be a finite value >= 0")
        for key in ("offset", "amplitude", "frequency_hz", "phase", "cutoff_hz", "sample_dt"):
            if not math.isfinite(getattr(self, key)):
                raise ValueError(f"{key}: must be finite")
        if self.kind == "constant" and abs(self.offset) > self.bound:
            raise ValueError(f"offset: |offset| exceeds the stated bound {self.bound:g}")
        if self.kind == "sinusoid" and abs(self.amplitude) > self.bound:
            raise ValueError(f"amplitude: |amplitude| exceeds the stated bound {self.bound:g}")
        if self.kind == "band-limited-noise":
            if not (self.cutoff_hz > 0.0):
                raise ValueError("cutoff_hz: must be > 0 for noise")
            if not (self.sample_dt > 0.0):
                raise ValueError("sample_dt: must be > 0 for noise")
            if self.amplitude < 0.0:
                raise ValueError("amplitude: must be >= 0 for noise")
            if self.seed < 0:
                raise ValueError("seed: must be >= 0 for noise")


def no_disturbance() -> DisturbanceSpec:
    return DisturbanceSpec(kind="none", bound=0.0)


def constant_disturbance(offset: float, bound: float | None = None) -> DisturbanceSpec:
    if bound is None:
        bound = abs(offset)
    return DisturbanceSpec(kind="constant", bound=bound, offset=offset)


def sinusoid_disturbance(
    amplitude: float, frequency_hz: float, phase: float = 0.0, bound: float | None = None
) -> DisturbanceSpec:
    if bound is None:
        bound = abs(amplitude)
    return DisturbanceSpec(
        kind="sinusoid",
        bound=bound,
        amplitude=amplitude,
        frequency_hz=frequency_hz,
        phase=phase,
    )


def noise_disturbance(
    amplitude: float,
    cutoff_hz: float,
    seed: int = 0,
    sample_dt: float = 1e-3,
    bound: float | None = None,
) -> DisturbanceSpec:
    if bound is None:
        bound = abs(amplitude)
    return DisturbanceSpec(
        kind="band-limited-noise",
        bound=bound,
        amplitude=amplitude,
        cutoff_hz=cutoff_hz,
        seed=seed,
        sample_dt=sample_dt,
    )


# kind -> builder; the config layer takes each kind's keys from its builder's parameters
DISTURBANCE_BUILDERS = {
    "none": no_disturbance,
    "constant": constant_disturbance,
    "sinusoid": sinusoid_disturbance,
    "band-limited-noise": noise_disturbance,
}


def _check_sinusoid_angle(spec: DisturbanceSpec, t_end: float) -> None:
    """A sinusoid's angle 2*pi*frequency_hz*t + phase, evaluated as
    disturbance_sampler evaluates it, is finite for t in [0, t_end]. Rounding
    keeps the angle monotonic in t, so its value at t_end decides."""
    if spec.kind == "sinusoid" and not math.isfinite(2.0 * math.pi * spec.frequency_hz * t_end + spec.phase):
        raise ValueError(f"frequency_hz: 2*pi*frequency_hz*t + phase must stay finite up to t = {t_end:g}")


# the most noise samples one run may read: their list alone takes 320 MB
MAX_NOISE_SAMPLES = 10**7


def _noise_sample_count(spec: DisturbanceSpec, t_end: float) -> int:
    """floor(t_end/sample_dt + 1e-9) + 1, the grid samples a run on [0, t_end]
    reads from a noise disturbance, 0 for the other kinds; ValueError, naming
    sample_dt, past MAX_NOISE_SAMPLES, before anything is allocated."""
    if spec.kind != "band-limited-noise":
        return 0
    ratio = t_end / spec.sample_dt + 1e-9
    if not (ratio < MAX_NOISE_SAMPLES):
        raise ValueError(f"sample_dt: a run to t = {t_end:g} would read over {MAX_NOISE_SAMPLES:g} noise samples")
    return math.floor(ratio) + 1


def _noise_series(spec: DisturbanceSpec, count: int) -> np.ndarray:
    """Filtered noise samples 0..count-1; regenerating a longer prefix from the
    same seed reproduces the shorter one exactly."""
    rng = np.random.default_rng(spec.seed)
    drive = rng.uniform(-spec.amplitude, spec.amplitude, size=count)
    beta = 1.0 - math.exp(-2.0 * math.pi * spec.cutoff_hz * spec.sample_dt)

    # The filter runs on Python floats streamed from and into arrays: the same
    # IEEE operations as on numpy scalars at a third of the time, with no
    # per-sample list held in memory.
    def levels():
        level = 0.0
        for v in memoryview(drive):
            level += beta * (v - level)
            yield level

    out = np.fromiter(levels(), dtype=float, count=count)
    np.clip(out, -spec.bound, spec.bound, out=out)
    return out


def _sample_index(v: float) -> int:
    """floor(v) as an index into a noise series: a read before the first
    sample raises IndexError, never wraps around."""
    i = math.floor(v)
    if i < 0:
        raise IndexError(f"noise read at index {i}, before the first sample")
    return i


def disturbance_sampler(spec: DisturbanceSpec, t_end: float) -> Expression:
    """d(t) for one run that reads the disturbance on [0, t_end].

    The kind is resolved here, once per run. Noise is generated for exactly
    the grid samples up to t_end, as one list of Python floats; a read before 0
    or past t_end raises IndexError, never wraps or holds the last sample.
    """
    kind = spec.kind
    if kind == "none":
        return Expression("0.0", signature="t")
    if kind == "constant":
        return Expression("d_offset", {"d_offset": spec.offset}, signature="t")
    if kind == "sinusoid":
        _check_sinusoid_angle(spec, t_end)
        # (2 pi f) t evaluates as the product 2.0 * pi * f * t does
        omega = 2.0 * math.pi * spec.frequency_hz
        params = {"d_amplitude": spec.amplitude, "d_omega": omega, "d_phase": spec.phase, "sin": math.sin}
        return Expression("d_amplitude * sin(d_omega * t + d_phase)", params, signature="t")
    series = _noise_series(spec, _noise_sample_count(spec, t_end)).tolist()
    params = {"d_series": series, "d_sample_dt": spec.sample_dt, "d_index": _sample_index}
    return Expression("d_series[d_index(t / d_sample_dt + 1e-9)]", params, signature="t")


def disturbance_sample(spec: DisturbanceSpec, t: float) -> float:
    """Disturbance value at time t; deterministic in (spec, t). Each call
    builds a disturbance_sampler: read a series through one sampler instead."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return disturbance_sampler(spec, t)(t)
