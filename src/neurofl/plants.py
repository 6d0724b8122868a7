"""Benchmark plants in companion form x^(n) = f(x,t) + b(x,t)*u + d, plus
bounded disturbance generators.

Plant evaluators accept anything indexable as the state (StateVector, a raw
array, or the tuple of an RK4 stage); the config plants' are Expressions,
data that a run's generated loop inlines.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import types
from dataclasses import dataclass, field

import numpy as np

from .errors import ControllabilityFault
from .values import Frozen

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


@functools.cache
def _expression_code(text: str, signature: str):
    """An Expression's compiled function and the names its text reads."""
    names = compile(text, "<expression>", "eval").co_names
    reads = "".join(f"    {v} = x[{int(v[1:])}]\n" for v in names if v[0] == "x" and v[1:].isdecimal())
    source = f"def expression({signature}):\n{reads if 'x' in signature else ''}    return {text}"
    return next(c for c in compile(source, "<expression>", "exec").co_consts if isinstance(c, types.CodeType)), names


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

    def terms(self, x, t, where: str = "") -> tuple:
        """(f, b) at the state x and time t, as generated code calls the
        terms it does not inline: b first, a ControllabilityFault carrying x
        (where appended to its message) when |b| < b_min, then f. A numpy
        scalar is taken as the Python number it holds, a complex one as a
        complex, so that no numpy arithmetic follows."""
        b = self.b_eval(x, t)
        if abs(b) < self.b_min:
            raise ControllabilityFault(f"|b|={abs(b):.3g} below guard {self.b_min:.3g}{where}", state=x, t=t)
        f = self.f_eval(x, t)
        return (f.item() if isinstance(f, np.generic) else f), (b.item() if isinstance(b, np.generic) else b)


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


class DisturbanceSpec(Frozen):
    """Bounded additive disturbance: |d(t)| <= bound for every t.

    Band-limited noise is a seeded uniform drive put through a first-order
    low-pass (filter constant from cutoff_hz and sample_dt), held constant
    between grid points and clamped to the bound; fixed seed means a
    bit-reproducible signal.
    """

    def __init__(
        self,
        kind: str,
        bound: float,
        offset: float = 0.0,
        amplitude: float = 0.0,
        frequency_hz: float = 0.0,
        phase: float = 0.0,
        cutoff_hz: float = 0.0,
        seed: int = 0,
        sample_dt: float = 1e-3,
    ):
        vars(self).update(
            kind=kind,
            bound=bound,
            offset=offset,
            amplitude=amplitude,
            frequency_hz=frequency_hz,
            phase=phase,
            cutoff_hz=cutoff_hz,
            seed=seed,
            sample_dt=sample_dt,
        )
        self.__post_init__()

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
            if not math.isfinite(self.amplitude - -self.amplitude):
                raise ValueError("amplitude: the drive's range 2*amplitude must be finite for noise")
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


# numpy's SeedSequence hash constants and PCG64 multiplier (numpy/random/bit_generator.pyx, pcg64.h)
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M32, _M53, _M64, _M128 = (1 << 32) - 1, (1 << 53) - 1, (1 << 64) - 1, (1 << 128) - 1


def _hashmix(hash_const: int, mult: int):
    """numpy's SeedSequence hashmix: each call hashes a 32-bit word with the
    next of the hash constants hash_const, hash_const*mult, ..."""

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * mult & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    return hashmix


def _seed_sequence_state(seed: int) -> list[int]:
    """numpy's SeedSequence(seed).generate_state(4, np.uint64), as ints: the
    seed's little-endian 32-bit words mixed into a pool of four, hashed out
    as eight words and paired low word first."""
    entropy = [seed & _M32]
    while seed := seed >> 32:
        entropy.append(seed & _M32)

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y & _M32
        return result ^ result >> 16

    hashmix = _hashmix(_INIT_A, _MULT_A)
    pool = [hashmix(value) for value in (entropy + [0, 0, 0])[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for value in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(value))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    words = [hashmix(value) for value in pool + pool]
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


def _uniform_draws(seed: int, low: float, high: float):
    """The floats of numpy's default_rng(seed).uniform(low, high) stream, one
    per draw, without end: PCG64 (the XSL-RR output of a 128-bit LCG) seeded
    through SeedSequence, each draw low + (high - low) * ((out >> 11) *
    2**-53) in numpy's operation order. The bits are those of numpy's
    generator, and do not depend on the numpy installed."""
    s0, s1, s2, s3 = _seed_sequence_state(operator.index(seed))
    inc = ((s2 << 64 | s3) << 1 | 1) & _M128
    state = (inc + (s0 << 64 | s1)) * _PCG64_MULT + inc & _M128
    span = high - low
    while True:
        state = state * _PCG64_MULT + inc & _M128
        word = state >> 64 ^ state & _M64
        # rotr64(word, state >> 122), then its top 53 bits
        yield low + span * (((word << 64 | word) >> (state >> 122) + 11 & _M53) * 2**-53)


def _noise_series(spec: DisturbanceSpec, count: int) -> np.ndarray:
    """Filtered noise samples 0..count-1; regenerating a longer prefix from the
    same seed reproduces the shorter one exactly."""
    beta = 1.0 - math.exp(-2.0 * math.pi * spec.cutoff_hz * spec.sample_dt)

    # The uniform drive and the filter run on Python floats streamed into one
    # array, the only per-sample memory the series takes.
    def levels():
        level = 0.0
        for v in itertools.islice(_uniform_draws(spec.seed, -spec.amplitude, spec.amplitude), count):
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
