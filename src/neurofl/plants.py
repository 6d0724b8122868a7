"""Benchmark plants in companion form x^(n) = f(x,t) + b(x,t)*u + d, plus
bounded disturbance generators.

Plant evaluators accept anything indexable as the state (StateVector, a raw
array, or the list or tuple of an RK4 stage), so the integrator can pass its
working state straight through.
"""

from __future__ import annotations

import math
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
]


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
        f_eval=lambda x, t: -(g / l) * math.sin(x[0]) - c * x[1],
        b_eval=lambda x, t: b,
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
        f_eval=lambda x, t: -a * x[1] - b1 * x[0] - b2 * x[0] ** 3,
        b_eval=lambda x, t: gain,
        b_min=_gain_guard(gain),
        name="duffing",
        params={"a": a, "b1": b1, "b2": b2, "gain": gain},
    )


def vanderpol_plant(mu: float = 1.0, gain: float = 1.0) -> PlantModel:
    """Van der Pol oscillator: acceleration mu*(1 - x^2)*xdot - x + gain*u."""
    return PlantModel(
        order=2,
        f_eval=lambda x, t: mu * (1.0 - x[0] ** 2) * x[1] - x[0],
        b_eval=lambda x, t: gain,
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


def disturbance_sampler(spec: DisturbanceSpec, t_end: float):
    """d(t) for one run that reads the disturbance on [0, t_end].

    The kind is resolved here, once per run. Noise is generated for exactly
    the grid samples up to t_end, as a list of Python floats; a read before 0
    or past t_end raises IndexError, never wraps or holds the last sample.
    """
    kind = spec.kind
    if kind == "none":
        return lambda t: 0.0
    if kind == "constant":
        offset = spec.offset
        return lambda t: offset
    if kind == "sinusoid":
        # (2 pi f) t evaluates as the product 2.0 * pi * f * t does
        amplitude, omega, phase = spec.amplitude, 2.0 * math.pi * spec.frequency_hz, spec.phase
        return lambda t: amplitude * math.sin(omega * t + phase)
    sample_dt = spec.sample_dt
    series = _noise_series(spec, math.floor(t_end / sample_dt + 1e-9) + 1).tolist()

    def noise(t):
        i = math.floor(t / sample_dt + 1e-9)
        if i < 0:
            raise IndexError(f"noise read at t={t:g}, before its first sample")
        return series[i]

    return noise


def disturbance_sample(spec: DisturbanceSpec, t: float) -> float:
    """Disturbance value at time t; deterministic in (spec, t). Each call
    builds a disturbance_sampler: read a series through one sampler instead."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    return disturbance_sampler(spec, t)(t)
