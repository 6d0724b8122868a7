"""Feedback-linearization control laws, with and without RBF compensation.

Both laws share one arithmetic path, so the compensated law with zero weights
reproduces the baseline bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import GainVector, StateVector, filtered_error, hurwitz_check, tracking_error
from .errors import ConfigError, ControllabilityFault
from .plants import PlantModel
from .rbf import RbfNetwork, _adapt_with_phi, activations

__all__ = [
    "BASELINE",
    "COMPENSATED",
    "ControllerState",
    "StepLog",
    "fl_control",
    "nn_fl_control",
    "control_step",
]

BASELINE = "baseline"
COMPENSATED = "compensated"

EVENT_SATURATION = "saturation"
EVENT_WEIGHT_CAP = "weight_cap"


@dataclass(frozen=True, eq=False)
class ControllerState:
    gains: GainVector
    mode: str = BASELINE
    network: RbfNetwork | None = None
    u_limit: float | None = None
    last_u: float = 0.0

    def __post_init__(self):
        if self.mode not in (BASELINE, COMPENSATED):
            raise ConfigError(f"mode must be '{BASELINE}' or '{COMPENSATED}', got '{self.mode}'")
        if self.mode == COMPENSATED and self.network is None:
            raise ConfigError("compensated mode requires a network")
        if self.u_limit is not None and not (self.u_limit > 0.0):
            raise ConfigError("u_limit must be > 0 when set")
        if not hurwitz_check(self.gains.char_polynomial()):
            raise ConfigError("controller gains do not form a Hurwitz error polynomial")

    def _successor(self, network, last_u):
        """Post-step copy; gains, mode and u_limit are shared unchanged, so the
        construction-time validation is not repeated."""
        new = object.__new__(ControllerState)
        object.__setattr__(new, "gains", self.gains)
        object.__setattr__(new, "mode", self.mode)
        object.__setattr__(new, "network", network)
        object.__setattr__(new, "u_limit", self.u_limit)
        object.__setattr__(new, "last_u", last_u)
        return new


@dataclass(frozen=True)
class StepLog:
    """Per-sample controller record: input applied, combined error, compensator
    output, weight norm of the network that produced it, and any events."""

    t: float
    u: float
    s: float
    d_hat: float
    w_norm: float
    event: str = ""


def _check_b(b_val: float, b_min: float, x: StateVector | np.ndarray, t: float | None = None):
    if abs(b_val) < b_min or b_val == 0.0:
        raise ControllabilityFault(
            f"|b|={abs(b_val):.3g} below guard {b_min:.3g}", state=x, t=t
        )


def _linearizing_u(ctrl, xt, xd_n, f_val, b_val, d_hat):
    """u = (-f + xd_n - sum_i k_i * err_i - d_hat) / b, clamped to u_limit;
    xt is the raw tracking-error array."""
    feedback = float(np.dot(ctrl.gains.gains, xt))
    u = (-f_val + xd_n - feedback - d_hat) / b_val
    saturated = False
    if ctrl.u_limit is not None and abs(u) > ctrl.u_limit:
        u = math.copysign(ctrl.u_limit, u)
        saturated = True
    return u, saturated


def fl_control(
    ctrl: ControllerState,
    x: StateVector,
    x_d: StateVector,
    xd_n: float,
    f_val: float,
    b_val: float,
    b_min: float = 0.0,
) -> float:
    """Baseline linearizing law: cancel f, inject the reference derivative,
    and damp the tracking error with the pole-placement gains."""
    _check_b(b_val, b_min, x)
    u, _ = _linearizing_u(ctrl, tracking_error(x, x_d).values, xd_n, f_val, b_val, 0.0)
    return u


def nn_fl_control(
    ctrl: ControllerState,
    x: StateVector,
    x_d: StateVector,
    xd_n: float,
    f_val: float,
    b_val: float,
    lam: float,
    b_min: float = 0.0,
) -> tuple[float, float, float]:
    """Compensated law: baseline plus subtraction of the network estimate
    d_hat(s). Returns (u, s, d_hat); weight adaptation is a separate step."""
    if ctrl.network is None:
        raise ConfigError("compensated control requires a network")
    _check_b(b_val, b_min, x)
    xt = tracking_error(x, x_d)
    s = filtered_error(xt, lam)
    d_hat = float(np.dot(ctrl.network.weights, activations(ctrl.network, s)))
    u, _ = _linearizing_u(ctrl, xt.values, xd_n, f_val, b_val, d_hat)
    return u, s, d_hat


def control_step(
    ctrl: ControllerState,
    plant_nominal: PlantModel,
    x: StateVector | np.ndarray,
    x_d: StateVector | np.ndarray,
    xd_n: float,
    t: float,
    dt_ctrl: float,
) -> tuple[float, ControllerState, StepLog]:
    """One sampled control update: evaluate the nominal model, compute u for
    the current mode, then (compensated mode) take one adaptation step with
    the same s. Returns the input, the successor controller, and the log.

    x and x_d are StateVectors or, from the simulation loop, raw arrays of
    the same length; raw arrays are trusted to be finite."""
    if not (dt_ctrl > 0.0):
        raise ValueError("dt_ctrl must be > 0")
    state = x
    if isinstance(x, StateVector):
        x = x.values
    if isinstance(x_d, StateVector):
        x_d = x_d.values
    if x.shape != x_d.shape:
        raise ValueError(f"state order mismatch: {x.size} vs {x_d.size}")
    f_val = plant_nominal.f_eval(x, t)
    b_val = plant_nominal.b_eval(x, t)
    _check_b(b_val, plant_nominal.b_min, state, t)

    events = []
    xt = x - x_d
    s = float(np.dot(ctrl.gains.filter_weights, xt))
    if ctrl.mode == COMPENSATED:
        net = ctrl.network
        phi = activations(net, s)
        d_hat = float(np.dot(net.weights, phi))
        u, saturated = _linearizing_u(ctrl, xt, xd_n, f_val, b_val, d_hat)
        w_norm = math.sqrt(float(np.dot(net.weights, net.weights)))
        net = _adapt_with_phi(net, s, dt_ctrl, phi)
        if net.weight_cap is not None and np.any(np.abs(net.weights) >= net.weight_cap):
            events.append(EVENT_WEIGHT_CAP)
        new_ctrl = ctrl._successor(net, u)
    else:
        d_hat = 0.0
        w_norm = 0.0
        u, saturated = _linearizing_u(ctrl, xt, xd_n, f_val, b_val, d_hat)
        new_ctrl = ctrl._successor(ctrl.network, u)

    if saturated:
        events.insert(0, EVENT_SATURATION)
    log = StepLog(t=t, u=u, s=s, d_hat=d_hat, w_norm=w_norm, event=";".join(events))
    return u, new_ctrl, log
