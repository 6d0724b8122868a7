"""The sampled feedback-linearization control law, with and without RBF
compensation.

A controller compensates exactly when it holds a network. Both cases share
one arithmetic path for u, so a network with zero weights reproduces the
uncompensated law bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import GainVector, StateVector
# unused here, but bench/child.py traces them at this call site (ROADMAP item 9)
from .dynamics import filtered_error, tracking_error  # noqa: F401
from .errors import ControllabilityFault, DivergenceFault
from .plants import PlantModel
from .rbf import RbfNetwork, _adapt_with_phi, activations

__all__ = ["ControllerState", "StepLog", "control_step"]

EVENT_SATURATION = "saturation"
EVENT_WEIGHT_CAP = "weight_cap"


@dataclass(frozen=True, eq=False)
class ControllerState:
    """Gains from lambda, the compensating network (None: no compensation),
    and an optional limit on |u|."""

    gains: GainVector
    network: RbfNetwork | None = None
    u_limit: float | None = None

    def __post_init__(self):
        if self.u_limit is not None and not (self.u_limit > 0.0):
            raise ValueError("u_limit: must be > 0 when set")


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


def _control_law(ctrl: ControllerState, plant_nominal: PlantModel, x, x_d, xd_n, t, dt_ctrl, w):
    """control_step's law on raw arrays of equal length, nothing validated, with
    the network weights w passed in and (u, s, d_hat, w_norm, adapted w, event)
    returned; w is returned as it came when there is no network."""
    f_val = plant_nominal.f_eval(x, t)
    b_val = plant_nominal.b_eval(x, t)
    if abs(b_val) < plant_nominal.b_min:
        raise ControllabilityFault(
            f"|b|={abs(b_val):.3g} below guard {plant_nominal.b_min:.3g}", state=x, t=t
        )

    event = ""
    d_hat = w_norm = 0.0
    xt = x - x_d
    s = float(np.dot(ctrl.gains.filter_weights, xt))
    net = ctrl.network
    if net is not None:
        try:
            phi = activations(net, s)
        except OverflowError as exc:
            # (s - mu)**2 on a Python float raises where it would overflow to inf
            raise DivergenceFault(f"combined error s={s:.3g} overflowed the RBF basis at t={t:.6g}") from exc
        d_hat = float(np.dot(w, phi))
        w_norm = math.sqrt(float(np.dot(w, w)))
        w = _adapt_with_phi(net, w, s, dt_ctrl, phi)
        if net.weight_cap is not None and np.any(np.abs(w) >= net.weight_cap):
            event = EVENT_WEIGHT_CAP

    feedback = float(np.dot(ctrl.gains.gains, xt))
    u = (-f_val + xd_n - feedback - d_hat) / b_val
    if ctrl.u_limit is not None and abs(u) > ctrl.u_limit:
        u = math.copysign(ctrl.u_limit, u)
        event = EVENT_SATURATION if event == "" else f"{EVENT_SATURATION};{event}"
    # the plant's own arithmetic (math.sin, say) may fail on a non-finite u
    # before the integrator's finite check does
    if not math.isfinite(u):
        raise DivergenceFault(f"control input u={u} is not finite at t={t:.6g}")
    return u, s, d_hat, w_norm, w, event


def control_step(
    ctrl: ControllerState,
    plant_nominal: PlantModel,
    x: StateVector | np.ndarray,
    x_d: StateVector | np.ndarray,
    xd_n: float,
    t: float,
    dt_ctrl: float,
) -> tuple[float, ControllerState, StepLog]:
    """One sampled control update: evaluate the nominal model and compute
    u = (-f + xd_n - sum_i k_i * err_i - d_hat) / b, clamped to u_limit,
    where d_hat is the network's output (0 without a network); the network's
    weights then take one adaptation step with the same s. Returns the input,
    the successor controller (ctrl itself without a network), and the log.

    x and x_d are StateVectors or raw arrays of the same length; raw arrays
    are trusted to be finite. run_closed_loop runs the same law, keeping the
    weights itself."""
    if not (dt_ctrl > 0.0):
        raise ValueError("dt_ctrl must be > 0")
    values = x.values if isinstance(x, StateVector) else x
    x_d = x_d.values if isinstance(x_d, StateVector) else x_d
    if values.shape != x_d.shape:
        raise ValueError(f"state order mismatch: {values.size} vs {x_d.size}")
    w = None if ctrl.network is None else ctrl.network.weights
    try:
        u, s, d_hat, w_norm, w, event = _control_law(ctrl, plant_nominal, values, x_d, xd_n, t, dt_ctrl, w)
    except ControllabilityFault as exc:
        exc.state = x  # the caller's object, not the raw values
        raise
    if ctrl.network is not None:
        ctrl = replace(ctrl, network=replace(ctrl.network, weights=w))
    return u, ctrl, StepLog(t=t, u=u, s=s, d_hat=d_hat, w_norm=w_norm, event=event)
