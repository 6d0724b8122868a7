"""The sampled feedback-linearization control law, with and without RBF
compensation.

A controller compensates exactly when it holds a network. Both cases share
one arithmetic path for u, so a network with zero weights reproduces the
uncompensated law bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from .dynamics import GainVector, StateVector
# unused here, but bench/child.py traces them at this call site (ROADMAP item 9)
from .dynamics import filtered_error, tracking_error  # noqa: F401
from .errors import ControllabilityFault, DivergenceFault
from .generated import bound_law
from .plants import PlantModel
from .rbf import RbfNetwork, _adapt_with_phi
# unused here, but bench/child.py traces it at this call site (ROADMAP item 9)
from .rbf import activations  # noqa: F401
from .values import Frozen, Record

__all__ = ["ControllerState", "StepLog", "control_step"]

EVENT_WEIGHT_CAP = "weight_cap"


class ControllerState(Frozen):
    """Gains from lambda, the compensating network (None: no compensation),
    and an optional limit on |u|."""

    def __init__(self, gains: GainVector, network: RbfNetwork | None = None, u_limit: float | None = None):
        vars(self).update(gains=gains, network=network, u_limit=u_limit)
        self.__post_init__()

    def __post_init__(self):
        if self.u_limit is not None and not (self.u_limit > 0.0):
            raise ValueError("u_limit: must be > 0 when set")


class StepLog(Record):
    """Per-sample controller record: input applied, combined error, compensator
    output, weight norm of the network that produced it, and any events."""

    def __init__(self, t: float, u: float, s: float, d_hat: float, w_norm: float, event: str = ""):
        vars(self).update(t=t, u=u, s=s, d_hat=d_hat, w_norm=w_norm, event=event)


def network_step(net: RbfNetwork, basis, w: np.ndarray, s: float, dt_ctrl: float, t: float) -> tuple:
    """(d_hat, w_norm, the adapted weights, event) of one sample: the basis at
    s (basis is net's, from generated.bind_basis), sum_i w_i phi_i(s), |w|
    and one adaptation step, with the weight-cap event when a weight reaches
    the cap. A run's generated law calls it."""
    try:
        phi = basis(s)
    except OverflowError as exc:
        # (s - mu)**2 on a Python float raises where it would overflow to inf
        raise DivergenceFault(f"combined error s={s:.3g} overflowed the RBF basis at t={t:.6g}") from exc
    d_hat = float(w.dot(phi))
    w_norm = math.sqrt(float(w.dot(w)))
    w = _adapt_with_phi(net, w, s, dt_ctrl, phi)
    capped = net.weight_cap is not None and np.any(np.abs(w) >= net.weight_cap)
    return d_hat, w_norm, w, EVENT_WEIGHT_CAP if capped else ""


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
    are trusted to be finite. run_closed_loop runs the same law block in its
    generated loop, keeping the weights itself."""
    if not (dt_ctrl > 0.0):
        raise ValueError("dt_ctrl must be > 0")
    values = x.values if isinstance(x, StateVector) else x
    x_d = x_d.values if isinstance(x_d, StateVector) else x_d
    if values.shape != x_d.shape:
        raise ValueError(f"state order mismatch: {values.size} vs {x_d.size}")
    n = ctrl.gains.order
    if values.size != n:
        raise ValueError(f"state order mismatch: {values.size} vs the gains' {n}")
    law = bound_law(ctrl, plant_nominal, network_step)
    w = None if ctrl.network is None else ctrl.network.weights
    xd = [*np.asarray(x_d, dtype=float).tolist(), float(xd_n)]
    try:
        u, s, d_hat, w_norm, w, event = law(np.asarray(values, dtype=float).tolist(), xd, t, dt_ctrl, w)
    except ControllabilityFault as exc:
        exc.state = x  # the caller's object, not the raw values
        raise
    net = ctrl.network
    if net is not None:
        net = RbfNetwork(net.centers, net.widths, w, net.learning_rate, net.leakage, net.weight_cap)
        ctrl = ControllerState(ctrl.gains, net, ctrl.u_limit)
    return u, ctrl, StepLog(t=t, u=u, s=s, d_hat=d_hat, w_norm=w_norm, event=event)
