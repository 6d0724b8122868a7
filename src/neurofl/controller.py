"""The sampled feedback-linearization control law, with and without RBF
compensation.

A controller compensates exactly when it holds a network. Both cases share
one arithmetic path for u, so a network with zero weights reproduces the
uncompensated law bit for bit.
"""

from __future__ import annotations

import functools
import math
import textwrap
import types
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import GainVector, StateVector
# unused here, but bench/child.py traces them at this call site (ROADMAP item 9)
from .dynamics import filtered_error, tracking_error  # noqa: F401
from .errors import ControllabilityFault, DivergenceFault
from .plants import PlantModel, _function_code, _inline_plant
from .rbf import RbfNetwork, _adapt_with_phi, _bind_basis
# unused here, but bench/child.py traces it at this call site (ROADMAP item 9)
from .rbf import activations  # noqa: F401

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


def _network_step(net: RbfNetwork, basis, w: np.ndarray, s: float, dt_ctrl: float, t: float) -> tuple:
    """(d_hat, w_norm, the adapted weights, event) of one sample: the basis at
    s (basis is net's, from _bind_basis), sum_i w_i phi_i(s), |w| and one
    adaptation step, with the weight-cap event when a weight reaches the cap."""
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


# The control law of one sample as generated code, on float locals: the
# state x0, ..., x(n-1), the reference derivatives _xd0, ..., _xd{n} and the
# time t. It is control_step's arithmetic in control_step's order, and every
# reduction is the same ndarray.dot on the same float64 values as np.dot.
# {nominal} sets the nominal model's f and b, _fv and _bv, inlined or called
# (the call fill). The network's step is a call: written out, it would
# double the statements each loop compiles. The last check catches a
# non-finite u before the plant's own arithmetic (math.sin, say) fails on it
# in the interval. The block has no handler: the function that runs it
# passes any error to _as_fault, with _fv and _bv, which it binds as 0.0
# before its first sample. The block leaves _u, _s, _dhat, _wnorm, the
# adapted weights _w and the event _ev.
_LAW = """\
{nominal}
{errors}
_s = _float(_s_dot(_xtv))
_dhat, _wnorm, _w, _ev = (0.0, 0.0, _w, "") if _net is None else _network_step(_net, _basis, _w, _s, _dt, t)
_u = (-_fv + _xd{n} - _float(_k_dot(_xtv)) - _dhat) / _bv
if _ulim is not None and abs(_u) > _ulim:
    _u = _copysign(_ulim, _u)
    _ev = "{saturation}" if _ev == "" else "{saturation};" + _ev
if not _isfinite(_u):
    raise _DivergenceFault("control input u=%s is not finite at t=%.6g" % (_u, t))
"""
# the call fill: f and b called on the state as a tuple of floats, as the
# interval's stages call them, and taken as floats; each raw value is bound
# first, so that _as_fault sees a complex one that float() rejects
_CALLED = """\
_xv = ({xs},)
_fv, _bv = _float(_fv := _nf(_xv, t)), _float(_bv := _nb(_xv, t))
if abs(_bv) < _nbmin:
    raise _ControllabilityFault("|b|=%.3g below guard %.3g" % (abs(_bv), _nbmin), state=_xv, t=t)"""


def _as_fault(exc: Exception, t: float, ts: float | None, nominal: tuple, stage: tuple) -> Exception:
    """The fault that an error in a run's generated arithmetic means, raised
    at time t in the control law (ts None), whose nominal f and b are
    nominal, or at stage time t of the RK4 substep from ts, whose stage
    state and start state are stage. A ControllabilityFault or
    DivergenceFault is returned as it is. An overflow, a complex nominal term
    or stage value, or a ValueError on a non-finite stage is returned as a
    DivergenceFault caused by exc. Any other error is raised again."""
    if isinstance(exc, (ControllabilityFault, DivergenceFault)):
        return exc
    law = ts is None
    if isinstance(exc, OverflowError):
        # Python floats raise where numpy scalars overflow to inf
        message = f"control input u overflowed at t={t:.6g}" if law else f"state overflowed in the RK4 step at t={ts:.6g}"
    elif any(isinstance(v, complex) for v in (*nominal, *stage)):
        # a fractional power of a negative number: numpy scalars give NaN
        message = f"control input u is complex at t={t:.6g}" if law else f"complex RK4 stage state at t={t:.6g}"
    elif isinstance(exc, ValueError) and not all(map(math.isfinite, stage)):
        # the plant's math on a stage that overflowed to inf (math.sin(inf))
        message = f"non-finite RK4 stage state at t={t:.6g}"
    else:
        raise exc
    fault = DivergenceFault(message)
    fault.__cause__ = exc
    return fault


_LAW_GLOBALS = {
    "_float": float,
    "_copysign": math.copysign,
    "_isfinite": math.isfinite,
    "_network_step": _network_step,
    "_as_fault": _as_fault,
    "_DivergenceFault": DivergenceFault,
    "_ControllabilityFault": ControllabilityFault,
}


def _law_block(n: int, f: str | None, b: str | None) -> str:
    """The law of an order-n loop, the nominal f and b texts inlined or, where
    f is None, called."""
    xs = ", ".join(f"x{i}" for i in range(n))
    nominal = _CALLED.format(xs=xs) if f is None else f"_fv, _bv = ({f}), ({b})"
    errors = f"{', '.join(f'_xt[{i}]' for i in range(n))} = {', '.join(f'x{i} - _xd{i}' for i in range(n))}"
    return _LAW.format(nominal=nominal, errors=errors, n=n, saturation=EVENT_SATURATION)


def _bind_law(ctrl: ControllerState, plant_nominal: PlantModel, bound: dict) -> tuple:
    """The nominal (f, b) texts the law inlines, or (None, None) to call
    them, with the law's per-run values added to bound. s and the feedback
    read the errors through one n-element buffer."""
    f, b = _inline_plant(plant_nominal, bound)
    errors = array("d", bytes(8 * ctrl.gains.order))
    bound.update(
        _LAW_GLOBALS,
        _nf=plant_nominal.f_eval,
        _nb=plant_nominal.b_eval,
        _nbmin=plant_nominal.b_min,
        _net=ctrl.network,
        _basis=None if ctrl.network is None else _bind_basis(ctrl.network),
        _ulim=ctrl.u_limit,
        _xt=errors,
        _xtv=np.frombuffer(errors),
        _s_dot=ctrl.gains.filter_weights.dot,
        _k_dot=ctrl.gains.gains.dot,
    )
    return f, b


_STEP = """\
def law(_x, _xd, t, _dt, _w):
    {xs}, = _x
    _fv = _bv = 0.0
    {xds}, = _xd
    try:
{law}
    except Exception as _exc:
        raise _as_fault(_exc, t, None, (_fv, _bv), ())
    return _u, _s, _dhat, _wnorm, _w, _ev
"""


@functools.cache
def _law_code(n: int, f: str | None, b: str | None):
    """The law block compiled as its own function, for control_step."""
    source = _STEP.format(
        xs=", ".join(f"x{i}" for i in range(n)),
        xds=", ".join(f"_xd{i}" for i in range(n + 1)),
        law=textwrap.indent(_law_block(n, f, b).rstrip(), " " * 8),
    )
    return _function_code(source, f"law n={n}")


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
    bound: dict = {}
    law = types.FunctionType(_law_code(n, *_bind_law(ctrl, plant_nominal, bound)), bound)
    w = None if ctrl.network is None else ctrl.network.weights
    xd = [*np.asarray(x_d, dtype=float).tolist(), float(xd_n)]
    try:
        u, s, d_hat, w_norm, w, event = law(np.asarray(values, dtype=float).tolist(), xd, t, dt_ctrl, w)
    except ControllabilityFault as exc:
        exc.state = x  # the caller's object, not the raw values
        raise
    if ctrl.network is not None:
        ctrl = replace(ctrl, network=replace(ctrl.network, weights=w))
    return u, ctrl, StepLog(t=t, u=u, s=s, d_hat=d_hat, w_norm=w_norm, event=event)
