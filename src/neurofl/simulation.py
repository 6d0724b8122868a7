"""Closed-loop simulation: fixed-step RK4 integration of a truth plant under a
sampled (zero-order-hold) controller, reference trajectory generation, and
trajectory metrics.
"""

from __future__ import annotations

import functools
import math
import sys
import textwrap
import types
from dataclasses import dataclass, field

import numpy as np

from .controller import ControllerState, _bind_law, _law_block
# unused here, but bench/child.py traces it at this call site (ROADMAP item 9)
from .controller import control_step  # noqa: F401
from .dynamics import GainVector, StateVector
from .errors import ControllabilityFault, DivergenceFault
from .plants import DisturbanceSpec, PlantModel, _function_code, _inline, _inline_plant, disturbance_sampler
# unused here, but bench/child.py traces it at this call site (ROADMAP item 9)
from .plants import disturbance_sample  # noqa: F401
from .rbf import RbfNetwork, _bind_basis, _check_leakage_step

__all__ = [
    "ReferenceSpec",
    "Trajectory",
    "Metrics",
    "constant_reference",
    "sinusoid_reference",
    "sum_of_sinusoids_reference",
    "reference_at",
    "rk4_step",
    "run_closed_loop",
    "compute_metrics",
    "ideal_disturbance_plant",
]

# A state magnitude past this is treated as divergence even while still finite.
DIVERGENCE_LIMIT = 1e9

EVENT_DIVERGENCE = "divergence"
EVENT_CONTROLLABILITY = "controllability_fault"


@dataclass(frozen=True, eq=False)
class ReferenceSpec:
    """Desired trajectory with exact derivatives of every order.

    Sinusoidal components are (amplitude, omega, phase) triples with omega > 0
    in rad/s; the k-th derivative of A sin(w t + p) is A w^k sin(w t + p + k pi/2).
    The coefficients A w^k and shifts k pi/2 up to k = order are computed
    once, at construction.
    """

    kind: str
    order: int
    level: float = 0.0
    components: tuple = ()
    _terms: tuple = field(init=False, repr=False)

    def __post_init__(self):
        if self.kind not in REFERENCE_BUILDERS:
            raise ValueError(f"unknown reference kind '{self.kind}'")
        if self.order < 1:
            raise ValueError("reference order must be >= 1")
        if self.kind != "constant" and len(self.components) == 0:
            raise ValueError("sinusoidal reference needs at least one component")
        if not math.isfinite(self.level):
            raise ValueError("reference level must be finite")
        # the key a config names: with a finite amplitude, a sinusoid's A w^k
        # overflows through omega
        key = "omega" if self.kind == "sinusoid" else "components"
        for i, (_, omega, _) in enumerate(self.components):
            if not (omega > 0.0):
                where = "omega" if self.kind == "sinusoid" else f"components[{i}].omega"
                raise ValueError(f"{where}: must be > 0")
        object.__setattr__(self, "_terms", _sinusoid_terms(self.components, self.order, key))


def _sinusoid_terms(components, order: int, key: str) -> tuple:
    """(omega, phase, ((A w^k, k pi/2) for k = 0..order)) per component.

    Raises ValueError, naming key, unless every phase and, for every k, the
    sum of |A w^k| over the components are finite. That sum bounds
    |x_d^(k)(t)|, and a non-finite omega makes it non-finite for k = 1.
    """
    try:
        terms = tuple(
            (omega, phase, tuple((amplitude * omega**k, k * math.pi / 2.0) for k in range(order + 1)))
            for amplitude, omega, phase in components
        )
        bounds = [sum(abs(coefs[k][0]) for _, _, coefs in terms) for k in range(order + 1)]
    except OverflowError:
        bounds = [math.inf]
    phases = [phase for _, _, phase in components]
    if not all(math.isfinite(v) for v in bounds + phases):
        raise ValueError(f"{key}: must give finite derivatives up to order {order}")
    return terms


def constant_reference(level: float, order: int) -> ReferenceSpec:
    return ReferenceSpec(kind="constant", order=order, level=level)


def sinusoid_reference(amplitude: float, omega: float, phase: float, order: int) -> ReferenceSpec:
    return ReferenceSpec(
        kind="sinusoid", order=order, components=((amplitude, omega, phase),)
    )


def sum_of_sinusoids_reference(components, order: int) -> ReferenceSpec:
    comps = tuple((float(a), float(w), float(p)) for a, w, p in components)
    return ReferenceSpec(kind="sum-of-sinusoids", order=order, components=comps)


# kind -> builder; the config layer takes each kind's keys from its builder's parameters
REFERENCE_BUILDERS = {
    "constant": constant_reference,
    "sinusoid": sinusoid_reference,
    "sum-of-sinusoids": sum_of_sinusoids_reference,
}


def _reference_values(spec: ReferenceSpec, t: float) -> tuple[np.ndarray, float]:
    """Raw reference state [x_d, ..., x_d^(n-1)] and x_d^(n) at t >= 0: the
    level plus the sinusoidal components, for every kind."""
    n = spec.order
    derivs = [spec.level] + [0.0] * n
    for omega, phase, coefs in spec._terms:
        angle = omega * t + phase
        for k, (coef, shift) in enumerate(coefs):
            derivs[k] += coef * math.sin(angle + shift)
    return np.array(derivs[:n]), float(derivs[n])


def reference_at(spec: ReferenceSpec, t: float) -> tuple[StateVector, float]:
    """Reference state [x_d, x_d', ..., x_d^(n-1)] and the n-th derivative."""
    if t < 0.0:
        raise ValueError("t must be >= 0")
    values, xd_n = _reference_values(spec, t)
    return StateVector(values), xd_n


def _rk4(deriv, y: list, t: float, dt: float) -> list:
    """Classical fourth-order Runge-Kutta update of y over [t, t+dt], on lists
    of Python floats: deriv(y, t) takes and returns one. Element for element
    these are the operations numpy performs on arrays, so the bits match."""
    half = 0.5 * dt
    k1 = deriv(y, t)
    k2 = deriv([a + half * b for a, b in zip(y, k1)], t + half)
    k3 = deriv([a + half * b for a, b in zip(y, k2)], t + half)
    k4 = deriv([a + dt * b for a, b in zip(y, k3)], t + dt)
    sixth = dt / 6.0
    out = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
    if not all(map(math.isfinite, out)):
        raise DivergenceFault(f"non-finite state produced at t={t:.6g}")
    return out


def rk4_step(deriv, y: np.ndarray, t: float, dt: float) -> np.ndarray:
    """Classical fourth-order Runge-Kutta update of y over [t, t+dt]; deriv
    maps an array y and a time to an array dy/dt."""
    if not (dt > 0.0):
        raise ValueError("dt must be > 0")

    def deriv_list(v, tau):
        return np.asarray(deriv(np.array(v), tau), dtype=float).tolist()

    return np.array(_rk4(deriv_list, np.asarray(y, dtype=float).tolist(), t, dt))


@dataclass
class Trajectory:
    """Uniform-grid record of a closed-loop run. On a fault the arrays hold
    the partial run and terminal_event names the fault."""

    t: np.ndarray
    x: np.ndarray
    x_d: np.ndarray
    u: np.ndarray
    s: np.ndarray
    d_hat: np.ndarray
    d_true: np.ndarray
    w_norm: np.ndarray
    event: list
    order: int
    dt_ctrl: float
    terminal_event: str | None = None
    weights: np.ndarray | None = None

    def __len__(self):
        return self.t.size

    @property
    def terminal_t(self) -> float | None:
        """t of the sample at which the terminal event was recorded, the last
        one; None for a complete run."""
        return None if self.terminal_event is None else self.t[-1].item()


@dataclass(frozen=True)
class Metrics:
    rms_error: float
    iae: float
    steady_state_error: float
    max_abs_u: float
    bounded: bool


def _plant_deriv(plant: PlantModel, u: float, d):
    """accel(y, tau): the highest derivative x^(n) = f + b*u + d(tau) of the
    companion form with u held constant, for any indexable state y. The
    interval that calls it turns a domain error on a non-finite stage into a
    divergence."""
    f_eval = plant.f_eval
    b_eval = plant.b_eval
    b_min = plant.b_min

    def accel(y, tau):
        b = b_eval(y, tau)
        if abs(b) < b_min:
            raise ControllabilityFault(
                f"|b|={abs(b):.3g} below guard {b_min:.3g} during integration",
                state=np.array(y),
                t=tau,
            )
        return f_eval(y, tau) + b * u + d(tau)

    return accel


# One RK4 interval of the truth plant with _u held, on float locals: _rk4's
# operations in _rk4's order on the companion form, whose stage derivative is
# [x1, ..., x(n-1), a]. {accel} is a at the stage state x0, ... and time t.
# It advances _y0, ... from _t0 by _dt in _substeps steps of _h. Compiling
# takes memory in proportion to the statements, hence the tuple assignments.
_INTERVAL = """\
try:
    {prologue}
    for _j in range(_substeps):
        t = _ts = _t0 + _j * _h
        {xs}, = {ys},
        _a1 = {accel}
        {stage2}
        _a2 = {accel}
        {stage3}
        _a3 = {accel}
        {stage4}
        _a4 = {accel}
        {update}
        if not ({finite}):
            raise _DivergenceFault("non-finite state produced at t=%.6g" % _ts)
except (ValueError, OverflowError, TypeError) as _exc:
    _stage_fault(_exc, ({xs}, {ys}), t, _ts)
if {beyond}:
    raise _DivergenceFault("state magnitude exceeded %.0e at t=%.6g" % (_LIMIT, _t0 + _dt))
"""


def _stage_fault(exc: Exception, stage: tuple, t: float, ts: float):
    """Raise what an error in an RK4 interval's arithmetic means, given the
    values of the stage at time t of the substep from ts (its state and the
    substep's start state): an overflow, a complex value (a fractional power
    of a negative number, say) or a ValueError on a non-finite value is a
    divergence; any other TypeError or ValueError propagates."""
    if isinstance(exc, OverflowError):
        # Python floats raise where numpy scalars overflow to inf
        raise DivergenceFault(f"state overflowed in the RK4 step at t={ts:.6g}") from exc
    if any(isinstance(v, complex) for v in stage):
        # Python floats give a complex number where numpy scalars give NaN
        raise DivergenceFault(f"complex RK4 stage state at t={t:.6g}") from exc
    if isinstance(exc, TypeError) or all(map(math.isfinite, stage)):
        raise exc
    # whatever the plant's math makes of a stage state that overflowed to
    # inf (math.sin(inf) raises ValueError)
    raise DivergenceFault(f"non-finite RK4 stage state at t={t:.6g}") from exc


def _interval_block(n: int, f: str | None, b: str | None, d: str | None) -> str:
    """The interval of an order-n plant: f, a constant b (b*u formed once)
    and d (called where None) inlined or, where f is None, _plant_deriv's
    accel called."""
    xs, ys = [f"x{i}" for i in range(n)], [f"_y{i}" for i in range(n)]
    if f is None:
        accel, prologue = f"_accel(({', '.join(xs)},), t)", "_accel = _simulation._plant_deriv(_truth, _u, _d)"
    else:
        accel, prologue = f"({f}) + _bu + ({'_d(t)' if d is None else d})", f"_bu = ({b}) * _u"

    def state(c, prev, a):
        # y + c * (the previous stage's derivative [prev1, ..., a])
        return [f"_y{i} + {c} * {prev}{i + 1}" for i in range(n - 1)] + [f"_y{n - 1} + {c} * {a}"]

    def assign(targets, values):
        return f"{', '.join(targets)} = {', '.join(values)}"

    update = [f"_y{i} + _sixth * (_y{i + 1} + 2.0 * _p{i + 1} + 2.0 * _q{i + 1} + x{i + 1})" for i in range(n - 1)]
    return _INTERVAL.format(
        xs=", ".join(xs),
        ys=", ".join(ys),
        prologue=prologue,
        accel=accel,
        stage2=assign([*xs, "t"], [*state("_half", "_y", "_a1"), "_ts + _half"]),
        stage3=assign([f"_p{i}" for i in range(1, n)] + xs, xs[1:] + state("_half", "x", "_a2")),
        stage4=assign([f"_q{i}" for i in range(1, n)] + [*xs, "t"], xs[1:] + [*state("_h", "x", "_a3"), "_ts + _h"]),
        update=assign(ys, update + [f"_y{n - 1} + _sixth * (_a1 + 2.0 * _a2 + 2.0 * _a3 + _a4)"]),
        finite=" and ".join(f"_isfinite({y})" for y in ys),
        beyond=" or ".join(f"abs({y}) > _LIMIT" for y in ys),
    )


# One run: for each sample k, the reference derivatives _xd0, ..., _xd{n}
# at t = k*dt as _reference_values sums them, the records of t, the state,
# the reference and d(t), the control law, and the interval to the next
# sample. The law's nominal terms _fv and _bv start at 0.0 (see
# controller._LAW). Returns the samples recorded and the terminal event.
_LOOP = """\
def loop(_y, _steps, _dt, _substeps, _w, _records):
    _tr, _xr, _xdr, _dtr, _ur, _sr, _dhr, _wnr, _events, _wh = _records
    {ys}, = _y
    _h = _dt / _substeps
    _half, _sixth, _fv, _bv = 0.5 * _h, _h / 6.0, 0.0, 0.0
    for _k in range(_steps + 1):
        t = _t0 = _k * _dt
        {reference}
        _i = _k * {n}
        _tr[_k], {xr}, {xdr}, _dtr[_k] = t, {ys}, {xds}, {d}
        if _wh is not None:
            _wh[_k] = _w
        {xs}, = {ys},
        try:
{law}
        except _FAULTS as _exc:
            return _fault(_exc, _records, _k, True)
        _ur[_k], _sr[_k], _dhr[_k], _wnr[_k], _events[_k] = _u, _s, _dhat, _wnorm, _ev
        if _k == _steps:
            return _k + 1, None
        try:
{interval}
        except _FAULTS as _exc:
            return _fault(_exc, _records, _k, False)
"""
# the interval alone, as a function: its test entry, integrate_interval
_INTERVAL_ENTRY = """\
def interval(_y, _u, _t0, _dt, _substeps):
    {ys}, = {xs}, = _y
    t = _ts = _t0
    _h = _dt / _substeps
    _half, _sixth = 0.5 * _h, _h / 6.0
{interval}
    return {ys},
"""


def _fault(exc: Exception, records: tuple, k: int, in_law: bool) -> tuple:
    """End the run at sample k on a fault in its control law, which leaves u,
    s, d_hat and w_norm NaN, or in the interval after it; the terminal event
    is appended to the sample's events. Returns (samples, terminal event)."""
    terminal = EVENT_CONTROLLABILITY if isinstance(exc, ControllabilityFault) else EVENT_DIVERGENCE
    if in_law:
        for column in records[4:8]:
            column[k] = math.nan
    events = records[8]
    events[k] = terminal if events[k] == "" else f"{events[k]};{terminal}"
    return k + 1, terminal


_TEMPLATE_GLOBALS = {
    "_isfinite": math.isfinite,
    "_sin": math.sin,
    "_LIMIT": DIVERGENCE_LIMIT,
    "_DivergenceFault": DivergenceFault,
    "_FAULTS": (ControllabilityFault, DivergenceFault),
    "_fault": _fault,
    "_stage_fault": _stage_fault,
}


def _reference_block(n: int, m: int) -> str:
    """x_d^(k)(t) for k = 0..n of a reference with m sinusoidal components,
    as _reference_values sums them: from the level (k = 0) or 0.0, each
    component j's _cj_k * sin(_aj + k pi/2) added in component order."""
    shifts = [repr(k * math.pi / 2.0) for k in range(n + 1)]
    derivs = [
        " + ".join(["_lvl" if k == 0 else "0.0", *(f"_c{j}_{k} * _sin(_a{j} + {shifts[k]})" for j in range(m))])
        for k in range(n + 1)
    ]
    lines = [f"{', '.join(f'_xd{k}' for k in range(n + 1))} = {', '.join(derivs)}"]
    if m:
        lines.insert(0, f"{', '.join(f'_a{j}' for j in range(m))} = {', '.join(f'_om{j} * t + _ph{j}' for j in range(m))}")
    return "\n".join(lines)


@functools.cache
def _loop_code(n: int, m: int, f: str | None, b: str | None, d: str | None, nominal_f: str | None, nominal_b: str | None):
    """The compiled loop of an order-n run with an m-component reference:
    the truth's f and b inlined in the interval, or called where f is None,
    d inlined or, where None, called, and the nominal terms inlined in the law
    or, where nominal_f is None, called."""
    xs, ys = [f"x{i}" for i in range(n)], [f"_y{i}" for i in range(n)]
    source = _LOOP.format(
        n=n,
        xs=", ".join(xs),
        ys=", ".join(ys),
        reference=_reference_block(n, m).replace("\n", "\n" + " " * 8),
        xr=", ".join(["_xr[_i]", *(f"_xr[_i + {i}]" for i in range(1, n))]),
        xdr=", ".join(["_xdr[_i]", *(f"_xdr[_i + {i}]" for i in range(1, n))]),
        xds=", ".join(f"_xd{i}" for i in range(n)),
        d=f"({'_d(t)' if d is None else d})",
        law=textwrap.indent(_law_block(n, nominal_f, nominal_b).rstrip(), " " * 12),
        interval=textwrap.indent(_interval_block(n, f, b, d).rstrip(), " " * 12),
    )
    return _function_code(source, f"loop n={n} m={m}")


@functools.cache
def _interval_code(n: int, f: str | None, b: str | None, d: str | None):
    """The compiled interval entry of an order-n plant (see _interval_block)."""
    source = _INTERVAL_ENTRY.format(
        xs=", ".join(f"x{i}" for i in range(n)),
        ys=", ".join(f"_y{i}" for i in range(n)),
        interval=textwrap.indent(_interval_block(n, f, b, d).rstrip(), " " * 4),
    )
    return _function_code(source, f"interval n={n}")


def _bind_truth(truth: PlantModel, d, bound: dict) -> tuple:
    """The truth's (f, b) and d texts to inline, each None to call it, with
    the values the interval reads added to bound."""
    f, b = _inline_plant(truth, bound)
    d_text = d.text if _inline(bound, {"t"}, d) else None
    bound.update(_TEMPLATE_GLOBALS, _simulation=sys.modules[__name__], _truth=truth, _d=d)
    return f, b, d_text


def _bound_loop(truth: PlantModel, nominal: PlantModel, ctrl: ControllerState, ref: ReferenceSpec, d):
    """The generated loop of one run, the values it reads bound as its
    globals: the plants' parameters, when their terms are inlined, the
    controller's and the reference's. Each run binds its own; only the
    compiled code is kept."""
    bound: dict = {"_lvl": float(ref.level)}
    f, b, d_text = _bind_truth(truth, d, bound)
    nominal_f, nominal_b = _bind_law(ctrl, nominal, bound)
    for j, (omega, phase, coefs) in enumerate(ref._terms):
        bound.update({f"_om{j}": float(omega), f"_ph{j}": float(phase)})
        bound.update({f"_c{j}_{k}": float(coef) for k, (coef, _) in enumerate(coefs)})
    code = _loop_code(truth.order, len(ref._terms), f, b, d_text, nominal_f, nominal_b)
    return types.FunctionType(code, bound)


def _bound_interval(truth: PlantModel, d):
    """The interval entry of truth under d, its values bound as its globals."""
    bound: dict = {}
    f, b, d_text = _bind_truth(truth, d, bound)
    return types.FunctionType(_interval_code(truth.order, f, b, d_text if f else None), bound)


def integrate_interval(
    truth: PlantModel,
    y,
    u: float,
    t0: float,
    dt: float,
    substeps: int,
    d,
) -> tuple:
    """Advance the truth plant over one control interval with u held
    constant, as a run's loop does; the disturbance d(t), such as the run's
    disturbance_sampler, is evaluated at the true substep times. y is the
    state as Python floats (an array is converted); the new state is returned
    as a tuple of them."""
    if isinstance(y, np.ndarray):
        y = y.tolist()
    # float(u): u computed from array elements is a numpy scalar, which would
    # carry numpy scalar arithmetic into every stage
    return _bound_interval(truth, d)(y, float(u), t0, dt, substeps)


def _control_steps(T: float, dt_ctrl: float, substeps: int) -> int:
    """Number of control intervals in [0, T], at least one, each of
    `substeps` RK4 steps. T must be within 1e-9 intervals of a whole number
    of dt_ctrl, so that no remainder is cut off."""
    if not (0.0 < T < math.inf):
        raise ValueError("T: must be > 0 and finite")
    if not (0.0 < dt_ctrl < math.inf):
        raise ValueError("dt_ctrl: must be > 0 and finite")
    if not isinstance(substeps, int) or substeps < 1:
        raise ValueError("substeps: must be an integer >= 1")
    ratio = T / dt_ctrl
    if not (1.0 - 1e-9 <= ratio < math.inf):
        raise ValueError(f"T: must be at least one dt_ctrl ({dt_ctrl:g}), with T/dt_ctrl finite, got {T:g}")
    steps = int(math.floor(ratio + 1e-9))
    if ratio - steps > 1e-9:
        raise ValueError(f"T: must be a whole number of dt_ctrl ({dt_ctrl:g}), got {T:g}")
    return steps


def _disturbance_horizon(steps: int, dt_ctrl: float, substeps: int) -> float:
    """The last time a run of steps control intervals reads the disturbance.
    It reads it at the samples and at the RK4 stage times, the last of which
    ends the final interval."""
    h = dt_ctrl / substeps
    return max(steps * dt_ctrl, (steps - 1) * dt_ctrl + (substeps - 1) * h + h)


def _initial_state(x0, n: int) -> np.ndarray:
    """x0 as a new float array of the n entries of an order-n state, each
    finite and within the divergence limit."""
    y = np.array(x0, dtype=float)
    if y.shape != (n,):
        raise ValueError(f"x0: must have {n} entries for this plant")
    if not np.isfinite(y).all():
        raise ValueError("x0: entries must be finite")
    if np.abs(y).max() > DIVERGENCE_LIMIT:
        raise ValueError(f"x0: entries must not exceed {DIVERGENCE_LIMIT:.0e} in magnitude, the divergence limit")
    return y


def run_closed_loop(
    truth: PlantModel,
    nominal: PlantModel,
    ctrl: ControllerState,
    ref: ReferenceSpec,
    dist: DisturbanceSpec,
    lam: float,
    T: float,
    dt_ctrl: float,
    substeps: int,
    x0=None,
    record_weights: bool = False,
) -> Trajectory:
    """Simulate the sampled closed loop over [0, T].

    At each control sample the state is read, u is computed and held, the
    truth plant is integrated over dt_ctrl with `substeps` RK4 substeps, and
    the weights of the controller's network, if it has one, take one
    adaptation step. A fault ends the run early with the partial trajectory
    and a terminal event.
    """
    steps = _control_steps(T, dt_ctrl, substeps)
    if truth.order != nominal.order:
        raise ValueError("truth and nominal plant orders differ")
    if ref.order != truth.order:
        raise ValueError("reference order must equal plant order")
    if ctrl.gains.order != truth.order:
        raise ValueError("controller gain order must equal plant order")
    if lam != ctrl.gains.lam:
        raise ValueError("lambda must match the controller gains")
    if ctrl.network is not None:
        _check_leakage_step(ctrl.network.leakage, dt_ctrl)

    n = truth.order
    count = steps + 1
    y = (_reference_values(ref, 0.0)[0] if x0 is None else _initial_state(x0, n)).tolist()

    d = disturbance_sampler(dist, _disturbance_horizon(steps, dt_ctrl, substeps))
    loop = _bound_loop(truth, nominal, ctrl, ref, d)

    t_arr, dtrue_arr, u_arr, s_arr, dhat_arr, wnorm_arr = (np.empty(count) for _ in range(6))
    x_arr, xd_arr = np.empty((count, n)), np.empty((count, n))
    events: list = [""] * count
    w_hist = None
    if record_weights and ctrl.network is not None:
        w_hist = np.empty((count, ctrl.network.neuron_count))
    # y is finite (x0 was checked) and the reference is finite by
    # construction of the ReferenceSpec; the loop carries the weights itself
    # and writes each record through a memoryview of its array
    columns = (t_arr, x_arr, xd_arr, dtrue_arr, u_arr, s_arr, dhat_arr, wnorm_arr)
    records = (*(memoryview(c.reshape(-1)) for c in columns), events, w_hist)
    w = None if ctrl.network is None else ctrl.network.weights
    recorded, terminal = loop(y, steps, dt_ctrl, substeps, w, records)

    sl = slice(0, recorded)
    return Trajectory(
        t=t_arr[sl],
        x=x_arr[sl],
        x_d=xd_arr[sl],
        u=u_arr[sl],
        s=s_arr[sl],
        d_hat=dhat_arr[sl],
        d_true=dtrue_arr[sl],
        w_norm=wnorm_arr[sl],
        event=events[:recorded],
        order=n,
        dt_ctrl=dt_ctrl,
        terminal_event=terminal,
        weights=None if w_hist is None else w_hist[sl],
    )


def compute_metrics(traj: Trajectory) -> Metrics:
    """Scalar tracking metrics over a trajectory; the steady-state window is
    the final 10% of samples."""
    if len(traj) == 0:
        raise ValueError("trajectory is empty")
    xt = traj.x[:, 0] - traj.x_d[:, 0]
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(xt**2)))
    if math.isinf(rms) and np.all(np.isfinite(xt)):
        # a finite error beyond ~1e154 overflows its square: scale it by its peak
        peak = np.max(np.abs(xt))
        rms = float(peak * np.sqrt(np.mean((xt / peak) ** 2)))
    iae = float(np.trapezoid(np.abs(xt), traj.t)) if len(traj) > 1 else 0.0
    tail = max(1, len(traj) // 10)
    sse = float(np.mean(xt[-tail:]))
    # a fault in the control law marks its sample's u NaN: no input was applied
    max_u = float(np.max(np.abs(traj.u[~np.isnan(traj.u)]), initial=0.0))
    finite = bool(np.all(np.isfinite(traj.x)) and np.all(np.isfinite(traj.u)))
    bounded = finite and traj.terminal_event is None
    return Metrics(
        rms_error=rms,
        iae=iae,
        steady_state_error=sse,
        max_abs_u=max_u,
        bounded=bounded,
    )


def ideal_disturbance_plant(
    base: PlantModel, target: RbfNetwork, ref: ReferenceSpec, lam: float
) -> PlantModel:
    """Truth plant whose extra forcing is the target network's output at the
    instantaneous combined error: d = sum_i w*_i phi_i(s(x, t)).

    The resulting disturbance lies exactly in the compensator's span when the
    compensator shares the target's centers and widths, which makes adaptation
    descent exact up to discretization.
    """
    if ref.order != base.order:
        raise ValueError("reference order must equal plant order")
    filt = GainVector(lam, base.order).filter_weights
    w_target = target.weights
    basis = _bind_basis(target)
    base_f = base.f_eval
    if not ref.components:
        xd_const = _reference_values(ref, 0.0)[0]
        ref_vals = lambda t: xd_const
    else:
        ref_vals = lambda t: _reference_values(ref, t)[0]

    def f_with_net(x, t):
        vals = x.values if isinstance(x, StateVector) else x
        s = float(np.dot(filt, vals - ref_vals(t)))
        return base_f(x, t) + float(np.dot(w_target, basis(s)))

    return PlantModel(
        order=base.order,
        f_eval=f_with_net,
        b_eval=base.b_eval,
        b_min=base.b_min,
        name=f"{base.name}+rbf_disturbance",
        params=dict(base.params),
    )
