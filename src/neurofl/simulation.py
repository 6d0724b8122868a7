"""Closed-loop simulation: fixed-step RK4 integration of a truth plant under a
sampled (zero-order-hold) controller, reference trajectory generation, and
trajectory metrics.
"""

from __future__ import annotations

import math

import numpy as np

from .controller import ControllerState, network_step
# unused here, but bench/child.py traces it at this call site (ROADMAP item 9)
from .controller import control_step  # noqa: F401
from .dynamics import StateVector
from .errors import DivergenceFault
# the run's terminal events, named here for the callers of run_closed_loop
from .generated import DIVERGENCE_LIMIT, EVENT_CONTROLLABILITY, EVENT_DIVERGENCE  # noqa: F401
from .generated import bound_interval, bound_loop
from .plants import DisturbanceSpec, PlantModel, disturbance_sampler
# unused here, but bench/child.py traces it at this call site (ROADMAP item 9)
from .plants import disturbance_sample  # noqa: F401
from .rbf import _check_leakage_step
from .values import Frozen, Record, fields_repr

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
]


class ReferenceSpec(Frozen):
    """Desired trajectory with exact derivatives of every order.

    Sinusoidal components are (amplitude, omega, phase) triples with omega > 0
    in rad/s; the k-th derivative of A sin(w t + p) is A w^k sin(w t + p + k pi/2).
    The coefficients A w^k and shifts k pi/2 up to k = order are computed
    once, at construction, into _terms.
    """

    def __init__(self, kind: str, order: int, level: float = 0.0, components: tuple = ()):
        vars(self).update(kind=kind, order=order, level=level, components=components)
        self.__post_init__()

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


class Trajectory:
    """Uniform-grid record of a closed-loop run. On a fault the arrays hold
    the partial run and terminal_event names the fault. A run equals only
    itself: compare the arrays to compare two runs."""

    def __init__(
        self,
        t: np.ndarray,
        x: np.ndarray,
        x_d: np.ndarray,
        u: np.ndarray,
        s: np.ndarray,
        d_hat: np.ndarray,
        d_true: np.ndarray,
        w_norm: np.ndarray,
        event: list,
        order: int,
        dt_ctrl: float,
        terminal_event: str | None = None,
        weights: np.ndarray | None = None,
    ):
        self.t = t
        self.x = x
        self.x_d = x_d
        self.u = u
        self.s = s
        self.d_hat = d_hat
        self.d_true = d_true
        self.w_norm = w_norm
        self.event = event
        self.order = order
        self.dt_ctrl = dt_ctrl
        self.terminal_event = terminal_event
        self.weights = weights

    __repr__ = fields_repr

    def __len__(self):
        return self.t.size

    @property
    def terminal_t(self) -> float | None:
        """t of the sample at which the terminal event was recorded, the last
        one; None for a complete run."""
        return None if self.terminal_event is None else self.t[-1].item()


class Metrics(Record):
    """Scalar tracking metrics of one trajectory (see compute_metrics)."""

    def __init__(self, rms_error: float, iae: float, steady_state_error: float, max_abs_u: float, bounded: bool):
        vars(self).update(
            rms_error=rms_error, iae=iae, steady_state_error=steady_state_error, max_abs_u=max_abs_u, bounded=bounded
        )


def _plant_deriv(plant: PlantModel, u: float, d):
    """accel(y, tau): the highest derivative x^(n) = f + b*u + d(tau) of the
    companion form with u held constant, for any indexable state y, f and b
    from plant.terms. The interval that calls the terms builds one per
    interval through the function its binder was passed, which is this
    module's current _plant_deriv, so that a wrapper installed here is the
    one called."""
    terms = plant.terms

    def accel(y, tau):
        f, b = terms(y, tau, " during integration")
        return f + b * u + d(tau)

    return accel


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
    return bound_interval(truth, d, _plant_deriv)(y, float(u), t0, dt, substeps)


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
    loop = bound_loop(truth, nominal, ctrl, ref, d, network_step, _plant_deriv)

    # a fault in the control law leaves its sample's u, s, d_hat and w_norm NaN
    t_arr, dtrue_arr = np.empty(count), np.empty(count)
    u_arr, s_arr, dhat_arr, wnorm_arr = (np.full(count, math.nan) for _ in range(4))
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
