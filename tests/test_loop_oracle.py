"""run_closed_loop against a per-step oracle built from the public API and
frozen copies of the simulator's earlier kernels.

The oracle is the straightforward sampled loop: reference_at ->
StateVector(y) -> the control law -> an array RK4 interval, one value object
per sample, with the disturbance read through the oracle's own per-kind
formulas. The law and the interval are frozen copies of the control_step and
the array integrator the simulator used before its loop ran its own control
kernel and its RK4 stages ran on Python floats, so the simulator's own
kernels and disturbance sampler are never their own judge. The simulator's
inner loop works on raw arrays, float lists, per-run constants, loop-local
weights and a per-run disturbance sampler instead; every recorded signal must
agree with the oracle bit for bit.
"""

import math

import numpy as np
import pytest

from neurofl.config import COMPENSATED
from neurofl.controller import ControllerState
from neurofl.dynamics import GainVector, StateVector
from neurofl.errors import ControllabilityFault, DivergenceFault
from neurofl.plants import (
    PlantModel,
    _noise_series,
    constant_disturbance,
    no_disturbance,
    noise_disturbance,
    sinusoid_disturbance,
)
from neurofl.rbf import default_network
from neurofl.simulation import (
    DIVERGENCE_LIMIT,
    EVENT_CONTROLLABILITY,
    EVENT_DIVERGENCE,
    constant_reference,
    reference_at,
    run_closed_loop,
    sinusoid_reference,
    sum_of_sinusoids_reference,
)

FIELDS = ("t", "x", "x_d", "u", "s", "d_hat", "d_true", "w_norm")


def frozen_rk4_step(deriv, y, t, dt):
    """Classical RK4 on arrays, as the simulator computed it on arrays."""
    k1 = deriv(y, t)
    k2 = deriv(y + (0.5 * dt) * k1, t + 0.5 * dt)
    k3 = deriv(y + (0.5 * dt) * k2, t + 0.5 * dt)
    k4 = deriv(y + dt * k3, t + dt)
    out = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(out).all():
        raise DivergenceFault(f"non-finite state produced at t={t:.6g}")
    return out


def frozen_control_law(ctrl, nominal, x, x_d, xd_n, t, dt_ctrl, w):
    """The sampled control law on arrays, as control_step computed it with its
    own basis evaluation and adaptation step: (u, s, d_hat, w_norm, the
    adapted weights, event)."""
    f_val = nominal.f_eval(x, t)
    b_val = nominal.b_eval(x, t)
    if abs(b_val) < nominal.b_min:
        raise ControllabilityFault("b below guard", state=x, t=t)
    events = []
    xt = x - x_d
    s = float(np.dot(ctrl.gains.filter_weights, xt))
    d_hat = w_norm = 0.0
    net = ctrl.network
    if net is not None:
        try:
            phi = np.array(
                [
                    math.exp(-((s - mu) ** 2) / (2.0 * sigma * sigma))
                    for mu, sigma in zip(net.centers.tolist(), net.widths.tolist())
                ]
            )
        except OverflowError as exc:
            raise DivergenceFault("s overflowed the RBF basis") from exc
        d_hat = float(np.dot(w, phi))
        w_norm = math.sqrt(float(np.dot(w, w)))
        if not math.isfinite(s):
            raise DivergenceFault("s is not finite")
        w = w + dt_ctrl * ((net.learning_rate * s) * phi - net.leakage * w)
        if net.weight_cap is not None:
            w = np.clip(w, -net.weight_cap, net.weight_cap)
            if np.any(np.abs(w) >= net.weight_cap):
                events.append("weight_cap")
    feedback = float(np.dot(ctrl.gains.gains, xt))
    u = (-f_val + xd_n - feedback - d_hat) / b_val
    if ctrl.u_limit is not None and abs(u) > ctrl.u_limit:
        u = math.copysign(ctrl.u_limit, u)
        events.insert(0, "saturation")
    return u, s, d_hat, w_norm, w, ";".join(events)


def frozen_disturbance(spec, T):
    """d(t) on [0, T] written out per kind. Noise is one prefix of the
    filtered grid series, generated for the run and held between samples."""
    if spec.kind == "none":
        return lambda t: 0.0
    if spec.kind == "constant":
        return lambda t: spec.offset
    if spec.kind == "sinusoid":
        return lambda t: spec.amplitude * math.sin(2.0 * math.pi * spec.frequency_hz * t + spec.phase)
    series = _noise_series(spec, math.floor(T / spec.sample_dt) + 2)
    return lambda t: float(series[math.floor(t / spec.sample_dt + 1e-9)])


def frozen_integrate_interval(truth, y, u, t0, dt, substeps, dist):
    """One control interval with u held, on arrays, d(t) from dist."""
    n = truth.order

    def deriv(y, tau):
        b = truth.b_eval(y, tau)
        if abs(b) < truth.b_min:
            raise ControllabilityFault("b below guard during integration", state=y, t=tau)
        out = np.empty(n)
        out[: n - 1] = y[1:]
        out[n - 1] = truth.f_eval(y, tau) + b * u + dist(tau)
        return out

    h = dt / substeps
    for j in range(substeps):
        y = frozen_rk4_step(deriv, y, t0 + j * h, h)
    if np.abs(y).max() > DIVERGENCE_LIMIT:
        raise DivergenceFault("state magnitude exceeded the divergence limit")
    return y


def oracle_closed_loop(truth, nominal, ctrl, ref, dist, T, dt_ctrl, substeps, x0=None):
    """Per-sample records and the terminal event of the sampled loop."""
    steps = int(math.floor(T / dt_ctrl + 1e-9))
    y = reference_at(ref, 0.0)[0].values.copy() if x0 is None else np.array(x0, dtype=float)
    d = frozen_disturbance(dist, T)
    w = None if ctrl.network is None else ctrl.network.weights
    rec = {name: [] for name in (*FIELDS, "event", "weights")}
    terminal = None
    for k in range(steps + 1):
        t_k = k * dt_ctrl
        x_d, xd_n = reference_at(ref, t_k)
        x = StateVector(y)
        rec["t"].append(t_k)
        rec["x"].append(y)
        rec["x_d"].append(x_d.values)
        rec["d_true"].append(d(t_k))
        if w is not None:
            rec["weights"].append(w)
        try:
            u, s, d_hat, w_norm, w, event = frozen_control_law(
                ctrl, nominal, x.values, x_d.values, xd_n, t_k, dt_ctrl, w
            )
        except (ControllabilityFault, DivergenceFault) as exc:
            for name in ("u", "s", "d_hat", "w_norm"):
                rec[name].append(np.nan)
            terminal = EVENT_CONTROLLABILITY if isinstance(exc, ControllabilityFault) else EVENT_DIVERGENCE
            rec["event"].append(terminal)
            break
        for name, value in zip(("u", "s", "d_hat", "w_norm", "event"), (u, s, d_hat, w_norm, event)):
            rec[name].append(value)
        if k == steps:
            break
        try:
            y = frozen_integrate_interval(truth, y, u, t_k, dt_ctrl, substeps, d)
        except (ControllabilityFault, DivergenceFault) as exc:
            terminal = EVENT_CONTROLLABILITY if isinstance(exc, ControllabilityFault) else EVENT_DIVERGENCE
            rec["event"][-1] = terminal if rec["event"][-1] == "" else f"{rec['event'][-1]};{terminal}"
            break
    return rec, terminal


def assert_matches_oracle(truth, nominal, ctrl, ref, dist, T, dt_ctrl, substeps, x0=None):
    traj = run_closed_loop(
        truth, nominal, ctrl, ref, dist, ctrl.gains.lam, T, dt_ctrl, substeps, x0=x0, record_weights=True
    )
    rec, terminal = oracle_closed_loop(truth, nominal, ctrl, ref, dist, T, dt_ctrl, substeps, x0=x0)
    for name in FIELDS:
        assert np.array_equal(getattr(traj, name), np.array(rec[name]), equal_nan=True), name
    assert traj.event == rec["event"]
    assert traj.terminal_event == terminal
    if ctrl.network is None:
        assert traj.weights is None
    else:
        assert np.array_equal(traj.weights, np.array(rec["weights"]))
    return traj


def order_plant(order):
    """Nonlinear, time-varying companion-form plants of order 1, 2 and 3."""
    if order == 1:
        f = lambda x, t: -0.8 * x[0] + 0.3 * math.sin(x[0]) + 0.1 * math.cos(2.0 * t)
        b = lambda x, t: 1.5 + 0.2 * math.sin(x[0])
    elif order == 2:
        f = lambda x, t: -1.3 * math.sin(x[0]) - 0.2 * x[1] + 0.5 * x[0] ** 3
        b = lambda x, t: 2.0 + 0.5 * math.cos(x[0] + t)
    else:
        f = lambda x, t: -x[0] - 0.4 * x[1] - 0.2 * x[2] ** 3 + 0.1 * math.sin(t)
        b = lambda x, t: 1.0 + 0.25 * math.tanh(x[1])
    return PlantModel(order=order, f_eval=f, b_eval=b, b_min=0.1, name=f"order{order}")


def reference(kind, order):
    if kind == "constant":
        return constant_reference(0.4, order)
    if kind == "sinusoid":
        return sinusoid_reference(0.7, 1.3, 0.2, order)
    return sum_of_sinusoids_reference([(0.5, 0.9, 0.1), (0.2, 3.1, 2.0)], order)


DISTURBANCES = {
    "none": no_disturbance,
    "constant": lambda: constant_disturbance(0.3),
    "sinusoid": lambda: sinusoid_disturbance(0.4, 1.1, 0.3),
    "band-limited-noise": lambda: noise_disturbance(0.5, 3.0, seed=11, sample_dt=1e-2),
}


def controller(order, mode, lam=2.0, u_limit=None, weight_cap=None):
    net = default_network(9, 0.8, 40.0, kappa=0.05, weight_cap=weight_cap)
    return ControllerState(
        gains=GainVector(lam, order), network=net if mode == COMPENSATED else None, u_limit=u_limit
    )


@pytest.mark.parametrize("dist_kind", sorted(DISTURBANCES))
@pytest.mark.parametrize("ref_kind", ["constant", "sinusoid", "sum-of-sinusoids"])
@pytest.mark.parametrize("mode", ["baseline", "compensated"])
@pytest.mark.parametrize("order", [1, 2, 3])
def test_matches_oracle(order, mode, ref_kind, dist_kind):
    plant = order_plant(order)
    substeps = 1 + order % 3
    x0 = None if ref_kind == "sinusoid" else [0.3] * order
    traj = assert_matches_oracle(
        plant, plant, controller(order, mode), reference(ref_kind, order),
        DISTURBANCES[dist_kind](), 0.3, 1e-2, substeps, x0=x0,
    )
    assert traj.terminal_event is None


@pytest.mark.parametrize("mode", ["baseline", "compensated"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("T, dt_ctrl", [(0.25, 1e-2), (0.1, 1e-3)], ids=["coarse-control", "fine-control"])
def test_matches_oracle_on_its_own_noise_grid(T, dt_ctrl, order, mode):
    # the noise grid (3e-3) is neither the control grid nor a multiple of it,
    # and the horizon ends partway through a noise sample
    plant = order_plant(order)
    sample_dt = 3e-3
    assert T / sample_dt - math.floor(T / sample_dt) > 0.1
    traj = assert_matches_oracle(
        plant, plant, controller(order, mode), reference("sum-of-sinusoids", order),
        noise_disturbance(0.5, 20.0, seed=3, sample_dt=sample_dt), T, dt_ctrl, 3, x0=[0.2] * order,
    )
    assert traj.terminal_event is None
    assert len(np.unique(traj.d_true)) > 10


@pytest.mark.parametrize("mode", ["baseline", "compensated"])
def test_matches_oracle_when_saturating(mode):
    plant = order_plant(2)
    traj = assert_matches_oracle(
        plant, plant, controller(2, mode, lam=4.0, u_limit=0.5), reference("sinusoid", 2),
        sinusoid_disturbance(0.4, 1.1), 0.5, 1e-2, 2, x0=[1.0, -0.5],
    )
    assert "saturation" in traj.event


def test_matches_oracle_when_weight_cap_trips():
    plant = order_plant(2)
    traj = assert_matches_oracle(
        plant, plant, controller(2, COMPENSATED, weight_cap=1e-3), reference("constant", 2),
        constant_disturbance(0.3), 0.5, 1e-2, 1, x0=[0.6, 0.0],
    )
    assert "weight_cap" in traj.event


def test_matches_oracle_when_saturating_as_weight_cap_trips():
    # both events in one sample are logged in a fixed order
    plant = order_plant(2)
    traj = assert_matches_oracle(
        plant, plant, controller(2, COMPENSATED, lam=4.0, u_limit=0.5, weight_cap=1e-3),
        reference("constant", 2), constant_disturbance(0.3), 0.5, 1e-2, 1, x0=[1.0, -0.5],
    )
    assert "saturation;weight_cap" in traj.event


@pytest.mark.parametrize("mode", ["baseline", "compensated"])
@pytest.mark.parametrize("fading_truth", [True, False], ids=["in-integration", "in-control-law"])
def test_matches_oracle_through_controllability_fault(mode, fading_truth):
    # b fades below the guard at t = 1.25: inside an RK4 interval when the
    # truth plant fades, at a control sample when only the nominal model does
    fading = PlantModel(
        order=2, f_eval=lambda x, t: 0.0, b_eval=lambda x, t: 1.0 - 0.4 * t, b_min=0.5, name="fading"
    )
    truth = fading if fading_truth else order_plant(2)
    traj = assert_matches_oracle(
        truth, fading, controller(2, mode), reference("sinusoid", 2), no_disturbance(), 3.0, 1e-2, 1,
        x0=[0.1, 0.0],
    )
    assert traj.terminal_event == "controllability_fault"
    assert np.isnan(traj.u[-1]) != fading_truth


def test_matches_oracle_through_divergence():
    truth = PlantModel(
        order=2,
        f_eval=lambda x, t: 50.0 * x[0] ** 3 + 5.0,
        b_eval=lambda x, t: 1.0,
        b_min=0.5,
        name="unstable",
    )
    traj = assert_matches_oracle(
        truth, order_plant(2), controller(2, COMPENSATED, lam=0.5), reference("constant", 2),
        no_disturbance(), 10.0, 1e-2, 1, x0=[1.0, 0.0],
    )
    assert traj.terminal_event == "divergence"


@pytest.mark.filterwarnings("ignore:overflow encountered in dot:RuntimeWarning")
def test_matches_oracle_through_divergence_in_control_law():
    # a reference at 1e300 and lambda = 1e10 make the combined error
    # s = lam*(x - x_d) + (x' - x_d') overflow to -inf at t = 0, and the
    # adaptation step faults on it
    plant = order_plant(2)
    ctrl = ControllerState(gains=GainVector(1e10, 2), network=default_network(9, 0.8, 40.0))
    traj = assert_matches_oracle(
        plant, plant, ctrl, constant_reference(1e300, 2), no_disturbance(), 0.1, 1e-2, 1, x0=[2.4, 0.0],
    )
    assert traj.terminal_event == EVENT_DIVERGENCE
    assert traj.event == [EVENT_DIVERGENCE]
    assert np.isnan(traj.u[0]) and np.isnan(traj.s[0]) and np.isnan(traj.w_norm[0])
    np.testing.assert_array_equal(traj.x, [[2.4, 0.0]])


@pytest.mark.parametrize("x0", [[1e307, 1e307], [0.0, -1.0000001e9]])
def test_x0_beyond_divergence_limit_rejected(x0):
    plant = order_plant(2)
    with pytest.raises(ValueError, match="divergence limit"):
        run_closed_loop(
            plant, plant, controller(2, COMPENSATED, lam=20.0), reference("constant", 2), no_disturbance(),
            20.0, 0.1, 1e-2, 1, x0=x0,
        )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_x0_rejected(bad):
    plant = order_plant(2)
    with pytest.raises(ValueError, match="finite"):
        run_closed_loop(
            plant, plant, controller(2, "baseline"), reference("constant", 2), no_disturbance(),
            2.0, 0.1, 1e-2, 1, x0=[0.0, bad],
        )


def test_state_vector_x0_accepted():
    plant = order_plant(2)
    ctrl = controller(2, COMPENSATED)
    args = (plant, plant, ctrl, reference("sinusoid", 2), no_disturbance(), 2.0, 0.2, 1e-2, 1)
    a = run_closed_loop(*args, x0=StateVector([0.2, 0.1]))
    b = run_closed_loop(*args, x0=[0.2, 0.1])
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.u, b.u)
