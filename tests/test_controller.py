import dataclasses
import math
import warnings

import numpy as np
import pytest

from neurofl import generated
from neurofl.controller import ControllerState, control_step, network_step
from neurofl.dynamics import GainVector, StateVector
from neurofl.errors import ControllabilityFault, DivergenceFault
from neurofl.plants import Expression, PlantModel, disturbance_sampler, no_disturbance, pendulum_plant
from neurofl.rbf import RbfNetwork, default_network
from neurofl.simulation import constant_reference, integrate_interval, run_closed_loop, sinusoid_reference


def one_neuron_net(weight, eta=1.0, kappa=0.0):
    return RbfNetwork(
        centers=np.array([0.0]),
        widths=np.array([1.0]),
        weights=np.array([float(weight)]),
        learning_rate=eta,
        leakage=kappa,
    )


def closure(term):
    """term in a plain function, which the law calls instead of inlining."""
    return lambda x, t: term(x, t)


def baseline_ctrl(n=2, lam=2.0, u_limit=None):
    return ControllerState(gains=GainVector(lam, n), u_limit=u_limit)


class TestControllerState:
    def test_non_hurwitz_gains_rejected(self):
        # the gains come from lambda alone; at 1e-200 the constant gain
        # lambda^2 underflows to 0, which no Hurwitz polynomial has
        with pytest.raises(ValueError, match=r"^lambda: lambda=1e-200 gives order-2 gains that are not Hurwitz$"):
            ControllerState(gains=GainVector(lam=1e-200, order=2))

    def test_nonpositive_u_limit_rejected(self):
        with pytest.raises(ValueError, match=r"^u_limit: "):
            ControllerState(gains=GainVector(1.0, 2), u_limit=0.0)


def constant_plant(f_val, b_val, b_min=0.01):
    """Nominal model with f and b constant, so a test can set them directly."""
    return PlantModel(
        order=2, f_eval=lambda x, t: f_val, b_eval=lambda x, t: b_val, b_min=b_min, name="constant"
    )


def control_u(ctrl, x, x_d, xd_n, f_val, b_val, b_min=0.01):
    """The input control_step applies for the given f and b."""
    return control_step(ctrl, constant_plant(f_val, b_val, b_min), x, x_d, xd_n, 0.0, 1e-3)[0]


class TestFlControl:
    def test_zero_everything(self):
        ctrl = baseline_ctrl()
        x = StateVector([0.3, -0.1])
        assert control_u(ctrl, x, x, 0.0, 0.0, 1.0) == 0.0

    def test_cancellation_and_feedforward(self):
        ctrl = baseline_ctrl()
        x = StateVector([0.3, -0.1])
        # zero error, f = -3, xd_n = 2, b = 2: u = (3 + 2) / 2
        assert control_u(ctrl, x, x, 2.0, -3.0, 2.0) == pytest.approx(2.5, abs=0)

    def test_pure_feedback(self):
        ctrl = baseline_ctrl(lam=2.0)  # k = [4, 4]
        x = StateVector([1.0, 0.5])
        zero = StateVector([0.0, 0.0])
        assert control_u(ctrl, x, zero, 0.0, 0.0, 1.0) == pytest.approx(-6.0, abs=0)

    def test_b_guard(self):
        ctrl = baseline_ctrl()
        x = StateVector([0.0, 0.0])
        with pytest.raises(ControllabilityFault):
            control_u(ctrl, x, x, 0.0, 0.0, 0.1, b_min=0.5)
        with pytest.raises(ControllabilityFault):
            control_u(ctrl, x, x, 0.0, 0.0, 0.0)

    def test_saturation_clamps(self):
        ctrl = baseline_ctrl(u_limit=1.5)
        x = StateVector([1.0, 0.5])
        zero = StateVector([0.0, 0.0])
        assert control_u(ctrl, x, zero, 0.0, 0.0, 1.0) == -1.5

    def test_feedback_term_is_affine_in_each_error_component(self):
        ctrl = baseline_ctrl(lam=1.5)
        b_val = 2.0
        x_d = StateVector([0.2, -0.4])
        base = np.array([0.7, 0.3])
        u0 = control_u(ctrl, StateVector(base), x_d, 0.5, -1.0, b_val)
        for i in range(2):
            bumped = base.copy()
            bumped[i] += 1.0
            u1 = control_u(ctrl, StateVector(bumped), x_d, 0.5, -1.0, b_val)
            assert u1 - u0 == pytest.approx(-ctrl.gains.gains[i] / b_val, rel=1e-12)


class TestNnFlControl:
    def test_zero_weights_match_baseline_bitwise(self):
        gains = GainVector(2.0, 2)
        net = default_network(7, 1.0, 5.0)
        ctrl_c = ControllerState(gains=gains, network=net)
        ctrl_b = ControllerState(gains=gains)
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = StateVector(rng.uniform(-2, 2, 2))
            x_d = StateVector(rng.uniform(-2, 2, 2))
            xd_n, f_val = rng.uniform(-5, 5, 2)
            b_val = rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 3.0)
            plant = constant_plant(f_val, b_val)
            u_c, _, log = control_step(ctrl_c, plant, x, x_d, xd_n, 0.0, 1e-3)
            u_b, _, _ = control_step(ctrl_b, plant, x, x_d, xd_n, 0.0, 1e-3)
            assert log.d_hat == 0.0
            assert u_c == u_b  # identical arithmetic path, bit for bit

    def test_compensation_shifts_input(self):
        # d_hat = 1 at s = 0 (single neuron at the origin, unit weight), b = 2
        ctrl = ControllerState(
            gains=GainVector(2.0, 2), network=one_neuron_net(1.0)
        )
        x = StateVector([0.0, 0.0])
        u, _, log = control_step(ctrl, constant_plant(0.0, 2.0), x, x, 0.0, 0.0, 1e-3)
        assert log.s == 0.0
        assert log.d_hat == 1.0
        assert u == pytest.approx(-0.5, abs=0)

    def test_zero_error_gives_zero_s(self):
        net = default_network(5, 1.0, 1.0)
        for lam in (0.5, 2.0, 7.0):
            ctrl = ControllerState(gains=GainVector(lam, 2), network=net)
            x = StateVector([0.4, -1.0])
            _, _, log = control_step(ctrl, constant_plant(0.0, 1.0), x, x, 0.0, 0.0, 1e-3)
            assert log.s == 0.0


class TestControlStep:
    def test_baseline_keeps_controller_parts(self):
        plant = pendulum_plant()
        ctrl = baseline_ctrl()
        x = StateVector([0.2, 0.0])
        x_d = StateVector([0.0, 0.0])
        u, ctrl2, log = control_step(ctrl, plant, x, x_d, 0.0, 0.0, 1e-3)
        assert ctrl2.gains is ctrl.gains
        assert ctrl2 is ctrl and ctrl2.network is None
        assert log.d_hat == 0.0 and log.w_norm == 0.0

    def test_compensated_zero_error_keeps_weights(self):
        plant = pendulum_plant()
        net = one_neuron_net(0.25)
        ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
        x = StateVector([0.0, 0.0])
        u, ctrl2, log = control_step(ctrl, plant, x, x, 0.0, 0.0, 1e-3)
        np.testing.assert_array_equal(ctrl2.network.weights, net.weights)
        assert log.s == 0.0

    def test_compensated_hand_chain(self):
        # chain the hand values: k = [4, 4], error [1, 0.5] -> s = 2.5,
        # one neuron at 0 with unit width and weight 1 -> d_hat = exp(-3.125),
        # f = -3, xd_n = 2, b = 1/(m l^2) = 2 with m = 0.5, l = 1
        plant = pendulum_plant(m=0.5, l=1.0, c=0.0, g=0.0)
        lam, eta, kappa, dt = 2.0, 2.0, 0.5, 0.1
        net = one_neuron_net(1.0, eta=eta, kappa=kappa)
        ctrl = ControllerState(gains=GainVector(lam, 2), network=net)
        x = StateVector([1.0, 0.5])
        x_d = StateVector([0.0, 0.0])
        # for this plant f(x) = 0 at g = 0, c = 0; feed xd_n = 2 directly
        u, ctrl2, log = control_step(ctrl, plant, x, x_d, 2.0, 0.0, dt)
        s_hand = 2.0 * 1.0 + 0.5
        phi_hand = math.exp(-(s_hand**2) / 2.0)
        d_hat_hand = 1.0 * phi_hand
        u_hand = (0.0 + 2.0 - (4.0 * 1.0 + 4.0 * 0.5) - d_hat_hand) / 2.0
        w_hand = 1.0 + dt * (eta * s_hand * phi_hand - kappa * 1.0)
        assert log.s == pytest.approx(s_hand, abs=0)
        assert log.d_hat == pytest.approx(d_hat_hand, rel=1e-15)
        assert u == pytest.approx(u_hand, rel=1e-15)
        assert log.w_norm == 1.0  # norm of the weights that produced this u
        assert ctrl2.network.weights[0] == pytest.approx(w_hand, rel=1e-14)

    def test_saturation_event_logged(self):
        plant = pendulum_plant()
        ctrl = baseline_ctrl(u_limit=0.5)
        x = StateVector([1.0, 0.0])
        x_d = StateVector([0.0, 0.0])
        u, _, log = control_step(ctrl, plant, x, x_d, 0.0, 0.0, 1e-3)
        assert abs(u) == 0.5
        assert "saturation" in log.event

    def test_weight_cap_event_logged(self):
        plant = pendulum_plant()
        net = RbfNetwork(
            centers=np.array([0.0]),
            widths=np.array([1.0]),
            weights=np.array([0.0]),
            learning_rate=1e4,
            weight_cap=0.1,
        )
        ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
        x = StateVector([1.0, 0.0])
        x_d = StateVector([0.0, 0.0])
        _, ctrl2, log = control_step(ctrl, plant, x, x_d, 0.0, 0.0, 1e-2)
        assert "weight_cap" in log.event
        assert abs(ctrl2.network.weights[0]) == 0.1

    def test_non_finite_adaptation_is_divergence(self):
        # s = lam * 1e9 = 2e9 and eta = 1e300: eta*s overflows to inf and,
        # with every phi_i(s) = 0, inf*phi would give NaN weights
        net = default_network(9, 1.0, 1e300)
        ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
        x = StateVector([1e9, 0.0])
        x_d = StateVector([0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceFault, match="not finite"):
                control_step(ctrl, pendulum_plant(), x, x_d, 0.0, 0.0, 1e-3)
        assert np.array_equal(ctrl.network.weights, np.zeros(9))

    def test_controllability_fault_propagates(self):
        weak = PlantModel(
            order=2, f_eval=lambda x, t: 0.0, b_eval=lambda x, t: 0.01, b_min=0.5, name="weak"
        )
        ctrl = baseline_ctrl()
        x = StateVector([0.0, 0.0])
        with pytest.raises(ControllabilityFault):
            control_step(ctrl, weak, x, x, 0.0, 0.0, 1e-3)

    def test_dt_domain(self):
        plant = pendulum_plant()
        ctrl = baseline_ctrl()
        x = StateVector([0.0, 0.0])
        with pytest.raises(ValueError):
            control_step(ctrl, plant, x, x, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("mode", ["baseline", "compensated"])
    def test_raw_arrays_match_state_vectors(self, mode):
        plant = pendulum_plant(c=0.2)
        net = default_network(7, 1.0, 10.0) if mode == "compensated" else None
        ctrl = ControllerState(gains=GainVector(3.0, 2), network=net, u_limit=5.0)
        x, x_d = np.array([0.4, -0.3]), np.array([0.1, 0.2])
        u_sv, ctrl_sv, log_sv = control_step(ctrl, plant, StateVector(x), StateVector(x_d), 0.7, 0.1, 1e-3)
        u_raw, ctrl_raw, log_raw = control_step(ctrl, plant, x, x_d, 0.7, 0.1, 1e-3)
        assert (u_raw, log_raw) == (u_sv, log_sv)
        if net is not None:
            assert np.array_equal(ctrl_raw.network.weights, ctrl_sv.network.weights)

    def test_state_order_mismatch_rejected(self):
        plant = pendulum_plant()
        with pytest.raises(ValueError, match=r"^state order mismatch: 2 vs 1$"):
            control_step(baseline_ctrl(), plant, StateVector([0.0, 0.0]), StateVector([0.0]), 0.0, 0.0, 1e-3)
        # x and x_d agree with each other, not with the order-2 gains
        x = StateVector([0.0, 0.0, 0.0])
        with pytest.raises(ValueError, match=r"^state order mismatch: 3 vs the gains' 2$"):
            control_step(baseline_ctrl(), plant, x, x, 0.0, 0.0, 1e-3)

    def test_fault_carries_the_state_passed_in(self):
        weak = PlantModel(
            order=2, f_eval=lambda x, t: 0.0, b_eval=lambda x, t: 0.01, b_min=0.5, name="weak"
        )
        x = StateVector([0.3, 0.0])
        with pytest.raises(ControllabilityFault) as exc:
            control_step(baseline_ctrl(), weak, x, StateVector([0.0, 0.0]), 0.0, 0.25, 1e-3)
        assert exc.value.state is x
        assert exc.value.t == 0.25

    @pytest.mark.parametrize("called", [False, True], ids=["inlined", "called"])
    def test_nominal_overflow_is_divergence_caused_by_it(self, called):
        # exp(800) raises OverflowError on a Python float
        f, b = Expression("-x0 + 1e-3 * exp(x1)", {"exp": math.exp}), Expression("1.0")
        if called:
            f, b = closure(f), closure(b)
        plant = PlantModel(order=2, f_eval=f, b_eval=b, b_min=0.5, name="overflowing")
        with pytest.raises(DivergenceFault, match="^control input u overflowed at t=0.5$") as exc:
            control_step(baseline_ctrl(), plant, StateVector([0.0, 800.0]), StateVector([0.0, 0.0]), 0.0, 0.5, 1e-3)
        assert isinstance(exc.value.__cause__, OverflowError)
        assert str(exc.value.__cause__) == "math range error"


def probe_plant(calls):
    """An order-2 plant whose f and b record the type of each state they get
    and of its entries, with the time."""

    def probe(term):
        def called(x, t):
            calls.append((type(x), [type(v) for v in x], t))
            return term(x, t)

        return called

    f = probe(lambda x, t: -x[0] - 0.5 * x[1])
    b = probe(lambda x, t: 1.0 + 0.1 * math.sin(x[0]))
    return PlantModel(order=2, f_eval=f, b_eval=b, b_min=0.5, name="probe")


@pytest.mark.parametrize("mode", ["baseline", "compensated"])
def test_called_terms_get_a_tuple_of_floats_at_every_sample_and_stage(mode):
    calls = []
    plant = probe_plant(calls)
    net = default_network(7, 1.0, 10.0) if mode == "compensated" else None
    ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
    ref = sinusoid_reference(0.5, 1.0, 0.0, 2)
    traj = run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 2.0, 0.05, 1e-2, 2, x0=[0.2, -0.1])
    assert traj.terminal_event is None
    # f and b at 6 samples and at 4 stages of 2 substeps in each of 5 intervals
    assert len(calls) == 2 * (6 + 5 * 2 * 4)
    sample_times = {k * 1e-2 for k in range(6)}
    assert sample_times < {t for _, _, t in calls}
    for x in (StateVector([0.2, -0.1]), np.array([0.2, -0.1]), np.array([0.2, -0.1], dtype=np.float32)):
        control_step(ctrl, plant, x, np.array([0.0, 0.5]), -0.5, 0.3, 1e-2)
    assert len(calls) == 2 * (6 + 5 * 2 * 4) + 2 * 3
    assert all(kind is tuple and entries == [float, float] for kind, entries, _ in calls)


@pytest.mark.parametrize("mode", ["baseline", "compensated"])
def test_a_term_returning_a_numpy_scalar_keeps_the_stages_python_floats(mode):
    # the interval takes f and b as floats, as the law does: a float64 from
    # f must not turn the later stages, the next sample's state or the
    # interval's result into numpy scalars
    calls = []
    plant = probe_plant(calls)
    f = plant.f_eval
    numpy_f = dataclasses.replace(plant, f_eval=lambda x, t: np.float64(f(x, t)))
    net = default_network(7, 1.0, 10.0) if mode == "compensated" else None
    ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
    ref = sinusoid_reference(0.5, 1.0, 0.0, 2)
    runs = [
        run_closed_loop(p, p, ctrl, ref, no_disturbance(), 2.0, 0.05, 1e-2, 2, x0=[0.2, -0.1]) for p in (numpy_f, plant)
    ]
    assert len(calls) == 2 * 2 * (6 + 5 * 2 * 4)
    assert all(kind is tuple and entries == [float, float] for kind, entries, _ in calls)
    fields = ("t", "x", "x_d", "u", "s", "d_hat", "d_true", "w_norm")
    assert [getattr(runs[0], name).tobytes() for name in fields] == [getattr(runs[1], name).tobytes() for name in fields]
    assert runs[0].event == runs[1].event and runs[0].terminal_event is None
    d = disturbance_sampler(no_disturbance(), 1.0)
    y = integrate_interval(numpy_f, (0.1, 0.0), 0.5, 0.0, 0.01, 2, d)
    assert [type(v) for v in y] == [float, float] and y == integrate_interval(plant, (0.1, 0.0), 0.5, 0.0, 0.01, 2, d)


# The law and the interval call a plant's terms they do not inline through
# one rule, PlantModel.terms. Each case below is one on which their two
# earlier copies of that rule disagreed.


def called_plant(f, b=lambda x, t: 1.0):
    return PlantModel(order=2, f_eval=f, b_eval=b, b_min=0.5, name="called")


def law_and_interval(plant):
    """The exception type, or "ok", of the plant's terms called once in the
    law (control_step, the plant nominal) and once in the interval
    (integrate_interval, the plant the truth)."""

    def outcome(call):
        try:
            call()
        except Exception as exc:
            return type(exc)
        return "ok"

    x, d = np.array([0.2, -0.1]), disturbance_sampler(no_disturbance(), 1.0)
    return (
        outcome(lambda: control_step(baseline_ctrl(), plant, x, np.zeros(2), 0.0, 0.0, 1e-2)),
        outcome(lambda: integrate_interval(plant, x, 0.5, 0.0, 1e-2, 1, d)),
    )


def run_as(plant, role):
    """A 6-sample run with the plant as its truth or its nominal model."""
    plain = called_plant(lambda x, t: -x[0])
    truth, nominal = (plant, plain) if role == "truth" else (plain, plant)
    ref = constant_reference(0.0, 2)
    return run_closed_loop(truth, nominal, baseline_ctrl(), ref, no_disturbance(), 2.0, 0.05, 1e-2, 1, x0=[0.2, -0.1])


@pytest.mark.parametrize("role", ["nominal", "truth"])
@pytest.mark.parametrize("kind", [complex, np.complex128], ids=["python", "numpy"])
def test_a_complex_term_is_a_divergence_at_its_first_call(kind, role):
    # float() of a numpy complex keeps its real part with a ComplexWarning,
    # which the tier-1 filter on RuntimeWarning would turn into an error
    plant = called_plant(lambda x, t: kind(-x[0] + 0.5j))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        traj = run_as(plant, role)
        outcomes = law_and_interval(plant)
    assert caught == []
    assert traj.terminal_event == "divergence" and traj.terminal_t == 0.0
    assert outcomes == (DivergenceFault, DivergenceFault)


@pytest.mark.parametrize("role", ["nominal", "truth"])
def test_a_term_returning_a_numeric_string_is_a_type_error(role):
    plant = called_plant(lambda x, t: "-0.5")
    assert law_and_interval(plant) == (TypeError, TypeError)
    with pytest.raises(TypeError):
        run_as(plant, role)


@pytest.mark.parametrize("role", ["nominal", "truth"])
def test_b_below_its_guard_is_a_fault_before_f_is_called(role):
    def f_eval(x, t):
        raise ZeroDivisionError("f is undefined where b vanishes")

    plant = called_plant(f_eval, b=lambda x, t: 0.1)
    assert law_and_interval(plant) == (ControllabilityFault, ControllabilityFault)
    traj = run_as(plant, role)
    assert traj.terminal_event == "controllability_fault" and traj.terminal_t == 0.0


def test_a_controllability_fault_carries_the_tuple_the_terms_received():
    received = []

    def b_eval(x, t):
        received.append(x)
        return 0.1

    plant = called_plant(lambda x, t: 0.0, b=b_eval)
    law = generated.bound_law(baseline_ctrl(), plant, network_step)
    with pytest.raises(ControllabilityFault, match=r"^\|b\|=0.1 below guard 0.5$") as in_law:
        law([0.2, -0.1], [0.0, 0.0, 0.0], 0.0, 1e-2, None)
    d = disturbance_sampler(no_disturbance(), 1.0)
    with pytest.raises(ControllabilityFault, match=r"^\|b\|=0.1 below guard 0.5 during integration$") as in_interval:
        integrate_interval(plant, [0.2, -0.1], 0.5, 0.0, 1e-2, 1, d)
    assert received == [(0.2, -0.1), (0.2, -0.1)]
    assert in_law.value.state is received[0] and in_interval.value.state is received[1]
    # control_step hands back its caller's object instead
    x = StateVector([0.2, -0.1])
    with pytest.raises(ControllabilityFault) as in_step:
        control_step(baseline_ctrl(), plant, x, np.zeros(2), 0.0, 0.0, 1e-2)
    assert in_step.value.state is x


class TestClosedLoopResiduals:
    """Reconstruct the error dynamics from logged trajectories by central
    differences and check the defining equations hold up to the discretization
    error model: hold error ~ (dt/2)|du/dt|*b plus O(dt^2) difference truncation."""

    def residual(self, traj, gains, extra=0.0):
        dt = traj.dt_ctrl
        xt = traj.x[:, 0] - traj.x_d[:, 0]
        xtdd = (xt[2:] - 2.0 * xt[1:-1] + xt[:-2]) / dt**2
        xtd = (xt[2:] - xt[:-2]) / (2.0 * dt)
        return xtdd + gains[1] * xtd + gains[0] * xt[1:-1] - extra

    def error_model(self, traj, b_val):
        dt = traj.dt_ctrl
        udot = np.abs(np.gradient(traj.u, dt))[1:-1]
        return 0.5 * dt * udot * abs(b_val) + 50.0 * dt**2

    def test_nominal_error_dynamics(self):
        plant = pendulum_plant(c=0.0)
        ctrl = baseline_ctrl(lam=2.0)
        ref = sinusoid_reference(0.5, 1.0, 0.0, 2)
        traj = run_closed_loop(
            plant, plant, ctrl, ref, no_disturbance(), 2.0, 3.0, 1e-3, 1, x0=[0.5, 0.0]
        )
        resid = self.residual(traj, ctrl.gains.gains)
        bound = 2.0 * self.error_model(traj, plant.b_eval(None, 0.0))
        assert np.all(np.abs(resid) <= bound)

    def test_disturbed_error_dynamics_with_compensation(self):
        from neurofl.plants import constant_disturbance

        plant = pendulum_plant(c=0.0)
        net = default_network(9, 1.0, 10.0)
        ctrl = ControllerState(gains=GainVector(2.0, 2), network=net)
        ref = sinusoid_reference(0.5, 1.0, 0.0, 2)
        traj = run_closed_loop(
            plant, plant, ctrl, ref, constant_disturbance(0.5), 2.0, 3.0, 1e-3, 1,
            x0=[0.5, 0.0],
        )
        # the loop shaped by the compensated law obeys
        # xt'' + k1 xt' + k0 xt = d - d_hat
        forcing = (traj.d_true - traj.d_hat)[1:-1]
        resid = self.residual(traj, ctrl.gains.gains, extra=forcing)
        bound = 2.0 * self.error_model(traj, plant.b_eval(None, 0.0))
        assert np.all(np.abs(resid) <= bound)


def inline_draws(rng, count):
    """count state entries: signed log-uniform magnitudes from subnormal to
    1e9, +-0.0, +-1e9, +-the smallest subnormal, and values in [-3, 3] whose
    x**2 or x**3 (pow) rounds differently from x*x or x*x*x."""
    out = (10.0 ** rng.uniform(-320.0, 9.0, count) * rng.choice([-1.0, 1.0], count)).tolist()
    uniform = rng.uniform(-3.0, 3.0, 400_000).tolist()
    squares = [a for a in uniform if a**2 != a * a][:200]
    cubes = [a for a in uniform if a**3 != a * a * a][:1000]
    assert len(squares) >= 50 and len(cubes) == 1000
    specials = [0.0, -0.0, 1e9, -1e9, 5e-324, -5e-324, 1e-310, -1e-310, 1.0, -1.0]
    out[: len(specials) + len(squares) + len(cubes)] = specials + squares + cubes
    return out


@pytest.mark.parametrize("name", ["pendulum", "duffing", "vanderpol"])
def test_inlined_nominal_f_matches_the_call_on_an_array_row(name):
    # the loop inlines a config plant's f text on Python float locals; the
    # law used to call f_eval on the state's float64 array row instead
    from neurofl.config import PLANT_BUILDERS

    rng = np.random.default_rng(27)
    count = 12_000
    plants = [PLANT_BUILDERS[name]()]
    params = {"pendulum": dict(m=1.3, l=0.7, c=0.25, g=9.7), "duffing": dict(a=0.3, b1=-1.1, b2=2.5, gain=0.8)}
    plants.append(PLANT_BUILDERS[name](**params.get(name, dict(mu=2.3, gain=1.2))))
    rows = np.array([inline_draws(rng, count), inline_draws(rng, count)]).T
    times = rng.uniform(0.0, 50.0, count).tolist()
    for plant in plants:
        f = plant.f_eval
        inlined = eval(f"lambda x0, x1, t: {f.text}", dict(f.params))
        for k, (x0, x1) in enumerate(rows.tolist()):
            called = f(rows[k], times[k])
            assert type(x0) is float and type(called) is not float
            assert np.float64(inlined(x0, x1, times[k])).view(np.int64) == np.float64(called).view(np.int64), (x0, x1)
