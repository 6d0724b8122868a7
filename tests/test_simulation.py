import math

import numpy as np
import pytest

from neurofl import plants
from neurofl.controller import ControllerState
from neurofl.dynamics import StateVector, binomial_gains, filtered_error, tracking_error
from neurofl.errors import DivergenceFault
from neurofl.plants import (
    PlantModel,
    duffing_plant,
    no_disturbance,
    noise_disturbance,
    pendulum_plant,
    sinusoid_disturbance,
)
from neurofl.rbf import activations, default_network
from neurofl.simulation import (
    Trajectory,
    compute_metrics,
    constant_reference,
    ideal_disturbance_plant,
    integrate_interval,
    reference_at,
    rk4_step,
    run_closed_loop,
    sinusoid_reference,
    sum_of_sinusoids_reference,
)

# frozen oracle: e^0.1 evaluated independently; one RK4 step with dt = 0.1 on
# dy/dt = y lands within its local truncation error of it
EXP_TENTH = 1.1051709180756477


def integrator_plant(b=1.0):
    return PlantModel(
        order=2,
        f_eval=lambda x, t: 0.0,
        b_eval=lambda x, t: b,
        b_min=abs(b) / 2.0,
        name="integrator",
    )


def baseline_ctrl(lam=2.0):
    return ControllerState(gains=binomial_gains(2, lam))


class TestRk4Step:
    def test_zero_derivative_is_identity(self):
        y = np.array([1.0, -2.0])
        out = rk4_step(lambda y, t: np.zeros(2), y, 0.0, 0.1)
        np.testing.assert_array_equal(out, y)

    def test_constant_derivative_is_exact(self):
        out = rk4_step(lambda y, t: np.ones(1), np.array([1.0]), 0.0, 0.1)
        np.testing.assert_allclose(out, [1.1], rtol=1e-16)

    def test_exponential_one_step(self):
        out = rk4_step(lambda y, t: y, np.array([1.0]), 0.0, 0.1)
        assert abs(out[0] - EXP_TENTH) < 1e-7

    def test_dt_domain(self):
        with pytest.raises(ValueError):
            rk4_step(lambda y, t: y, np.array([1.0]), 0.0, 0.0)

    def test_non_finite_faults(self):
        with pytest.raises(DivergenceFault):
            rk4_step(lambda y, t: y * np.inf, np.array([1.0]), 0.0, 0.1)

    def test_global_fourth_order(self):
        def run(dt):
            y = np.array([1.0])
            for k in range(round(1.0 / dt)):
                y = rk4_step(lambda y, t: y, y, k * dt, dt)
            return abs(y[0] - math.e)

        e1, e2, e3 = run(1e-2), run(5e-3), run(2.5e-3)
        assert 14.0 <= e1 / e2 <= 18.0
        assert 14.0 <= e2 / e3 <= 18.0


class TestReferenceAt:
    def test_constant(self):
        x_d, xd_n = reference_at(constant_reference(0.7, 2), 3.2)
        np.testing.assert_array_equal(x_d.values, [0.7, 0.0])
        assert xd_n == 0.0

    def test_sinusoid_at_zero(self):
        x_d, xd_n = reference_at(sinusoid_reference(1.0, 1.0, 0.0, 2), 0.0)
        np.testing.assert_allclose(x_d.values, [0.0, 1.0], atol=1e-15)
        assert xd_n == pytest.approx(0.0, abs=1e-15)

    def test_sinusoid_at_quarter_period(self):
        x_d, xd_n = reference_at(sinusoid_reference(1.0, 1.0, 0.0, 2), math.pi / 2)
        np.testing.assert_allclose(x_d.values, [1.0, 0.0], atol=1e-12)
        assert xd_n == pytest.approx(-1.0, rel=1e-12)

    def test_derivative_table_scaling(self):
        # A sin(w t + p): k-th derivative magnitude is A w^k
        spec = sinusoid_reference(0.5, 3.0, 0.2, 4)
        x_d, xd_n = reference_at(spec, 0.9)
        for k in range(4):
            expected = 0.5 * 3.0**k * math.sin(3.0 * 0.9 + 0.2 + k * math.pi / 2)
            assert x_d.values[k] == pytest.approx(expected, rel=1e-12)
        assert xd_n == pytest.approx(0.5 * 3.0**4 * math.sin(3.0 * 0.9 + 0.2), rel=1e-12)

    def test_sum_of_sinusoids(self):
        spec = sum_of_sinusoids_reference([(1.0, 1.0, 0.0), (0.3, 5.0, 1.0)], 2)
        x_d, xd_n = reference_at(spec, 0.4)
        a = reference_at(sinusoid_reference(1.0, 1.0, 0.0, 2), 0.4)
        b = reference_at(sinusoid_reference(0.3, 5.0, 1.0, 2), 0.4)
        np.testing.assert_allclose(x_d.values, a[0].values + b[0].values, rtol=1e-15)
        assert xd_n == pytest.approx(a[1] + b[1], rel=1e-15)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            reference_at(constant_reference(0.0, 2), -1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            constant_reference(0.0, 0)
        with pytest.raises(ValueError):
            sum_of_sinusoids_reference([], 2)

    def test_non_finite_values_rejected_at_construction(self):
        with pytest.raises(ValueError):
            constant_reference(math.nan, 2)
        with pytest.raises(ValueError):
            sinusoid_reference(1.0, 1.0, math.inf, 2)
        # finite entries whose higher derivatives overflow
        with pytest.raises(ValueError):
            sinusoid_reference(1e300, 1e5, 0.0, 3)
        with pytest.raises(ValueError):
            sinusoid_reference(1.0, 1e200, 0.0, 2)
        with pytest.raises(ValueError):
            sum_of_sinusoids_reference([(1e308, 1.0, 0.0), (1e308, 1.0, 0.0)], 1)

    def test_precomputed_terms_match_direct_formula_bitwise(self):
        # x_d^(k)(t) = sum over components of A w^k sin(w t + p + k pi/2),
        # summed in component order starting from 0.0
        comps = [(0.5, 0.9, 0.1), (0.2, 3.1, 2.0), (1.3, 0.37, -1.1)]
        n = 3
        spec = sum_of_sinusoids_reference(comps, n)
        for t in np.linspace(0.0, 40.0, 2001).tolist():
            expected = [0.0] * (n + 1)
            for amplitude, omega, phase in comps:
                for k in range(n + 1):
                    expected[k] += amplitude * omega**k * math.sin(omega * t + phase + k * math.pi / 2.0)
            x_d, xd_n = reference_at(spec, t)
            assert x_d.values.tolist() == expected[:n]
            assert xd_n == expected[n]


class TestRunClosedLoop:
    def test_zero_everything_stays_zero(self):
        traj = run_closed_loop(
            integrator_plant(),
            integrator_plant(),
            baseline_ctrl(),
            constant_reference(0.0, 2),
            no_disturbance(),
            2.0,
            1.0,
            1e-2,
            1,
            x0=[0.0, 0.0],
        )
        assert len(traj) == 101
        assert np.all(traj.x == 0.0)
        assert np.all(traj.u == 0.0)
        assert np.all(traj.s == 0.0)
        assert traj.terminal_event is None

    def test_record_count_and_grid(self):
        traj = run_closed_loop(
            integrator_plant(),
            integrator_plant(),
            baseline_ctrl(),
            constant_reference(0.0, 2),
            no_disturbance(),
            2.0,
            10.0,
            1e-3,
            1,
        )
        assert len(traj) == 10001
        dts = np.diff(traj.t)
        assert np.all(dts > 0.0)
        np.testing.assert_allclose(dts, 1e-3, rtol=1e-9)

    def test_default_initial_state_matches_reference(self):
        ref = sinusoid_reference(0.8, 1.3, 0.4, 2)
        traj = run_closed_loop(
            integrator_plant(),
            integrator_plant(),
            baseline_ctrl(),
            ref,
            no_disturbance(),
            2.0,
            0.1,
            1e-2,
            1,
        )
        np.testing.assert_array_equal(traj.x[0], reference_at(ref, 0.0)[0].values)

    def test_tracking_converges_to_reference(self):
        plant = pendulum_plant(c=0.0)
        traj = run_closed_loop(
            plant,
            plant,
            baseline_ctrl(lam=2.0),
            sinusoid_reference(1.0, 1.0, 0.0, 2),
            no_disturbance(),
            2.0,
            4.0,
            1e-3,
            1,
            x0=[1.0, 0.0],
        )
        xt = traj.x[:, 0] - traj.x_d[:, 0]
        tail = traj.t >= 3.6
        assert np.sqrt(np.mean(xt[tail] ** 2)) < 5e-3

    def test_determinism_with_noise(self):
        plant = pendulum_plant()
        dist = noise_disturbance(0.5, cutoff_hz=3.0, seed=77)
        args = (
            plant,
            plant,
            baseline_ctrl(),
            sinusoid_reference(0.5, 1.0, 0.0, 2),
        )
        a = run_closed_loop(*args, dist, 2.0, 1.0, 1e-3, 2, x0=[0.2, 0.0])
        b = run_closed_loop(*args, dist, 2.0, 1.0, 1e-3, 2, x0=[0.2, 0.0])
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.d_true, b.d_true)

    def test_input_held_over_substeps(self):
        # replaying each interval from the logged state with the logged (held)
        # input must land exactly on the next logged state
        plant = pendulum_plant(c=0.1)
        dist = sinusoid_disturbance(0.3, 0.7)
        traj = run_closed_loop(
            plant,
            plant,
            baseline_ctrl(),
            sinusoid_reference(0.5, 1.0, 0.0, 2),
            dist,
            2.0,
            0.5,
            1e-2,
            4,
            x0=[0.3, 0.0],
        )
        for k in range(len(traj) - 1):
            replay = integrate_interval(
                plant, traj.x[k].copy(), traj.u[k], traj.t[k], traj.dt_ctrl, 4, dist
            )
            np.testing.assert_array_equal(replay, traj.x[k + 1])

    @pytest.mark.parametrize("T, dt_ctrl, substeps, sample_dt, want", [
        (0.08, 1e-3, 4, 1e-3, 81),
        (5.0, 1e-3, 1, 1e-3, 5001),
        (0.25, 1e-2, 3, 3e-3, 84),
    ])
    def test_noise_generated_for_exactly_the_horizon(self, monkeypatch, T, dt_ctrl, substeps, sample_dt, want):
        lengths = []
        real = plants._noise_series

        def recording(spec, count):
            lengths.append(count)
            return real(spec, count)

        monkeypatch.setattr(plants, "_noise_series", recording)
        plant = pendulum_plant(c=0.1)
        dist = noise_disturbance(0.3, 4.0, seed=2, sample_dt=sample_dt)
        traj = run_closed_loop(
            plant, plant, baseline_ctrl(), sinusoid_reference(0.5, 1.0, 0.0, 2), dist, 2.0, T, dt_ctrl, substeps,
        )
        assert lengths == [want]
        assert traj.terminal_event is None

    def test_float_overflow_in_the_plant_is_divergence(self):
        # x**3 on a Python float raises OverflowError where a numpy scalar
        # would overflow to inf; either way the interval ends in DivergenceFault
        plant = duffing_plant(b2=50.0)
        with pytest.raises(DivergenceFault, match="overflowed in the RK4 step at t=0.0025"):
            integrate_interval(plant, np.array([1e9, 0.0]), 0.0, 0.0, 1e-2, 4, no_disturbance())

    def test_divergence_from_model_mismatch_ends_run(self):
        # truth has strong positive feedback the nominal model knows nothing
        # about, so the loop blows up and the run must stop with the event
        truth = PlantModel(
            order=2,
            f_eval=lambda x, t: 50.0 * x[0] ** 3 + 5.0,
            b_eval=lambda x, t: 1.0,
            b_min=0.5,
            name="unstable",
        )
        traj = run_closed_loop(
            truth,
            integrator_plant(),
            ControllerState(gains=binomial_gains(2, 0.5)),
            constant_reference(1.0, 2),
            no_disturbance(),
            0.5,
            10.0,
            1e-2,
            1,
            x0=[1.0, 0.0],
        )
        assert traj.terminal_event == "divergence"
        assert len(traj) < 1001
        assert "divergence" in traj.event[-1]
        assert not compute_metrics(traj).bounded

    def test_controllability_fault_ends_run(self):
        fading = PlantModel(
            order=2,
            f_eval=lambda x, t: 0.0,
            b_eval=lambda x, t: 1.0 - 0.4 * t,
            b_min=0.5,
            name="fading",
        )
        traj = run_closed_loop(
            fading,
            fading,
            baseline_ctrl(),
            constant_reference(0.0, 2),
            no_disturbance(),
            2.0,
            10.0,
            1e-2,
            1,
            x0=[0.1, 0.0],
        )
        assert traj.terminal_event == "controllability_fault"
        assert len(traj) < 1001
        assert not compute_metrics(traj).bounded

    def test_validation_errors(self):
        plant = integrator_plant()
        ctrl = baseline_ctrl(lam=2.0)
        ref = constant_reference(0.0, 2)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 2.0, 0.0, 1e-3, 1)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 2.0, 1.0, 0.0, 1)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 2.0, 1.0, 1e-3, 0)
        with pytest.raises(ValueError):
            run_closed_loop(plant, plant, ctrl, ref, no_disturbance(), 1.0, 1.0, 1e-3, 1)
        with pytest.raises(ValueError):
            run_closed_loop(
                plant, plant, ctrl, constant_reference(0.0, 3), no_disturbance(), 2.0, 1.0, 1e-3, 1
            )
        with pytest.raises(ValueError):
            run_closed_loop(
                plant, plant, ctrl, ref, no_disturbance(), 2.0, 1.0, 1e-3, 1, x0=[0.0]
            )


def test_unforced_pendulum_energy_drift():
    # free swing, no damping: total energy is conserved to integrator accuracy
    m, l, g = 1.0, 1.0, 9.81
    plant = pendulum_plant(m=m, l=l, c=0.0, g=g)

    def deriv(y, t):
        return np.array([y[1], plant.f_eval(y, t)])

    def energy(y):
        return 0.5 * m * l * l * y[1] ** 2 + m * g * l * (1.0 - math.cos(y[0]))

    y = np.array([1.2, 0.0])
    e0 = energy(y)
    dt = 1e-3
    for k in range(10_000):
        y = rk4_step(deriv, y, k * dt, dt)
    assert abs(energy(y) - e0) / e0 < 1e-6


class TestComputeMetrics:
    def synthetic(self, t, xt, u=None):
        n = t.size
        x = np.zeros((n, 2))
        x[:, 0] = xt
        return Trajectory(
            t=t,
            x=x,
            x_d=np.zeros((n, 2)),
            u=np.zeros(n) if u is None else u,
            s=np.zeros(n),
            d_hat=np.zeros(n),
            d_true=np.zeros(n),
            w_norm=np.zeros(n),
            event=[""] * n,
            order=2,
            dt_ctrl=float(t[1] - t[0]) if n > 1 else 1.0,
        )

    def test_identically_zero(self):
        traj = self.synthetic(np.linspace(0, 1, 11), np.zeros(11))
        m = compute_metrics(traj)
        assert m.rms_error == 0.0 and m.iae == 0.0 and m.steady_state_error == 0.0
        assert m.max_abs_u == 0.0 and m.bounded

    def test_constant_error_rectangle(self):
        t = np.linspace(0.0, 10.0, 1001)
        m = compute_metrics(self.synthetic(t, np.full(1001, 0.2)))
        assert m.iae == pytest.approx(2.0, rel=1e-12)
        assert m.steady_state_error == pytest.approx(0.2, rel=1e-12)
        assert m.rms_error == pytest.approx(0.2, rel=1e-12)

    def test_sinusoid_rms(self):
        t = np.arange(0.0, 2.0 * math.pi + 1e-12, 1e-3)
        m = compute_metrics(self.synthetic(t, np.sin(t)))
        assert m.rms_error == pytest.approx(math.sqrt(0.5), abs=1e-3)

    def test_max_abs_u(self):
        t = np.linspace(0.0, 1.0, 11)
        u = np.linspace(-3.0, 2.0, 11)
        assert compute_metrics(self.synthetic(t, np.zeros(11), u)).max_abs_u == 3.0

    def test_empty_rejected(self):
        traj = self.synthetic(np.array([0.0]), np.array([0.0]))
        traj.t = traj.t[:0]
        traj.x = traj.x[:0]
        with pytest.raises(ValueError):
            compute_metrics(traj)


class TestIdealDisturbancePlant:
    def test_forcing_equals_target_output_at_current_error(self):
        base = pendulum_plant(c=0.2)
        ref = sinusoid_reference(0.5, 1.0, 0.0, 2)
        lam = 2.0
        target = default_network(7, 1.0, 5.0)
        target = type(target)(
            centers=target.centers,
            widths=target.widths,
            weights=np.linspace(-0.3, 0.3, 7),
            learning_rate=target.learning_rate,
        )
        truth = ideal_disturbance_plant(base, target, ref, lam)
        for t in (0.0, 0.7, 2.1):
            x = StateVector([0.4, -0.2])
            xt = tracking_error(x, reference_at(ref, t)[0])
            s = filtered_error(xt, lam)
            d = float(np.dot(target.weights, activations(target, s)))
            got = truth.f_eval(x, t)
            assert got == pytest.approx(base.f_eval(x, t) + d, rel=1e-12)

    def test_order_must_match(self):
        base = pendulum_plant()
        target = default_network(3, 1.0, 1.0)
        with pytest.raises(ValueError):
            ideal_disturbance_plant(base, target, constant_reference(0.0, 3), 1.0)
