import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neurofl.dynamics import binomial_gains
from neurofl.errors import DivergenceFault
from neurofl.rbf import (
    RbfNetwork,
    activations,
    adapt_weights,
    default_network,
    gaussian_basis,
    network_output,
)

# frozen oracle: exp(-1/2) evaluated independently
EXP_MINUS_HALF = 0.6065306597126334


def make_net(centers, widths=None, weights=None, eta=1.0, kappa=0.0, cap=None):
    centers = np.asarray(centers, dtype=float)
    if widths is None:
        widths = np.ones_like(centers)
    if weights is None:
        weights = np.zeros_like(centers)
    return RbfNetwork(
        centers=centers,
        widths=np.asarray(widths, dtype=float),
        weights=np.asarray(weights, dtype=float),
        learning_rate=eta,
        leakage=kappa,
        weight_cap=cap,
    )


class TestGaussianBasis:
    def test_peak_at_center(self):
        assert gaussian_basis(0.0, 0.0, 1.0) == 1.0

    def test_one_sigma_value(self):
        assert gaussian_basis(1.0, 0.0, 1.0) == pytest.approx(EXP_MINUS_HALF, rel=1e-15)

    def test_even_symmetry(self):
        a = 0.37
        assert gaussian_basis(a, 0.0, 0.8) == gaussian_basis(-a, 0.0, 0.8)
        # off-origin centers are symmetric up to rounding of (mu +/- a)
        assert gaussian_basis(0.2 + a, 0.2, 0.8) == pytest.approx(
            gaussian_basis(0.2 - a, 0.2, 0.8), rel=1e-15
        )

    def test_sigma_domain(self):
        with pytest.raises(ValueError):
            gaussian_basis(0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_basis(0.0, 0.0, -1.0)

    @given(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-5, max_value=5, allow_nan=False),
        st.floats(min_value=0.5, max_value=10, allow_nan=False),
    )
    def test_bounds(self, s, mu, sigma):
        phi = gaussian_basis(s, mu, sigma)
        assert 0.0 < phi <= 1.0
        if s == mu:
            assert phi == 1.0
        elif abs(s - mu) > 1e-3 * sigma:
            assert phi < 1.0


class TestActivations:
    def test_single_neuron_at_center(self):
        np.testing.assert_array_equal(activations(make_net([0.0]), 0.0), [1.0])

    def test_symmetric_pair(self):
        net = make_net([-1.0, 1.0])
        got = activations(net, 0.0)
        np.testing.assert_allclose(got, [EXP_MINUS_HALF, EXP_MINUS_HALF], rtol=1e-15)

    def test_elementwise_matches_scalar_basis(self):
        net = make_net([-2.0, -0.5, 0.1, 3.0], widths=[0.5, 1.0, 2.0, 0.3])
        for s in (-1.7, 0.0, 0.42, 2.9):
            got = activations(net, s)
            for i in range(net.neuron_count):
                assert got[i] == gaussian_basis(s, net.centers[i], net.widths[i])

    def test_dense_sweep_matches_scalar_basis_bitwise(self):
        # 61 neurons on [-1, 1]; s over [-3, 3] plus a cluster around 0
        net = default_network(61, 1.0, 5.0)
        near_zero = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, *np.linspace(-1e-9, 1e-9, 201)]
        sweep = [*np.linspace(-3.0, 3.0, 10_001).tolist(), *near_zero]
        centers, widths = net.centers.tolist(), net.widths.tolist()
        for s in sweep:
            expected = [gaussian_basis(s, mu, sigma) for mu, sigma in zip(centers, widths)]
            assert activations(net, s).tolist() == expected, s


class TestNetworkOutput:
    def test_zero_weights_give_zero(self):
        net = make_net([-1.0, 0.0, 1.0])
        for s in (-3.0, 0.0, 0.7):
            assert network_output(net, s) == 0.0

    def test_single_neuron_at_center(self):
        net = make_net([0.5], weights=[2.0])
        assert network_output(net, 0.5) == 2.0

    def test_antisymmetric_pair_cancels(self):
        net = make_net([-1.0, 1.0], weights=[1.0, -1.0])
        assert network_output(net, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(3)
        centers = np.sort(rng.uniform(-2, 2, 5))
        w = rng.standard_normal(5)
        v = rng.standard_normal(5)
        a, b = 1.3, -0.7
        for s in rng.uniform(-2, 2, 10):
            combined = network_output(make_net(centers, weights=a * w + b * v), s)
            separate = a * network_output(make_net(centers, weights=w), s) + b * network_output(
                make_net(centers, weights=v), s
            )
            assert combined == pytest.approx(separate, rel=1e-12, abs=1e-14)


class TestAdaptWeights:
    def test_zero_error_is_identity(self):
        net = make_net([-1.0, 0.0, 1.0], weights=[0.3, -0.2, 0.5])
        out = adapt_weights(net, 0.0, 0.1)
        np.testing.assert_array_equal(out.weights, net.weights)

    def test_single_neuron_euler_step(self):
        # sigma chosen so phi(2) = 0.5 exactly: (s-mu)^2 = 2 sigma^2 ln 2
        sigma = math.sqrt(2.0 / math.log(2.0))
        net = make_net([0.0], widths=[sigma], weights=[0.0], eta=1.0)
        assert gaussian_basis(2.0, 0.0, sigma) == pytest.approx(0.5, rel=1e-15)
        out = adapt_weights(net, 2.0, 0.1)
        # dw = eta * s * phi * dt = 1 * 2 * 0.5 * 0.1
        assert out.weights[0] == pytest.approx(0.1, rel=1e-12)

    def test_positive_error_grows_every_weight(self):
        net = make_net([-1.0, 0.0, 1.0], weights=[0.3, -0.2, 0.5])
        out = adapt_weights(net, 0.8, 0.05)
        assert np.all(out.weights > net.weights)

    def test_leakage_pulls_toward_zero(self):
        net = make_net([0.0], weights=[1.0], eta=1.0, kappa=2.0)
        out = adapt_weights(net, 0.0, 0.1)
        assert out.weights[0] == pytest.approx(0.8)

    def test_weight_cap_clamps(self):
        net = make_net([0.0], weights=[0.0], eta=100.0, cap=0.5)
        out = adapt_weights(net, 1.0, 1.0)
        assert out.weights[0] == 0.5

    def test_original_network_unchanged(self):
        net = make_net([0.0], weights=[0.0])
        adapt_weights(net, 1.0, 0.1)
        assert net.weights[0] == 0.0

    def test_domain_errors(self):
        net = make_net([0.0])
        with pytest.raises(ValueError):
            adapt_weights(net, 1.0, 0.0)
        with pytest.raises(DivergenceFault):
            adapt_weights(net, float("nan"), 0.1)
        with pytest.raises(DivergenceFault):
            adapt_weights(net, float("inf"), 0.1)

    def test_update_direction_matches_output_gradient(self):
        # phi_i(s) should equal d(d_hat)/d(w_i), checked by central differences
        net = make_net([-1.0, 0.0, 1.0], widths=[0.7, 0.7, 0.7], weights=[0.2, -0.1, 0.4])
        h = 1e-6
        for s in (-0.9, 0.0, 0.55):
            phi = activations(net, s)
            for i in range(net.neuron_count):
                wp = net.weights.copy()
                wm = net.weights.copy()
                wp[i] += h
                wm[i] -= h
                grad = (
                    network_output(replace(net, weights=wp), s)
                    - network_output(replace(net, weights=wm), s)
                ) / (2 * h)
                assert grad == pytest.approx(phi[i], rel=1e-6)
        # and one Euler step moves along +eta*s*phi when leakage is off
        s = 0.55
        out = adapt_weights(net, s, 1e-3)
        np.testing.assert_allclose(
            out.weights - net.weights,
            1e-3 * net.learning_rate * s * activations(net, s),
            rtol=1e-12,
        )


class TestDefaultNetwork:
    def test_three_neurons(self):
        net = default_network(3, 1.0, 0.5)
        np.testing.assert_allclose(net.centers, [-1.0, 0.0, 1.0])
        np.testing.assert_allclose(net.widths, [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(net.weights, [0.0, 0.0, 0.0])
        assert net.learning_rate == 0.5
        assert net.leakage == 0.0

    def test_single_neuron(self):
        net = default_network(1, 2.0, 1.0)
        np.testing.assert_allclose(net.centers, [0.0])
        np.testing.assert_allclose(net.widths, [2.0])

    def test_five_neuron_spacing(self):
        net = default_network(5, 2.0, 1.0)
        np.testing.assert_allclose(np.diff(net.centers), 1.0)
        np.testing.assert_allclose(net.widths, 1.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            default_network(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            default_network(3, 0.0, 1.0)
        with pytest.raises(ValueError):
            default_network(3, 1.0, 0.0)


class TestNetworkInvariants:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            RbfNetwork(
                centers=np.array([0.0, 1.0]),
                widths=np.array([1.0]),
                weights=np.array([0.0, 0.0]),
                learning_rate=1.0,
            )

    def test_rejects_unsorted_centers(self):
        with pytest.raises(ValueError):
            make_net([1.0, -1.0])

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValueError):
            make_net([0.0], widths=[0.0])

    def test_rejects_bad_rates(self):
        with pytest.raises(ValueError):
            make_net([0.0], eta=0.0)
        with pytest.raises(ValueError):
            make_net([0.0], kappa=-0.1)


def test_ideal_representation_descent():
    """With the disturbance generated by a frozen copy of the network, the
    energy V = s^2/2 + |w - w*|^2/(2 eta) must not grow between samples beyond
    the per-step discretization tolerance."""
    from neurofl.controller import ControllerState
    from neurofl.plants import no_disturbance, pendulum_plant
    from neurofl.simulation import constant_reference, ideal_disturbance_plant, run_closed_loop

    lam = 2.0
    dt = 1e-3
    net = default_network(9, 1.0, 5.0)
    rng = np.random.default_rng(11)
    target = replace(net, weights=rng.uniform(-0.4, 0.4, net.neuron_count))
    base = pendulum_plant(c=0.0)
    ref = constant_reference(0.0, 2)
    truth = ideal_disturbance_plant(base, target, ref, lam)
    ctrl = ControllerState(gains=binomial_gains(2, lam), mode="compensated", network=net)
    traj = run_closed_loop(
        truth, base, ctrl, ref, no_disturbance(), lam, 2.0, dt, 1,
        x0=[0.3, 0.0], record_weights=True,
    )
    assert traj.terminal_event is None
    V = 0.5 * traj.s**2 + np.sum((traj.weights - target.weights) ** 2, axis=1) / (
        2.0 * net.learning_rate
    )
    dV = np.diff(V)
    assert np.max(dV) <= 10.0 * dt * dt
