import ast
import linecache
import math
import random
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neurofl import rbf
from neurofl.controller import ControllerState, control_step
from neurofl.dynamics import GainVector
from neurofl.errors import DivergenceFault
from neurofl.plants import PlantModel, no_disturbance
from neurofl.rbf import RbfNetwork, _adapt_with_phi, activations, default_network
from neurofl.simulation import EVENT_DIVERGENCE, constant_reference, run_closed_loop

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


def gaussian_oracle(s, mu, sigma):
    """Independent oracle: phi = exp(-(s - mu)^2 / (2 sigma^2))."""
    return math.exp(-((s - mu) ** 2) / (2.0 * sigma * sigma))


def gaussian_basis(s, mu, sigma):
    """The network's basis response at s for one neuron at mu of width sigma."""
    return activations(make_net([mu], widths=[sigma]), s)[0]


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
                assert got[i] == gaussian_oracle(s, net.centers[i], net.widths[i])

    def test_dense_sweep_matches_scalar_basis_bitwise(self):
        # 61 neurons on [-1, 1]; s over [-3, 3] plus a cluster around 0
        net = default_network(61, 1.0, 5.0)
        near_zero = [0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, *np.linspace(-1e-9, 1e-9, 201)]
        sweep = [*np.linspace(-3.0, 3.0, 10_001).tolist(), *near_zero]
        centers, widths = net.centers.tolist(), net.widths.tolist()
        for s in sweep:
            expected = [gaussian_oracle(s, mu, sigma) for mu, sigma in zip(centers, widths)]
            assert activations(net, s).tolist() == expected, s


def comprehension_basis(net, s):
    """An independent copy of the basis as a comprehension over the centers
    and 2 sigma^2, the form the network evaluated before its basis was
    generated code."""
    pairs = [(mu, 2.0 * sigma * sigma) for mu, sigma in zip(net.centers.tolist(), net.widths.tolist())]
    return [math.exp(-((s - mu) ** 2) / two_var) for mu, two_var in pairs]


def basis_or_overflow(basis, s):
    try:
        return basis(s)
    except OverflowError:
        return OverflowError


# the largest s whose square is finite
SQRT_MAX = 1.3407807929942596e154


class TestGeneratedBasis:
    """The generated basis against comprehension_basis, bit for bit, across
    the 64-term block boundary."""

    @pytest.mark.parametrize("neurons", [1, 2, 7, 9, 61, 64, 65, 129])
    def test_matches_the_comprehension_bitwise(self, neurons):
        net = default_network(neurons, 1.5, 5.0)
        basis = rbf._bind_basis(net)
        rng = random.Random(neurons)
        draws = [rng.uniform(-4.0, 4.0) for _ in range(200)] + [rng.gauss(0.0, 1e-3) for _ in range(50)]
        for s in [0.0, -0.0, 1e-300, -1e-300, 5e-324, *net.centers.tolist(), *draws]:
            assert basis(s).tolist() == comprehension_basis(net, s), s
        # the one buffer, overwritten by each call; activations copies it
        assert basis(0.3) is basis(-0.3)
        assert activations(net, 0.3) is not activations(net, 0.3)

    def test_matches_the_comprehension_at_the_widest_network(self):
        net = default_network(rbf.MAX_NEURONS, 2.0, 5.0)
        basis = rbf._bind_basis(net)
        for s in (0.0, 1.37, -1.9999, random.Random(5).uniform(-2.0, 2.0)):
            assert basis(s).tolist() == comprehension_basis(net, s), s

    @pytest.mark.parametrize("neurons", [1, 9, 65])
    def test_overflows_where_the_comprehension_does(self, neurons):
        net = default_network(neurons, 1.0, 5.0)
        basis = rbf._bind_basis(net)
        near = [SQRT_MAX, math.nextafter(SQRT_MAX, math.inf), 1.3e154, 1.35e154, 1e300]
        outcomes = []
        for s in near + [-v for v in near]:
            expected = basis_or_overflow(lambda v: comprehension_basis(net, v), s)
            got = basis_or_overflow(lambda v: basis(v).tolist(), s)
            assert got == expected, s
            outcomes.append(got is OverflowError)
        assert any(outcomes) and not all(outcomes)

    @pytest.mark.parametrize("sigma", [1e-160, 3e-162, 1e150, 1e154], ids=["subnormal", "smallest", "huge", "inf"])
    def test_matches_the_comprehension_at_extreme_widths(self, sigma):
        # 2 sigma^2 is subnormal, the smallest subnormal, near the float
        # maximum, or overflows to inf
        centers = np.linspace(-1.0, 1.0, 70)
        net = make_net(centers, widths=np.full(70, sigma))
        basis = rbf._bind_basis(net)
        for s in [0.0, -0.0, 1e-300, *centers[::7].tolist(), 0.123, -5.0, 1e100]:
            assert basis(s).tolist() == comprehension_basis(net, s), s

    def test_an_overflow_ends_a_run_in_the_same_divergence(self):
        # on an order-1 loop s is the state error itself
        net = default_network(65, 1.0, 5.0)
        ctrl = ControllerState(gains=GainVector(1.0, 1), network=net)
        plant = PlantModel(order=1, f_eval=lambda x, t: 0.0, b_eval=lambda x, t: 1.0, b_min=0.5, name="integrator")
        message = "combined error s=1.35e+154 overflowed the RBF basis at t=0"
        with pytest.raises(DivergenceFault, match=f"^{re.escape(message)}$"):
            control_step(ctrl, plant, np.array([0.0]), np.array([-1.35e154]), 0.0, 0.0, 1e-3)
        traj = run_closed_loop(plant, plant, ctrl, constant_reference(-1.35e154, 1), no_disturbance(), 1.0,
                               0.1, 1e-2, 1, x0=[0.0])
        assert traj.terminal_event == EVENT_DIVERGENCE and traj.event == [EVENT_DIVERGENCE]
        assert np.isnan(traj.u[0]) and np.isnan(traj.s[0])


def generated_bases(monkeypatch):
    """The sources of the bases compiled from here on, in order."""
    rbf._basis_code.cache_clear()
    sources = []
    real = rbf._function_code

    def recording(source, name=None):
        code = real(source, name)
        sources.append("".join(linecache.getlines(code.co_filename)))
        assert code.co_filename.startswith(f"<neurofl {name} #") and name.startswith("basis m=")
        return code

    monkeypatch.setattr(rbf, "_function_code", recording)
    return sources


def basis_terms(source):
    """The basis responses a generated source computes: its calls of _exp."""
    calls = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)]
    return sum(getattr(call.func, "id", "") == "_exp" for call in calls)


class TestBasisCompiles:
    def test_no_compiled_basis_exceeds_the_block(self, monkeypatch):
        sources = generated_bases(monkeypatch)
        for neurons in (1, 63, 64, 65, 128, 129, 200):
            activations(default_network(neurons, 1.0, 5.0), 0.2)
        # one code per block size: 1, 63, 64 (65, 128 and 129 reuse 64 and 1), 8
        assert [basis_terms(source) for source in sources] == [1, 63, 64, 8]
        assert max(basis_terms(source) for source in sources) <= rbf.BASIS_TERMS == 64

    def test_the_widest_network_compiles_a_block_and_its_remainder(self, monkeypatch):
        sources = generated_bases(monkeypatch)
        phi = activations(default_network(rbf.MAX_NEURONS, 1.0, 5.0), 0.2)
        assert phi.shape == (rbf.MAX_NEURONS,)
        assert sorted(basis_terms(source) for source in sources) == [rbf.MAX_NEURONS % 64, 64]


def d_hat(net, s):
    """The disturbance estimate sum_i w_i phi_i(s) that control_step applies
    at combined error s: on an order-1 loop s is the state error itself."""
    ctrl = ControllerState(gains=GainVector(1.0, 1), network=net)
    plant = PlantModel(order=1, f_eval=lambda x, t: 0.0, b_eval=lambda x, t: 1.0, b_min=0.5, name="integrator")
    _, _, log = control_step(ctrl, plant, np.array([s]), np.array([0.0]), 0.0, 0.0, 1e-3)
    assert log.s == s
    return log.d_hat


def adapt(net, s, dt):
    """The network's weights after one adaptation step at s."""
    return _adapt_with_phi(net, net.weights, s, dt, activations(net, s))


class TestNetworkOutput:
    def test_zero_weights_give_zero(self):
        net = make_net([-1.0, 0.0, 1.0])
        for s in (-3.0, 0.0, 0.7):
            assert d_hat(net, s) == 0.0

    def test_single_neuron_at_center(self):
        net = make_net([0.5], weights=[2.0])
        assert d_hat(net, 0.5) == 2.0

    def test_antisymmetric_pair_cancels(self):
        net = make_net([-1.0, 1.0], weights=[1.0, -1.0])
        assert d_hat(net, 0.0) == pytest.approx(0.0, abs=1e-16)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(3)
        centers = np.sort(rng.uniform(-2, 2, 5))
        w = rng.standard_normal(5)
        v = rng.standard_normal(5)
        a, b = 1.3, -0.7
        for s in rng.uniform(-2, 2, 10):
            combined = d_hat(make_net(centers, weights=a * w + b * v), s)
            separate = a * d_hat(make_net(centers, weights=w), s) + b * d_hat(make_net(centers, weights=v), s)
            assert combined == pytest.approx(separate, rel=1e-12, abs=1e-14)


class TestAdaptWeights:
    def test_zero_error_is_identity(self):
        net = make_net([-1.0, 0.0, 1.0], weights=[0.3, -0.2, 0.5])
        np.testing.assert_array_equal(adapt(net, 0.0, 0.1), net.weights)

    def test_single_neuron_euler_step(self):
        # sigma chosen so phi(2) = 0.5 exactly: (s-mu)^2 = 2 sigma^2 ln 2
        sigma = math.sqrt(2.0 / math.log(2.0))
        net = make_net([0.0], widths=[sigma], weights=[0.0], eta=1.0)
        assert gaussian_oracle(2.0, 0.0, sigma) == pytest.approx(0.5, rel=1e-15)
        # dw = eta * s * phi * dt = 1 * 2 * 0.5 * 0.1
        assert adapt(net, 2.0, 0.1)[0] == pytest.approx(0.1, rel=1e-12)

    def test_positive_error_grows_every_weight(self):
        net = make_net([-1.0, 0.0, 1.0], weights=[0.3, -0.2, 0.5])
        assert np.all(adapt(net, 0.8, 0.05) > net.weights)

    def test_leakage_pulls_toward_zero(self):
        net = make_net([0.0], weights=[1.0], eta=1.0, kappa=2.0)
        assert adapt(net, 0.0, 0.1)[0] == pytest.approx(0.8)

    def test_weight_cap_clamps(self):
        net = make_net([0.0], weights=[0.0], eta=100.0, cap=0.5)
        assert adapt(net, 1.0, 1.0)[0] == 0.5

    def test_original_network_unchanged(self):
        net = make_net([0.0], weights=[0.0])
        w = np.array([0.25])
        out = _adapt_with_phi(net, w, 1.0, 0.1, activations(net, 1.0))
        assert out is not w
        assert w[0] == 0.25
        assert net.weights[0] == 0.0

    def test_domain_errors(self):
        net = make_net([0.0])
        with pytest.raises(DivergenceFault):
            _adapt_with_phi(net, net.weights, float("nan"), 0.1, np.array([1.0]))
        with pytest.raises(DivergenceFault):
            _adapt_with_phi(net, net.weights, float("inf"), 0.1, np.array([0.0]))
        # eta*s overflows to inf for a finite s, and phi(2e9) = 0 makes inf*phi
        # NaN: a divergence, not NaN weights and a numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceFault):
                adapt(make_net([0.0], eta=1e300), 2e9, 1e-3)

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
                grad = (d_hat(replace(net, weights=wp), s) - d_hat(replace(net, weights=wm), s)) / (2 * h)
                assert grad == pytest.approx(phi[i], rel=1e-6)
        # and one Euler step moves along +eta*s*phi when leakage is off
        s = 0.55
        np.testing.assert_allclose(
            adapt(net, s, 1e-3) - net.weights,
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

    def test_defaults_leakage_and_cap(self):
        net = default_network()
        assert (net.neuron_count, net.learning_rate, net.leakage, net.weight_cap) == (9, 5.0, 0.0, None)
        np.testing.assert_array_equal(net.centers, np.linspace(-1.0, 1.0, 9))
        net = default_network(3, 1.0, 0.5, kappa=0.2, weight_cap=4.0)
        assert (net.leakage, net.weight_cap) == (0.2, 4.0)

    def test_domain_errors(self):
        with pytest.raises(ValueError, match=r"^neurons: "):
            default_network(0, 1.0, 1.0)
        with pytest.raises(ValueError, match=r"^s_range: "):
            default_network(3, 0.0, 1.0)
        with pytest.raises(ValueError, match=r"^eta: "):
            default_network(3, 1.0, 0.0)
        with pytest.raises(ValueError, match=r"^kappa: "):
            default_network(3, 1.0, 1.0, kappa=-0.1)
        with pytest.raises(ValueError, match=r"^weight_cap: "):
            default_network(3, 1.0, 1.0, weight_cap=0.0)


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
    ctrl = ControllerState(gains=GainVector(lam, 2), network=net)
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
