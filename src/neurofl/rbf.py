"""Single-hidden-layer Gaussian RBF compensator with online weight adaptation.

The network maps the scalar combined tracking error s to a disturbance
estimate d_hat = sum_i w_i * phi_i(s). Only the output weights adapt; centers
and widths are fixed at construction.
"""

from __future__ import annotations

import functools
import math
import struct
import types
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceFault
from .plants import _function_code

__all__ = [
    "RbfNetwork",
    "activations",
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

    @property
    def neuron_count(self) -> int:
        return self.centers.size


# the most terms one compiled basis holds; a wider network is evaluated a
# block at a time through the same code: compiling takes time and memory in
# proportion to the terms (1,000 in one function took 12.6 ms and 5.2 MB)
BASIS_TERMS = 64

# k basis responses as straight-line code on Python floats, packed into the
# bound buffer _phi at byte offset _off: phi_i(s) = exp((s - c_i)**2 / nv_i)
# with nv_i = -2 sigma_i^2, which rounds as exp(-((s - c_i)**2) / (2 sigma_i^2))
# does, since IEEE division is sign-symmetric. Python floats on purpose: for
# a 61-neuron network and s swept over [-3, 3], array squaring (x*x) differed
# from pow(x, 2) on 0.08% of the inputs, and np.exp differed from math.exp in
# the last bit on 1.9% of the exponents (4.9% of uniformly drawn ones).
_BASIS = """\
def basis(s):
    _pack(_phi, _off, {terms})
    return _view
"""


@functools.cache
def _basis_code(k: int):
    """The compiled basis of k <= BASIS_TERMS neurons."""
    terms = ", ".join(f"_exp((s - _c{i}) ** 2 / _nv{i})" for i in range(k))
    return _function_code(_BASIS.format(terms=terms), f"basis m={k}")


def _bind_basis(net: RbfNetwork):
    """basis(s): the responses phi_i(s) of net written into one buffer per
    binding and returned as a float64 view of it, which the next call
    overwrites. It raises OverflowError where (s - mu_i)**2 overflows. The
    centers and -2 sigma^2 are the code's globals; each binding has its own
    buffer, so no two runs share one."""
    centers = net.centers.tolist()
    neg_two_var = [-(2.0 * sigma * sigma) for sigma in net.widths.tolist()]
    phi = array("d", bytes(8 * len(centers)))
    view = np.frombuffer(phi)
    blocks = []
    for start in range(0, len(centers), BASIS_TERMS):
        c, nv = centers[start : start + BASIS_TERMS], neg_two_var[start : start + BASIS_TERMS]
        pack = struct.Struct(f"{len(c)}d").pack_into
        bound = {"_exp": math.exp, "_pack": pack, "_phi": phi, "_off": 8 * start, "_view": view}
        bound.update({f"_c{i}": v for i, v in enumerate(c)})
        bound.update({f"_nv{i}": v for i, v in enumerate(nv)})
        blocks.append(types.FunctionType(_basis_code(len(c)), bound))
    if len(blocks) == 1:
        return blocks[0]

    def basis(s):
        for block in blocks:
            block(s)
        return view

    return basis


def activations(net: RbfNetwork, s: float) -> np.ndarray:
    """Basis responses phi_i(s) = exp(-(s - mu_i)^2 / (2 sigma_i^2)), each in
    [0, 1] and 1 at s = mu_i, as a new array."""
    return _bind_basis(net)(s).copy()


def _check_leakage_step(kappa: float, dt_ctrl: float) -> None:
    """The adaptation step scales w by (1 - dt_ctrl*kappa) through the leakage
    term, an explicit Euler step that grows the weights geometrically unless
    dt_ctrl*kappa < 2."""
    if not (dt_ctrl * kappa < 2.0):
        raise ValueError(f"kappa: dt_ctrl*kappa must be < 2 for the leakage step to decay, got {dt_ctrl * kappa:g}")


def _adapt_with_phi(net: RbfNetwork, w: np.ndarray, s: float, dt: float, phi: np.ndarray) -> np.ndarray:
    """A new array: w after one explicit Euler step of
    dw_i/dt = eta * s * phi_i(s) - kappa * w_i, given phi = activations(net, s).

    The gradient term grows each weight along its basis response in the
    direction that moves d_hat = sum_i w_i phi_i(s) toward the disturbance
    driving s (along the surface dynamics s' + lam*s = d - d_hat this makes
    V = s^2/2 + |w - w*|^2/(2 eta) nonincreasing in the ideal-representation
    continuous-time limit with kappa = 0). The leakage term bleeds weight
    magnitude for robustness when the disturbance is not representable.
    Weights exceeding the inf-norm cap, when one is set, are clamped to it.
    """
    gain = net.learning_rate * s
    # eta*s is the factor a run can drive past the float range; phi is in [0, 1]
    if not math.isfinite(gain):
        raise DivergenceFault(f"adaptation gain eta*s={gain:.3g} is not finite; simulation diverged")
    rate = gain * phi - net.leakage * w
    new_weights = w + dt * rate
    if net.weight_cap is not None:
        np.clip(new_weights, -net.weight_cap, net.weight_cap, out=new_weights)
    return new_weights


# the most neurons a network may have: a config allocates their arrays
MAX_NEURONS = 100_000


def default_network(
    neurons: int = 9, s_range: float = 1.0, eta: float = 5.0, kappa: float = 0.0, weight_cap: float | None = None
) -> RbfNetwork:
    """Zero-weight network with centers evenly spaced on [-s_range, s_range],
    learning rate eta, leakage kappa and the inf-norm weight cap, if any.

    Widths equal the center spacing (s_range itself for a single neuron), so
    neighbouring bases overlap at exp(-1/2). Zero initial weights make the
    compensated controller coincide with the baseline at t = 0. RbfNetwork
    checks eta, kappa and weight_cap.
    """
    if neurons < 1:
        raise ValueError("neurons: must be >= 1")
    if neurons > MAX_NEURONS:
        raise ValueError(f"neurons: must be <= {MAX_NEURONS}")
    if not (s_range > 0.0):
        raise ValueError("s_range: must be > 0")
    if neurons == 1:
        centers = np.array([0.0])
        width = s_range
    else:
        centers = np.linspace(-s_range, s_range, neurons)
        width = 2.0 * s_range / (neurons - 1)
    return RbfNetwork(
        centers=centers,
        widths=np.full(neurons, width),
        weights=np.zeros(neurons),
        learning_rate=float(eta),
        leakage=kappa,
        weight_cap=weight_cap,
    )
