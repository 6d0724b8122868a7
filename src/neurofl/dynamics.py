"""State and tracking-error algebra, pole-placement gains, and stability checks.

The error dynamics of an nth-order linearized loop are shaped by gains taken
from the expansion of (p + lam)^n, which puts every closed-loop pole at -lam.
The scalar combined error s = (d/dt + lam)^(n-1) applied to the error vector
collapses the error state to a first-order surface and is what the disturbance
compensator sees as input.
"""

from __future__ import annotations

import math

import numpy as np

from .values import Frozen

__all__ = [
    "StateVector",
    "GainVector",
    "hurwitz_check",
    "tracking_error",
    "filtered_error",
]


def _readonly_array(values, name):
    arr = np.asarray(values, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array of reals")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


class StateVector(Frozen):
    """State [x, dx/dt, ..., d^(n-1)x/dt^(n-1)] of an nth-order scalar output.

    Reference states and tracking errors use the same shape. Values are
    finite reals; the array is read-only once constructed. Two are equal
    when their values are; a StateVector is not hashable.
    """

    def __init__(self, values: np.ndarray):
        vars(self)["values"] = values
        self.__post_init__()

    def __post_init__(self):
        arr = _readonly_array(self.values, "state values")
        if not np.all(np.isfinite(arr)):
            raise ValueError("state values must all be finite")
        object.__setattr__(self, "values", arr)

    @property
    def order(self) -> int:
        return self.values.size

    def __getitem__(self, i):
        return self.values[i]

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        if not isinstance(other, StateVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __repr__(self):
        return f"StateVector({self.values.tolist()})"


class GainVector(Frozen):
    """Feedback gains gains[i] = C(n, i) * lam^(n-i) pairing with the i-th
    error derivative, so the error characteristic polynomial is (p + lam)^n.

    filter_weights holds the combined-error weights C(n-1, i) * lam^(n-1-i)
    for the same lam. Both are computed once here, from lam and the order."""

    def __init__(self, lam: float, order: int):
        vars(self).update(lam=lam, order=order)
        self.__post_init__()

    def __post_init__(self):
        n, lam = self.order, self.lam
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise ValueError("gain order must be an integer >= 1")
        if not (lam > 0.0):
            raise ValueError("lambda: must be > 0")
        try:
            gains = np.array([math.comb(n, i) * lam ** (n - i) for i in range(n)], dtype=float)
            finite = np.isfinite(gains).all()
        except OverflowError:
            finite = False
        if not finite:
            raise ValueError(f"lambda: lambda={lam:g} gives order-{n} gains beyond the float range")
        weights = np.array([math.comb(n - 1, i) * lam ** (n - 1 - i) for i in range(n)], dtype=float)
        for name, arr in (("gains", gains), ("filter_weights", weights)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # p^n + gains[n-1] p^(n-1) + ... + gains[0]; a Hurwitz polynomial has
        # only positive coefficients, so a gain that underflowed to 0 fails
        if not hurwitz_check([1.0, *gains[::-1].tolist()]):
            if not gains.min() > 0.0:
                raise ValueError(f"lambda: lambda={lam:g} gives order-{n} gains that are not Hurwitz")
            raise ValueError(f"gain order {n}: the gains of (p + lambda)^{n} rounded to floats are not Hurwitz")


def hurwitz_check(coefficients) -> bool:
    """True iff every root of the real polynomial with these coefficients, by
    descending power, has strictly negative real part.

    Routh tabulation in exact integer arithmetic: each coefficient, taken as
    a float, is a dyadic rational, so one power of two scales them all to
    integers, and the answer is the one for the stored coefficients, at any
    order. Each row is formed fraction-free, scaled by the positive pivot,
    then divided by its gcd; scaling a row by a positive number changes no
    sign in the first column. A first-column entry that is not positive,
    zero included, means marginal or unstable and is reported as not
    Hurwitz.
    """
    deg = len(coefficients) - 1
    if deg < 1:
        raise ValueError("polynomial degree must be >= 1")
    if not all(map(math.isfinite, coefficients)):
        raise ValueError("polynomial coefficients must all be finite")
    if not coefficients[0] > 0.0:
        raise ValueError("polynomial leading coefficient must be > 0")
    ratios = [float(a).as_integer_ratio() for a in coefficients]
    scale = max(den for _, den in ratios)
    coeffs = [num * (scale // den) for num, den in ratios]
    row_hi = coeffs[0::2]
    row_lo = coeffs[1::2]
    width = len(row_hi)
    row_lo += [0] * (width - len(row_lo))

    for _ in range(deg):
        pivot = row_lo[0]
        if pivot <= 0:
            return False
        nxt = [pivot * row_hi[j + 1] - row_hi[0] * row_lo[j + 1] for j in range(width - 1)]
        nxt.append(0)
        divisor = math.gcd(*nxt)
        if divisor > 1:
            nxt = [v // divisor for v in nxt]
        row_hi, row_lo = row_lo, nxt
    return True


def tracking_error(x: StateVector, x_d: StateVector) -> StateVector:
    """Componentwise x - x_d."""
    if x.order != x_d.order:
        raise ValueError(f"state order mismatch: {x.order} vs {x_d.order}")
    return StateVector(x.values - x_d.values)


def filtered_error(xt: StateVector, lam: float) -> float:
    """Scalar combined error s = (d/dt + lam)^(n-1) applied to the error vector.

    s = sum_i C(n-1, i) * lam^(n-1-i) * xt[i], GainVector's filter_weights;
    for n = 1 this is xt[0] itself.
    """
    return float(np.dot(GainVector(lam, xt.order).filter_weights, xt.values))
