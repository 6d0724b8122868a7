"""State and tracking-error algebra, pole-placement gains, and stability checks.

The error dynamics of an nth-order linearized loop are shaped by gains taken
from the expansion of (p + lam)^n, which puts every closed-loop pole at -lam.
The scalar combined error s = (d/dt + lam)^(n-1) applied to the error vector
collapses the error state to a first-order surface and is what the disturbance
compensator sees as input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = [
    "StateVector",
    "GainVector",
    "CharPolynomial",
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


@dataclass(frozen=True, eq=False)
class StateVector:
    """State [x, dx/dt, ..., d^(n-1)x/dt^(n-1)] of an nth-order scalar output.

    Reference states and tracking errors use the same shape. Values are
    finite reals; the array is read-only once constructed.
    """

    values: np.ndarray

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


@dataclass(frozen=True, eq=False)
class CharPolynomial:
    """Monic real polynomial, coefficients stored by descending power.

    coefficients[0] is the leading 1; coefficients[-1] is the constant term.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        arr = _readonly_array(self.coefficients, "polynomial coefficients")
        if not np.all(np.isfinite(arr)):
            raise ValueError("polynomial coefficients must all be finite")
        if arr[0] != 1.0:
            raise ValueError("polynomial must be monic (leading coefficient 1)")
        object.__setattr__(self, "coefficients", arr)

    @property
    def degree(self) -> int:
        return self.coefficients.size - 1


@dataclass(frozen=True, eq=False)
class GainVector:
    """Feedback gains gains[i] = C(n, i) * lam^(n-i) pairing with the i-th
    error derivative, so the error characteristic polynomial is (p + lam)^n.

    filter_weights holds the combined-error weights C(n-1, i) * lam^(n-1-i)
    for the same lam. Both are computed once here, from lam and the order."""

    lam: float
    order: int
    gains: np.ndarray = field(init=False)
    filter_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, lam = self.order, self.lam
        if n < 1:
            raise ValueError("gain order must be >= 1")
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
        # a Hurwitz polynomial has only positive coefficients, so this also
        # rejects a lambda whose gains underflow to 0
        if not hurwitz_check(self.char_polynomial()):
            raise ValueError(f"lambda: lambda={lam:g} gives order-{n} gains that are not Hurwitz")

    def char_polynomial(self) -> CharPolynomial:
        """p^n + gains[n-1] p^(n-1) + ... + gains[0], descending storage."""
        coeffs = np.concatenate(([1.0], self.gains[::-1]))
        return CharPolynomial(coeffs)


def hurwitz_check(poly: CharPolynomial) -> bool:
    """True iff every root of the polynomial has strictly negative real part.

    Routh tabulation on the coefficient rows, in exact rational arithmetic:
    a float is a dyadic rational, so the answer is the one for the stored
    coefficients, at any order. A first-column entry that is not positive,
    zero included, means marginal or unstable and is reported as not
    Hurwitz.
    """
    deg = poly.degree
    if deg < 1:
        raise ValueError("polynomial degree must be >= 1")
    coeffs = [Fraction(a) for a in poly.coefficients.tolist()]
    row_hi = coeffs[0::2]
    row_lo = coeffs[1::2]
    width = len(row_hi)
    row_lo += [Fraction(0)] * (width - len(row_lo))

    for _ in range(deg):
        pivot = row_lo[0]
        if pivot <= 0:
            return False
        nxt = [row_hi[j + 1] - row_hi[0] * row_lo[j + 1] / pivot for j in range(width - 1)]
        nxt.append(Fraction(0))
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
