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

import numpy as np

# Exact integer binomials stay below 2^63 up to this order; plants of higher
# order than this are outside any practical use of the toolkit.
MAX_BINOMIAL_ORDER = 62

__all__ = [
    "MAX_BINOMIAL_ORDER",
    "StateVector",
    "GainVector",
    "CharPolynomial",
    "binomial_coefficient",
    "binomial_gains",
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
    for the same lam, computed once here rather than at every sample."""

    lam: float
    order: int
    gains: np.ndarray
    filter_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("gain order must be >= 1")
        if not (self.lam > 0.0):
            raise ValueError("lambda: must be > 0")
        arr = _readonly_array(self.gains, "gains")
        if arr.size != self.order:
            raise ValueError("gain count must equal order")
        if not np.all(arr > 0.0):
            raise ValueError("all gains must be strictly positive")
        object.__setattr__(self, "gains", arr)
        weights = _filter_weights(self.order, self.lam)
        weights.setflags(write=False)
        object.__setattr__(self, "filter_weights", weights)

    def char_polynomial(self) -> CharPolynomial:
        """p^n + gains[n-1] p^(n-1) + ... + gains[0], descending storage."""
        coeffs = np.concatenate(([1.0], self.gains[::-1]))
        return CharPolynomial(coeffs)


def binomial_coefficient(n: int, i: int) -> int:
    """C(n, i) = n! / ((n-i)! i!) as an exact integer."""
    if n < 0 or i < 0 or i > n:
        raise ValueError(f"require 0 <= i <= n, got n={n}, i={i}")
    if n > MAX_BINOMIAL_ORDER:
        raise ValueError(f"n={n} exceeds the supported maximum {MAX_BINOMIAL_ORDER}")
    return math.comb(n, i)


def binomial_gains(n: int, lam: float) -> GainVector:
    """Gains that place all n closed-loop error poles at -lam; GainVector
    checks n and lam."""
    try:
        gains = np.array(
            [binomial_coefficient(n, i) * lam ** (n - i) for i in range(n)], dtype=float
        )
    except OverflowError as exc:
        raise ValueError(f"lambda: lambda={lam:g} gives order-{n} gains beyond the float range") from exc
    return GainVector(lam=float(lam), order=n, gains=gains)


def hurwitz_check(poly: CharPolynomial) -> bool:
    """True iff every root of the polynomial has strictly negative real part.

    Routh tabulation on the coefficient rows; a zero pivot means marginal or
    unstable and is reported as not Hurwitz (no epsilon perturbation). The
    rows are those of p = 2^e q with every |a_i / 2^(e i)| <= 1: the roots
    scale by 2^-e, signs kept, and the rows of (p + lam)^n stay finite.
    """
    deg = poly.degree
    if deg < 1:
        raise ValueError("polynomial degree must be >= 1")
    # Python floats: an overflow in the rows gives inf or nan, and no warning
    coeffs = poly.coefficients.tolist()
    # ceil(log2|a_i| / i) from the binary exponent; ldexp scales exactly
    e = max(((math.frexp(a)[1] + i - 1) // i for i, a in enumerate(coeffs) if i and a), default=0)
    coeffs = [math.ldexp(a, -e * i) for i, a in enumerate(coeffs)]
    row_hi = coeffs[0::2]
    row_lo = coeffs[1::2]
    width = len(row_hi)
    row_lo += [0.0] * (width - len(row_lo))

    first_column = [row_hi[0]]
    for _ in range(deg):
        pivot = row_lo[0]
        if pivot == 0.0:
            return False
        first_column.append(pivot)
        nxt = [
            (pivot * row_hi[j + 1] - row_hi[0] * row_lo[j + 1]) / pivot
            for j in range(width - 1)
        ]
        nxt.append(0.0)
        row_hi, row_lo = row_lo, nxt
    return all(v > 0.0 for v in first_column)


def tracking_error(x: StateVector, x_d: StateVector) -> StateVector:
    """Componentwise x - x_d."""
    if x.order != x_d.order:
        raise ValueError(f"state order mismatch: {x.order} vs {x_d.order}")
    return StateVector(x.values - x_d.values)


def _filter_weights(n: int, lam: float) -> np.ndarray:
    """Weights C(n-1, i) * lam^(n-1-i) of the combined error, i = 0..n-1."""
    return np.array(
        [binomial_coefficient(n - 1, i) * lam ** (n - 1 - i) for i in range(n)], dtype=float
    )


def filtered_error(xt: StateVector, lam: float) -> float:
    """Scalar combined error s = (d/dt + lam)^(n-1) applied to the error vector.

    s = sum_i C(n-1, i) * lam^(n-1-i) * xt[i]; for n = 1 this is xt[0] itself.
    """
    if not (lam > 0.0):
        raise ValueError("lambda must be > 0")
    return float(np.dot(_filter_weights(xt.order, lam), xt.values))
