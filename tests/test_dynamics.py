import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neurofl.dynamics import (
    GainVector,
    StateVector,
    filtered_error,
    hurwitz_check,
    tracking_error,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def pascal_row(n):
    """Independent oracle: Pascal-triangle expansion."""
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row


class TestBinomialCoefficient:
    """At lambda = 1 GainVector's gains are C(n, i) for i < n and its filter
    weights are row n - 1 of Pascal's triangle."""

    def test_edge_and_hand_values(self):
        assert GainVector(1.0, 3).gains.tolist() == [1.0, 3.0, 3.0]
        assert GainVector(1.0, 5).gains[2] == pascal_row(5)[2] == 10

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 13])
    def test_matches_pascal_triangle(self, n):
        gains = GainVector(1.0, n + 1)
        assert gains.filter_weights.tolist() == pascal_row(n)
        assert gains.gains.tolist() == pascal_row(n + 1)[: n + 1]

    def test_pascals_rule(self):
        # C(n, i) = C(n-1, i-1) + C(n-1, i); every value is below 2^53, so exact
        for n in range(2, 50):
            gains = GainVector(1.0, n)
            for i in range(1, n):
                assert gains.gains[i] == gains.filter_weights[i - 1] + gains.filter_weights[i]

    def test_domain_errors(self):
        for order in (0, -1):
            with pytest.raises(ValueError, match="gain order must be >= 1"):
                GainVector(1.0, order)

    def test_guard_boundary_is_exact(self):
        # math.comb is exact past 2^63, so order 63 is held, like every other
        # order, only to the finite-and-Hurwitz rule
        for n in (62, 63):
            assert GainVector(1.0, n).gains[n // 2] == float(math.comb(n, n // 2))


def char_coefficients(lam, n):
    """(p + lam)^n as GainVector rounds it: p^n + gains[n-1] p^(n-1) + ... + gains[0]."""
    return [1.0, *GainVector(lam, n).gains[::-1]]


def finite_gains(n, lam):
    try:
        return bool(np.all(np.isfinite(GainVector(lam, n).gains)))
    except ValueError:
        return False


class TestBinomialGains:
    def test_hand_expansions(self):
        np.testing.assert_allclose(GainVector(3.0, 1).gains, [3.0])
        np.testing.assert_allclose(GainVector(2.0, 2).gains, [4.0, 4.0])
        np.testing.assert_allclose(GainVector(1.0, 3).gains, [1.0, 3.0, 3.0])

    def test_char_polynomial_is_shifted_binomial(self):
        # (p + 2)^3 = p^3 + 6p^2 + 12p + 8
        np.testing.assert_allclose(char_coefficients(2.0, 3), [1.0, 6.0, 12.0, 8.0])

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
    def test_all_roots_at_minus_lambda(self, n, lam):
        # coefficient oracle: repeated convolution with (p + lam); on this grid
        # every product is exactly representable, so equality is bitwise
        coeffs = char_coefficients(lam, n)
        exact = np.array([1.0])
        for _ in range(n):
            exact = np.convolve(exact, [1.0, lam])
        np.testing.assert_array_equal(coeffs, exact)
        # companion-matrix eigenvalues scatter like lam * eps^(1/n) around a
        # multiplicity-n root, but their mean is anchored by the exact trace
        roots = np.roots(coeffs)
        assert np.all(np.abs(roots - (-lam)) < 2e-2 * max(1.0, lam))
        assert abs(np.mean(roots) - (-lam)) < 1e-9

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
    def test_gains_are_hurwitz(self, n, lam):
        assert hurwitz_check(char_coefficients(lam, n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gains_are_hurwitz_across_the_float_range(self, n):
        # up to the largest lambda whose gains are finite; (p + lam)^n is
        # Hurwitz for every lam > 0, however far its Routh rows would overflow
        largest = sys.float_info.max ** (1.0 / n)
        while not finite_gains(n, largest):
            largest = math.nextafter(largest, 0.0)
        while finite_gains(n, math.nextafter(largest, math.inf)):
            largest = math.nextafter(largest, math.inf)
        lams = [1e-50, 1.0, 1e100, 4e102, 5e102, largest]
        for lam in [lam for lam in lams if lam <= largest]:
            assert hurwitz_check(char_coefficients(lam, n)) is True, lam

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            GainVector(0.0, 2)
        with pytest.raises(ValueError):
            GainVector(-1.0, 2)
        with pytest.raises(ValueError):
            GainVector(1.0, 0)
        with pytest.raises(ValueError, match="beyond the float range"):
            GainVector(1e200, 2)

    def test_gain_vector_rejects_nonpositive(self):
        # the gains are computed from lambda and the order, never given, so
        # they are positive and n of them unless lambda or the order is bad
        with pytest.raises(TypeError):
            GainVector(lam=1.0, order=2, gains=np.array([1.0, -1.0]))
        for lam in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match=r"^lambda: must be > 0$"):
                GainVector(lam=lam, order=2)
        with pytest.raises(ValueError, match="order"):
            GainVector(lam=1.0, order=0)
        # lambda^2 underflows to 0 below about 1.5e-162
        with pytest.raises(ValueError, match=r"^lambda: .* not Hurwitz$"):
            GainVector(lam=1e-163, order=2)
        assert GainVector(lam=1e-150, order=2).gains[0] > 0.0


class TestHurwitzCheck:
    def test_double_root_at_minus_two(self):
        assert hurwitz_check(np.array([1.0, 4.0, 4.0])) is True

    def test_root_at_plus_one(self):
        assert hurwitz_check(np.array([1.0, 0.0, -1.0])) is False

    def test_imaginary_axis_pair(self):
        # roots are -1 and +/-i (checked against np.roots); marginal is not stable
        poly = np.array([1.0, 1.0, 1.0, 1.0])
        roots = np.roots(poly)
        assert max(r.real for r in roots) < 1e-12  # none strictly positive
        assert any(abs(r.real) < 1e-12 for r in roots)  # but a pair sits on the axis
        assert hurwitz_check(poly) is False

    def test_stable_cubic(self):
        # (p+1)(p+2)(p+3)
        assert hurwitz_check(np.array([1.0, 6.0, 11.0, 6.0])) is True

    def test_unstable_with_positive_leading_rows(self):
        # (p+1)(p-2)(p-3) = p^3 - 4p^2 + p + 6
        assert hurwitz_check(np.array([1.0, -4.0, 1.0, 6.0])) is False

    def test_unstable_cubic_at_large_scale(self):
        # p^3 + lam p^2 + lam^2 p + 2 lam^3: the Routh row lam^2 - 2 lam^2 < 0
        lam = 1e100
        poly = np.array([1.0, lam, lam**2, 2.0 * lam**3])
        assert hurwitz_check(poly) is False

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_check(np.array([1.0]))

    @pytest.mark.parametrize(
        "coeffs, message",
        [
            ([0.0, 1.0, 1.0], "leading coefficient must be > 0"),
            ([-1.0, -2.0, -1.0], "leading coefficient must be > 0"),
            ([1.0, math.nan, 1.0], "must all be finite"),
            ([math.nan, 1.0], "must all be finite"),
            ([1.0, 2.0, math.inf], "must all be finite"),
        ],
    )
    def test_invalid_coefficients_rejected(self, coeffs, message):
        with pytest.raises(ValueError, match=message):
            hurwitz_check(coeffs)

    def test_leading_coefficient_need_not_be_one(self):
        # 2(p + 1)(p + 2) and 2(p + 1)(p - 2): scaling moves no root
        assert hurwitz_check([2.0, 6.0, 4.0]) is True
        assert hurwitz_check([2.0, -2.0, -4.0]) is False

    @pytest.mark.parametrize("lam", [1e150, 1e154])
    def test_overflowing_rows_warn_nothing(self, lam):
        # (p + lam)^2 = p^2 + 2 lam p + lam^2: unscaled, 2 lam * lam^2 would
        # overflow the Routh rows; checking them must warn of nothing
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert hurwitz_check(char_coefficients(lam, 2)) is True

    @pytest.mark.parametrize("order", [78, 100])
    def test_binomial_gains_are_hurwitz_at_high_order(self, order):
        # (p + 1)^n with its coefficients rounded to floats, as GainVector(1.0, n)
        # rounds them; a float Routh tabulation called it unstable from order 78 on
        assert hurwitz_check([float(c) for c in pascal_row(order)]) is True

    def test_rounded_gains_that_leave_the_open_left_half_plane(self):
        # the smallest order above 100 whose rounded binomial gains have a
        # root with Re >= 0: all n roots of (p + 1)^n sit at -1, where a
        # rounding of the coefficients moves them by its n-th root. Every
        # gain is finite and > 0, so the order is at fault, not lambda
        with pytest.raises(ValueError, match=r"^gain order 112: .* not Hurwitz$"):
            GainVector(1.0, 112)
        assert not hurwitz_check([float(c) for c in pascal_row(112)])
        # a gain that underflows to 0 is lambda's fault
        with pytest.raises(ValueError, match=r"^lambda: lambda=1e-200 gives order-2 gains that are not Hurwitz$"):
            GainVector(1e-200, 2)

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_root_oracle_on_random_polynomials(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(200):
            coeffs = np.concatenate(([1.0], rng.uniform(-3.0, 3.0, degree)))
            roots = np.roots(coeffs)
            margin = max(r.real for r in roots)
            if abs(margin) < 1e-7:
                continue  # too close to the axis for either method to call
            assert hurwitz_check(coeffs) == bool(margin < 0.0)


class TestStateVector:
    def test_order_matches_length(self):
        sv = StateVector([1.0, 2.0, 3.0])
        assert sv.order == 3 and len(sv) == 3 and sv[1] == 2.0

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            StateVector([1.0, np.inf])

    def test_values_are_read_only(self):
        sv = StateVector([1.0, 2.0])
        with pytest.raises(ValueError):
            sv.values[0] = 5.0


class TestTrackingError:
    def test_identity_is_zero(self):
        x = StateVector([0.4, -1.2])
        assert np.all(tracking_error(x, x).values == 0.0)

    def test_componentwise(self):
        assert tracking_error(StateVector([1.0, 0.0]), StateVector([0.0, 0.0])) == StateVector(
            [1.0, 0.0]
        )
        got = tracking_error(StateVector([0.3, -0.2]), StateVector([0.1, 0.1]))
        np.testing.assert_allclose(got.values, [0.2, -0.3])

    def test_order_mismatch(self):
        with pytest.raises(ValueError):
            tracking_error(StateVector([1.0]), StateVector([1.0, 2.0]))

    @given(st.lists(finite_floats, min_size=1, max_size=6))
    def test_self_difference_vanishes(self, values):
        x = StateVector(values)
        assert np.all(tracking_error(x, x).values == 0.0)


class TestFilteredError:
    def test_first_order_is_identity(self):
        for lam in (0.3, 1.0, 7.5):
            assert filtered_error(StateVector([0.7]), lam) == 0.7

    def test_hand_values(self):
        assert filtered_error(StateVector([1.0, 0.5]), 2.0) == pytest.approx(2.5, abs=0)
        assert filtered_error(StateVector([1.0, 1.0, 1.0]), 1.0) == pytest.approx(4.0, abs=0)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            filtered_error(StateVector([1.0, 0.5]), 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("lam", [0.3, 2.0, 7.5])
    def test_gain_filter_weights_match_binomial_expansion(self, n, lam):
        gains = GainVector(lam, n)
        expected = [pascal_row(n - 1)[i] * lam ** (n - 1 - i) for i in range(n)]
        assert gains.filter_weights.tolist() == expected
        assert not gains.filter_weights.flags.writeable
        xt = StateVector(np.linspace(-1.3, 0.7, n))
        assert filtered_error(xt, lam) == float(np.dot(gains.filter_weights, xt.values))

    @given(
        st.lists(finite_floats, min_size=2, max_size=4),
        st.lists(finite_floats, min_size=2, max_size=4),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        st.floats(min_value=-10, max_value=10, allow_nan=False),
    )
    def test_linearity(self, xs, ys, a, b):
        n = min(len(xs), len(ys))
        x = np.array(xs[:n])
        y = np.array(ys[:n])
        lam = 1.7
        combined = filtered_error(StateVector(a * x + b * y), lam)
        separate = a * filtered_error(StateVector(x), lam) + b * filtered_error(
            StateVector(y), lam
        )
        assert combined == pytest.approx(separate, rel=1e-9, abs=1e-6)
