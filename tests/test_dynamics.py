import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from neurofl.dynamics import (
    CharPolynomial,
    GainVector,
    StateVector,
    binomial_coefficient,
    binomial_gains,
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
    def test_edge_and_hand_values(self):
        assert binomial_coefficient(3, 0) == 1
        assert binomial_coefficient(3, 1) == 3
        assert binomial_coefficient(5, 2) == pascal_row(5)[2] == 10

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 13])
    def test_matches_pascal_triangle(self, n):
        assert [binomial_coefficient(n, i) for i in range(n + 1)] == pascal_row(n)

    def test_pascals_rule(self):
        for n in range(2, 20):
            for i in range(1, n):
                assert binomial_coefficient(n, i) == binomial_coefficient(
                    n - 1, i - 1
                ) + binomial_coefficient(n - 1, i)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_coefficient(3, 4)
        with pytest.raises(ValueError):
            binomial_coefficient(-1, 0)
        with pytest.raises(ValueError):
            binomial_coefficient(3, -1)
        with pytest.raises(ValueError):
            binomial_coefficient(63, 2)

    def test_guard_boundary_is_exact(self):
        assert binomial_coefficient(62, 31) == math.comb(62, 31)


class TestBinomialGains:
    def test_hand_expansions(self):
        np.testing.assert_allclose(binomial_gains(1, 3.0).gains, [3.0])
        np.testing.assert_allclose(binomial_gains(2, 2.0).gains, [4.0, 4.0])
        np.testing.assert_allclose(binomial_gains(3, 1.0).gains, [1.0, 3.0, 3.0])

    def test_char_polynomial_is_shifted_binomial(self):
        poly = binomial_gains(3, 2.0).char_polynomial()
        # (p + 2)^3 = p^3 + 6p^2 + 12p + 8
        np.testing.assert_allclose(poly.coefficients, [1.0, 6.0, 12.0, 8.0])

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
    def test_all_roots_at_minus_lambda(self, n, lam):
        # coefficient oracle: repeated convolution with (p + lam); on this grid
        # every product is exactly representable, so equality is bitwise
        poly = binomial_gains(n, lam).char_polynomial()
        exact = np.array([1.0])
        for _ in range(n):
            exact = np.convolve(exact, [1.0, lam])
        np.testing.assert_array_equal(poly.coefficients, exact)
        # companion-matrix eigenvalues scatter like lam * eps^(1/n) around a
        # multiplicity-n root, but their mean is anchored by the exact trace
        roots = np.roots(poly.coefficients)
        assert np.all(np.abs(roots - (-lam)) < 2e-2 * max(1.0, lam))
        assert abs(np.mean(roots) - (-lam)) < 1e-9

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("lam", [0.5, 1.0, 2.0, 5.0])
    def test_gains_are_hurwitz(self, n, lam):
        assert hurwitz_check(binomial_gains(n, lam).char_polynomial())

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            binomial_gains(2, 0.0)
        with pytest.raises(ValueError):
            binomial_gains(2, -1.0)
        with pytest.raises(ValueError):
            binomial_gains(0, 1.0)

    def test_gain_vector_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            GainVector(lam=1.0, order=2, gains=np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            GainVector(lam=1.0, order=2, gains=np.array([1.0]))


class TestCharPolynomial:
    def test_must_be_monic(self):
        with pytest.raises(ValueError):
            CharPolynomial(np.array([2.0, 1.0]))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            CharPolynomial(np.array([1.0, np.nan]))

    def test_degree(self):
        assert CharPolynomial(np.array([1.0, 2.0, 3.0])).degree == 2


class TestHurwitzCheck:
    def test_double_root_at_minus_two(self):
        assert hurwitz_check(CharPolynomial(np.array([1.0, 4.0, 4.0]))) is True

    def test_root_at_plus_one(self):
        assert hurwitz_check(CharPolynomial(np.array([1.0, 0.0, -1.0]))) is False

    def test_imaginary_axis_pair(self):
        # roots are -1 and +/-i (checked against np.roots); marginal is not stable
        poly = CharPolynomial(np.array([1.0, 1.0, 1.0, 1.0]))
        roots = np.roots(poly.coefficients)
        assert max(r.real for r in roots) < 1e-12  # none strictly positive
        assert any(abs(r.real) < 1e-12 for r in roots)  # but a pair sits on the axis
        assert hurwitz_check(poly) is False

    def test_stable_cubic(self):
        # (p+1)(p+2)(p+3)
        assert hurwitz_check(CharPolynomial(np.array([1.0, 6.0, 11.0, 6.0]))) is True

    def test_unstable_with_positive_leading_rows(self):
        # (p+1)(p-2)(p-3) = p^3 - 4p^2 + p + 6
        assert hurwitz_check(CharPolynomial(np.array([1.0, -4.0, 1.0, 6.0]))) is False

    def test_degree_zero_rejected(self):
        with pytest.raises(ValueError):
            hurwitz_check(CharPolynomial(np.array([1.0])))

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5, 6])
    def test_agrees_with_root_oracle_on_random_polynomials(self, degree):
        rng = np.random.default_rng(degree)
        for _ in range(200):
            coeffs = np.concatenate(([1.0], rng.uniform(-3.0, 3.0, degree)))
            roots = np.roots(coeffs)
            margin = max(r.real for r in roots)
            if abs(margin) < 1e-7:
                continue  # too close to the axis for either method to call
            assert hurwitz_check(CharPolynomial(coeffs)) == bool(margin < 0.0)


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
        gains = binomial_gains(n, lam)
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
