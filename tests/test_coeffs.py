import cmath
import math
import random
import re

import pytest

from superosc.coeffs import (
    HALF_1_MINUS_X,
    HALF_1_PLUS_X,
    c_coeff,
    c_derivative,
    c_recurrence_rhs,
    convergence_profile,
    f_eval,
    f_eval_fourier,
    g_series,
    limit_phase,
    sample_grid,
)
from superosc.exact import Poly, Rat


class TestCoefficientPolys:
    def test_k_zero_is_power(self):
        for n in range(6):
            assert c_coeff(0, n) == HALF_1_PLUS_X**n

    def test_frozen_point_value(self):
        # k=1, n=2 at x=3: 2 * 2 * (-1) = -4
        assert c_coeff(1, 2)(Rat(3)) == -4

    def test_row_sums_to_one(self):
        for n in range(11):
            acc = Poly()
            for k in range(n + 1):
                acc = acc + c_coeff(k, n)
            assert acc == Poly([1]), n

    def test_zero_extension(self):
        assert c_coeff(-1, 4).is_zero
        assert c_coeff(5, 4).is_zero

    def test_derivative_examples(self):
        assert c_derivative(0, 1) == Poly([Rat(1, 2)])
        assert c_derivative(1, 1) == Poly([Rat(-1, 2)])
        assert c_derivative(3, 1).is_zero
        assert c_derivative(2, 0).is_zero

    def test_derivative_identity_sweep(self):
        for n in range(1, 11):
            for k in range(-1, n + 2):
                rhs = (c_coeff(k, n - 1) - c_coeff(k - 1, n - 1)) * Rat(n, 2)
                assert c_derivative(k, n) == rhs, (k, n)

    def test_recurrence_examples(self):
        assert c_recurrence_rhs(0, 0) == HALF_1_PLUS_X
        assert c_recurrence_rhs(1, 1) == c_coeff(1, 2) == HALF_1_PLUS_X * HALF_1_MINUS_X * 2

    def test_recurrence_identity_sweep(self):
        for n in range(10):
            for k in range(n + 2):
                assert c_recurrence_rhs(k, n) == c_coeff(k, n + 1), (k, n)


class TestGSeries:
    def test_coefficients_are_c_polys(self):
        for k in range(7):
            series = g_series(k, 12)
            for v in range(13):
                assert series.coefficient(v) == c_coeff(k, v), (k, v)

    def test_k_zero_is_exponential(self):
        from superosc.exact import series_exp_linear

        assert g_series(0, 8) == series_exp_linear(HALF_1_PLUS_X, 8)

    def test_vanishing_below_k(self):
        series = g_series(4, 10)
        for v in range(4):
            assert series.coefficient(v).is_zero

    def test_k_above_order_rejected(self):
        with pytest.raises(ValueError):
            g_series(5, 4)


class TestSequenceEvaluation:
    def test_value_at_origin(self):
        for n in (1, 3, 17):
            for a in (0.5, 1.0, 3.0):
                assert f_eval(n, a, 0.0) == 1.0 + 0.0j

    def test_n_one_matches_two_term_sum(self):
        a, x = 2.5, 0.8
        direct = f_eval(1, a, x)
        c0, c1 = (1 + a) / 2, (1 - a) / 2
        summed = c0 * cmath.exp(1j * x) + c1 * cmath.exp(-1j * x)
        assert abs(direct - summed) < 1e-14

    def test_product_vs_fourier_frozen_point(self):
        p = f_eval(50, 2.0, 0.7)
        s = f_eval_fourier(50, 2.0, 0.7)
        assert abs(p - s) < 1e-10

    def test_product_vs_fourier_random_grid(self):
        rng = random.Random(20240901)
        for _ in range(40):
            n = rng.randint(1, 200)
            a = rng.uniform(-4.0, 4.0)
            x = rng.uniform(-3.0, 3.0)
            p = f_eval(n, a, x)
            s = f_eval_fourier(n, a, x)
            assert abs(p - s) <= 1e-10 * abs(p), (n, a, x)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_input_names_the_argument(self, bad):
        with pytest.raises(ValueError, match="a must be finite"):
            f_eval(5, bad, 0.5)
        with pytest.raises(ValueError, match="x must be finite"):
            f_eval(5, 2.0, bad)

    @pytest.mark.parametrize("n", [5, 500])
    def test_value_too_large_for_a_float(self, n):
        # complex ** n overflows to nan for small n and raises for large n
        with pytest.raises(ArithmeticError, match=f"F_n at n={n}, a=1e\\+300, x=-1.0 does not fit in a float"):
            f_eval(n, 1e300, -1.0)

    def test_frequencies_bounded_by_one(self):
        for n in (1, 7, 100):
            for k in range(n + 1):
                assert abs(1 - 2 * k / n) <= 1.0 + 1e-15


class TestConvergenceProfile:
    def test_exact_collapse_at_a_one(self):
        result = convergence_profile([10, 100, 800], 1.0, -1.0, 1.0, 31)
        for n in (10, 100, 800):
            assert result.sup_error[n] < 1e-12

    def test_error_halves_when_n_doubles(self):
        result = convergence_profile([100, 200, 400], 2.0, -1.0, 1.0, 101)
        e = result.sup_errors_in_order([100, 200, 400])
        assert e[0] > e[1] > e[2]
        for big, small in zip(e, e[1:]):
            assert 1.8 <= big / small <= 2.2

    def test_single_point_grid(self):
        result = convergence_profile([5], 2.0, 0.0, 0.0, 1)
        assert result.sup_error[5] == 0.0

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            sample_grid(1.0, -1.0, 5)
        with pytest.raises(ValueError):
            convergence_profile([], 2.0, -1.0, 1.0, 5)

    def test_values_match_limit_shape(self):
        result = convergence_profile([50], 2.0, -1.0, 1.0, 11)
        assert len(result.xs) == 11
        assert len(result.values[50]) == 11
        x = result.xs[3]
        expected = abs(result.values[50][3] - cmath.exp(2.0j * x))
        assert math.isclose(
            max(
                abs(v - cmath.exp(2.0j * xx))
                for v, xx in zip(result.values[50], result.xs)
            ),
            result.sup_error[50],
        )
        assert expected <= result.sup_error[50] + 1e-18

    def test_overflowing_limit_phase_raises(self):
        # F_1 at a = 1e300 fits in a float, but a x does not
        with pytest.raises(ArithmeticError, match="^limit phase does not fit in a float at a=1e\\+300, x=10000000000.0$"):
            convergence_profile([1], 1e300, 1e10, 2e10, 2)


class TestLimitPhase:
    def test_value(self):
        for freq, x in ((2.0, 0.25), (-1.5, 3.0), (1e300, 1e-300), (1e10, 1e290)):
            theta = freq * x
            assert limit_phase(freq, x, "a") == complex(math.cos(theta), math.sin(theta))

    @pytest.mark.parametrize("freq,x", [(1e300, 1e10), (-1e300, 1e10), (1e200, -1e200)])
    def test_phase_too_large_for_a_float(self, freq, x):
        message = f"limit phase does not fit in a float at where, x={x!r}"
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            limit_phase(freq, x, "where")
