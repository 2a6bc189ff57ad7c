import math

import mpmath
import pytest

from oracles import miller_paris_rhs_by_series_algebra
from superosc.combinat import pochhammer
from superosc.exact import ExpSeries, Poly, Rat, series_exp_linear
from superosc.hyper import (
    HyperSpec,
    exp_moment_series,
    kummer_integral,
    miller_paris_lhs,
    miller_paris_rhs,
    pfq_eval_float,
    pfq_series,
)

HALF_1_PLUS_X = Poly([Rat(1, 2), Rat(1, 2)])


class TestHyperSpec:
    def test_rejects_nonpositive_integer_lower(self):
        with pytest.raises(ValueError):
            HyperSpec((1,), (0,))
        with pytest.raises(ValueError):
            HyperSpec((1,), (-2,))

    def test_accepts_negative_non_integers(self):
        spec = HyperSpec((Rat(-1, 2),), (Rat(-3, 2),))
        assert spec.p == 1 and spec.q == 1


class TestPfqSeries:
    def test_empty_parameters_is_exponential(self):
        spec = HyperSpec((), ())
        z = Poly([Rat(2, 3), Rat(1, 5)])
        assert pfq_series(spec, z, 7) == series_exp_linear(z, 7)

    def test_kummer_ratio_telescopes(self):
        # upper k over lower k+1: coefficient m is k/(k+m) * z^m
        z = HALF_1_PLUS_X
        for k in range(1, 5):
            series = pfq_series(HyperSpec((k,), (k + 1,)), z, 8)
            for m in range(9):
                assert series.coefficient(m) == z**m * Rat(k, k + m)

    def test_coefficients_from_pochhammer_products(self):
        # independent recomputation straight from the rising factorials
        spec = HyperSpec((Rat(3), Rat(1, 2)), (Rat(5, 2), Rat(2)))
        z = Poly([Rat(1), Rat(-1, 3)])
        series = pfq_series(spec, z, 6)
        for m in range(7):
            ratio = (
                pochhammer(Rat(3), m)
                * pochhammer(Rat(1, 2), m)
                / (pochhammer(Rat(5, 2), m) * pochhammer(Rat(2), m))
            )
            assert series.coefficient(m) == z**m * ratio


class TestPfqEvalFloat:
    def test_exponential(self):
        assert pfq_eval_float(HyperSpec((), ()), 1.0, 1e-14) == pytest.approx(
            math.e, abs=1e-13
        )

    def test_closed_form_1f1_1_2(self):
        # 1F1(1;2;z) = (e^z - 1)/z
        value = pfq_eval_float(HyperSpec((1,), (2,)), 2.0, 1e-14)
        assert value == pytest.approx(math.expm1(2.0) / 2.0, abs=1e-12)

    def test_terminating_series(self):
        # 1F1(-1; 1/2; z^2) = 1 - 2 z^2, exact at z = 1
        value = pfq_eval_float(HyperSpec((-1,), (Rat(1, 2),)), 1.0, 1e-14)
        assert value == -1.0

    def test_rejects_p_greater_than_q(self):
        with pytest.raises(ValueError):
            pfq_eval_float(HyperSpec((1, 2), (3,)), 0.5, 1e-10)

    def test_rejects_bad_tolerance(self):
        with pytest.raises(ValueError):
            pfq_eval_float(HyperSpec((), ()), 1.0, 0.0)

    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("spec", [HyperSpec((), ()), HyperSpec((1,), (2,))])
    def test_rejects_non_finite_argument(self, spec, z):
        # nan made the term cap NaN (RuntimeError) and inf overflowed
        # (ArithmeticError); neither said what was wrong
        with pytest.raises(ValueError, match="z must be finite"):
            pfq_eval_float(spec, z, 1e-12)

    @pytest.mark.parametrize("z", [-20.0, -40.0, -60.0, -700.0, -800.0, -2000.0, -50000.0, -100000.0])
    @pytest.mark.parametrize("a,b", [(1, 2), (2, 3), (1, 3), (5, 6), (Rat(1, 2), Rat(3, 2))])
    def test_1f1_large_negative_argument(self, a, b, z):
        # summed directly, these cancel terms of size up to e^|z|; from
        # z = -710 on, the Kummer-transformed sum alone overflows a float;
        # from about z = -50000 on, it needs more than _MAX_TERMS terms
        value = pfq_eval_float(HyperSpec((a,), (b,)), z, 1e-12)
        with mpmath.workprec(120):
            expected = float(mpmath.hyp1f1(mpmath.mpf(float(a)), mpmath.mpf(float(b)), z))
        assert abs(value - expected) <= 1e-12 * abs(expected)

    def test_overflowing_sum_raises(self):
        assert pfq_eval_float(HyperSpec((), ()), 700.0, 1e-14) == pytest.approx(
            math.exp(700.0), rel=1e-12
        )
        with pytest.raises(ArithmeticError, match="overflows"):
            pfq_eval_float(HyperSpec((), ()), 720.0, 1e-14)

    @pytest.mark.parametrize("spec", [HyperSpec((), ()), HyperSpec((1, 2), (3, 4))])
    def test_cancelling_sum_raises(self, spec):
        # 0F0(-60) = e^-60 and 2F2(1,2;3,4;-60) sum terms of size 1e18 and
        # more: float rounding alone exceeds the tolerance
        with pytest.raises(ArithmeticError, match="cancellation"):
            pfq_eval_float(spec, -60.0, 1e-12)


class TestKummerIntegral:
    def test_frozen_value(self):
        # mu=2, sigma=3, u=1: 2 * int_0^1 w e^w dw = 2
        assert kummer_integral(2, 3, 1.0) == pytest.approx(2.0, abs=1e-10)

    def test_value_at_zero(self):
        for k in range(1, 6):
            assert kummer_integral(k, k + 1, 0.0) == pytest.approx(1.0, abs=1e-12)

    def test_agrees_with_series(self):
        for k in range(1, 6):
            spec = HyperSpec((k,), (k + 1,))
            for u in range(-4, 5):
                quad_val = kummer_integral(k, k + 1, float(u))
                series_val = pfq_eval_float(spec, float(u), 1e-14)
                assert abs(quad_val - series_val) <= 1e-9, (k, u)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kummer_integral(3, 2, 1.0)  # sigma <= mu
        with pytest.raises(ValueError):
            kummer_integral(Rat(1, 2), 2, 1.0)  # mu < 1 unsupported

    @pytest.mark.parametrize("u", [-60.0, -4.0, 0.0, 4.0, 60.0])
    @pytest.mark.parametrize("mu", [1, 2, 3, 5])
    @pytest.mark.parametrize("gap", [Rat(1, 2), Rat(1, 3)])
    def test_singular_endpoint(self, gap, mu, u):
        # sigma - mu < 1 puts (1-w)^(sigma-mu-1) in the untransformed
        # integrand; at mu = 5, gap = 1/3, u = -60 a 53-bit quadrature's
        # estimate is above the target
        sigma = mu + gap
        with mpmath.workprec(120):
            expected = float(mpmath.hyp1f1(mu, mpmath.mpf(sigma.numerator) / sigma.denominator, u))
        assert abs(kummer_integral(mu, sigma, u) - expected) <= 1e-12 * abs(expected)

    def test_large_sigma(self):
        # Gamma(200) overflows a float; the prefactor does not
        with mpmath.workprec(120):
            expected = float(mpmath.hyp1f1(1, 200, 3))
        assert abs(kummer_integral(1, 200, 3.0) - expected) <= 1e-12 * expected

    def test_overflow_raises(self):
        with pytest.raises(ArithmeticError, match="overflows"):
            kummer_integral(1, 2, 800.0)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_argument(self, u):
        with pytest.raises(ValueError, match="u must be finite"):
            kummer_integral(1, 2, u)

    @pytest.mark.parametrize("value", [1.0, 1e6])
    def test_error_estimate_checked_against_value(self, monkeypatch, value):
        # the estimate is absolute: the 1e-10 target scales with the value
        def quad(estimate):
            return lambda f, interval, error: (mpmath.mpf(value), mpmath.mpf(estimate))

        monkeypatch.setattr(mpmath, "quad", quad(0.9e-10 * value))
        assert kummer_integral(1, 2, 0.0) == pytest.approx(value)
        monkeypatch.setattr(mpmath, "quad", quad(1.1e-10 * value))
        with pytest.raises(ArithmeticError, match="error estimate"):
            kummer_integral(1, 2, 0.0)


class TestTruncationVsFloat:
    def test_series_evaluation_within_tail_bound(self):
        # entire case, Pochhammer ratio <= 1, so the dropped tail is at
        # most sum_{m>V} |z|^m/m! <= e^{|z|} |z|^(V+1)/(V+1)!
        order = 12
        x = Rat(1, 3)
        for k in (1, 2, 3):
            spec = HyperSpec((k,), (k + 1,))
            series = pfq_series(spec, HALF_1_PLUS_X, order)
            for t in (Rat(1, 2), Rat(3, 2), Rat(-3), Rat(3)):
                z = float(HALF_1_PLUS_X(x) * t)
                assert abs(z) <= 2.0
                exact = float(series.evaluate(x, t))
                floatval = pfq_eval_float(spec, z, 1e-15)
                tail = (
                    math.exp(abs(z))
                    * abs(z) ** (order + 1)
                    / math.factorial(order + 1)
                )
                assert abs(exact - floatval) <= tail + 1e-12, (k, t)


class TestExpMomentSeries:
    def test_coefficients(self):
        z = HALF_1_PLUS_X
        s = exp_moment_series(2, 6, z, 1)
        for v in range(7):
            assert s.coefficient(v) == z**v * Rat(1, v + 2)
        s2 = exp_moment_series(2, 6, z, 2)
        for v in range(7):
            assert s2.coefficient(v) == z**v * Rat(1, (v + 2) ** 2)

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            exp_moment_series(0, 4, HALF_1_PLUS_X, 1)

    def test_matches_quadrature(self):
        # the power=1 series really is int_0^1 e^{z t u} u^{k-1} du
        k = 3
        x, t = Rat(1, 3), Rat(1, 2)
        series = exp_moment_series(k, 20, HALF_1_PLUS_X, 1)
        zt = float(HALF_1_PLUS_X(x) * t)
        with mpmath.workprec(120):
            expected = float(mpmath.quad(lambda u: mpmath.exp(zt * u) * u ** (k - 1), [0, 1]))
        assert float(series.evaluate(x, t)) == pytest.approx(expected, abs=1e-12)


class TestMillerParis:
    def test_general_identity_exact(self):
        for zscale in (Poly([1]), HALF_1_PLUS_X):
            for a in range(4):
                for c in range(1, 5):
                    lhs = miller_paris_lhs(a, c, 12, zscale)
                    rhs = miller_paris_rhs(a, c, "general", 12, zscale)
                    assert lhs == rhs, (a, c)

    def test_c_equals_one_variant(self):
        for a in range(4):
            lhs = miller_paris_lhs(a, 1, 12)
            rhs = miller_paris_rhs(a, 1, "c_equals_1", 12)
            assert lhs == rhs
            assert rhs == miller_paris_rhs(a, 1, "general", 12)

    @pytest.mark.parametrize("variant", ["general", "c_equals_1"])
    def test_against_series_algebra(self, variant):
        for zscale in (Poly([1]), HALF_1_PLUS_X, Poly([Rat(2, 3), Rat(-1, 5)])):
            for a in range(5):
                for c in range(1, 6) if variant == "general" else (1,):
                    for order in range(13):
                        expected = miller_paris_rhs_by_series_algebra(a, c, variant, order, zscale)
                        assert miller_paris_rhs(a, c, variant, order, zscale) == expected, (a, c, order)

    def test_a_zero_is_exponential(self):
        assert miller_paris_rhs(0, 3, "general", 6) == series_exp_linear(Poly([1]), 6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            miller_paris_rhs(2, 0, "general", 6)
        with pytest.raises(ValueError):
            miller_paris_rhs(2, 2, "c_equals_1", 6)
        with pytest.raises(ValueError):
            miller_paris_rhs(2, 1, "nope", 6)
