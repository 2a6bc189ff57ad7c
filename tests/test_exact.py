import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from superosc.exact import (
    ExpSeries,
    Poly,
    Rat,
    as_rat,
    series_exp_linear,
    series_mul,
    series_powers,
    series_shift_tk,
)


def rand_rat(rng):
    return Rat(rng.randint(-30, 30), rng.randint(1, 12))


def rand_poly(rng, max_deg=4):
    return Poly([rand_rat(rng) for _ in range(rng.randint(0, max_deg + 1))])


class TestPoly:
    def test_trailing_zeros_trimmed(self):
        assert Poly([1, 2, 0, 0]) == Poly([1, 2])

    def test_zero_degree_guarded(self):
        assert Poly().is_zero
        with pytest.raises(ValueError):
            Poly().degree()

    def test_degree_multiplicative(self):
        rng = random.Random(7)
        for _ in range(50):
            p, q = rand_poly(rng), rand_poly(rng)
            if p.is_zero or q.is_zero:
                continue
            assert (p * q).degree() == p.degree() + q.degree()

    def test_ring_axioms_random(self):
        rng = random.Random(1234)
        for _ in range(120):
            p, q, r = rand_poly(rng), rand_poly(rng), rand_poly(rng)
            assert (p + q) * r == p * r + q * r
            assert (p * q) * r == p * (q * r)
            assert p + q == q + p
            assert p * q == q * p
            assert p - p == Poly()

    def test_rat_ring_axioms_random(self):
        rng = random.Random(99)
        for _ in range(200):
            a, b, c = rand_rat(rng), rand_rat(rng), rand_rat(rng)
            assert a * (b + c) == a * b + a * c
            assert (a + b) + c == a + (b + c)

    def test_evaluation_exact_and_float(self):
        p = Poly([Rat(1, 2), Rat(-3), Rat(2)])  # 1/2 - 3x + 2x^2
        assert p(Rat(1, 2)) == Rat(1, 2) - Rat(3, 2) + Rat(1, 2)
        assert p(2) == Rat(1, 2) - 6 + 8
        assert p(0.5) == pytest.approx(float(p(Rat(1, 2))))

    def test_compose_linear(self):
        p = Poly([0, 0, 1])  # x^2
        inner = Poly([1, -2])  # 1 - 2y
        assert p.compose(inner) == Poly([1, -4, 4])

    def test_derivative(self):
        p = Poly([Rat(5), Rat(1, 2), Rat(0), Rat(7)])
        assert p.derivative() == Poly([Rat(1, 2), Rat(0), Rat(21)])

    def test_string_rendering(self):
        assert str(Poly()) == "0"
        assert str(Poly([Rat(1, 2), Rat(-1, 2)])) == "1/2 - 1/2*x"
        assert str(Poly([0, 1])) == "x"
        assert str(Poly([Rat(-1), Rat(0), Rat(3)])) == "-1 + 3*x^2"
        assert Poly([0, 0, 1]).to_string("y") == "y^2"

    def test_immutability(self):
        p = Poly([1])
        with pytest.raises(AttributeError):
            p.coeffs = ()

    def test_as_rat_rejects_float(self):
        with pytest.raises(TypeError):
            as_rat(0.5)
        assert as_rat("-3/4") == Rat(-3, 4)


class TestExpSeries:
    def test_mul_identity_element(self):
        rng = random.Random(5)
        b = ExpSeries([rand_poly(rng) for _ in range(7)])
        assert series_mul(ExpSeries.one(6), b) == b

    def test_mul_exponentials(self):
        # e^t * e^t = e^{2t}: coefficients 2^v
        e = series_exp_linear(Poly([1]), 4)
        ee = series_mul(e, e)
        for v in range(5):
            assert ee.coefficient(v) == Poly([2**v])

    def test_mul_valuation_adds(self):
        rng = random.Random(11)
        a = ExpSeries([Poly()] + [rand_poly(rng) for _ in range(5)])
        b = ExpSeries([Poly()] + [rand_poly(rng) for _ in range(5)])
        prod = series_mul(a, b)
        assert prod.coefficient(0).is_zero
        assert prod.coefficient(1).is_zero

    def test_mul_commutative_associative(self):
        rng = random.Random(21)
        a = ExpSeries([rand_poly(rng, 2) for _ in range(6)])
        b = ExpSeries([rand_poly(rng, 2) for _ in range(6)])
        c = ExpSeries([rand_poly(rng, 2) for _ in range(6)])
        assert series_mul(a, b) == series_mul(b, a)
        assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            series_mul(ExpSeries.one(3), ExpSeries.one(4))

    def test_exp_linear_zero(self):
        s = series_exp_linear(Poly(), 5)
        assert s.coefficient(0) == Poly([1])
        for v in range(1, 6):
            assert s.coefficient(v).is_zero

    def test_exp_linear_powers(self):
        c = Poly([Rat(1, 2), Rat(1, 2)])  # (x+1)/2
        s = series_exp_linear(c, 3)
        assert s.coefficient(3) == c**3

    def test_exp_inverse_pair(self):
        c = Poly([Rat(2, 3), Rat(-1)])
        prod = series_mul(series_exp_linear(c, 6), series_exp_linear(-c, 6))
        assert prod == ExpSeries.one(6)

    def test_shift_identity_and_zero_prefix(self):
        rng = random.Random(31)
        a = ExpSeries([rand_poly(rng) for _ in range(7)])
        assert series_shift_tk(a, 0) == a
        shifted = series_shift_tk(a, 3)
        for v in range(3):
            assert shifted.coefficient(v).is_zero

    def test_shift_of_exponential(self):
        # t * e^{ct}: coefficient v is v * c^{v-1}
        c = Poly([Rat(1, 3), Rat(1)])
        s = series_shift_tk(series_exp_linear(c, 6), 1)
        for v in range(1, 7):
            assert s.coefficient(v) == c ** (v - 1) * v

    def test_shift_composes_additively(self):
        rng = random.Random(41)
        a = ExpSeries([rand_poly(rng) for _ in range(9)])
        assert series_shift_tk(series_shift_tk(a, 2), 3) == series_shift_tk(a, 5)

    def test_shift_beyond_order_rejected(self):
        with pytest.raises(ValueError):
            series_shift_tk(ExpSeries.one(4), 5)

    def test_evaluate_exact(self):
        # exp(c t) at rational points: sum c^v t^v / v!
        c = Poly([Rat(1, 2), Rat(1, 2)])
        s = series_exp_linear(c, 8)
        x, t = Rat(1, 3), Rat(1, 2)
        expected = sum(
            (c(x) ** v) * t**v / Rat(_factorial(v)) for v in range(9)
        )
        assert s.evaluate(x, t) == expected

    def test_first_difference(self):
        a = series_exp_linear(Poly([1]), 5)
        b = series_exp_linear(Poly([2]), 5)
        assert a.first_difference(a) is None
        assert a.first_difference(b) == 1


rats = st.builds(Rat, st.integers(-40, 40), st.integers(1, 12))
polys = st.lists(rats, max_size=5).map(Poly)


@st.composite
def series(draw, max_order=5):
    order = draw(st.integers(0, max_order))
    return ExpSeries(draw(st.lists(polys, min_size=order + 1, max_size=order + 1)))


class TestOnePath:
    """Each job of the exact layer has one code path; these pin that the
    shortcuts agree with the general route."""

    @given(rats)
    def test_as_rat_returns_a_rat_unchanged(self, r):
        assert as_rat(r) is r

    @given(st.integers(-10**6, 10**6), st.integers(1, 10**4))
    def test_as_rat_coerces_other_exact_inputs(self, p, q):
        assert as_rat(p) == Rat(Fraction(p))
        assert as_rat(Fraction(p, q)) == Rat(Fraction(p, q))
        assert as_rat(f"{p}/{q}") == Rat(Fraction(p, q))

    @given(st.floats())
    def test_as_rat_rejects_every_float(self, value):
        with pytest.raises(TypeError):
            as_rat(value)

    @given(st.lists(rats, max_size=6))
    def test_poly_keeps_rat_coefficients(self, cs):
        kept = Poly(cs).coeffs
        assert all(type(c) is Rat for c in kept)
        assert kept == tuple(cs[: len(kept)])

    def test_poly_coerces_other_coefficients(self):
        assert Poly(["1/2", 3, Fraction(-2, 6)]).coeffs == (Rat(1, 2), Rat(3), Rat(-1, 3))
        with pytest.raises(TypeError):
            Poly([Rat(1), 0.5])

    @given(series(), rats)
    def test_scale_by_scalar_is_scale_by_constant(self, s, r):
        assert s.scale(r) == s.scale(Poly.const(r))

    @given(polys, st.integers(0, 8))
    def test_series_powers_of_ones_is_exponential(self, c, order):
        assert series_powers(c, [1] * (order + 1)) == series_exp_linear(c, order)

    @given(polys, st.lists(rats, min_size=1, max_size=8))
    def test_series_powers_coefficients(self, c, scalars):
        expected = ExpSeries([c**v * s for v, s in enumerate(scalars)])
        assert series_powers(c, scalars) == expected

    @settings(max_examples=60)
    @given(polys, polys, polys)
    def test_poly_ring_laws(self, p, q, r):
        assert (p * q) * r == p * (q * r)
        assert (p + q) + r == p + (q + r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) * r == p * r + q * r

    @given(series(max_order=8), st.data())
    def test_shift_by_a_then_b_is_shift_by_a_plus_b(self, s, data):
        a = data.draw(st.integers(0, s.order))
        b = data.draw(st.integers(0, s.order - a))
        assert series_shift_tk(series_shift_tk(s, a), b) == series_shift_tk(s, a + b)

    @settings(max_examples=40)
    @given(polys, polys, polys)
    def test_compose_is_associative(self, p, q, r):
        assert p.compose(q).compose(r) == p.compose(q.compose(r))


def _factorial(v):
    out = 1
    for i in range(2, v + 1):
        out *= i
    return out
