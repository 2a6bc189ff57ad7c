import cmath
import math
import re
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from oracles import fourier_sum_per_term, fourier_sum_unfolded
from superosc import coeffs, shift
from superosc.coeffs import (
    _fixed_terms,
    f_eval,
    f_eval_fourier,
    fourier_sum,
    fourier_sum_precision,
    fourier_terms,
    sample_grid,
)
from superosc.shift import (
    EntireFnSpec,
    IDENTITY_FN,
    ONE_FN,
    dpf_eval,
    limit_profile,
    y_eval,
    y_weights,
    z_eval,
)

G_SQUARE = EntireFnSpec((0.0, 0.0, 1.0))  # g(w) = w^2
H_AFFINE = EntireFnSpec((1.0, 1.0))  # h(w) = 1 + w
G_CUBIC = EntireFnSpec((0.3, -1.0, 0.5, 2.0))
H_QUADRATIC = EntireFnSpec((0.5, -1.0, 2.0))


class TestEntireFnSpec:
    def test_parse_and_eval(self):
        f = EntireFnSpec.from_string("1,0,2")
        assert f(2.0) == 9.0
        assert f(1j) == 1 + 2j * 1j  # 1 + 2*(i)^2 = -1
        assert EntireFnSpec(()).coeffs == (0.0,)

    def test_identity_and_one(self):
        assert IDENTITY_FN(3.5) == 3.5
        assert ONE_FN(123.0) == 1.0


class TestReductionChain:
    def test_chain_at_moderate_point(self):
        n, a, x = 40, 1.7, 0.9
        base = f_eval(n, a, x)
        via_dpf = dpf_eval(n, a, x, 0)
        via_z = z_eval(n, a, x, 1, 0)
        via_y = y_eval(n, a, x, IDENTITY_FN, ONE_FN)
        assert abs(via_dpf - base) < 1e-12
        assert abs(via_z - via_dpf) < 1e-12
        assert abs(via_y - via_z) < 1e-12

    def test_z_reduces_to_dpf(self):
        for p in (0, 1, 2):
            lhs = z_eval(30, 2.0, 0.4, 1, p)
            rhs = dpf_eval(30, 2.0, 0.4, p)
            assert abs(lhs - rhs) < 1e-12

    def test_h_zero_gives_zero(self):
        assert y_eval(25, 1.5, 0.3, G_SQUARE, EntireFnSpec((0.0,))) == 0j


class TestExactCollapseAtAOne:
    def test_dpf(self):
        for p in (0, 1, 3):
            for n in (10, 100):
                x = 0.8
                expected = (1j) ** p * cmath.exp(1j * x)
                assert abs(dpf_eval(n, 1.0, x, p) - expected) < 1e-12

    def test_profiles(self):
        for kind in ("dpf", "z", "y"):
            result = limit_profile(kind, 1.0, [20, 40], -0.5, 0.5, 11)
            assert all(err < 1e-12 for err in result.sup_error.values()), kind


class TestConvergenceSweeps:
    def test_dpf_errors_decrease(self):
        result = limit_profile("dpf", 2.0, [100, 200, 400], -1.0, 1.0, 21, p=1)
        e = result.sup_errors_in_order([100, 200, 400])
        assert e[0] > e[1] > e[2]

    def test_z_errors_decrease(self):
        result = limit_profile("z", 1.5, [50, 100, 200], -1.0, 1.0, 21, m=2, p=1)
        e = result.sup_errors_in_order([50, 100, 200])
        assert e[0] > e[1] > e[2]

    def test_supershift_pair_errors_decrease(self):
        result = limit_profile(
            "y", 1.5, [50, 100, 200], -0.5, 0.5, 21, g=G_SQUARE, h=H_AFFINE
        )
        e = result.sup_errors_in_order([50, 100, 200])
        assert e[0] > e[1] > e[2]
        # limit is h(a) e^{i g(a) x} = 2.5 e^{2.25 i x}
        x = result.xs[5]
        limit = 2.5 * cmath.exp(1j * 2.25 * x)
        assert abs(result.values[200][5] - limit) <= result.sup_error[200] + 1e-18
        # converging to the h(a) limit, not to an h(ia)-shifted one: the
        # error must fall far below |h(ia) - h(a)| = |1 + 1.5i - 2.5|
        assert e[2] < 0.1 * abs(complex(1, 1.5) - 2.5)

    def test_exact_collapse_with_nontrivial_weight(self):
        # at a = 1 only j = 0 survives, so Y_n = h(1) e^{i g(1) x} exactly
        for n in (10, 50):
            x = 0.4
            expected = H_AFFINE(1.0) * cmath.exp(1j * G_SQUARE(1.0) * x)
            assert abs(y_eval(n, 1.0, x, G_SQUARE, H_AFFINE) - expected) < 1e-12

    def test_single_n(self):
        result = limit_profile("dpf", 2.0, [50], 0.0, 1.0, 5)
        assert set(result.sup_error) == {50}


class TestWeights:
    def test_weights_reduce_to_plain_coefficients(self):
        n, a = 12, 2.0
        weights = y_weights(n, a, ONE_FN)
        u, w = (1 + a) / 2, (1 - a) / 2
        import math

        for j, ej in enumerate(weights):
            expected = math.comb(n, j) * u ** (n - j) * w**j
            assert abs(ej - expected) < 1e-12

    def test_weights_carry_frequency_factor(self):
        n, a = 9, 1.5
        plain = y_weights(n, a, ONE_FN)
        affine = y_weights(n, a, H_AFFINE)
        for j, (cj, ej) in enumerate(zip(plain, affine)):
            kj = 1 - 2 * j / n
            assert abs(ej - cj * (1 + kj)) < 1e-12

    @pytest.mark.parametrize("n,a", [(1, 0.4), (5, -2.5), (12, 2.0), (50, 0.4), (60, 3.0)])
    def test_weights_within_fixed_point_unit(self, n, a):
        # a, the h coefficients and k_j are dyadic, so the exact weight is a
        # Fraction; the fixed-point form is within 2^-prec of it
        prec = fourier_sum_precision(n, a)
        u, w = (1 + Fraction(a)) / 2, (1 - Fraction(a)) / 2
        for j, ej in enumerate(y_weights(n, a, H_QUADRATIC)):
            k = Fraction(n - 2 * j, n)
            exact = math.comb(n, j) * u ** (n - j) * w**j * sum(
                Fraction(c) * k**i for i, c in enumerate(H_QUADRATIC.coeffs))
            assert ej.imag == 0
            assert abs(Fraction(ej.real) - exact) <= Fraction(1, 2 ** (prec - 1)) + Fraction(
                math.ulp(ej.real))

    def test_weighted_frequencies_bounded(self):
        n = 9
        ks = [1 - 2 * j / n for j in range(n + 1)]
        assert all(abs(k) <= 1.0 + 1e-15 for k in ks)

    def test_validation(self):
        with pytest.raises(ValueError):
            dpf_eval(0, 1.0, 0.0, 0)
        with pytest.raises(ValueError):
            z_eval(5, 1.0, 0.0, 0, 1)
        with pytest.raises(ValueError):
            dpf_eval(5, 1.0, 0.0, -1)
        with pytest.raises(ValueError):
            limit_profile("nope", 1.0, [5], 0.0, 1.0, 3)

    def test_validation_order(self):
        # an empty n_list, then a bad grid, then an unknown kind
        with pytest.raises(ValueError, match="n_list must be nonempty"):
            limit_profile("nope", 1.0, [], 1.0, 0.0, 3)
        with pytest.raises(ValueError, match="empty sample range"):
            limit_profile("nope", 1.0, [5], 1.0, 0.0, 3)
        with pytest.raises(ValueError, match="unknown kind 'nope'"):
            limit_profile("nope", 1.0, [5], 0.0, 1.0, 3)

    def test_entire_fn_is_horner_from_zero(self):
        spec = EntireFnSpec((0.0, -1.5, 0.25, 3.0))
        for z in (0.0, -0.0, 0.7, -2.5, 1e10, 0.5 - 1.25j):
            acc = 0.0
            for c in reversed(spec.coeffs):
                acc = acc * z + c
            assert spec(z) == acc and repr(spec(z)) == repr(acc)


#: name -> (evaluate(n, a, x), weight W, phase Phi), the last two as the
#: ascending coefficients the per-term oracle sums over
KERNEL_CASES = {
    "fourier": (f_eval_fourier, (1,), (0, 1)),
    "dpf-p1": (lambda n, a, x: dpf_eval(n, a, x, 1), (0, 1j), (0, 1)),
    "dpf-p2": (lambda n, a, x: dpf_eval(n, a, x, 2), (0, 0, -1), (0, 1)),
    "dpf-p3": (lambda n, a, x: dpf_eval(n, a, x, 3), (0, 0, 0, -1j), (0, 1)),
    "z-m2-p1": (lambda n, a, x: z_eval(n, a, x, 2, 1), (0, 0, -1), (0, 0, 1)),
    "y-square-affine": (lambda n, a, x: y_eval(n, a, x, G_SQUARE, H_AFFINE), H_AFFINE.coeffs, G_SQUARE.coeffs),
    "y-cubic-quadratic": (lambda n, a, x: y_eval(n, a, x, G_CUBIC, H_QUADRATIC), H_QUADRATIC.coeffs, G_CUBIC.coeffs),
}
KERNEL_A = (-2.5, -1.0, 0.4, 1.0, 2.0)
KERNEL_X = (-6.0, 0.37, 6.0)


def assert_matches_oracle(value, n, a, x, weight, phase, label=""):
    ref = fourier_sum_per_term(n, a, x, weight, phase)
    assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), (label, n, a, x, value, ref)


class TestKernelAgainstPerTermOracle:
    """The recurrence-phase kernel against the per-term cos/sin sum it
    replaced; deg Phi > n occurs at n = 1, 2."""

    @pytest.mark.parametrize("n", [1, 2, 5, 50])
    def test_small_n_full_grid(self, n):
        for name, (evaluate, weight, phase) in KERNEL_CASES.items():
            for a in KERNEL_A:
                for x in KERNEL_X:
                    assert_matches_oracle(evaluate(n, a, x), n, a, x, weight, phase, name)

    @pytest.mark.parametrize("n", [400, 800])
    def test_large_n(self, n):
        # two cases and one x per a keep the oracle's per-term trig affordable
        names = list(KERNEL_CASES)
        for i, a in enumerate(KERNEL_A):
            x = KERNEL_X[i % len(KERNEL_X)]
            for name in (names[i % len(names)], names[(i + 3) % len(names)]):
                evaluate, weight, phase = KERNEL_CASES[name]
                assert_matches_oracle(evaluate(n, a, x), n, a, x, weight, phase, name)

    @settings(max_examples=60, deadline=None, database=None)
    @given(
        n=st.integers(1, 60),
        a=st.floats(-3.0, 3.0),
        x=st.floats(-6.0, 6.0),
        weight=st.lists(st.complex_numbers(max_magnitude=2.0), min_size=1, max_size=4),
        phase=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
    )
    def test_property(self, n, a, x, weight, phase):
        value = fourier_sum(n, a, x, tuple(weight), tuple(phase))
        assert_matches_oracle(value, n, a, x, weight, phase)


class TestKernelCacheKey:
    """Weights are cached per (n, a, W, precision): a different weight
    must not reuse them, and a repeated call must not change the value."""

    def test_h_changes_the_sum(self):
        n, a, x = 30, 1.8, 0.6
        affine = y_eval(n, a, x, G_SQUARE, H_AFFINE)
        quadratic = y_eval(n, a, x, G_SQUARE, H_QUADRATIC)
        assert affine != quadratic
        assert_matches_oracle(affine, n, a, x, H_AFFINE.coeffs, G_SQUARE.coeffs)
        assert_matches_oracle(quadratic, n, a, x, H_QUADRATIC.coeffs, G_SQUARE.coeffs)
        assert y_eval(n, a, x, G_SQUARE, H_AFFINE) == affine
        assert y_eval(n, a, x, G_SQUARE, H_QUADRATIC) == quadratic

    def test_phase_changes_the_sum(self):
        # same (n, a, W): even (folded) and mixed phases share the exact
        # terms but not the rounded ones
        n, a, x, weight = 30, 1.8, 0.6, H_AFFINE.coeffs
        phases = (G_SQUARE.coeffs, (0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 1.0, 1.0))
        sums = [fourier_sum(n, a, x, weight, phase) for phase in phases]
        assert len(set(sums)) == len(sums)
        for phase, value in zip(phases, sums):
            assert_matches_oracle(value, n, a, x, weight, phase)
            assert fourier_sum(n, a, x, weight, phase) == value

    def test_dpf_order_changes_the_sum(self):
        n, a, x = 30, 1.8, 0.6
        first = dpf_eval(n, a, x, 1)
        second = dpf_eval(n, a, x, 2)
        assert first != second
        assert_matches_oracle(first, n, a, x, (0, 1j), (0, 1))
        assert_matches_oracle(second, n, a, x, (0, 0, -1), (0, 1))
        assert dpf_eval(n, a, x, 1) == first
        assert dpf_eval(n, a, x, 2) == second


#: the mirror-fold stress grid: phases even (degree 0, 2 and 4, with a
#: constant term), odd and mixed, and real and complex weights
FOLD_N = (1, 2, 3, 5, 49, 50, 101, 400)
FOLD_A = (-2.5, -1.0, 0.4, 1.0, 3.0)
FOLD_X = (-6.0, -0.7, 0.0, 1.9, 6.0)
EVEN_PHASES = ((0.75,), (0.5, 0, 1.0), (-0.3, 0, 1.25, 0, -0.5))
FOLD_PHASES = EVEN_PHASES + ((0, 1), (0, -1.5, 0, 0.75), (0.3, -1.0, 0.5, 2.0), (0.2, 0.5, 1.0))
FOLD_W = ((1,), (0.5 - 1j, 0.25j, 1.5 + 0.5j))


class TestMirrorFold:
    """An even phase sums the mirror terms T_j + T_{n-j} once, without
    moving a bit of the result."""

    @pytest.mark.parametrize("n", FOLD_N)
    def test_bit_identical_to_unfolded_kernel(self, n):
        for a in FOLD_A:
            for phase in FOLD_PHASES:
                for weight in FOLD_W:
                    for x in FOLD_X:
                        expected = fourier_sum_unfolded(n, a, x, weight, phase)
                        assert fourier_sum(n, a, x, weight, phase) == expected, (n, a, x, weight, phase)

    @pytest.mark.parametrize("n", [1, 2, 49, 50])
    def test_folded_terms(self, n):
        for a in FOLD_A:
            for weight in FOLD_W:
                prec = fourier_sum_precision(n, a, weight)
                j0, fixed = _fixed_terms(n, a, weight, prec, True)
                exact = [exact_term(n, a, weight, j) for j in range(n + 1)]
                mirror = [(re + mr, im + mi) for (re, im), (mr, mi) in zip(exact[: (n + 1) // 2], exact[::-1])]
                mirror += exact[n // 2 : n // 2 + 1] if n % 2 == 0 else []
                if a in (-1.0, 1.0):
                    # one nonzero term, T_0 or T_n, folded onto j = 0
                    assert (j0, len(fixed)) == (0, 1)
                else:
                    assert (j0, len(fixed)) == (0, n // 2 + 1)
                unit = Fraction(1, 2**prec)
                for (fr, fi), (re, im) in zip(fixed, mirror[j0:]):
                    assert abs(fr * unit - re) <= unit / 2
                    assert abs(fi * unit - im) <= unit / 2

    def test_fold_is_chosen_by_the_phase(self, monkeypatch):
        seen = []

        def recording(n, a, weight, prec, fold=False):
            seen.append(fold)
            return _fixed_terms(n, a, weight, prec, fold)

        monkeypatch.setattr(coeffs, "_fixed_terms", recording)
        for phase in FOLD_PHASES + ((0.5, 0.0, 1.0, -0.0), ()):
            fourier_sum(20, 1.5, 0.8, (1,), phase)
        assert seen == [True] * 3 + [False] * 4 + [True, True]


#: the supershift-sweep benchmark's eight sums, as the CLI makes them:
#: (evaluate(n, a, x), W, a, n, Phi)
SWEEP_SUMS = tuple(
    (evaluate, weight, a, n, phase)
    for evaluate, weight, a, ns, phase in (
        (lambda n, a, x: y_eval(n, a, x, EntireFnSpec((0, 0, 1)), EntireFnSpec((1, 1))),
         (1.0, 1.0), 1.5, (50, 100, 200), (0.0, 0.0, 1.0)),
        (lambda n, a, x: dpf_eval(n, a, x, 1), (0, 1j), 2.0, (100, 200, 400), (0, 1)),
        (lambda n, a, x: z_eval(n, a, x, 2, 0), (1,), 1.2, (100, 200), (0, 0, 1)),
    )
    for n in ns
)
#: the x offsets of the benchmark's seeds 0 and 1; each samples 51 points
#: of [-0.5 + offset, 0.5 + offset]
SWEEP_OFFSETS = (0.0, -0.191041)


#: stress points at |x| >= 37.5 where the two paths differ in the last
#: bits (14 of 3360 on the mirror-fold grid at six such x)
SLOW_PATH_DIFFERS = (
    (49, 0.4, 100.0, (1,), (0, 1)),
    (101, 0.4, -250.0, (1,), (0, 1)),
    (101, 0.4, -10000.0, (0.5 - 1j, 0.25j, 1.5 + 0.5j), (0, 1)),
    (400, 0.4, -250.0, (1,), (0, -1.5, 0, 0.75)),
)


class TestFastPathAgainstSlowPath:
    """Exact phase differences with one cos_sin each against the mpmath
    phase path they replace (oracles.fourier_sum_unfolded)."""

    @pytest.mark.parametrize("offset", SWEEP_OFFSETS)
    def test_sweep_sums_bit_identical(self, offset):
        for x in sample_grid(-0.5 + offset, 0.5 + offset, 51):
            for evaluate, weight, a, n, phase in SWEEP_SUMS:
                assert evaluate(n, a, x) == fourier_sum_unfolded(n, a, x, weight, phase), (n, a, x, phase)

    def test_no_mpmath_phase_evaluation(self, monkeypatch):
        cases = [(lambda n, a, x: dpf_eval(n, a, x, 2), (0, 0, -1), (0, 1)),
                 (lambda n, a, x: z_eval(n, a, x, 2, 1), (0, 0, -1), (0, 0, 1)),
                 (lambda n, a, x: y_eval(n, a, x, G_CUBIC, H_QUADRATIC), H_QUADRATIC.coeffs, G_CUBIC.coeffs)]
        points = [(n, a, x) for n in (1, 7, 60) for a in (-2.5, 1.0, 1.7) for x in (-6.0, 0.0, 0.9)]
        expected = [fourier_sum_unfolded(n, a, x, weight, phase)
                    for _, weight, phase in cases for n, a, x in points]

        def boom(*args, **kwargs):
            raise AssertionError("mpmath phase evaluation")

        for name in ("cos", "sin", "mpc", "workprec"):
            monkeypatch.setattr(mpmath, name, boom)
        for cached in (fourier_terms, _fixed_terms, coeffs._phase_differences):
            cached.cache_clear()
        got = [evaluate(n, a, x) for evaluate, _, _ in cases for n, a, x in points]
        assert got == expected

    @pytest.mark.parametrize("n,a,x,weight,phase", SLOW_PATH_DIFFERS)
    def test_where_the_slow_path_differs(self, n, a, x, weight, phase):
        # the two round Phi(k_j) x differently, so at |x| >= 37.5 a few
        # last bits differ; the fast path still meets the per-term bound
        value = fourier_sum(n, a, x, weight, phase)
        assert value != fourier_sum_unfolded(n, a, x, weight, phase)
        assert_matches_oracle(value, n, a, x, weight, phase)


#: x far beyond the sample grids: Phi(k_j) x has more integer bits than
#: the working precision has bits in all
HUGE_X = (1e12, 1e25, 1e30, -1e30)
HUGE_PHASES = ((0, 1), (0.25, -1.5), (0, 0, 1), (0.3, -1.0, 0.5))
HUGE_W = ((1,), (0.5 - 1j, 0.25j))


def kernel_bound(n, a, weight, degree, ref):
    """fourier_sum's stated error, 4 (n+1)^max(d,1) (1 + sum_j |T_j|)
    2^-prec, plus the rounding of it and of ref to complex floats."""
    _, _, den, magnitude = fourier_terms(n, a, weight)
    prec = fourier_sum_precision(n, a, weight, degree * math.log2(n + 1))
    return 4 * (n + 1) ** max(degree, 1) * (1 + magnitude / den) * 2.0**-prec + 2.0**-51 * abs(ref)


class TestHugeX:
    """Each phase difference is rounded to an absolute 2^-(prec + guard), so
    the error bound holds at any x, not only where Phi(k_j) x is small."""

    @pytest.mark.parametrize("x", HUGE_X)
    def test_within_stated_bound(self, x):
        n, a = 50, 1.5
        for weight in HUGE_W:
            for phase in HUGE_PHASES:
                value = fourier_sum(n, a, x, weight, phase)
                ref = fourier_sum_per_term(n, a, x, weight, phase, bits=4000)
                assert abs(value - ref) <= kernel_bound(n, a, weight, len(phase) - 1, ref), (x, weight, phase)


def exact_term(n, a, weight, j):
    """c_j(n,a) W(k_j) as a pair of Fractions (re, im)."""
    u, w = (1 + Fraction(a)) / 2, (1 - Fraction(a)) / 2
    k = Fraction(n - 2 * j, n)
    c = math.comb(n, j) * u ** (n - j) * w**j
    parts = [(Fraction(complex(v).real), Fraction(complex(v).imag)) for v in weight]
    return (c * sum(re * k**i for i, (re, _) in enumerate(parts)),
            c * sum(im * k**i for i, (_, im) in enumerate(parts)))


EXACT_N = (1, 2, 7, 31, 60)
EXACT_A = (-2.5, -1.0, 0.4, 1.0, 3.0)
EXACT_W = ((1,), (0.5, -1.0, 2.0), (0.25 - 1j, 1.5j, -0.75 + 0.5j))


class TestExactTerms:
    """fourier_terms holds every c_j W(k_j) exactly: a float a and float
    weight coefficients are dyadic rationals."""

    @pytest.mark.parametrize("n", EXACT_N)
    def test_terms_equal_fraction_oracle(self, n):
        for a in EXACT_A:
            for weight in EXACT_W:
                j0, terms, den, magnitude = fourier_terms(n, a, weight)
                exact = [exact_term(n, a, weight, j) for j in range(n + 1)]
                got = [(Fraction(0), Fraction(0))] * (n + 1)
                got[j0 : j0 + len(terms)] = [(Fraction(re, den), Fraction(im, den)) for re, im in terms]
                assert got == exact, (n, a, weight)
                # only the vanishing end terms are dropped
                assert terms[0] != (0, 0) and terms[-1] != (0, 0)
                # magnitude bounds sum |N_j| from above, by less than a unit per term
                floor_sum = sum(math.isqrt(re * re + im * im) for re, im in terms)
                assert magnitude <= floor_sum + len(terms)
                with mpmath.workprec(2 * magnitude.bit_length() + 64):
                    assert mpmath.fsum(mpmath.sqrt(re * re + im * im) for re, im in terms) <= magnitude

    def test_end_terms_dropped_at_a_plus_minus_one(self):
        for a, j in ((1.0, 0), (-1.0, 20)):
            j0, terms, den, _ = fourier_terms(20, a, (1,))
            assert (j0, len(terms), Fraction(terms[0][0], den)) == (j, 1, 1)
        assert fourier_terms(20, 0.4, (0,))[:2] == (0, ())

    @pytest.mark.parametrize("n", EXACT_N)
    def test_rounded_terms_within_half_unit(self, n):
        for a in EXACT_A:
            for weight in EXACT_W:
                _, terms, den, _ = fourier_terms(n, a, weight)
                for prec in (fourier_sum_precision(n, a, weight), 3):
                    j0, fixed = _fixed_terms(n, a, weight, prec)
                    assert (j0, len(fixed)) == (fourier_terms(n, a, weight)[0], len(terms))
                    unit = Fraction(1, 2**prec)
                    for (fr, fi), (re, im) in zip(fixed, terms):
                        assert abs(fr * unit - Fraction(re, den)) <= unit / 2
                        assert abs(fi * unit - Fraction(im, den)) <= unit / 2

    def test_weights_are_correctly_rounded(self):
        for n in (7, 60):
            for a in EXACT_A:
                for j, ej in enumerate(y_weights(n, a, H_QUADRATIC)):
                    re, im = exact_term(n, a, H_QUADRATIC.coeffs, j)
                    assert ej == complex(float(re), float(im))

    def test_weights_that_do_not_fit_a_float_raise(self):
        with pytest.raises(ArithmeticError):
            y_weights(800, 3.0, ONE_FN)

    def test_no_mpmath_binomial(self, monkeypatch):
        def boom(*args):
            raise AssertionError("mpmath.binomial called")

        fourier_terms.cache_clear()
        _fixed_terms.cache_clear()
        monkeypatch.setattr(mpmath, "binomial", boom)
        for name, (evaluate, weight, phase) in KERNEL_CASES.items():
            assert_matches_oracle(evaluate(40, 1.7, 0.9), 40, 1.7, 0.9, weight, phase, name)
        assert y_weights(12, 2.0, H_AFFINE)[3] != 0


#: the supershift-sweep benchmark's eight sums: (W, a, n, phase degree)
#: -> working bits
SWEEP_PRECISION = {
    ((1, 1), 1.5, 50, 2): 121,
    ((1, 1), 1.5, 100, 2): 153,
    ((1, 1), 1.5, 200, 2): 213,
    ((0, 1j), 2.0, 100, 1): 186,
    ((0, 1j), 2.0, 200, 1): 287,
    ((0, 1j), 2.0, 400, 1): 488,
    ((1,), 1.2, 100, 2): 120,
    ((1,), 1.2, 200, 2): 148,
}


class TestPrecisionRule:
    """prec = 80 + max(0, ceil(log2 sum |T_j|)) + d log2(n+1)."""

    @pytest.mark.parametrize("key", sorted(SWEEP_PRECISION, key=str))
    def test_pinned_on_sweep_calls(self, key, monkeypatch):
        weight, a, n, degree = key
        # the rule from the exact terms, summed as Fractions
        total = sum(_abs_fraction(*exact_term(n, a, weight, j)) for j in range(n + 1))
        log2_sum = 0
        while Fraction(2) ** log2_sum < total:
            log2_sum += 1
        expected = 80 + log2_sum + int(degree * math.log2(n + 1))
        assert expected == SWEEP_PRECISION[key]
        # the kernel reads it through fourier_sum_precision
        seen = []

        def recording(*args, **kwargs):
            seen.append(fourier_sum_precision(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(coeffs, "fourier_sum_precision", recording)
        fourier_sum(n, a, 0.3, weight, (0,) * degree + (1,))
        assert seen == [expected]

    def test_counts_the_size_of_w(self):
        # the former rule, 80 + n log2(1 + |a|), ignored |W|
        small = fourier_sum_precision(50, 1.5, (1,))
        assert fourier_sum_precision(50, 1.5, (2.0**40,)) == small + 40
        assert fourier_sum_precision(50, 0.5, (1,)) == 80
        assert fourier_sum_precision(50, 0.5, (0,)) == 80


def _abs_fraction(re, im):
    """|re + i im| for the sweep's weights, which are real or imaginary."""
    assert re == 0 or im == 0
    return abs(re or im)


#: weights with |W| up to 1e6 and phases of degree 1 (Horner) and 3
#: (forward differences)
LARGE_WEIGHTS = ((1e6,), (0, -2.5e5j, 7.5e5 + 3e5j), (4e5, 0, 0, -1e6j))
LARGE_PHASES = ((0, 1), (0.25, -1.5), (0.3, -1.0, 0.5, 2.0))


class TestLargeWeights:
    @pytest.mark.parametrize("a", [-2.5, 2.0])
    def test_against_oracle_at_n_400(self, a):
        for weight in LARGE_WEIGHTS:
            for phase in LARGE_PHASES:
                x = 0.37 if len(phase) == 2 else -6.0
                value = fourier_sum(400, a, x, weight, phase)
                assert_matches_oracle(value, 400, a, x, weight, phase)


class TestNonFinite:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_fourier_sum_names_the_argument(self, bad):
        with pytest.raises(ValueError, match="a must be finite"):
            fourier_sum(10, bad, 0.5, (1,), (0, 1))
        with pytest.raises(ValueError, match="x must be finite"):
            fourier_sum(10, 1.5, bad, (1,), (0, 1))
        with pytest.raises(ValueError, match="weight coefficient must be finite"):
            fourier_sum(10, 1.5, 0.5, (1, complex(0, bad)), (0, 1))
        with pytest.raises(ValueError, match="phase coefficient must be finite"):
            fourier_sum(10, 1.5, 0.5, (1,), (0, bad))

    @pytest.mark.parametrize("c", [1j, 1 + 0j])
    def test_complex_phase_coefficient_is_rejected(self, c):
        # the mpmath phase path returned a real-valued wrong sum
        with pytest.raises(ValueError, match=re.escape(f"phase coefficient must be real, got {c!r}")):
            fourier_sum(10, 1.5, 0.5, (1,), (0, c))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_sample_grid_names_the_bound(self, bad):
        with pytest.raises(ValueError, match="x_lo must be finite"):
            sample_grid(bad, 1.0, 3)
        with pytest.raises(ValueError, match="x_lo must be finite"):
            sample_grid(bad, 1.0, 1)
        with pytest.raises(ValueError, match="x_hi must be finite"):
            sample_grid(0.0, bad, 3)

    @pytest.mark.parametrize("kind,p,m", [("dpf", 3, 1), ("z", 0, 2), ("z", 1, 2)])
    def test_limit_too_large_raises_before_any_sum(self, kind, p, m, monkeypatch):
        def no_sum(*args):
            raise AssertionError("a sum was evaluated")

        monkeypatch.setattr(shift, "fourier_sum", no_sum)
        with pytest.raises(ArithmeticError, match=f"^limit (amplitude|frequency) does not fit in a float at a=1e\\+300, "):
            limit_profile(kind, 1e300, [10], -1.0, 1.0, 3, p=p, m=m)
        with pytest.raises(ArithmeticError, match="^limit frequency does not fit in a float at a=1e\\+300$"):
            limit_profile("y", 1e300, [10], -1.0, 1.0, 3, g=G_SQUARE)

    @pytest.mark.parametrize("kind,where", [("dpf", "a=1e+300, p=0"), ("z", "a=1e+300, m=1, p=0"), ("y", "a=1e+300")])
    def test_limit_phase_too_large_raises(self, kind, where):
        # the n = 1 sum fits in a float, but freq x does not
        message = f"limit phase does not fit in a float at {where}, x=10000000000.0"
        with pytest.raises(ArithmeticError, match=f"^{re.escape(message)}$"):
            limit_profile(kind, 1e300, [1], 1e10, 2e10, 2)

    def test_sum_too_large_for_a_float(self):
        with pytest.raises(ArithmeticError, match="does not fit in a float"):
            fourier_sum(10, 1e300, -0.5, (1,), (0, 1))
