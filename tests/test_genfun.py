import itertools
import json

import jsonschema
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    b2_block_by_half_powers,
    b2_k1_block_by_half_powers,
    prefixed_block_by_shift,
    weight_linear_report_by_series,
    weights_by_sum,
)

from superosc.coeffs import HALF_1_MINUS_X, HALF_1_PLUS_X, c_coeff, g_series
from superosc.combinat import stirling2
from superosc.exact import ExpSeries, Poly, Rat, series_exp_linear, series_shift_tk
from superosc import classical, coeffs, exact, genfun, hyper
from superosc.genfun import (
    DEFAULT_ALPHA_SET,
    GenFunParams,
    GridOrderError,
    IDENTITY_IDS,
    b2_explicit,
    b2_k1_explicit,
    b_extract,
    run_suite,
    s1_m1_closed,
    s1_m2_closed,
    s1_series,
    s2_m1_closed,
    s2_m2_closed,
    s2_series,
    s2_stirling_closed,
    suite_points,
    verify_identity,
)
from superosc.report import MISMATCH, PRINTED_MISMATCH, REPORT_SCHEMA, VERIFIED, IdentityReport


def poly_to_sympy(p, x):
    return sum(
        sympy.Rational(int(c.numerator), int(c.denominator)) * x**i
        for i, c in enumerate(p.coeffs)
    )


def family_coeff_bruteforce(family, m, k, n, alphas, v, order):
    """Term-by-term expansion of the defining double sum in sympy,
    independent of the ExpSeries machinery: multiply out the truncated
    hypergeometric blocks and read off v! [t^v]."""
    x, t = sympy.symbols("x t")
    z = (1 + x) / 2 * t
    total = sympy.Integer(0)
    for j in range(m + 1):
        alpha = sympy.Rational(str(alphas[j]))
        for l in range(j + 1):
            scalar = (
                alpha
                * sympy.binomial(j, l)
                * sympy.Rational(-2 * k, n) ** (j - l)
            )
            block = sympy.Integer(0)
            for mm in range(order - k + 1):
                if family == 1:
                    ratio = (sympy.rf(k, mm) / sympy.rf(k + 1, mm)) ** l
                else:
                    ratio = (sympy.rf(k + 1, mm) / sympy.rf(k, mm)) ** l
                block += ratio * z**mm / sympy.factorial(mm)
            total += scalar * block
    full = ((1 - x) / 2 * t) ** k / sympy.factorial(k) * total
    coeff = sympy.expand(full).coeff(t, v) * sympy.factorial(v)
    return sympy.expand(coeff)


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            GenFunParams(m=1, k=0, n=0, alphas=(1, 1))
        with pytest.raises(ValueError):
            GenFunParams(m=1, k=0, n=2, alphas=(1,))
        with pytest.raises(ValueError):
            GenFunParams(m=-1, k=0, n=1, alphas=())

    def test_weights_by_hand(self):
        p = GenFunParams(m=2, k=2, n=4, alphas=(1, 2, 3))
        # base = -2k/n = -1
        assert p.weights() == [1 - 2 + 3, 2 - 6, 3]

    @given(st.integers(0, 5), st.integers(0, 8), st.integers(1, 9),
           st.lists(st.fractions(max_denominator=7).map(Rat), min_size=6, max_size=6))
    def test_weights_match_the_term_by_term_sum(self, m, k, n, alphas):
        p = GenFunParams(m=m, k=k, n=n, alphas=alphas[: m + 1])
        assert p.weights() == weights_by_sum(p)


class TestDefinitionalSeries:
    def test_m_zero_collapses_to_g(self):
        for k in range(7):
            for a0 in DEFAULT_ALPHA_SET:
                p = GenFunParams(m=0, k=k, n=1, alphas=(a0,))
                expected = g_series(k, 12).scale(a0)
                assert s1_series(p, 12) == expected
                assert s2_series(p, 12) == expected

    def test_zero_alphas_give_zero_series(self):
        p = GenFunParams(m=2, k=1, n=3, alphas=(0, 0, 0))
        assert s1_series(p, 8) == ExpSeries.zero(8)

    def test_s2_rejects_k_zero_with_m_positive(self):
        p = GenFunParams(m=1, k=0, n=2, alphas=(1, 1))
        with pytest.raises(ValueError):
            s2_series(p, 8)
        # family 1 is fine at k=0: lower parameters are k+1 = 1
        s1_series(p, 8)

    def test_k_above_order_rejected(self):
        p = GenFunParams(m=0, k=9, n=1, alphas=(1,))
        with pytest.raises(ValueError):
            s1_series(p, 8)

    @pytest.mark.parametrize(
        "family,m,k,n,alphas,v",
        [
            (1, 1, 2, 3, (1, 1), 4),
            (1, 2, 1, 2, (1, -1, 1), 5),
            (2, 1, 2, 3, (1, 1), 4),
            (2, 2, 2, 2, ("1/2", 1, -1), 6),
        ],
    )
    def test_against_sympy_bruteforce(self, family, m, k, n, alphas, v):
        p = GenFunParams(m=m, k=k, n=n, alphas=alphas)
        series = s1_series(p, 8) if family == 1 else s2_series(p, 8)
        mine = b_extract(series, v)
        x = sympy.Symbol("x")
        oracle = family_coeff_bruteforce(family, m, k, n, p.alphas, v, 8)
        assert sympy.expand(poly_to_sympy(mine, x) - oracle) == 0


class TestBExtract:
    def test_g_series_extraction(self):
        for k in range(4):
            for v in range(10):
                assert b_extract(g_series(k, 10), v) == c_coeff(k, v)

    def test_zero_series(self):
        assert b_extract(ExpSeries.zero(5), 3).is_zero

    def test_scaled_m0_extraction(self):
        p = GenFunParams(m=0, k=2, n=1, alphas=("1/2",))
        series = s2_series(p, 10)
        for v in range(11):
            assert b_extract(series, v) == c_coeff(2, v) * Rat(1, 2)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            b_extract(ExpSeries.zero(5), 6)


class TestClosedFormsM1M2:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("alphas", [(1, 0), (0, 1), (1, 1)])
    def test_m1_corrected_matches_definition(self, k, alphas):
        p = GenFunParams(m=1, k=k, n=3, alphas=alphas)
        _, corrected = s1_m1_closed(p, 12)
        assert corrected == s1_series(p, 12)

    def test_m1_alpha1_zero_collapses(self):
        p = GenFunParams(m=1, k=3, n=2, alphas=(Rat(1, 2), 0))
        printed, corrected = s1_m1_closed(p, 10)
        expected = g_series(3, 10).scale(Rat(1, 2))
        assert printed == expected == corrected

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_m1_printed_diverges_at_k(self, k):
        p = GenFunParams(m=1, k=k, n=3, alphas=(1, 1))
        printed, _ = s1_m1_closed(p, 12)
        assert printed.first_difference(s1_series(p, 12)) == k

    def test_m1_printed_correct_at_k_one(self):
        p = GenFunParams(m=1, k=1, n=5, alphas=(-1, "1/2"))
        printed, _ = s1_m1_closed(p, 12)
        assert printed == s1_series(p, 12)

    @pytest.mark.parametrize("k", [1, 2])
    def test_m2_corrected_matches_definition(self, k):
        p = GenFunParams(m=2, k=k, n=3, alphas=(1, 1, 1))
        _, corrected = s1_m2_closed(p, 12)
        assert corrected == s1_series(p, 12)

    def test_m2_alpha12_zero_collapses(self):
        p = GenFunParams(m=2, k=2, n=3, alphas=(1, 0, 0))
        printed, corrected = s1_m2_closed(p, 10)
        assert printed == corrected == g_series(2, 10)

    def test_m2_printed_mismatch_recorded(self):
        p = GenFunParams(m=2, k=2, n=3, alphas=(0, 0, 1))
        printed, _ = s1_m2_closed(p, 12)
        assert printed.first_difference(s1_series(p, 12)) is not None

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_s2_closed_forms(self, k):
        p1 = GenFunParams(m=1, k=k, n=4, alphas=(1, "1/2"))
        printed, corrected = s2_m1_closed(p1, 12)
        assert corrected == s2_series(p1, 12)
        assert (printed == corrected) == (k == 1)
        p2 = GenFunParams(m=2, k=k, n=4, alphas=(1, -1, "1/2"))
        _, corrected2 = s2_m2_closed(p2, 12)
        assert corrected2 == s2_series(p2, 12)


class TestStirlingClosedForm:
    def test_m_zero(self):
        p = GenFunParams(m=0, k=3, n=1, alphas=(-1,))
        assert s2_stirling_closed(p, 10) == g_series(3, 10).scale(-1)

    def test_matches_definition_spot(self):
        p = GenFunParams(m=2, k=2, n=3, alphas=(1, 1, 1))
        assert s2_stirling_closed(p, 12) == s2_series(p, 12)

    def test_k_one_corollary_form(self):
        # at k = 1 the double Stirling sum telescopes to the single row
        # S2(l+1, c+1): rebuild that form directly and compare
        order = 12
        for m in (0, 1, 2):
            alphas = (1, -1, Rat(1, 2))[: m + 1]
            p = GenFunParams(m=m, k=1, n=2, alphas=alphas)
            expz = series_exp_linear(HALF_1_PLUS_X, order)
            total = ExpSeries.zero(order)
            for l, w in enumerate(p.weights()):
                inner = ExpSeries.zero(order)
                for c in range(l + 1):
                    s2 = stirling2(l + 1, c + 1)
                    if s2:
                        inner = inner + series_shift_tk(expz, c).scale(
                            HALF_1_PLUS_X**c * s2
                        )
                total = total + inner.scale(w)
            corollary = series_shift_tk(total, 1).scale(HALF_1_MINUS_X)
            assert corollary == s2_series(p, order), m


class TestExplicitCoefficients:
    def test_m_zero_reduces_to_c(self):
        p = GenFunParams(m=0, k=2, n=1, alphas=("1/2",))
        for v in range(10):
            assert b2_explicit(v, p) == c_coeff(2, v) * Rat(1, 2)

    def test_v_zero_vanishes_for_positive_k(self):
        p = GenFunParams(m=1, k=2, n=3, alphas=(1, 1))
        assert b2_explicit(0, p).is_zero

    def test_spec_point_against_extraction(self):
        p = GenFunParams(m=1, k=2, n=3, alphas=(1, 1))
        series = s2_series(p, 12)
        assert b2_explicit(5, p) == b_extract(series, 5)

    def test_requires_positive_k(self):
        p = GenFunParams(m=0, k=0, n=1, alphas=(1,))
        with pytest.raises(ValueError):
            b2_explicit(3, p)

    def test_k1_reduces_to_c1(self):
        p = GenFunParams(m=0, k=1, n=2, alphas=(1,))
        for v in range(10):
            assert b2_k1_explicit(v, p) == c_coeff(1, v)

    def test_k1_v_zero(self):
        p = GenFunParams(m=2, k=1, n=2, alphas=(1, -1, "1/2"))
        assert b2_k1_explicit(0, p).is_zero

    def test_k1_spec_point(self):
        p = GenFunParams(m=2, k=1, n=2, alphas=(1, -1, "1/2"))
        series = s2_series(p, 12)
        assert b2_k1_explicit(6, p) == b_extract(series, 6)

    def test_k1_agrees_with_general_formula(self):
        p = GenFunParams(m=2, k=1, n=3, alphas=(1, "1/2", -1))
        for v in range(13):
            assert b2_k1_explicit(v, p) == b2_explicit(v, p)

    def test_k1_rejects_other_k(self):
        p = GenFunParams(m=0, k=2, n=1, alphas=(1,))
        with pytest.raises(ValueError):
            b2_k1_explicit(3, p)


class TestVerifier:
    def test_exact_suite_verdicts(self):
        assert verify_identity("recurrence", {"k": 2, "n": 5}).status == VERIFIED
        assert verify_identity("g-closed-form", {"k": 3}).status == VERIFIED

    def test_dual_verdict_printed_mismatch(self):
        report = verify_identity(
            "s1-m1", {"m": 1, "k": 2, "n": 3, "alphas": (1, 1), "variant": "printed"}
        )
        assert report.status == PRINTED_MISMATCH
        assert report.first_divergence is not None
        assert report.first_divergence.v == 2

    def test_dual_verdict_corrected(self):
        report = verify_identity(
            "s1-m1", {"m": 1, "k": 2, "n": 3, "alphas": (1, 1), "variant": "corrected"}
        )
        assert report.status == VERIFIED

    def test_dual_verdict_verified_at_k_one(self):
        report = verify_identity("s1-m1", {"m": 1, "k": 1, "n": 3, "alphas": (1, 1)})
        assert report.status == VERIFIED

    def test_unknown_identity(self):
        with pytest.raises(ValueError, match="unknown identity 'no-such'; known: recurrence, "):
            verify_identity("no-such", {})

    def test_report_invariant(self):
        IdentityReport("x", {}, 12, VERIFIED, None)  # consistent
        with pytest.raises(ValueError):
            IdentityReport("x", {}, 12, MISMATCH, None)  # mismatch needs divergence

    def test_reports_serialize_against_schema(self):
        reports = run_suite("recurrence", max_n=3)
        reports += run_suite("s1-m1", max_n=1, max_k=2)
        for report in reports:
            payload = report.to_json_dict()
            json.dumps(payload)  # serializable
            jsonschema.validate(payload, REPORT_SCHEMA)

    def test_identity_catalogue_complete(self):
        # identity -> number of points on its default grid, in report order
        expected = {
            "recurrence": 77,
            "derivative": 65,
            "g-closed-form": 7,
            "s1-m1": 540,
            "s1-m2": 1620,
            "s2-m1": 540,
            "s2-m2": 1620,
            "s2-stirling": 7200,
            "ay-2": 7200,
            "b2-k1": 1200,
            "bernstein-map": 45,
            "miller-paris": 16,
            "16a": 4,
            "hermite-conv": 66,
            "heat-equation": 9,
            "hermite-kummer": 12,
        }
        assert IDENTITY_IDS == tuple(expected)
        sizes = {name: sum(1 for _ in suite_points(name)) for name in IDENTITY_IDS}
        assert sizes == expected
        assert sum(sizes.values()) == 20221

    def test_unknown_variant_rejected_before_building(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("built a series for an unknown variant")

        for name in ("s1_m1_closed", "s1_series", "g_series", "_prefixed_block", "_explicit_series"):
            monkeypatch.setattr(genfun, name, fail)
        params = {"m": 1, "k": 2, "n": 3, "alphas": (1, 1), "variant": "nope"}
        with pytest.raises(ValueError, match="unknown variant 'nope'"):
            verify_identity("s1-m1", params)

    def test_negative_order_rejected(self):
        for name in IDENTITY_IDS:
            _, params = next(suite_points(name, max_n=1, max_k=1))
            with pytest.raises(ValueError, match="truncation order must be >= 0"):
                verify_identity(name, params, order=-1)

    def test_s2_stirling_at_k_zero(self):
        # the l = 0 Stirling block is e^z even at k = 0, where the
        # Miller-Paris form itself is undefined
        assert s2_stirling_closed(GenFunParams(0, 0, 1, (1,)), 10) == g_series(0, 10)
        report = verify_identity("s2-stirling", {"m": 0, "k": 0, "n": 1, "alphas": (1,)})
        assert report.status == VERIFIED

    def test_run_suite_small_grids(self):
        for name in ("derivative", "bernstein-map", "16a", "heat-equation"):
            reports = run_suite(name, max_n=4, max_k=3)
            assert reports and all(r.status == VERIFIED for r in reports)

    def test_heat_equation_mismatch_report(self, monkeypatch):
        # a nonzero residual is rendered whole, at v = 0, against "0"
        residual = classical.BiPoly({(1, 2): 3, (0, 0): -1})
        monkeypatch.setattr(classical, "heat_residual", lambda n: residual)
        report = verify_identity("heat-equation", {"n": 2}, order=12)
        assert report.to_json_dict() == {
            "identity": "heat-equation",
            "params": {"n": 2},
            "order": 12,
            "status": MISMATCH,
            "first_divergence": {"v": 0, "lhs": "-1 + 3*x*y^2", "rhs": "0"},
        }

    def test_run_suite_rejects_unknown(self):
        # the message of verify_identity, naming every known identity
        with pytest.raises(ValueError) as exc:
            run_suite("nope")
        assert str(exc.value) == f"unknown identity 'nope'; known: {', '.join(IDENTITY_IDS)}"

    def test_run_suite_rejects_order_below_grid_k_before_checking(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("checked a point before rejecting the grid")

        monkeypatch.setattr(genfun, "verify_identity", fail)
        with pytest.raises(GridOrderError, match=r"order=4 is below k=5, .* max_k=6") as exc:
            run_suite("all", order=4, max_n=1)
        assert (exc.value.suite, exc.value.k) == ("g-closed-form", 5)
        with pytest.raises(GridOrderError, match="b2-k1"):
            run_suite("b2-k1", order=0, max_n=1)

    def test_run_suite_order_below_k_where_order_is_unused(self):
        # recurrence draws k up to max_n + 1 and never truncates at k
        reports = run_suite("recurrence", order=4)
        assert len(reports) == 77 and all(r.status == VERIFIED for r in reports)

    def test_run_suite_at_order_equal_to_max_k(self):
        reports = run_suite("s2-m2", order=2, max_n=1, max_k=2)
        assert {r.status for r in reports} <= {VERIFIED, PRINTED_MISMATCH}


WEIGHT_LINEAR_IDS = ("s1-m1", "s1-m2", "s2-m1", "s2-m2", "s2-stirling", "ay-2", "b2-k1")


def _outcome(report_of, identity_id, params, order):
    """The report as a JSON dict, or the type and message it raised."""
    try:
        return report_of(identity_id, params, order).to_json_dict()
    except (ValueError, TypeError) as exc:
        return (type(exc), str(exc))


def _both(identity_id, params, order):
    new = _outcome(verify_identity, identity_id, params, order)
    assert new == _outcome(weight_linear_report_by_series, identity_id, params, order), (
        identity_id, params, order)
    return new


def _sub_grid_points(identity_id, max_k=3, max_n=3, alpha_set=(Rat(0), Rat(-1), Rat(1, 2))):
    ms = {"s1-m1": (1,), "s2-m1": (1,), "s1-m2": (2,), "s2-m2": (2,)}.get(identity_id, (0, 1, 2, 3))
    variants = ("printed", "corrected") if identity_id in WEIGHT_LINEAR_IDS[:4] else (None,)
    for m in ms:
        for k in range(max_k + 1):
            for n in range(1, max_n + 1):
                for alphas in itertools.product(alpha_set, repeat=m + 1):
                    for variant in variants:
                        params = {"m": m, "k": k, "n": n, "alphas": alphas}
                        if variant:
                            params["variant"] = variant
                        yield params


class TestLinearFormsAgainstSeries:
    """The weight-linear identities are checked as linear forms over cached
    blocks; these compare every report with the whole-series check."""

    @pytest.mark.parametrize("order", [0, 2, 5, 8])
    @pytest.mark.parametrize("identity_id", WEIGHT_LINEAR_IDS)
    def test_sub_grid(self, identity_id, order):
        # k = 0 and k > order are on the grid: both paths must raise alike
        statuses = set()
        for params in _sub_grid_points(identity_id):
            outcome = _both(identity_id, params, order)
            statuses.add(outcome[0] if isinstance(outcome, tuple) else outcome["status"])
        assert VERIFIED in statuses or order == 0

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(WEIGHT_LINEAR_IDS),
        st.integers(0, 3),
        st.integers(0, 4),
        st.integers(1, 6),
        st.integers(0, 9),
        st.lists(st.sampled_from([Rat(0), Rat(0), Rat(1), Rat(-2, 3), Rat(5, 2)]), min_size=4, max_size=4),
        st.sampled_from(["printed", "corrected"]),
    )
    def test_random_points(self, identity_id, m, k, n, order, alphas, variant):
        params = {"m": m, "k": k, "n": n, "alphas": tuple(alphas[: m + 1]), "variant": variant}
        _both(identity_id, params, order)

    @pytest.mark.parametrize("defective", [False, True])
    @pytest.mark.parametrize("identity_id", WEIGHT_LINEAR_IDS[:4])
    def test_printed_defect_row_patched(self, monkeypatch, identity_id, defective):
        key = {"s1-m1": (1, 1), "s1-m2": (1, 2), "s2-m1": (2, 1), "s2-m2": (2, 2)}[identity_id]
        row = genfun._Defects(defective, defective, defective and key[1] == 2)
        monkeypatch.setitem(genfun._PRINTED_DEFECTS, key, row)
        statuses = set()
        for params in _sub_grid_points(identity_id, max_k=2, max_n=2):
            if params["k"]:
                statuses.add(_both(identity_id, params, 6)["status"])
        assert (PRINTED_MISMATCH in statuses) == defective

    @pytest.mark.parametrize("identity_id,tail", [
        ("s2-stirling", "stirling"), ("s1-m2", "family-1"), ("ay-2", "family-2")])
    def test_perturbed_block_gives_the_same_mismatch(self, monkeypatch, identity_id, tail):
        block = genfun._prefixed_block

        def perturbed(t, l, k, order, power):
            series = block(t, l, k, order, power)
            if t != tail or l != 2:
                return series
            coeffs = list(series.coeffs)
            coeffs[3] = coeffs[3] + Poly((Rat(1, 7), Rat(1)))
            return ExpSeries(coeffs)

        monkeypatch.setattr(genfun, "_prefixed_block", perturbed)
        divergences = set()
        for params in _sub_grid_points(identity_id, max_k=2, max_n=2):
            if params["m"] != 2 or params["alphas"][2] == 0 or params["k"] == 0:
                continue
            outcome = _both(identity_id, params, 6)
            assert outcome["status"] == MISMATCH
            divergences.add(outcome["first_divergence"]["v"])
        assert divergences == {3}

    def test_checks_never_call_the_public_builders(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a check built a whole series")

        for name in ("s1_series", "s2_series", "s2_stirling_closed", "s1_m1_closed", "s1_m2_closed",
                     "s2_m1_closed", "s2_m2_closed", "b2_explicit", "b2_k1_explicit", "_sum"):
            monkeypatch.setattr(genfun, name, fail)
        for identity_id in WEIGHT_LINEAR_IDS:
            assert run_suite(identity_id, max_n=2, max_k=2)


TAILS = ("family-1", "family-2", "k-moment", "moment", "stirling")


def _built(build, *args):
    """The block build(*args), or the type and message it raised."""
    try:
        return build(*args)
    except ValueError as exc:
        return (type(exc), str(exc))


class TestBlocksInBernsteinBasis:
    """Every block is built as scalars times the cached c_p(v, x); these
    compare them with the blocks built from powers of (1+x)/2 and
    (1-x)/2."""

    @pytest.mark.parametrize("tail", TAILS)
    def test_prefixed_block(self, tail):
        # k = 0 is on the grid: where a tail rejects it, both raise alike
        for l in range(4):
            for k in range(5):
                for power in sorted({1, k}):
                    for order in range(power, 13):
                        args = (tail, l, k, order, power)
                        assert _built(genfun._prefixed_block, *args) == _built(
                            prefixed_block_by_shift, *args), args

    def test_prefixed_block_below_its_power_is_zero(self):
        # the truncation of t^power T_l at an order below power
        assert genfun._prefixed_block("family-2", 1, 3, 2, 3) == ExpSeries.zero(2)

    def test_b2_blocks(self):
        for v in range(15):
            for l in range(4):
                for k in range(1, 5):
                    assert genfun._b2_block(k, v, l) == b2_block_by_half_powers(k, v, l), (k, v, l)
                assert genfun._b2_k1_block(v, l) == b2_k1_block_by_half_powers(v, l), (v, l)

    def test_blocks_build_polynomials_only_through_c_coeff(self, monkeypatch):
        for cached in (genfun._prefixed_block, genfun._b2_block, genfun._b2_k1_block,
                       genfun._explicit_series, hyper.pfq_series, hyper.exp_moment_series,
                       hyper.miller_paris_rhs):
            cached.cache_clear()
        for k in range(5):
            for v in range(13):
                c_coeff(k, v)

        def fail(*args, **kwargs):
            raise AssertionError("a block was built outside c_coeff")

        monkeypatch.setattr(exact, "series_shift_tk", fail)
        monkeypatch.setattr(coeffs, "series_shift_tk", fail)
        monkeypatch.setattr(ExpSeries, "scale", fail)
        monkeypatch.setattr(coeffs, "half_power", fail)
        monkeypatch.setattr(Poly, "__pow__", fail)
        for tail in TAILS:
            for l in range(4):
                for k in range(1, 5):
                    for power in {1, k}:
                        genfun._prefixed_block(tail, l, k, 12, power)
        for formula in ("b2", "b2-k1"):
            for l in range(4):
                for k in range(1, 5):
                    genfun._explicit_series(formula, k, l, 12)
        for name in ("HALF_1_PLUS_X", "HALF_1_MINUS_X", "half_power", "series_shift_tk"):
            assert not hasattr(genfun, name)
