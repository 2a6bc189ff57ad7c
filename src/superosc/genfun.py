"""The two generating-function families built from repeated-parameter
hypergeometric blocks, their closed forms, and the identity verifier.

Family 1 uses blocks with upper parameters (k,...,k) over (k+1,...,k+1);
family 2 swaps them.  Both share the prefactor (1/k!)((1-x)t/2)^k and the
argument ((1+x)/2)t, and are weighted sums over alpha_0..alpha_m with
scalar weights C(j,l)(-2k/n)^(j-l).

Every closed form is checked against the definitional series, which is
the ground truth here.  Several closed forms circulate in two variants:
the form as printed in standard displays ("printed") and the form the
definitional series actually forces ("corrected"); the verifier reports
both rather than silently repairing anything.  The corrections are:

* family-1, m=1: the moment-integral term needs an extra factor k
  (prefactor k*alpha_1/k!, not alpha_1/k!).
* family-1, m=2: the leading scalar is (n^2 a0 - 2kn a1 + 4k^2 a2)/n^2
  (printed: 4nk^2 a2), the tail prefactors are ((1-x)t/2)^k (printed:
  power 1), and the two moment sums carry factors k and k^2.
* family-2, m=1 and m=2: tail prefactors ((1-x)t/2)^k (printed: power 1),
  and for m=2 the same leading-scalar repair.

The table _PRINTED_DEFECTS encodes these corrections, one row per
(family, m), and _dual_closed builds both forms from it.  The identity
catalogue is the table _CATALOGUE: one check and one default grid per
identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from . import classical
from .coeffs import HALF_1_PLUS_X, half_power, c_coeff, c_derivative, c_recurrence_rhs, g_series
from .combinat import binomial, factorial, stirling2
from .exact import (
    DEFAULT_ORDER,
    ExpSeries,
    Poly,
    Rat,
    as_rat,
    series_exp_linear,
    series_shift_tk,
)
from .hyper import HyperSpec, miller_paris_lhs, miller_paris_rhs, exp_moment_series, pfq_series
from .report import (
    Divergence,
    IdentityReport,
    MISMATCH,
    PRINTED_MISMATCH,
    REPORT_SCHEMA,
    VERIFIED,
)

__all__ = [
    "GenFunParams",
    "IdentityReport",
    "REPORT_SCHEMA",
    "IDENTITY_IDS",
    "b2_explicit",
    "b2_k1_explicit",
    "b_extract",
    "run_suite",
    "s1_m1_closed",
    "s1_m2_closed",
    "s2_m1_closed",
    "s2_m2_closed",
    "s1_series",
    "s2_series",
    "s2_stirling_closed",
    "verify_identity",
]


@dataclass(frozen=True)
class GenFunParams:
    """Parameter bundle (m, k, n, alphas) shared by both families."""

    m: int
    k: int
    n: int
    alphas: tuple

    def __init__(self, m: int, k: int, n: int, alphas):
        alphas = tuple(as_rat(a) for a in alphas)
        if m < 0 or k < 0:
            raise ValueError("m and k must be >= 0")
        if n < 1:
            raise ValueError("n must be >= 1")
        if len(alphas) != m + 1:
            raise ValueError(f"need {m + 1} alpha values, got {len(alphas)}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "alphas", alphas)

    def weights(self) -> list:
        """w_l = sum_{j>=l} alpha_j C(j,l) (-2k/n)^(j-l) for l = 0..m."""
        base = Rat(-2 * self.k, self.n)
        out = []
        for l in range(self.m + 1):
            acc = Rat(0)
            for j in range(l, self.m + 1):
                acc += self.alphas[j] * binomial(j, l) * base ** (j - l)
            out.append(acc)
        return out

    def json_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "alphas": [str(a) for a in self.alphas],
        }


@lru_cache(maxsize=None)
def _prefixed_block(tail: str, l: int, k: int, order: int, power: int) -> ExpSeries:
    """P_power(T_l) = (1/k!)((1-x)t/2)^power T_l, where the l-th tail T_l is
    a series in z = ((1+x)/2)t:

    * "family-1" / "family-2": the definitional pFq block, l copies of k
      over k+1 / of k+1 over k;
    * "moment": sum_v z^v/(v+k)^l, the family-1 closed-form tail;
    * "stirling": the Stirling expansion of the family-2 block,
      miller_paris_rhs; e^z at l = 0, where miller_paris_rhs would reject
      k = 0.
    """
    if tail == "moment":
        series = exp_moment_series(k, order, HALF_1_PLUS_X, l)
    elif tail == "stirling":
        if l:
            series = miller_paris_rhs(l, k, "general", order, HALF_1_PLUS_X)
        else:
            series = series_exp_linear(HALF_1_PLUS_X, order)
    else:
        upper, lower = (k, k + 1) if tail == "family-1" else (k + 1, k)
        series = pfq_series(HyperSpec((upper,) * l, (lower,) * l), HALF_1_PLUS_X, order)
    return series_shift_tk(series, power).scale(half_power(False, power) / Rat(factorial(k)))


def _weighted_sum(p: GenFunParams, tail: str, order: int) -> ExpSeries:
    """sum_l w_l P_k(T_l) over the weights w_l of p."""
    if p.k > order:
        raise ValueError(f"k={p.k} exceeds truncation order {order}")
    if tail != "family-1" and p.k == 0 and p.m >= 1:
        raise ValueError("family-2 blocks have lower parameter k; k=0 is excluded")
    total = ExpSeries.zero(order)
    for l, w in enumerate(p.weights()):
        if w == 0:
            continue
        total = total + _prefixed_block(tail, l, p.k, order, p.k).scale(w)
    return total


def s1_series(p: GenFunParams, order: int = DEFAULT_ORDER) -> ExpSeries:
    """Definitional series of family 1 (upper k, lower k+1)."""
    return _weighted_sum(p, "family-1", order)


def s2_series(p: GenFunParams, order: int = DEFAULT_ORDER) -> ExpSeries:
    """Definitional series of family 2 (upper k+1, lower k); k >= 1 when
    m >= 1."""
    return _weighted_sum(p, "family-2", order)


def s2_stirling_closed(p: GenFunParams, order: int = DEFAULT_ORDER) -> ExpSeries:
    """Family-2 series rebuilt from Stirling partition numbers instead of
    Pochhammer ratios; must agree with s2_series exactly."""
    return _weighted_sum(p, "stirling", order)


def b_extract(series: ExpSeries, v: int) -> Poly:
    """Coefficient of t^v/v!."""
    return series.coefficient(v)


class _Defects(NamedTuple):
    """How a printed closed form departs from the corrected one."""

    drops_k_power: bool  # tail l weighted by w_l, not by w_l k^l
    tail_power_one: bool  # tail prefactor ((1-x)t/2)^1, not ((1-x)t/2)^k
    lead_a2_over_n: bool  # lead a2 term 4k^2/n, not 4k^2/n^2


#: printed-form defects of the dual closed forms, keyed by (family, m)
_PRINTED_DEFECTS = {
    (1, 1): _Defects(drops_k_power=True, tail_power_one=False, lead_a2_over_n=False),
    (1, 2): _Defects(drops_k_power=True, tail_power_one=True, lead_a2_over_n=True),
    (2, 1): _Defects(drops_k_power=False, tail_power_one=True, lead_a2_over_n=False),
    (2, 2): _Defects(drops_k_power=False, tail_power_one=True, lead_a2_over_n=True),
}


def _require(p: GenFunParams, m: int):
    if p.m != m:
        raise ValueError(f"this closed form is the m={m} case, got m={p.m}")
    if p.k < 1:
        raise ValueError("closed form needs k >= 1 (moment integral diverges at k=0)")


def _dual_closed(p: GenFunParams, family: int, m: int, order: int):
    """Printed and corrected closed forms of one family at m = 1 or 2.

    The corrected form is sum_l w_l c_l P_k(T_l) with P_k(T_0) = g_k.  For
    l >= 1 the tail T_l is the moment tail with c_l = k^l in family 1 and
    the family-2 block with c_l = 1 in family 2.  The printed form carries
    the defects _PRINTED_DEFECTS lists for (family, m).
    """
    _require(p, m)
    defects = _PRINTED_DEFECTS[family, m]
    k, w = p.k, p.weights()
    g = g_series(k, order)
    printed_lead = w[0]
    if defects.lead_a2_over_n:
        printed_lead += p.alphas[2] * (Rat(4 * k * k, p.n) - Rat(4 * k * k, p.n * p.n))
    printed, corrected = g.scale(printed_lead), g.scale(w[0])
    tail = "moment" if family == 1 else "family-2"
    printed_power = 1 if defects.tail_power_one else k
    for l in range(1, m + 1):
        c = k**l if family == 1 else 1
        corrected = corrected + _prefixed_block(tail, l, k, order, k).scale(w[l] * c)
        if defects.drops_k_power:
            c = 1
        printed = printed + _prefixed_block(tail, l, k, order, printed_power).scale(w[l] * c)
    return printed, corrected


def s1_m1_closed(p: GenFunParams, order: int = DEFAULT_ORDER):
    """Printed and corrected closed forms of family 1 at m=1 (one moment
    tail)."""
    return _dual_closed(p, 1, 1, order)


def s1_m2_closed(p: GenFunParams, order: int = DEFAULT_ORDER):
    """Printed and corrected closed forms of family 1 at m=2 (two moment
    tails)."""
    return _dual_closed(p, 1, 2, order)


def s2_m1_closed(p: GenFunParams, order: int = DEFAULT_ORDER):
    """Printed and corrected closed forms of family 2 at m=1."""
    return _dual_closed(p, 2, 1, order)


def s2_m2_closed(p: GenFunParams, order: int = DEFAULT_ORDER):
    """Printed and corrected closed forms of family 2 at m=2."""
    return _dual_closed(p, 2, 2, order)


@lru_cache(maxsize=None)
def _b2_block(k: int, v: int, l: int) -> Poly:
    """R_{k,v,l} = sum_{c<=l} C(l,c) sum_{d<=c} C(v,d) d! S2(c,d) k^{-c}
    ((1+x)/2)^d c_k(v-d, x)."""
    acc = Poly()
    for c in range(l + 1):
        for d in range(c + 1):
            s2 = stirling2(c, d)
            cv = binomial(v, d)
            if not s2 or not cv:
                continue
            scalar = Rat(binomial(l, c) * cv * factorial(d) * s2, k**c if c else 1)
            acc = acc + half_power(True, d) * c_coeff(k, v - d) * scalar
    return acc


def b2_explicit(v: int, p: GenFunParams) -> Poly:
    """Coefficient of t^v/v! in the family-2 series, written directly in
    terms of Stirling numbers and c_k; k >= 1."""
    if p.k < 1:
        raise ValueError("explicit coefficient formula needs k >= 1")
    if v < 0:
        raise ValueError("v must be >= 0")
    acc = Poly()
    for l, w in enumerate(p.weights()):
        if w == 0:
            continue
        acc = acc + _b2_block(p.k, v, l) * w
    return acc


def b2_k1_explicit(v: int, p: GenFunParams) -> Poly:
    """The k = 1 coefficient formula, fully explicit:

        (1-x) sum_j alpha_j sum_l C(j,l)(-2/n)^(j-l)
              sum_c C(v,c+1)(c+1)! S2(l+1,c+1) (1+x)^(v-1) / 2^v.
    """
    if p.k != 1:
        raise ValueError("this formula is the k = 1 specialization")
    if v < 0:
        raise ValueError("v must be >= 0")
    if v == 0:
        return Poly()
    one_minus_x = Poly((Rat(1), Rat(-1)))
    one_plus_x = Poly((Rat(1), Rat(1)))
    scalar = Rat(0)
    for l, w in enumerate(p.weights()):
        inner = 0
        for c in range(l + 1):
            inner += binomial(v, c + 1) * factorial(c + 1) * stirling2(l + 1, c + 1)
        scalar += w * inner
    return one_minus_x * one_plus_x ** (v - 1) * (scalar / Rat(2**v))


# ---------------------------------------------------------------------------
# identity verifier


def _report(identity_id, params, order, lhs, rhs, status=MISMATCH) -> IdentityReport:
    """Compare two ExpSeries coefficient by coefficient, or two other
    values as one pair: verified when all agree, otherwise status with the
    first unequal pair as the divergence at its index v."""
    if isinstance(lhs, ExpSeries):
        pairs = zip(lhs.coeffs, rhs.coeffs, strict=True)
    else:
        pairs = [(lhs, rhs)]
    for v, (a, b) in enumerate(pairs):
        if a != b:
            divergence = Divergence(v=v, lhs=str(a), rhs=str(b))
            return IdentityReport(identity_id, params, order, status, divergence)
    return IdentityReport(identity_id, params, order, VERIFIED)


def _params_from(params: dict) -> GenFunParams:
    return GenFunParams(
        m=params["m"], k=params["k"], n=params["n"], alphas=params["alphas"]
    )


def _point_check(keys, sides):
    """Check whose point is the given keys of its params and whose two
    sides are sides(**point, order=order)."""

    def check(identity_id, params, order):
        point = {key: params[key] for key in keys}
        return _report(identity_id, point, order, *sides(**point, order=order))

    return check


def _genfun_check(sides):
    """Check at a GenFunParams point p whose two sides are sides(p, order)."""

    def check(identity_id, params, order):
        p = _params_from(params)
        return _report(identity_id, p.json_dict(), order, *sides(p, order))

    return check


def _dual_check(build):
    """Check of a printed/corrected closed-form pair, build(p, order) giving
    (printed, corrected, reference).  The "corrected" variant reports the
    corrected form.  The "printed" variant (default) reports a printed form
    that diverges while the corrected form holds as a printed mismatch."""

    def check(identity_id, params, order):
        variant = params.get("variant", "printed")
        if variant not in ("printed", "corrected"):
            raise ValueError(f"unknown variant {variant!r}")
        p = _params_from(params)
        printed, corrected, reference = build(p, order)
        out = {**p.json_dict(), "variant": variant}
        report = _report(identity_id, out, order, corrected, reference)
        if variant == "printed" and report.status == VERIFIED:
            report = _report(identity_id, out, order, printed, reference, PRINTED_MISMATCH)
        return report

    return check


def _check_heat_equation(identity_id, params, order):
    # the residual is a BiPoly in x and y: it is rendered whole, at v = 0
    n = params["n"]
    residual = classical.heat_residual(n)
    if residual.is_zero:
        return IdentityReport(identity_id, {"n": n}, order, VERIFIED)
    divergence = Divergence(v=0, lhs=residual.to_string(), rhs="0")
    return IdentityReport(identity_id, {"n": n}, order, MISMATCH, divergence)


# ---------------------------------------------------------------------------
# the catalogue

DEFAULT_ALPHA_SET = (Rat(-1), Rat(1, 2), Rat(1))

#: largest m on the s2-stirling, ay-2 and b2-k1 grids
_MAX_M = 3


class _Grid(NamedTuple):
    max_n: int
    max_k: int
    alpha_set: tuple


class _Identity(NamedTuple):
    check: Callable  # (identity_id, params, order) -> IdentityReport
    grid: Callable  # _Grid -> the default parameter points, in order


def _genfun_grid(ms, ks=None):
    """Points (m, k, n, alphas) for m in ms, k in ks (default 1..max_k),
    n in 1..max_n and every alpha tuple."""

    def points(grid: _Grid):
        for m in ms:
            for k in ks or range(1, grid.max_k + 1):
                for n in range(1, grid.max_n + 1):
                    for alphas in itertools.product(grid.alpha_set, repeat=m + 1):
                        yield {"m": m, "k": k, "n": n, "alphas": alphas}

    return points


#: Every identity in report order.  The checks look the builders up by
#: name when they run, so rebinding a module-level builder (to patch or
#: to profile it) reaches every check that uses it.
_CATALOGUE = {
    "recurrence": _Identity(
        _point_check(("k", "n"), lambda k, n, order: (c_recurrence_rhs(k, n), c_coeff(k, n + 1))),
        lambda grid: ({"k": k, "n": n} for n in range(grid.max_n + 1) for k in range(n + 2)),
    ),
    "derivative": _Identity(
        _point_check(("k", "n"), lambda k, n, order: (
            c_derivative(k, n), (c_coeff(k, n - 1) - c_coeff(k - 1, n - 1)) * Rat(n, 2))),
        lambda grid: ({"k": k, "n": n} for n in range(1, grid.max_n + 1) for k in range(n + 1)),
    ),
    "g-closed-form": _Identity(
        _point_check(("k",), lambda k, order: (
            g_series(k, order), ExpSeries([c_coeff(k, v) for v in range(order + 1)]))),
        lambda grid: ({"k": k} for k in range(grid.max_k + 1)),
    ),
    "s1-m1": _Identity(
        _dual_check(lambda p, order: (*s1_m1_closed(p, order), s1_series(p, order))),
        _genfun_grid((1,)),
    ),
    "s1-m2": _Identity(
        _dual_check(lambda p, order: (*s1_m2_closed(p, order), s1_series(p, order))),
        _genfun_grid((2,)),
    ),
    "s2-m1": _Identity(
        _dual_check(lambda p, order: (*s2_m1_closed(p, order), s2_series(p, order))),
        _genfun_grid((1,)),
    ),
    "s2-m2": _Identity(
        _dual_check(lambda p, order: (*s2_m2_closed(p, order), s2_series(p, order))),
        _genfun_grid((2,)),
    ),
    "s2-stirling": _Identity(
        _genfun_check(lambda p, order: (s2_stirling_closed(p, order), s2_series(p, order))),
        _genfun_grid(range(_MAX_M + 1)),
    ),
    # the explicit coefficients b_v, as one series against s2_series
    "ay-2": _Identity(
        _genfun_check(lambda p, order: (
            ExpSeries([b2_explicit(v, p) for v in range(order + 1)]), s2_series(p, order))),
        _genfun_grid(range(_MAX_M + 1)),
    ),
    "b2-k1": _Identity(
        _genfun_check(lambda p, order: (
            ExpSeries([b2_k1_explicit(v, p) for v in range(order + 1)]), s2_series(p, order))),
        _genfun_grid(range(_MAX_M + 1), ks=(1,)),
    ),
    "bernstein-map": _Identity(
        _point_check(("k", "v"), lambda k, v, order: (
            c_coeff(k, v).compose(classical.ONE_MINUS_2Y), classical.bernstein(k, v))),
        lambda grid: ({"k": k, "v": v} for v in range(9) for k in range(v + 1)),
    ),
    "miller-paris": _Identity(
        _point_check(("a", "c"), lambda a, c, order: (
            miller_paris_lhs(a, c, order), miller_paris_rhs(a, c, "general", order))),
        lambda grid: ({"a": a, "c": c} for a in range(4) for c in range(1, 5)),
    ),
    "16a": _Identity(
        _point_check(("a",), lambda a, order: (
            miller_paris_lhs(a, 1, order), miller_paris_rhs(a, 1, "c_equals_1", order))),
        lambda grid: ({"a": a} for a in range(4)),
    ),
    # classical's own report, whose v indexes powers of x
    "hermite-conv": _Identity(
        lambda identity_id, params, order: classical.hermite_conv_theorem(
            params["k"], params["n"], order),
        lambda grid: ({"k": k, "n": n} for n in range(grid.max_n + 1) for k in range(n + 1)),
    ),
    "heat-equation": _Identity(_check_heat_equation, lambda grid: ({"n": n} for n in range(9))),
    "hermite-kummer": _Identity(
        _point_check(("n",), lambda n, order: (
            classical.hermite(n), classical.hermite_from_kummer(n))),
        lambda grid: ({"n": n} for n in range(12)),
    ),
}

IDENTITY_IDS = tuple(_CATALOGUE)


def verify_identity(identity_id: str, params: dict, order: int = DEFAULT_ORDER) -> IdentityReport:
    """Compare both sides of one catalogued identity at one parameter
    point, coefficientwise and exactly; never raises on mismatch."""
    try:
        check = _CATALOGUE[identity_id].check
    except KeyError:
        raise ValueError(
            f"unknown identity {identity_id!r}; known: {', '.join(IDENTITY_IDS)}"
        ) from None
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    return check(identity_id, params, order)


def suite_points(name: str, max_n: int = 10, max_k: int = 6, alpha_set=DEFAULT_ALPHA_SET):
    """Default parameter grid for one identity, as (identity_id, params)
    pairs."""
    if name not in _CATALOGUE:
        raise ValueError(f"unknown suite {name!r}")
    for params in _CATALOGUE[name].grid(_Grid(max_n, max_k, alpha_set)):
        yield name, params


def run_suite(
    name: str,
    order: int = DEFAULT_ORDER,
    max_n: int = 10,
    max_k: int = 6,
    alpha_set=DEFAULT_ALPHA_SET,
):
    """Run one suite (or "all") over its default grid; returns the report
    list in deterministic order."""
    names = IDENTITY_IDS if name == "all" else (name,)
    reports = []
    for suite in names:
        for identity_id, params in suite_points(suite, max_n, max_k, alpha_set):
            reports.append(verify_identity(identity_id, params, order))
    return reports
