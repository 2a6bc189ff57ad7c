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
(family, m), and _dual_forms builds both forms from it.

Each weight-linear identity is a linear form: scalars s_i and two lists
of cached blocks A_i, B_i, whose sides are sum_i s_i A_i and
sum_i s_i B_i.  The scalars are the weights w_l, the only part that
depends on n and the alphas; the blocks depend on (k, order) alone.  A
point where every block pair with a nonzero scalar is equal is verified
with no series arithmetic; elsewhere the sides are built one coefficient
at a time up to the first divergence.  The public builders are sums over
the same block lists.  The identity catalogue is the table _CATALOGUE:
one check and one default grid per identity.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

from . import classical
from .coeffs import c_coeff, c_derivative, c_recurrence_rhs, g_series
from .combinat import binomial, factorial, stirling2
from .exact import (
    DEFAULT_ORDER,
    ONE_POLY,
    ExpSeries,
    Poly,
    Rat,
    as_rat,
    series_exp_linear,
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
    "GridOrderError",
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
        """w_l = sum_{j>=l} alpha_j C(j,l) (-2k/n)^(j-l) for l = 0..m: the
        coefficients of sum_j alpha_j (y - 2k/n)^j, by the Taylor shift's
        repeated synthetic division."""
        base = Rat(-2 * self.k, self.n)
        w = list(self.alphas)
        for i in range(self.m):
            for l in range(self.m - 1, i - 1, -1):
                w[l] = w[l] + base * w[l + 1]
        return w

    def json_dict(self) -> dict:
        return {
            "m": self.m,
            "k": self.k,
            "n": self.n,
            "alphas": [str(a) for a in self.alphas],
        }


@lru_cache(maxsize=None)
def _prefixed_block(tail: str, l: int, k: int, order: int, power: int) -> ExpSeries:
    """P_power(T_l) = (1/k!)((1-x)t/2)^power T_l, where the l-th tail
    T_l = sum_j s_j z^j/j! is a series in z = ((1+x)/2)t:

    * "family-1" / "family-2": the definitional pFq block, l copies of k
      over k+1 / of k+1 over k;
    * "k-moment": k^l sum_v z^v/(v+k)^l, the family-1 closed-form tail;
    * "moment": sum_v z^v/(v+k)^l, that tail as printed, without k^l;
    * "stirling": the Stirling expansion of the family-2 block,
      miller_paris_rhs; e^z at l = 0, where miller_paris_rhs would reject
      k = 0.

    (w t)^p (u t)^j / (k! j!) has t^v/v! coefficient (p!/k!) s_j c_p(v, x)
    with v = p + j, u = (1+x)/2 and w = (1-x)/2; the scalars s_j are the
    tail's coefficients at z = t.
    """
    factor = Rat(factorial(power), factorial(k))
    if tail in ("moment", "k-moment"):
        series = exp_moment_series(k, order, ONE_POLY, l)
        if tail == "k-moment":
            factor = factor * k**l
    elif tail == "stirling":
        if l:
            series = miller_paris_rhs(l, k, "general", order)
        else:
            series = series_exp_linear(ONE_POLY, order)
    else:
        upper, lower = (k, k + 1) if tail == "family-1" else (k + 1, k)
        series = pfq_series(HyperSpec((upper,) * l, (lower,) * l), ONE_POLY, order)
    scalars = [s.coefficient(0) * factor for s in series.coeffs]
    return ExpSeries(
        [c_coeff(power, v) * scalars[v - power] if v >= power else Poly() for v in range(order + 1)]
    )


@lru_cache(maxsize=None)
def _b2_block(k: int, v: int, l: int) -> Poly:
    """R_{k,v,l} = sum_{c<=l} C(l,c) sum_{d<=c} C(v,d) d! S2(c,d) k^{-c}
    ((1+x)/2)^d c_k(v-d, x) for k >= 1.  Since ((1+x)/2)^d c_k(v-d, x) =
    C(v-d,k)/C(v,k) c_k(v, x), this is c_k(v, x) times a scalar; zero at
    v < k."""
    if v < k:
        return Poly()
    scalar = sum(
        Rat(binomial(l, c) * binomial(v, d) * factorial(d) * stirling2(c, d) * binomial(v - d, k),
            k**c * binomial(v, k))
        for c in range(l + 1)
        for d in range(c + 1)
    )
    return c_coeff(k, v) * scalar


@lru_cache(maxsize=None)
def _b2_k1_block(v: int, l: int) -> Poly:
    """(1-x)(1+x)^(v-1)/2^v sum_c C(v,c+1)(c+1)! S2(l+1,c+1), the k = 1
    block of tail l, which is c_1(v, x)/v times that sum; zero at v = 0."""
    if v == 0:
        return Poly()
    inner = sum(
        binomial(v, c + 1) * factorial(c + 1) * stirling2(l + 1, c + 1) for c in range(l + 1)
    )
    return c_coeff(1, v) * Rat(inner, v)


@lru_cache(maxsize=None)
def _explicit_series(formula: str, k: int, l: int, order: int) -> ExpSeries:
    """The series whose t^v/v! coefficients are the explicit blocks of
    tail l: _b2_block(k, v, l) for "b2", _b2_k1_block(v, l) for "b2-k1"."""
    if formula == "b2":
        return ExpSeries([_b2_block(k, v, l) for v in range(order + 1)])
    return ExpSeries([_b2_k1_block(v, l) for v in range(order + 1)])


# ---------------------------------------------------------------------------
# linear forms
#
# A block reference (builder, *args) names the cached block builder(*args);
# None is the zero block.  A linear form pairs two reference lists under one
# list of scalars: its sides are sum_i s_i A_i and sum_i s_i B_i.


class _Form(NamedTuple):
    scalars: list
    lhs: list
    rhs: list


def _block(ref) -> ExpSeries:
    return ref[0](*ref[1:])


def _combine(terms) -> Poly:
    """sum s * c over (s, c) pairs of a scalar and a Poly, skipping s = 0."""
    acc = Poly()
    for s, c in terms:
        if s:
            acc = acc + c * s
    return acc


def _sum(scalars, refs, order: int) -> ExpSeries:
    """sum_i s_i A_i as one series, building only blocks with s_i != 0."""
    total = ExpSeries.zero(order)
    for s, ref in zip(scalars, refs, strict=True):
        if s:
            total = total + _block(ref).scale(s)
    return total


#: (reference, reference) -> whether the two blocks are equal, memoised by
#: the references; hashing the series themselves costs more than it saves
_BLOCKS_EQUAL = {}


def _blocks_equal(a, b) -> bool:
    if a == b:
        return True
    if a is None or b is None:
        return False
    equal = _BLOCKS_EQUAL.get((a, b))
    if equal is None:
        equal = _BLOCKS_EQUAL[a, b] = _block(a) == _block(b)
    return equal


def _form_pairs(form: _Form, order: int):
    """Coefficient pairs (sum s_i A_i[v], sum s_i B_i[v]) for v = 0..order,
    built one v at a time; none at all when every block pair with a nonzero
    scalar is equal, so that the sides agree with no series arithmetic."""
    live = [(s, a, b) for s, a, b in zip(*form, strict=True) if s]
    if all(_blocks_equal(a, b) for _, a, b in live):
        return ()
    lhs = [(s, _block(a)) for s, a, _ in live if a is not None]
    rhs = [(s, _block(b)) for s, _, b in live if b is not None]
    return (
        (
            _combine((s, block.coeffs[v]) for s, block in lhs),
            _combine((s, block.coeffs[v]) for s, block in rhs),
        )
        for v in range(order + 1)
    )


def _tail_blocks(tail: str, p: GenFunParams, order: int) -> list:
    """References to P_k(T_l), l = 0..m, the blocks of a weighted sum."""
    if p.k > order:
        raise ValueError(f"k={p.k} exceeds truncation order {order}")
    if tail != "family-1" and p.k == 0 and p.m >= 1:
        raise ValueError("family-2 blocks have lower parameter k; k=0 is excluded")
    return [(_prefixed_block, tail, l, p.k, order, p.k) for l in range(p.m + 1)]


def s1_series(p: GenFunParams, order: int = DEFAULT_ORDER) -> ExpSeries:
    """Definitional series of family 1 (upper k, lower k+1)."""
    return _sum(p.weights(), _tail_blocks("family-1", p, order), order)


def s2_series(p: GenFunParams, order: int = DEFAULT_ORDER) -> ExpSeries:
    """Definitional series of family 2 (upper k+1, lower k); k >= 1 when
    m >= 1."""
    return _sum(p.weights(), _tail_blocks("family-2", p, order), order)


def s2_stirling_closed(p: GenFunParams, order: int = DEFAULT_ORDER) -> ExpSeries:
    """Family-2 series rebuilt from Stirling partition numbers instead of
    Pochhammer ratios; must agree with s2_series exactly."""
    return _sum(p.weights(), _tail_blocks("stirling", p, order), order)


def _stirling_form(p: GenFunParams, order: int) -> _Form:
    """The Stirling blocks against the family-2 blocks."""
    return _Form(p.weights(), _tail_blocks("stirling", p, order), _tail_blocks("family-2", p, order))


def b_extract(series: ExpSeries, v: int) -> Poly:
    """Coefficient of t^v/v!."""
    return series.coefficient(v)


class _Defects(NamedTuple):
    """How a printed closed form departs from the corrected one."""

    drops_k_power: bool  # tail l is the bare moment tail, without k^l
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


def _dual_forms(p: GenFunParams, family: int, m: int, order: int):
    """Printed and corrected closed forms of one family at m = 1 or 2, as
    linear forms against the definitional blocks.

    The corrected form is sum_l w_l C_l with C_0 = g_k.  For l >= 1, C_l is
    the k-moment tail in family 1 and the family-2 block in family 2, at
    power k.  The printed form carries the defects _PRINTED_DEFECTS lists
    for (family, m); a wrong lead scalar is one more scalar on g_k, paired
    with the zero block.
    """
    _require(p, m)
    reference = _tail_blocks("family-1" if family == 1 else "family-2", p, order)
    defects = _PRINTED_DEFECTS[family, m]
    k, w = p.k, p.weights()
    lead = [(g_series, k, order)]
    tail = "k-moment" if family == 1 else "family-2"
    corrected = lead + [(_prefixed_block, tail, l, k, order, k) for l in range(1, m + 1)]
    if defects.drops_k_power and family == 1:
        tail = "moment"
    power = 1 if defects.tail_power_one else k
    printed = lead + [(_prefixed_block, tail, l, k, order, power) for l in range(1, m + 1)]
    if defects.lead_a2_over_n:
        extra = p.alphas[2] * (Rat(4 * k * k, p.n) - Rat(4 * k * k, p.n * p.n))
        printed_form = _Form(w + [extra], printed + lead, reference + [None])
    else:
        printed_form = _Form(w, printed, reference)
    return printed_form, _Form(w, corrected, reference)


def _dual_closed(p: GenFunParams, family: int, m: int, order: int):
    """(printed, corrected) closed-form series of one family at m."""
    return tuple(_sum(form.scalars, form.lhs, order) for form in _dual_forms(p, family, m, order))


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


def _check_explicit(formula: str, p: GenFunParams):
    if formula == "b2-k1":
        if p.k != 1:
            raise ValueError("this formula is the k = 1 specialization")
    elif p.k < 1:
        raise ValueError("explicit coefficient formula needs k >= 1")


def _explicit_form(formula: str, p: GenFunParams, order: int) -> _Form:
    """The explicit coefficients of formula ("b2" or "b2-k1"), one series
    per tail, against the family-2 blocks."""
    _check_explicit(formula, p)
    explicit = [(_explicit_series, formula, p.k, l, order) for l in range(p.m + 1)]
    return _Form(p.weights(), explicit, _tail_blocks("family-2", p, order))


def b2_explicit(v: int, p: GenFunParams) -> Poly:
    """Coefficient of t^v/v! in the family-2 series, written directly in
    terms of Stirling numbers and c_k; k >= 1."""
    _check_explicit("b2", p)
    if v < 0:
        raise ValueError("v must be >= 0")
    return _combine((w, _b2_block(p.k, v, l)) for l, w in enumerate(p.weights()))


def b2_k1_explicit(v: int, p: GenFunParams) -> Poly:
    """The k = 1 coefficient formula, fully explicit:

        (1-x) sum_j alpha_j sum_l C(j,l)(-2/n)^(j-l)
              sum_c C(v,c+1)(c+1)! S2(l+1,c+1) (1+x)^(v-1) / 2^v.
    """
    _check_explicit("b2-k1", p)
    if v < 0:
        raise ValueError("v must be >= 0")
    return _combine((w, _b2_k1_block(v, l)) for l, w in enumerate(p.weights()))


# ---------------------------------------------------------------------------
# identity verifier


def _series_pairs(lhs, rhs):
    """Coefficient pairs of two ExpSeries, or two other values as one
    pair."""
    if isinstance(lhs, ExpSeries):
        return zip(lhs.coeffs, rhs.coeffs, strict=True)
    return [(lhs, rhs)]


def _report(identity_id, params, order, pairs, status=MISMATCH) -> IdentityReport:
    """Verified when every (lhs, rhs) pair agrees, otherwise status with
    the first unequal pair as the divergence at its index v."""
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
        return _report(identity_id, point, order, _series_pairs(*sides(**point, order=order)))

    return check


def _form_check(form):
    """Check at a GenFunParams point p of the linear form form(p, order)."""

    def check(identity_id, params, order):
        p = _params_from(params)
        return _report(identity_id, p.json_dict(), order, _form_pairs(form(p, order), order))

    return check


def _dual_check(family, m):
    """Check of the printed/corrected closed-form pair of (family, m).  The
    "corrected" variant reports the corrected form.  The "printed" variant
    (default) reports a printed form that diverges while the corrected form
    holds as a printed mismatch."""

    def check(identity_id, params, order):
        variant = params.get("variant", "printed")
        if variant not in ("printed", "corrected"):
            raise ValueError(f"unknown variant {variant!r}")
        p = _params_from(params)
        printed, corrected = _dual_forms(p, family, m, order)
        out = {**p.json_dict(), "variant": variant}
        report = _report(identity_id, out, order, _form_pairs(corrected, order))
        if variant == "printed" and report.status == VERIFIED:
            report = _report(identity_id, out, order, _form_pairs(printed, order), PRINTED_MISMATCH)
        return report

    return check


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
    k_within_order: bool = False  # the check rejects points with k > order


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


#: Every identity in report order.  The checks look their builders and
#: blocks up by name when they run, so rebinding a module-level one (to
#: patch or to profile it) reaches every check that uses it.  The seven
#: weight-linear identities, s1-m1 to b2-k1, are checked as linear forms
#: over the blocks and never call the public series builders.
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
        k_within_order=True,
    ),
    "s1-m1": _Identity(_dual_check(1, 1), _genfun_grid((1,)), k_within_order=True),
    "s1-m2": _Identity(_dual_check(1, 2), _genfun_grid((2,)), k_within_order=True),
    "s2-m1": _Identity(_dual_check(2, 1), _genfun_grid((1,)), k_within_order=True),
    "s2-m2": _Identity(_dual_check(2, 2), _genfun_grid((2,)), k_within_order=True),
    "s2-stirling": _Identity(
        _form_check(_stirling_form), _genfun_grid(range(_MAX_M + 1)), k_within_order=True
    ),
    # the explicit coefficients b_v, one series per tail, against s2_series
    "ay-2": _Identity(
        _form_check(lambda p, order: _explicit_form("b2", p, order)),
        _genfun_grid(range(_MAX_M + 1)),
        k_within_order=True,
    ),
    "b2-k1": _Identity(
        _form_check(lambda p, order: _explicit_form("b2-k1", p, order)),
        _genfun_grid(range(_MAX_M + 1), ks=(1,)),
        k_within_order=True,
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
    # the residual is a BiPoly in x and y: it is rendered whole, at v = 0
    "heat-equation": _Identity(
        _point_check(("n",), lambda n, order: (classical.heat_residual(n), classical.BiPoly())),
        lambda grid: ({"n": n} for n in range(9)),
    ),
    "hermite-kummer": _Identity(
        _point_check(("n",), lambda n, order: (
            classical.hermite(n), classical.hermite_from_kummer(n))),
        lambda grid: ({"n": n} for n in range(12)),
    ),
}

IDENTITY_IDS = tuple(_CATALOGUE)


class GridOrderError(ValueError):
    """A suite's grid draws a k above the truncation order it is run at."""

    def __init__(self, suite: str, k: int, order: int, max_k: int):
        self.suite, self.k, self.order, self.max_k = suite, k, order, max_k
        super().__init__(self.describe("order", "max_k"))

    def describe(self, order_name: str, max_k_name: str) -> str:
        """The message, naming the order and max_k settings as given."""
        return (
            f"{order_name}={self.order} is below k={self.k}, which the {self.suite} "
            f"grid draws with {max_k_name}={self.max_k}"
        )


def _check_order(order: int):
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")


def _identity(name: str) -> _Identity:
    try:
        return _CATALOGUE[name]
    except KeyError:
        raise ValueError(f"unknown identity {name!r}; known: {', '.join(IDENTITY_IDS)}") from None


def verify_identity(identity_id: str, params: dict, order: int = DEFAULT_ORDER) -> IdentityReport:
    """Compare both sides of one catalogued identity at one parameter
    point, coefficientwise and exactly; never raises on mismatch."""
    check = _identity(identity_id).check
    _check_order(order)
    return check(identity_id, params, order)


def suite_points(name: str, max_n: int = 10, max_k: int = 6, alpha_set=DEFAULT_ALPHA_SET):
    """Default parameter grid for one identity, as (identity_id, params)
    pairs."""
    for params in _identity(name).grid(_Grid(max_n, max_k, alpha_set)):
        yield name, params


def run_suite(
    name: str,
    order: int = DEFAULT_ORDER,
    max_n: int = 10,
    max_k: int = 6,
    alpha_set=DEFAULT_ALPHA_SET,
):
    """Run one suite (or "all") over its default grid; returns the report
    list in deterministic order.  Raises GridOrderError before the first
    check when a selected grid draws a k above order."""
    names = IDENTITY_IDS if name == "all" else (name,)
    _check_order(order)
    grid = _Grid(max_n, max_k, alpha_set)
    for suite in names:
        identity = _identity(suite)
        if identity.k_within_order:
            k = next((params["k"] for params in identity.grid(grid) if params["k"] > order), None)
            if k is not None:
                raise GridOrderError(suite, k, order, max_k)
    return [
        verify_identity(suite, params, order)
        for suite in names
        for params in _identity(suite).grid(grid)
    ]
