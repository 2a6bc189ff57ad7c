"""Generalized hypergeometric series pFq, exact and floating-point, plus
the beta-weighted integral representation of the confluent case and the
Stirling-number closed forms for parameter lists like (c+1,...,c+1; c,...,c).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .combinat import binomial, stirling2
from .exact import ExpSeries, ONE_POLY, Poly, Rat, as_rat, series_powers

#: stop the float partial sum after this many consecutive negligible terms
#: (terms are not monotone for negative upper parameters)
_STABLE_TERMS = 10
#: the float partial sum gives up after _MAX_TERMS + 2|z| terms: at a large
#: |z| the terms only start to shrink geometrically after about 2|z| of them
_MAX_TERMS = 100_000
#: the float partial sum is scaled down by a power of two once it passes
#: this, so that a sum scaled back by e^z afterwards never overflows on
#: the way
_RESCALE_AT = 2.0**512
_OVERFLOW = "hypergeometric partial sum overflows a float"


def _is_nonpositive_integer(r) -> bool:
    return r.denominator == 1 and r.numerator <= 0


@dataclass(frozen=True)
class HyperSpec:
    """Parameter lists (upper; lower) of a generalized hypergeometric
    series sum_m [prod (upper_j)_rising^m / prod (lower_j)_rising^m] z^m/m!.

    Lower parameters must avoid 0, -1, -2, ... where the series is
    undefined.
    """

    upper: tuple
    lower: tuple

    def __init__(self, upper, lower):
        object.__setattr__(self, "upper", tuple(as_rat(b) for b in upper))
        object.__setattr__(self, "lower", tuple(as_rat(g) for g in lower))
        for g in self.lower:
            if _is_nonpositive_integer(g):
                raise ValueError(f"lower parameter {g} is a nonpositive integer")

    @property
    def p(self) -> int:
        return len(self.upper)

    @property
    def q(self) -> int:
        return len(self.lower)


@lru_cache(maxsize=None)
def pfq_series(spec: HyperSpec, zscale: Poly, order: int) -> ExpSeries:
    """Exact truncation of the hypergeometric series at z = zscale*t.

    In the exponential convention the t^m/m! coefficient is
    (prod (b_j)_rising^m / prod (g_j)_rising^m) * zscale^m.  No convergence
    condition applies to a formal truncation.
    """
    ratios = [Rat(1)]
    for m in range(1, order + 1):
        num = Rat(1)
        for b in spec.upper:
            num *= b + (m - 1)
        den = Rat(1)
        for g in spec.lower:
            den *= g + (m - 1)
        ratios.append(ratios[-1] * num / den)
    return series_powers(zscale, ratios)


def pfq_eval_float(spec: HyperSpec, z: float, tol: float) -> float:
    """Partial sum of the series at a real argument, entire case (p <= q)
    only.  Stops once _STABLE_TERMS consecutive terms are below
    tol*(1+|sum|) and each is at least twice the next, so that the tail
    left off is below the last term taken.

    1F1(a; b; z) at z < 0 is summed as e^z 1F1(b-a; b; -z) (Kummer's
    transformation), whose terms do not cancel.  The sum is kept as a
    float mantissa times 2^shift, scaled down exactly whenever it grows
    past _RESCALE_AT, and e^z 2^shift is applied at the end, so a value
    such as 1F1(1; 2; -2000) does not overflow on the way.  Any other sum
    whose largest term reaches tol/eps times |sum| loses more than tol to
    cancellation in floats, and raises ArithmeticError instead of
    returning it; so does a result that overflows.  A sum that has not
    stabilized after _MAX_TERMS + 2|z| terms raises RuntimeError.  A
    non-finite z, like a tolerance <= 0, raises ValueError."""
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if not math.isfinite(z):
        raise ValueError(f"z must be finite, got {z!r}")
    if spec.p > spec.q:
        raise ValueError("float evaluation supports only p <= q (entire case)")
    log_factor = 0.0
    if spec.p == spec.q == 1 and z < 0:
        (a,), (b,) = spec.upper, spec.lower
        spec, z, log_factor = HyperSpec((b - a,), (b,)), -z, z
    total = 0.0
    term = 1.0
    largest = 0.0
    # the true partial sum is total * 2^shift; one = 2^-shift is 1 in
    # those units
    shift = 0
    one = 1.0
    small = 0
    m = 0
    while m < _MAX_TERMS + 2 * abs(z):
        total += term
        largest = max(largest, abs(term))
        if not math.isfinite(total):
            raise ArithmeticError(_OVERFLOW)
        if abs(total) > _RESCALE_AT:
            total, e = math.frexp(total)
            term, largest = math.ldexp(term, -e), math.ldexp(largest, -e)
            shift += e
            one = math.ldexp(1.0, -shift)
        num = 1.0
        for b in spec.upper:
            num *= float(b) + m
        den = 1.0
        for g in spec.lower:
            den *= float(g) + m
        if abs(term) < tol * (one + abs(total)) and abs(num * z) <= (m + 1) * abs(den) / 2:
            small += 1
            if small >= _STABLE_TERMS:
                if sys.float_info.epsilon * largest > tol * abs(total):
                    raise ArithmeticError(
                        f"cancellation: largest term {largest:.3g} against sum {total:.3g} "
                        f"leaves less than tolerance {tol:g} of float precision"
                    )
                with mp.workprec(53):
                    value = float(mp.ldexp(mp.exp(log_factor), shift)) * total
                if not math.isfinite(value):
                    raise ArithmeticError(_OVERFLOW)
                return value
        else:
            small = 0
        term = term * num / den * z / (m + 1)
        m += 1
    raise RuntimeError("hypergeometric series did not stabilize")


def kummer_integral(mu, sigma, u: float) -> float:
    """Confluent hypergeometric value 1F1(mu; sigma; u) from the
    beta-weighted integral

        Gamma(sigma)/(Gamma(mu)Gamma(sigma-mu))
            * int_0^1 e^{u w} w^{mu-1} (1-w)^{sigma-mu-1} dw,

    valid for sigma > mu > 0.  The substitution w = 1 - r^(1/(sigma-mu))
    turns the integral into (1/(sigma-mu)) int_0^1 e^{u w} w^{mu-1} dr,
    removing the (1-w)^(sigma-mu-1) factor, which is singular at w = 1
    when sigma - mu < 1; mu >= 1 keeps w^(mu-1) bounded at w = 0.  The
    integral is mpmath's tanh-sinh quadrature at 64 bits: the 11 bits
    beyond a float cover the rounding in e^{u w}, which the quadrature's
    error estimate does not see.  The result meets a relative error
    target of 1e-10, or ArithmeticError is raised: when the quadrature's
    estimate is above the target, or when the value overflows a float.
    A non-finite u raises ValueError.
    """
    mu = as_rat(mu)
    sigma = as_rat(sigma)
    if not sigma > mu > 0:
        raise ValueError("integral representation requires sigma > mu > 0")
    if mu < 1:
        raise ValueError("mu < 1 puts an integrable singularity at w=0; unsupported")
    if not math.isfinite(u):
        raise ValueError(f"u must be finite, got {u!r}")
    with mp.workprec(64):
        mu_m, gap = (mp.mpf(r.numerator) / r.denominator for r in (mu, sigma - mu))
        power = 1 / gap

        def integrand(r):
            w = 1 - r**power
            return mp.exp(u * w) * w ** (mu_m - 1)

        value, error = mp.quad(integrand, [0, 1], error=True)
        if error > 1e-10 * abs(value):
            raise ArithmeticError(
                f"quadrature error estimate {float(error):.3g} exceeds 1e-10 "
                f"of the integral {float(value):.3g}"
            )
        result = float(value / (gap * mp.beta(mu_m, gap)))
    if not math.isfinite(result):
        raise ArithmeticError("Kummer integral overflows a float")
    return result


@lru_cache(maxsize=None)
def exp_moment_series(k: int, order: int, zscale: Poly, power: int = 1) -> ExpSeries:
    """Series whose t^v/v! coefficient is zscale^v / (v+k)^power.

    For power=1 this is int_0^1 e^{zscale*t*u} u^{k-1} du expanded
    termwise; power=2 is the once-more (v+k)-damped variant.  Needs k >= 1
    (k = 0 makes the v = 0 term diverge)."""
    if k < 1:
        raise ValueError("moment series needs k >= 1")
    return series_powers(zscale, [Rat(1, v + k) ** power for v in range(order + 1)])


@lru_cache(maxsize=None)
def miller_paris_rhs(
    a: int, c: int, variant: str = "general", order: int = 12, zscale: Poly = ONE_POLY
) -> ExpSeries:
    """Stirling-number closed form matching the series with upper
    parameters (c+1,...,c+1) and lower (c,...,c), a copies each.

    variant="general":
        c^{-a} e^z sum_{v<=a} C(a,v) c^{a-v} sum_{d<=v} S2(v,d) z^d
    variant="c_equals_1" (requires c=1):
        e^z sum_{v<=a} S2(a+1, v+1) z^v
    with z = zscale*t.  Either form is e^z sum_{d<=a} a_d z^d, and z^d e^z
    has t^v/v! coefficient v!/(v-d)! zscale^v.
    """
    if c < 1:
        raise ValueError("lower parameter c must be >= 1")
    if a < 0:
        raise ValueError("repetition count a must be >= 0")
    if variant == "general":
        # scaled[d] = c^a a_d, an integer (c = 1 in the other variant)
        scaled = [
            sum(binomial(a, v) * c ** (a - v) * stirling2(v, d) for v in range(d, a + 1))
            for d in range(a + 1)
        ]
    elif variant == "c_equals_1":
        if c != 1:
            raise ValueError("variant c_equals_1 requires c = 1")
        scaled = [stirling2(a + 1, d + 1) for d in range(a + 1)]
    else:
        raise ValueError(f"unknown variant {variant!r}")
    scalars = [
        Rat(sum(s * math.perm(v, d) for d, s in enumerate(scaled)), c**a)
        for v in range(order + 1)
    ]
    return series_powers(zscale, scalars)


def miller_paris_lhs(a: int, c: int, order: int = 12, zscale: Poly = ONE_POLY) -> ExpSeries:
    """The hypergeometric side: series with a copies of c+1 over a copies
    of c, truncated at the given order."""
    spec = HyperSpec((c + 1,) * a, (c,) * a)
    return pfq_series(spec, zscale, order)
