"""Superoscillation coefficient polynomials c_k(n, x), the band-limited
sequence F_n built from them, and numeric convergence profiling.

The k-th Fourier weight of F_n(x, a) = (cos(x/n) + i a sin(x/n))^n is

    c_k(n, a) = C(n, k) ((1+a)/2)^(n-k) ((1-a)/2)^k,

extended by zero outside 0 <= k <= n.  Each frequency 1 - 2k/n stays in
[-1, 1] while the limit e^{iax} oscillates at |a| > 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath as mp

from .combinat import binomial
from .exact import ExpSeries, Poly, Rat, series_exp_linear, series_shift_tk

#: (1+x)/2 and (1-x)/2 as exact polynomials
HALF_1_PLUS_X = Poly((Rat(1, 2), Rat(1, 2)))
HALF_1_MINUS_X = Poly((Rat(1, 2), Rat(-1, 2)))


@lru_cache(maxsize=None)
def half_power(plus: bool, e: int) -> Poly:
    base = HALF_1_PLUS_X if plus else HALF_1_MINUS_X
    return base**e


@lru_cache(maxsize=None)
def c_coeff(k: int, n: int) -> Poly:
    """C(n,k) ((1+x)/2)^(n-k) ((1-x)/2)^k; the zero polynomial when k is
    outside 0..n."""
    if n < 0:
        raise ValueError("sequence index n must be >= 0")
    if k < 0 or k > n:
        return Poly()
    return half_power(True, n - k) * half_power(False, k) * binomial(n, k)


def c_derivative(k: int, n: int) -> Poly:
    """Termwise derivative d/dx of c_k(n, x)."""
    return c_coeff(k, n).derivative()


def c_recurrence_rhs(k: int, n: int) -> Poly:
    """((1-x)/2) c_{k-1}(n,x) + ((1+x)/2) c_k(n,x), which telescopes to
    c_k(n+1, x)."""
    return HALF_1_MINUS_X * c_coeff(k - 1, n) + HALF_1_PLUS_X * c_coeff(k, n)


@lru_cache(maxsize=None)
def g_series(k: int, order: int) -> ExpSeries:
    """(1/k!) (t(1-x)/2)^k exp(t(x+1)/2); its t^v/v! coefficient is
    c_k(v, x) exactly."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > order:
        raise ValueError(f"k={k} exceeds truncation order {order}")
    base = series_exp_linear(HALF_1_PLUS_X, order)
    shifted = series_shift_tk(base, k)
    return shifted.scale(half_power(False, k) / math.factorial(k))


def f_eval(n: int, a: float, x: float) -> complex:
    """(cos(x/n) + i a sin(x/n))^n in product form; well conditioned for
    any n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    theta = x / n
    return complex(math.cos(theta), a * math.sin(theta)) ** n


def fourier_sum_precision(n: int, a: float, extra_log2: float = 0.0) -> int:
    """Working precision (bits) for Fourier-form sums: they add terms of
    total magnitude max(1,|a|)^n to produce an O(1) value, so the
    precision must absorb that cancellation."""
    return 80 + int(n * math.log2(1.0 + abs(a)) + extra_log2)


def poly_at(coeffs, k):
    """Horner evaluation of ascending coefficients at k."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


def _fixed(z, bits: int) -> tuple:
    """z as a Gaussian integer (re, im) in units of 2^-bits."""
    return int(mp.ldexp(mp.re(z), bits)), int(mp.ldexp(mp.im(z), bits))


@lru_cache(maxsize=64)
def fourier_terms(n: int, a: float, weight: tuple, prec: int) -> tuple:
    """(j0, terms) with terms[i] = c_j(n,a) W(k_j) for j = j0 + i, built at
    prec bits and kept as Gaussian integers (re, im) in units of 2^-prec;
    W is the polynomial with ascending coefficients weight.

    Vanishing terms at either end are dropped: at a = 1 (a = -1) every
    c_j but the first (last) is exactly zero."""
    with mp.workprec(prec):
        u = (1 + mp.mpf(a)) / 2
        w = (1 - mp.mpf(a)) / 2
        terms = [
            mp.binomial(n, j) * u ** (n - j) * w**j * poly_at(weight, mp.mpf(n - 2 * j) / n)
            for j in range(n + 1)
        ]
    nonzero = [j for j, term in enumerate(terms) if term != 0]
    if not nonzero:
        return 0, ()
    return nonzero[0], tuple(_fixed(term, prec) for term in terms[nonzero[0] : nonzero[-1] + 1])


def fourier_sum(n: int, a: float, x: float, weight: tuple, phase: tuple) -> complex:
    """sum_j c_j(n,a) W(k_j) e^{i Phi(k_j) x} with k_j = 1 - 2j/n, where W
    (real or complex) and Phi (real) are polynomials given as ascending
    coefficient tuples.

    The terms c_j W(k_j) do not depend on x: they are built once per
    (n, a, W, precision) and cached.  P(j) = Phi(k_j) x is a polynomial of
    degree d in j, so with D_i the i-th forward difference of P the phase
    factors obey e^{i D_i(j+1)} = e^{i D_i(j)} e^{i D_{i+1}(j)}: d+1
    cos/sin pairs per x, then d complex multiplies per term.  The rounding
    of that recurrence grows like j^d, which d log2(n+1) guard bits absorb.

    The loop runs on Gaussian integers in units of 2^-prec: the products
    with the terms are exact, and each phase step rounds once, by the
    rescaling shift, so the error is that of mpmath arithmetic at prec bits
    at a fraction of its cost.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    degree = max(len(phase) - 1, 0)
    while degree > 0 and phase[degree] == 0:
        degree -= 1
    prec = fourier_sum_precision(n, a, degree * math.log2(n + 1))
    j0, terms = fourier_terms(n, a, tuple(weight), prec)
    order = min(degree, len(terms) - 1)
    with mp.workprec(prec):
        diffs = [poly_at(phase, mp.mpf(n - 2 * j) / n) * x for j in range(j0, j0 + order + 1)]
        for level in range(1, order + 1):
            for i in range(order, level - 1, -1):
                diffs[i] -= diffs[i - 1]
        rot = [_fixed(mp.mpc(mp.cos(d), mp.sin(d)), prec) for d in diffs]
    re = im = 0
    for tr, ti in terms:
        cr, ci = rot[0]
        re += tr * cr - ti * ci
        im += tr * ci + ti * cr
        for i in range(order):
            (ar, ai), (br, bi) = rot[i], rot[i + 1]
            rot[i] = ((ar * br - ai * bi) >> prec, (ar * bi + ai * br) >> prec)
    scale = 1 << 2 * prec
    return complex(re / scale, im / scale)


def f_eval_fourier(n: int, a: float, x: float) -> complex:
    """Same value as f_eval via the Fourier sum
    sum_k c_k(n,a) e^{i(1-2k/n)x}, the independent cross-check of the
    product form."""
    return fourier_sum(n, a, x, (1,), (0, 1))


@dataclass(frozen=True)
class GridResult:
    """Sampled values and sup errors of a sequence against its limit."""

    xs: tuple
    values: dict
    sup_error: dict

    def sup_errors_in_order(self, n_list) -> list:
        return [self.sup_error[n] for n in n_list]


def sample_grid(x_lo: float, x_hi: float, samples: int) -> tuple:
    if samples < 1:
        raise ValueError("need at least one sample")
    if samples == 1:
        return (x_lo,)
    if x_lo >= x_hi:
        raise ValueError("empty sample range")
    step = (x_hi - x_lo) / (samples - 1)
    return tuple(x_lo + i * step for i in range(samples))


def sup_error_sweep(n_list, x_lo: float, x_hi: float, samples: int, sum_and_limit) -> GridResult:
    """Values of a sequence on the sample grid and their sup error against
    its limit, for each n.  sum_and_limit() gives (evaluate(n, x),
    limit(x)); it is called once the grid is known to be valid."""
    if not n_list:
        raise ValueError("n_list must be nonempty")
    xs = sample_grid(x_lo, x_hi, samples)
    evaluate, limit = sum_and_limit()
    values = {}
    sup_error = {}
    for n in n_list:
        vals = tuple(evaluate(n, x) for x in xs)
        sup_error[n] = max(abs(v - limit(x)) for v, x in zip(vals, xs))
        values[n] = vals
    return GridResult(xs=xs, values=values, sup_error=sup_error)


def convergence_profile(
    n_list, a: float, x_lo: float, x_hi: float, samples: int
) -> GridResult:
    """Sup over the sample grid of |F_n(x,a) - e^{iax}| for each n."""
    return sup_error_sweep(n_list, x_lo, x_hi, samples, lambda: (
        lambda n, x: f_eval(n, a, x),
        lambda x: complex(math.cos(a * x), math.sin(a * x)),
    ))
