"""Superoscillation coefficient polynomials c_k(n, x), the band-limited
sequence F_n built from them, and numeric convergence profiling.

The k-th Fourier weight of F_n(x, a) = (cos(x/n) + i a sin(x/n))^n is

    c_k(n, a) = C(n, k) ((1+a)/2)^(n-k) ((1-a)/2)^k,

extended by zero outside 0 <= k <= n.  Each frequency 1 - 2k/n stays in
[-1, 1] while the limit e^{iax} oscillates at |a| > 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from mpmath.libmp import from_man_exp, mpf_cos_sin

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
    any n.  A non-finite a or x raises ValueError, and a value that does
    not fit in a float raises ArithmeticError."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_finite("a", a)
    _require_finite("x", x)
    theta = x / n
    try:
        value = complex(math.cos(theta), a * math.sin(theta)) ** n
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ArithmeticError(f"F_n at n={n}, a={a!r}, x={x!r} does not fit in a float")


def limit_phase(freq: float, x: float, where: str) -> complex:
    """e^{i freq x}, the phase of a limit; ArithmeticError naming where
    (the limit's parameters) and x when freq x does not fit in a float."""
    theta = freq * x
    if not math.isfinite(theta):
        raise ArithmeticError(f"limit phase does not fit in a float at {where}, x={x!r}")
    return complex(math.cos(theta), math.sin(theta))


def _require_finite(name: str, value) -> None:
    if not (isinstance(value, int) or cmath.isfinite(value)):
        raise ValueError(f"{name} must be finite, got {value!r}")


def _dyadic_parts(c) -> tuple:
    """Real and imaginary parts of c as exact Fractions (dyadic for floats)."""
    if isinstance(c, complex):
        return Fraction(c.real), Fraction(c.imag)
    return Fraction(c), Fraction(0)


def _ceil_log2(num: int, den: int) -> int:
    """Smallest e with num <= den 2^e, for num, den > 0."""
    e = num.bit_length() - den.bit_length()  # 2^(e-1) < num/den < 2^(e+1)
    return e if (num <= den << e if e >= 0 else num << -e <= den) else e + 1


def _ceil_abs(re: int, im: int) -> int:
    """ceil |re + i im|, with no square root for a real or imaginary value."""
    if not (re and im):
        return abs(re or im)
    return math.isqrt(re * re + im * im - 1) + 1


@lru_cache(maxsize=64)
def fourier_terms(n: int, a: float, weight: tuple) -> tuple:
    """(j0, terms, den, magnitude): T_j = c_j(n,a) W(k_j) exactly, as
    Gaussian integers (re, im) over one positive denominator, T_j =
    terms[j - j0] / den; W is the polynomial with ascending coefficients
    weight, and magnitude / den >= sum_j |T_j| (each |T_j| rounded up to
    a whole unit of 1/den).

    A float is a dyadic rational, so with a = p/q and the weight
    coefficients W_i over a common denominator E, term j is
    C(n,j) (q+p)^(n-j) (q-p)^j sum_i W_i E (n-2j)^i n^(deg W - i) over
    den = (2q)^n E n^(deg W).  Vanishing terms at either end are dropped:
    at a = 1 (a = -1) every c_j but the first (last) is exactly zero."""
    _require_finite("a", a)
    for c in weight:
        _require_finite("weight coefficient", c)
    ratio = Fraction(a)
    p, q = ratio.numerator, ratio.denominator
    parts = [_dyadic_parts(c) for c in weight]
    scale = math.lcm(*(f.denominator for part in parts for f in part))
    deg = max(len(weight) - 1, 0)
    # W(m/n) n^deg scale = sum_i V_i m^i with V_i = W_i scale n^(deg - i)
    homogeneous = [
        (int(re * scale) * n ** (deg - i), int(im * scale) * n ** (deg - i))
        for i, (re, im) in enumerate(parts)
    ]
    plus, minus = [1], [1]
    for _ in range(n):
        plus.append(plus[-1] * (q + p))
        minus.append(minus[-1] * (q - p))
    terms = []
    for j in range(n + 1):
        wr = wi = 0
        for vr, vi in reversed(homogeneous):
            wr, wi = wr * (n - 2 * j) + vr, wi * (n - 2 * j) + vi
        c = math.comb(n, j) * plus[n - j] * minus[j]
        terms.append((c * wr, c * wi))
    den = (2 * q) ** n * scale * n**deg
    nonzero = [j for j, term in enumerate(terms) if term != (0, 0)]
    if not nonzero:
        return 0, (), den, 0
    kept = tuple(terms[nonzero[0] : nonzero[-1] + 1])
    magnitude = sum(_ceil_abs(re, im) for re, im in kept)
    return nonzero[0], kept, den, magnitude


def fourier_sum_precision(n: int, a: float, weight: tuple = (1,), extra_log2: float = 0.0) -> int:
    """Working precision (bits) of the Fourier-form sum of c_j(n,a) W(k_j):
    80 + max(0, ceil(log2 sum_j |T_j|)) + extra_log2, read from the exact
    terms.  The sum adds terms of total magnitude sum_j |T_j| (up to
    max(1,|a|)^n times the size of W) to produce a value of order |W(a)|,
    so that cancellation is what the precision must absorb."""
    _, _, den, magnitude = fourier_terms(n, a, tuple(weight))
    log2_sum = _ceil_log2(magnitude, den) if magnitude else 0
    return 80 + max(0, log2_sum) + int(extra_log2)


@lru_cache(maxsize=64)
def _fixed_terms(n: int, a: float, weight: tuple, prec: int, fold: bool = False) -> tuple:
    """(j0, terms): fourier_terms rounded once, each part to the nearest
    integer in units of 2^-prec.  With fold, term j is the mirror sum
    T_j + T_{n-j} for j < n/2, and T_{n/2} alone for even n, summed
    exactly and then rounded: floor(n/2) + 1 terms, vanishing end terms
    dropped."""
    j0, terms, den, _ = fourier_terms(n, a, weight)
    if fold and terms:
        full = [(0, 0)] * (n + 1)
        full[j0 : j0 + len(terms)] = terms
        folded = [(re + mr, im + mi) for (re, im), (mr, mi) in zip(full[: (n + 1) // 2], full[::-1])]
        if n % 2 == 0:
            folded.append(full[n // 2])
        nonzero = [j for j, term in enumerate(folded) if term != (0, 0)]
        if not nonzero:
            return 0, ()
        j0, terms = nonzero[0], folded[nonzero[0] : nonzero[-1] + 1]
    twos = (den & -den).bit_length() - 1
    odd = den >> twos
    shift = prec + 1 - twos

    def nearest(num):
        # floor(2 num 2^prec / den), split into the odd divisor and a shift
        twice = (num << shift) // odd if shift >= 0 else (num // odd) >> -shift
        return (twice + 1) >> 1

    return j0, tuple((nearest(re), nearest(im)) for re, im in terms)


def poly_at(coeffs, k):
    """Horner evaluation of ascending coefficients at k."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * k + c
    return acc


#: guard bits below 2^-prec kept when each phase difference is rounded
PHASE_GUARD_BITS = 16


@lru_cache(maxsize=64)
def _phase_differences(n: int, phase: tuple, j0: int, order: int) -> tuple:
    """(numerators, den): the forward differences Delta^i Phi(k_j) at
    j = j0, i = 0..order, k_j = 1 - 2j/n, exactly, as numerators[i] / den.
    Float coefficients of Phi are dyadic rationals."""
    coeffs = [Fraction(c) for c in phase]
    diffs = [poly_at(coeffs, Fraction(n - 2 * j, n)) for j in range(j0, j0 + order + 1)]
    for level in range(1, order + 1):
        for i in range(order, level - 1, -1):
            diffs[i] -= diffs[i - 1]
    den = math.lcm(*(d.denominator for d in diffs))
    return tuple(d.numerator * (den // d.denominator) for d in diffs), den


def _units(value, prec: int) -> int:
    """A raw mpf (sign, man, exp, bc) as an integer in units of 2^-prec,
    truncated toward zero."""
    sign, man, exp, _ = value
    shift = exp + prec
    man = int(man) << shift if shift >= 0 else int(man) >> -shift
    return -man if sign else man


def fourier_sum(n: int, a: float, x: float, weight: tuple, phase: tuple) -> complex:
    """sum_j c_j(n,a) W(k_j) e^{i Phi(k_j) x} with k_j = 1 - 2j/n, where W
    (real or complex) and Phi (real) are polynomials given as ascending
    coefficient tuples.

    The terms T_j = c_j W(k_j) do not depend on x: they are built exactly
    once per (n, a, W) (fourier_terms) and rounded once to units of
    2^-prec, prec = fourier_sum_precision(n, a, W, d log2(n+1)).  The loop
    runs on Gaussian integers in those units: products with the terms are
    exact and each step rounds once, by its rescaling shift.

    Mirror fold: k_{n-j} = -k_j, so when Phi has no nonzero odd-power
    coefficient, terms j and n - j share one phase factor.  The loop then
    runs over the floor(n/2) + 1 exact sums T_j + T_{n-j} (T_{n/2} alone
    for even n), each rounded once to within half a unit of 2^-prec.
    Since sum_j |T_j + T_{n-j}| <= sum_j |T_j|, the error bound below
    holds with the same precision.

    P(j) = Phi(k_j) x is a polynomial of degree d in j.  Its forward
    differences D_i(j0), i = 0..d, are Delta^i Phi(k_j) at j0 times x: the
    first factor is built exactly as a rational once per (n, Phi, j0, d)
    (_phase_differences), and a float x is dyadic, so each D_i(j0) is
    exact.  It is rounded to the nearest unit of 2^-(prec + guard), an
    absolute error that does not grow with |x|, and one mpf_cos_sin call
    at prec bits gives e^{i D_i(j0)}, read straight into units of 2^-prec
    (truncated toward zero).  For d <= 1 the sum is
    e^{i P(j0)} sum_j T_j z^(j-j0), z = e^{i D_1}, by Horner: one complex
    multiply (three integer products) per term.  For d >= 2 the phase
    factors obey e^{i D_i(j+1)} = e^{i D_i(j)} e^{i D_{i+1}(j)}: d + 1
    cos_sin calls per x, then d complex multiplies per term, and the
    rounding of that recurrence grows like j^d.

    Error: the absolute error is below a small multiple of
    (n+1)^max(d,1) (1 + sum_j |T_j|) 2^-prec, for any x.  The precision
    adds ceil(log2 sum_j |T_j|) and d log2(n+1) bits to 80, so that is a
    small multiple of (n+1) 2^-80 for any a, n, W and x.  A result that
    does not fit in a float raises ArithmeticError; a non-finite a, x or
    coefficient, or a complex phase coefficient, raises ValueError.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    _require_finite("x", x)
    for c in phase:
        _require_finite("phase coefficient", c)
        if isinstance(c, complex):
            raise ValueError(f"phase coefficient must be real, got {c!r}")
    weight = tuple(weight)
    degree = max(len(phase) - 1, 0)
    while degree > 0 and phase[degree] == 0:
        degree -= 1
    prec = fourier_sum_precision(n, a, weight, degree * math.log2(n + 1))
    j0, terms = _fixed_terms(n, a, weight, prec, not any(phase[1::2]))
    if not terms:
        return 0j
    order = min(degree, len(terms) - 1)
    nums, den = _phase_differences(n, tuple(phase), j0, order)
    # D_i(j0) = Delta^i Phi(k_j0) x exactly, rounded to the nearest unit of 2^-bits
    xn, xd = x.as_integer_ratio()
    bits = prec + PHASE_GUARD_BITS
    den *= xd
    rot = []
    for num in nums:
        theta = from_man_exp((((num * xn) << (bits + 1)) // den + 1) >> 1, -bits)
        cos, sin = mpf_cos_sin(theta, prec, "n")
        rot.append((_units(cos, prec), _units(sin, prec)))
    if order <= 1:
        zr, zi = rot[1] if order else (1 << prec, 0)
        z_minus, z_plus = zi - zr, zr + zi
        sr = si = 0
        for tr, ti in reversed(terms):
            # (sr + i si)(zr + i zi) in three products
            k = zr * (sr + si)
            sr, si = ((k - si * z_plus) >> prec) + tr, ((k + sr * z_minus) >> prec) + ti
        cr, ci = rot[0]
        re, im = sr * cr - si * ci, sr * ci + si * cr
    else:
        re = im = 0
        for tr, ti in terms:
            cr, ci = rot[0]
            re += tr * cr - ti * ci
            im += tr * ci + ti * cr
            for i in range(order):
                (ar, ai), (br, bi) = rot[i], rot[i + 1]
                rot[i] = ((ar * br - ai * bi) >> prec, (ar * bi + ai * br) >> prec)
    scale = 1 << 2 * prec
    try:
        return complex(re / scale, im / scale)
    except OverflowError:
        raise ArithmeticError(f"Fourier sum at n={n}, a={a!r}, x={x!r} does not fit in a float") from None


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
    _require_finite("x_lo", x_lo)
    _require_finite("x_hi", x_hi)
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
        lambda x: limit_phase(a, x, f"a={a!r}"),
    ))
