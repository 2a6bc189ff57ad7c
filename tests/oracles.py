"""Independent brute-force oracles shared by the unit and acceptance
suites.  These deliberately avoid the library's own recurrences."""

import math

import mpmath as mp

from superosc.combinat import binomial, stirling2
from superosc.exact import ExpSeries, Poly, Rat, series_shift_tk


def pascal_table(n_max):
    """Binomial triangle built row by row from additions only."""
    rows = [[1]]
    for n in range(1, n_max + 1):
        prev = rows[-1]
        rows.append([1] + [prev[k - 1] + prev[k] for k in range(1, n)] + [1])
    return rows


def count_partitions_into_blocks(c, d):
    """Enumerate set partitions of {0..c-1} as restricted-growth strings
    and count those with exactly d blocks."""
    if c == 0:
        return 1 if d == 0 else 0
    count = 0
    stack = [(1, 1)]  # (elements placed, blocks used) after placing element 0
    while stack:
        placed, blocks = stack.pop()
        if placed == c:
            if blocks == d:
                count += 1
            continue
        if blocks > d:
            continue
        for b in range(blocks + 1):
            stack.append((placed + 1, blocks if b < blocks else blocks + 1))
    return count


def fourier_sum_per_term(n, a, x, weight, phase):
    """sum_j c_j(n,a) W(k_j) e^{i Phi(k_j) x}, k_j = 1 - 2j/n, term by term:
    every weight rebuilt from math.comb and one cos/sin pair per term, at
    128 bits above the n log2(1+|a|) cancellation.  W and Phi are ascending
    coefficient sequences."""

    def poly(coeffs, k):
        return sum((mp.mpmathify(c) * k**i for i, c in enumerate(coeffs)), mp.mpf(0))

    with mp.workprec(128 + math.ceil(n * math.log2(1 + abs(a)))):
        u = (1 + mp.mpf(a)) / 2
        w = (1 - mp.mpf(a)) / 2
        total = mp.mpc(0)
        for j in range(n + 1):
            k = mp.mpf(n - 2 * j) / n
            theta = poly(phase, k) * x
            total += math.comb(n, j) * u ** (n - j) * w**j * poly(weight, k) * mp.mpc(mp.cos(theta), mp.sin(theta))
        return complex(total)


def miller_paris_rhs_by_series_algebra(a, c, variant, order, zscale):
    """The Stirling closed form of hyper.miller_paris_rhs assembled in
    series arithmetic: e^z from repeated Poly products, each term
    s z^d e^z as a t^d shift of e^z scaled by s zscale^d, and the terms
    summed as series.  A term with d > order vanishes at this truncation
    and is skipped."""
    expz = ExpSeries([zscale**v for v in range(order + 1)])
    if variant == "general":
        terms = [
            (d, Rat(binomial(a, v) * c ** (a - v), c**a) * stirling2(v, d))
            for v in range(a + 1)
            for d in range(v + 1)
        ]
    else:
        terms = [(v, Rat(stirling2(a + 1, v + 1))) for v in range(a + 1)]
    total = ExpSeries.zero(order)
    for d, scalar in terms:
        if scalar and d <= order:
            total = total + series_shift_tk(expz, d).scale(Poly.const(scalar) * zscale**d)
    return total
