"""Independent brute-force oracles shared by the unit and acceptance
suites.  These deliberately avoid the library's own recurrences, except
the whole-series identity checks, which reuse the library's blocks and
test only how they are combined, and the block constructions at the end,
which reuse the library's tails at z = ((1+x)/2)t and test only how they
are turned into blocks."""

import math

import mpmath as mp

from superosc import coeffs, genfun, hyper
from superosc.combinat import binomial, stirling2
from superosc.exact import ExpSeries, Poly, Rat, series_exp_linear, series_shift_tk
from superosc.genfun import GenFunParams
from superosc.report import MISMATCH, PRINTED_MISMATCH, VERIFIED, Divergence, IdentityReport


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


def fourier_sum_per_term(n, a, x, weight, phase, bits=None):
    """sum_j c_j(n,a) W(k_j) e^{i Phi(k_j) x}, k_j = 1 - 2j/n, term by term:
    every weight rebuilt from math.comb and one cos/sin pair per term, at
    128 bits above the n log2(1+|a|) cancellation, or at the given bits.
    W and Phi are ascending coefficient sequences."""

    def poly(coeffs, k):
        return sum((mp.mpmathify(c) * k**i for i, c in enumerate(coeffs)), mp.mpf(0))

    with mp.workprec(bits or 128 + math.ceil(n * math.log2(1 + abs(a)))):
        u = (1 + mp.mpf(a)) / 2
        w = (1 - mp.mpf(a)) / 2
        total = mp.mpc(0)
        for j in range(n + 1):
            k = mp.mpf(n - 2 * j) / n
            theta = poly(phase, k) * x
            total += math.comb(n, j) * u ** (n - j) * w**j * poly(weight, k) * mp.mpc(mp.cos(theta), mp.sin(theta))
        return complex(total)


def fourier_sum_unfolded(n, a, x, weight, phase):
    """coeffs.fourier_sum as it was before the mirror fold and the exact
    phase differences, the slow path both replace: all n + 1 rounded terms
    for every phase, the phase values Phi(k_j) x and their differences
    computed in mpmath at the working precision (each operation rounded
    relative to it), one mp.cos and one mp.sin per difference, Horner for
    degree <= 1 and the forward difference recurrence otherwise."""
    weight = tuple(weight)
    degree = max(len(phase) - 1, 0)
    while degree > 0 and phase[degree] == 0:
        degree -= 1
    prec = coeffs.fourier_sum_precision(n, a, weight, degree * math.log2(n + 1))
    j0, terms = coeffs._fixed_terms(n, a, weight, prec)
    if not terms:
        return 0j
    order = min(degree, len(terms) - 1)

    def fixed(z):
        return int(mp.ldexp(mp.re(z), prec)), int(mp.ldexp(mp.im(z), prec))

    with mp.workprec(prec):
        diffs = [coeffs.poly_at(phase, mp.mpf(n - 2 * j) / n) * x for j in range(j0, j0 + order + 1)]
        for level in range(1, order + 1):
            for i in range(order, level - 1, -1):
                diffs[i] -= diffs[i - 1]
        rot = [fixed(mp.mpc(mp.cos(d), mp.sin(d))) for d in diffs]
    if order <= 1:
        zr, zi = rot[1] if order else (1 << prec, 0)
        z_minus, z_plus = zi - zr, zr + zi
        sr = si = 0
        for tr, ti in reversed(terms):
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
    return complex(re / scale, im / scale)


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


# ---------------------------------------------------------------------------
# the weight-linear identities checked point by point on whole series


def weights_by_sum(p):
    """w_l = sum_{j>=l} alpha_j C(j,l) (-2k/n)^(j-l), term by term."""
    base = Rat(-2 * p.k, p.n)
    return [
        sum((p.alphas[j] * binomial(j, l) * base ** (j - l) for j in range(l, p.m + 1)), Rat(0))
        for l in range(p.m + 1)
    ]


def _weighted_sum(p, tail, order):
    """sum_l w_l P_k(T_l) as one series, skipping zero weights."""
    if p.k > order:
        raise ValueError(f"k={p.k} exceeds truncation order {order}")
    if tail != "family-1" and p.k == 0 and p.m >= 1:
        raise ValueError("family-2 blocks have lower parameter k; k=0 is excluded")
    total = ExpSeries.zero(order)
    for l, w in enumerate(p.weights()):
        if w == 0:
            continue
        total = total + genfun._prefixed_block(tail, l, p.k, order, p.k).scale(w)
    return total


def _dual_closed(p, family, m, order):
    """(printed, corrected) closed forms summed with the scalars w_l c_l,
    c_l = k^l on the bare moment tail in family 1."""
    genfun._require(p, m)
    defects = genfun._PRINTED_DEFECTS[family, m]
    k, w = p.k, p.weights()
    g = genfun.g_series(k, order)
    printed_lead = w[0]
    if defects.lead_a2_over_n:
        printed_lead += p.alphas[2] * (Rat(4 * k * k, p.n) - Rat(4 * k * k, p.n * p.n))
    printed, corrected = g.scale(printed_lead), g.scale(w[0])
    tail = "moment" if family == 1 else "family-2"
    printed_power = 1 if defects.tail_power_one else k
    for l in range(1, m + 1):
        c = k**l if family == 1 else 1
        corrected = corrected + genfun._prefixed_block(tail, l, k, order, k).scale(w[l] * c)
        if defects.drops_k_power:
            c = 1
        printed = printed + genfun._prefixed_block(tail, l, k, order, printed_power).scale(w[l] * c)
    return printed, corrected


def _b2_explicit(v, p):
    if p.k < 1:
        raise ValueError("explicit coefficient formula needs k >= 1")
    acc = Poly()
    for l, w in enumerate(p.weights()):
        if w:
            acc = acc + genfun._b2_block(p.k, v, l) * w
    return acc


def _b2_k1_explicit(v, p):
    if p.k != 1:
        raise ValueError("this formula is the k = 1 specialization")
    if v == 0:
        return Poly()
    scalar = Rat(0)
    for l, w in enumerate(p.weights()):
        inner = 0
        for c in range(l + 1):
            inner += binomial(v, c + 1) * math.factorial(c + 1) * stirling2(l + 1, c + 1)
        scalar += w * inner
    return Poly((Rat(1), Rat(-1))) * Poly((Rat(1), Rat(1))) ** (v - 1) * (scalar / Rat(2**v))


def _series_report(identity_id, params, order, lhs, rhs, status=MISMATCH):
    for v, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs, strict=True)):
        if a != b:
            return IdentityReport(identity_id, params, order, status, Divergence(v, str(a), str(b)))
    return IdentityReport(identity_id, params, order, VERIFIED)


_DUALS = {"s1-m1": (1, 1), "s1-m2": (1, 2), "s2-m1": (2, 1), "s2-m2": (2, 2)}


def weight_linear_report_by_series(identity_id, params, order):
    """The report of one weight-linear identity (s1-m1, s1-m2, s2-m1,
    s2-m2, s2-stirling, ay-2, b2-k1) with both sides built as whole series
    and compared coefficient by coefficient.  Blocks, the printed-defect
    table and g_series are read from genfun when called, so a patched
    block reaches this path too."""
    if order < 0:
        raise ValueError(f"truncation order must be >= 0, got {order}")
    variant = None
    if identity_id in _DUALS:
        variant = params.get("variant", "printed")
        if variant not in ("printed", "corrected"):
            raise ValueError(f"unknown variant {variant!r}")
    p = GenFunParams(params["m"], params["k"], params["n"], params["alphas"])
    out = p.json_dict()
    if identity_id == "s2-stirling":
        lhs = _weighted_sum(p, "stirling", order)
        return _series_report(identity_id, out, order, lhs, _weighted_sum(p, "family-2", order))
    if identity_id in ("ay-2", "b2-k1"):
        explicit = _b2_explicit if identity_id == "ay-2" else _b2_k1_explicit
        lhs = ExpSeries([explicit(v, p) for v in range(order + 1)])
        return _series_report(identity_id, out, order, lhs, _weighted_sum(p, "family-2", order))
    family, m = _DUALS[identity_id]
    printed, corrected = _dual_closed(p, family, m, order)
    reference = _weighted_sum(p, f"family-{family}", order)
    out["variant"] = variant
    report = _series_report(identity_id, out, order, corrected, reference)
    if variant == "printed" and report.status == VERIFIED:
        report = _series_report(identity_id, out, order, printed, reference, PRINTED_MISMATCH)
    return report


# ---------------------------------------------------------------------------
# the genfun blocks built from powers of (1+x)/2 and (1-x)/2


_HALF_1_PLUS_X = Poly((Rat(1, 2), Rat(1, 2)))
_HALF_1_MINUS_X = Poly((Rat(1, 2), Rat(-1, 2)))


def prefixed_block_by_shift(tail, l, k, order, power):
    """(1/k!)((1-x)t/2)^power T_l with the tail T_l built at z = ((1+x)/2)t,
    shifted by t^power and scaled by the Poly ((1-x)/2)^power / k!."""
    u = _HALF_1_PLUS_X
    if tail in ("moment", "k-moment"):
        series = hyper.exp_moment_series(k, order, u, l)
    elif tail == "stirling":
        series = hyper.miller_paris_rhs(l, k, "general", order, u) if l else series_exp_linear(u, order)
    else:
        upper, lower = (k, k + 1) if tail == "family-1" else (k + 1, k)
        series = hyper.pfq_series(hyper.HyperSpec((upper,) * l, (lower,) * l), u, order)
    factor = _HALF_1_MINUS_X**power / Rat(math.factorial(k))
    if tail == "k-moment":
        factor = factor * k**l
    return series_shift_tk(series, power).scale(factor)


def b2_block_by_half_powers(k, v, l):
    """sum_{c<=l} C(l,c) sum_{d<=c} C(v,d) d! S2(c,d) k^{-c} ((1+x)/2)^d
    c_k(v-d, x), each c_k(v-d, x) built from half powers as well."""
    acc = Poly()
    for c in range(l + 1):
        for d in range(c + 1):
            if d > v or v - d < k:
                continue
            c_k = _HALF_1_PLUS_X ** (v - d - k) * _HALF_1_MINUS_X**k * binomial(v - d, k)
            scalar = Rat(binomial(l, c) * binomial(v, d) * math.factorial(d) * stirling2(c, d), k**c)
            acc = acc + _HALF_1_PLUS_X**d * c_k * scalar
    return acc


def b2_k1_block_by_half_powers(v, l):
    """((1-x)/2)((1+x)/2)^(v-1) sum_c C(v,c+1)(c+1)! S2(l+1,c+1); zero at
    v = 0."""
    if v == 0:
        return Poly()
    inner = sum(binomial(v, c + 1) * math.factorial(c + 1) * stirling2(l + 1, c + 1) for c in range(l + 1))
    return _HALF_1_MINUS_X * _HALF_1_PLUS_X ** (v - 1) * inner
