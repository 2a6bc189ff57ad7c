"""Bernstein basis polynomials, Gould-Hopper / Hermite polynomials, and
their exact relations to the superoscillation coefficients c_k(n, x)."""

from __future__ import annotations

from functools import lru_cache

from .coeffs import HALF_1_MINUS_X, c_coeff
from .combinat import binomial, factorial, pochhammer
from .exact import (
    ExpSeries,
    Poly,
    Rat,
    as_rat,
    series_exp_linear,
    series_mul,
)
from .report import Divergence, IdentityReport, MISMATCH, VERIFIED

#: substitution targets used by the Bernstein correspondence
ONE_MINUS_2Y = Poly((Rat(1), Rat(-2)))
HALF_1_MINUS_Y = Poly((Rat(1, 2), Rat(-1, 2)))


def bernstein(k: int, v: int) -> Poly:
    """Bernstein basis polynomial C(v,k) y^k (1-y)^(v-k); zero outside
    0 <= k <= v.  Substituting x = 1-2y into c_k(v, x) reproduces it."""
    if k < 0 or k > v:
        return Poly()
    one_minus_y = Poly((Rat(1), Rat(-1)))
    yk = Poly([Rat(0)] * k + [Rat(1)])
    return yk * one_minus_y ** (v - k) * binomial(v, k)


class BiPoly:
    """Sparse polynomial in two variables: {(i, s): coef} for coef x^i y^s.

    Supports exactly what the Gould-Hopper checks need: termwise partial
    derivatives and exact specialization to one variable.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for (i, s), coef in (terms or {}).items():
            coef = as_rat(coef)
            if coef != 0:
                clean[(int(i), int(s))] = coef
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("BiPoly is immutable")

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def dx(self) -> "BiPoly":
        return BiPoly({(i - 1, s): coef * i for (i, s), coef in self.terms.items() if i})

    def dy(self) -> "BiPoly":
        return BiPoly({(i, s - 1): coef * s for (i, s), coef in self.terms.items() if s})

    def __sub__(self, other: "BiPoly") -> "BiPoly":
        out = dict(self.terms)
        for key, coef in other.terms.items():
            out[key] = out.get(key, Rat(0)) - coef
        return BiPoly(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, BiPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def specialize(self, x_image: Poly, y_value) -> Poly:
        """Exact univariate image with x replaced by a polynomial and y by
        a rational constant."""
        y_value = as_rat(y_value)
        acc = Poly()
        for (i, s), coef in sorted(self.terms.items()):
            acc = acc + x_image**i * (coef * y_value**s)
        return acc

    def to_string(self, xvar: str = "x", yvar: str = "y") -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, s) in sorted(self.terms, key=lambda t: (t[0] + t[1], t)):
            coef = self.terms[(i, s)]
            body = str(coef)
            if i:
                body += f"*{xvar}^{i}" if i > 1 else f"*{xvar}"
            if s:
                body += f"*{yvar}^{s}" if s > 1 else f"*{yvar}"
            parts.append(body)
        return " + ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"BiPoly({self.to_string()})"


@lru_cache(maxsize=None)
def gould_hopper(n: int, j: int) -> BiPoly:
    """Coefficient polynomial of t^n/n! in exp(x t + y t^j):

        n! sum_{s <= n/j} x^(n-js) y^s / ((n-js)! s!)
    """
    if j < 1:
        raise ValueError("exponent j must be >= 1")
    if n < 0:
        raise ValueError("degree n must be >= 0")
    terms = {}
    for s in range(n // j + 1):
        terms[(n - j * s, s)] = Rat(factorial(n), factorial(n - j * s) * factorial(s))
    return BiPoly(terms)


def heat_residual(n: int) -> BiPoly:
    """d/dy H - d2/dx2 H for the j = 2 Gould-Hopper polynomial; zero when
    the heat equation holds."""
    h = gould_hopper(n, 2)
    return h.dy() - h.dx().dx()


@lru_cache(maxsize=None)
def hermite(n: int) -> Poly:
    """Hermite polynomial from the explicit sum
    n! sum_s (-1)^s (2z)^(n-2s) / ((n-2s)! s!)."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    coeffs = [Rat(0)] * (n + 1)
    for s in range(n // 2 + 1):
        power = n - 2 * s
        coeffs[power] = Rat(
            (-1) ** s * 2**power * factorial(n), factorial(power) * factorial(s)
        )
    return Poly(coeffs)


def hermite_via_gould_hopper(n: int) -> Poly:
    """Specialization H_n^{(2)}(2z, -1)."""
    return gould_hopper(n, 2).specialize(Poly((Rat(0), Rat(2))), -1)


def hermite_generating_series(order: int) -> ExpSeries:
    """Series of exp(2 z t - t^2); the t^n/n! entry is the Hermite
    polynomial in z."""
    two_z = Poly((Rat(0), Rat(2)))
    gauss = []
    for v in range(order + 1):
        if v % 2:
            gauss.append(Poly())
        else:
            s = v // 2
            gauss.append(Poly.const(Rat((-1) ** s * factorial(v), factorial(s))))
    return series_mul(series_exp_linear(two_z, order), ExpSeries(gauss))


def hermite_from_kummer(n: int) -> Poly:
    """Hermite polynomial via the terminating confluent series:

        H_{2m}(z)   = (-1)^m (2m)!/m!      * 1F1(-m; 1/2; z^2)
        H_{2m+1}(z) = (-1)^m 2(2m+1)!/m! z * 1F1(-m; 3/2; z^2)
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    m, odd = divmod(n, 2)
    gamma = Rat(3, 2) if odd else Rat(1, 2)
    poly_in_z2 = [Rat(0)] * (2 * m + 1)
    for s in range(m + 1):
        poly_in_z2[2 * s] = pochhammer(-m, s) / (pochhammer(gamma, s) * factorial(s))
    base = Poly(poly_in_z2)
    sign = Rat((-1) ** m)
    if odd:
        z = Poly((Rat(0), Rat(1)))
        return base * z * (sign * 2 * factorial(n) / Rat(factorial(m)))
    return base * (sign * factorial(n) / Rat(factorial(m)))


def _poly_report(identity_id: str, params: dict, lhs: Poly, rhs: Poly, order: int) -> IdentityReport:
    if lhs == rhs:
        return IdentityReport(identity_id, params, order, VERIFIED)
    top = max(len(lhs.coeffs), len(rhs.coeffs))
    v = next(i for i in range(top) if lhs.coefficient(i) != rhs.coefficient(i))
    return IdentityReport(
        identity_id,
        params,
        order,
        MISMATCH,
        Divergence(v=v, lhs=str(lhs), rhs=str(rhs)),
    )


def hermite_conv_theorem(k: int, n: int, order: int = None) -> IdentityReport:
    """Exact check of the alternating convolution

        ((1-x)/2)^k H_{n-k}((1+x)/4)
            = (n!/C(n,k)) sum_{j <= n/2} (-1)^j c_k(n-2j, x) / (j!(n-2j)!).
    """
    if not 0 <= k <= n:
        raise ValueError("need 0 <= k <= n")
    quarter = Poly((Rat(1, 4), Rat(1, 4)))
    lhs = HALF_1_MINUS_X**k * hermite(n - k).compose(quarter)
    acc = Poly()
    for j in range(n // 2 + 1):
        acc = acc + c_coeff(k, n - 2 * j) * Rat((-1) ** j, factorial(j) * factorial(n - 2 * j))
    rhs = acc * Rat(factorial(n), binomial(n, k))
    return _poly_report(
        "hermite-conv", {"k": k, "n": n}, lhs, rhs, order if order is not None else n
    )
