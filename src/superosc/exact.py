"""Exact arithmetic kernel: rational scalars, dense polynomials in x, and
truncated power series in t stored in the exponential convention.

Every identity in this package is checked coefficientwise over the
rationals, so all three layers are exact and immutable:

* ``Rat``       -- arbitrary-precision rational (gmpy2.mpq when available,
                   stdlib Fraction otherwise; identical semantics).
* ``Poly``      -- dense univariate polynomial with Rat coefficients.
* ``ExpSeries`` -- truncated series sum_{v<=order} b_v t^v / v! whose
                   coefficients b_v are Poly values.  The exponential
                   weight makes products binomial convolutions.
"""

from __future__ import annotations

import math
from fractions import Fraction

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - gmpy2 is an optional speedup
    Rat = Fraction

#: truncation order used by the identity suites unless overridden
DEFAULT_ORDER = 12

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)


def as_rat(value) -> Rat:
    """Coerce an int, string like "p/q", Fraction, or Rat to Rat; a Rat is
    returned as it is."""
    if type(value) is Rat:
        return value
    if isinstance(value, float):
        raise TypeError("refusing to coerce float to exact rational")
    if isinstance(value, str):
        return Rat(Fraction(value))
    return Rat(value)


class Poly:
    """Dense polynomial in one formal variable over Rat.

    Coefficients are stored ascending; the zero polynomial is the empty
    tuple and has no degree.  Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if type(c) is Rat else as_rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def const(cls, value) -> "Poly":
        return cls((value,))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    def coefficient(self, i: int) -> Rat:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RAT_ZERO

    def __add__(self, other) -> "Poly":
        other = _as_poly(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other) -> "Poly":
        return self + (-_as_poly(other))

    def __rsub__(self, other) -> "Poly":
        return _as_poly(other) + (-self)

    def __mul__(self, other) -> "Poly":
        if isinstance(other, Poly):
            if not self.coeffs or not other.coeffs:
                return ZERO_POLY
            out = [RAT_ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a == 0:
                    continue
                for j, b in enumerate(other.coeffs):
                    out[i + j] = out[i + j] + a * b
            return Poly(out)
        r = as_rat(other)
        if r == 0:
            return ZERO_POLY
        return Poly([c * r for c in self.coeffs])

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Poly":
        r = as_rat(scalar)
        return Poly([c / r for c in self.coeffs])

    def __pow__(self, exponent: int) -> "Poly":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = ONE_POLY
        for _ in range(exponent):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)) or type(other) is type(RAT_ONE):
            return self.coeffs == Poly.const(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __call__(self, value):
        """Evaluate by Horner's rule; exact for Rat/int arguments,
        float/complex arguments demote coefficients to float."""
        if isinstance(value, (float, complex)):
            acc = 0.0
            for c in reversed(self.coeffs):
                acc = acc * value + float(c)
            return acc
        acc = RAT_ZERO
        value = as_rat(value)
        for c in reversed(self.coeffs):
            acc = acc * value + c
        return acc

    def compose(self, inner: "Poly") -> "Poly":
        """Exact substitution self(inner), evaluated by Horner's rule."""
        acc = ZERO_POLY
        for c in reversed(self.coeffs):
            acc = acc * inner + Poly.const(c)
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def to_string(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            s = str(c)
            neg = s.startswith("-")
            mag = s[1:] if neg else s
            if i == 0:
                body = mag
            elif mag == "1":
                body = var if i == 1 else f"{var}^{i}"
            else:
                body = f"{mag}*{var}" if i == 1 else f"{mag}*{var}^{i}"
            if not parts:
                parts.append(f"-{body}" if neg else body)
            else:
                parts.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(parts)

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"Poly({self.to_string()!r})"


ZERO_POLY = Poly()
ONE_POLY = Poly((RAT_ONE,))


def _as_poly(value) -> Poly:
    if isinstance(value, Poly):
        return value
    return Poly.const(value)


class ExpSeries:
    """Truncated series sum_{v=0}^{order} b_v t^v / v! with Poly entries.

    All arithmetic truncates at the common order; the product is the
    binomial convolution (A*B)_v = sum_i C(v,i) a_i b_{v-i}, forced by the
    t^v/v! weights.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, coeffs):
        cs = tuple(_as_poly(c) for c in coeffs)
        if not cs:
            raise ValueError("an ExpSeries needs at least the order-0 entry")
        object.__setattr__(self, "order", len(cs) - 1)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("ExpSeries is immutable")

    @classmethod
    def zero(cls, order: int) -> "ExpSeries":
        return cls([ZERO_POLY] * (order + 1))

    @classmethod
    def one(cls, order: int) -> "ExpSeries":
        return cls([ONE_POLY] + [ZERO_POLY] * order)

    def coefficient(self, v: int) -> Poly:
        if not 0 <= v <= self.order:
            raise ValueError(f"coefficient index {v} outside order {self.order}")
        return self.coeffs[v]

    def _check_order(self, other: "ExpSeries"):
        if self.order != other.order:
            raise ValueError(
                f"series order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "ExpSeries") -> "ExpSeries":
        self._check_order(other)
        return ExpSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "ExpSeries") -> "ExpSeries":
        self._check_order(other)
        return ExpSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, factor) -> "ExpSeries":
        """Multiply every coefficient by a Rat or Poly factor (i.e. by a
        t-free quantity)."""
        return ExpSeries([c * factor for c in self.coeffs])

    def __mul__(self, other: "ExpSeries") -> "ExpSeries":
        return series_mul(self, other)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpSeries):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def first_difference(self, other: "ExpSeries"):
        """Smallest v where the coefficients differ, or None if equal up
        to the common order."""
        self._check_order(other)
        for v, (a, b) in enumerate(zip(self.coeffs, other.coeffs)):
            if a != b:
                return v
        return None

    def evaluate(self, x_value, t_value):
        """Numeric value sum b_v(x) t^v / v!; exact when both arguments
        are rational."""
        exact = not isinstance(x_value, (float, complex)) and not isinstance(
            t_value, (float, complex)
        )
        if exact:
            t_value = as_rat(t_value)
        acc = 0 if exact else 0.0
        tpow = 1 if exact else 1.0
        for v, c in enumerate(self.coeffs):
            if v:
                tpow = tpow * t_value
            acc = acc + c(x_value) * tpow / math.factorial(v)
        return acc

    def __repr__(self):
        inner = ", ".join(str(c) for c in self.coeffs[: min(4, len(self.coeffs))])
        tail = ", ..." if self.order >= 4 else ""
        return f"ExpSeries(order={self.order}, [{inner}{tail}])"


def series_mul(a: ExpSeries, b: ExpSeries) -> ExpSeries:
    """Binomial-convolution product truncated at the common order."""
    a._check_order(b)
    out = []
    for v in range(a.order + 1):
        acc = ZERO_POLY
        for i in range(v + 1):
            ai = a.coeffs[i]
            bj = b.coeffs[v - i]
            if ai.is_zero or bj.is_zero:
                continue
            acc = acc + (ai * bj) * math.comb(v, i)
        out.append(acc)
    return ExpSeries(out)


def series_powers(c, scalars) -> ExpSeries:
    """Series whose t^v/v! coefficient is scalars[v] * c^v, for a Poly (or
    Rat) c and rational scalars; its order is len(scalars) - 1."""
    c = _as_poly(c)
    out = []
    power = ONE_POLY
    for v, scalar in enumerate(scalars):
        if v:
            power = power * c
        out.append(power * scalar)
    return ExpSeries(out)


def series_exp_linear(c, order: int) -> ExpSeries:
    """Series of exp(c*t) for a Poly (or Rat) c: coefficient b_v = c^v."""
    return series_powers(c, [RAT_ONE] * (order + 1))


def series_shift_tk(a: ExpSeries, k: int) -> ExpSeries:
    """Multiply by t^k: b_v = v!/(v-k)! * a_{v-k} for v >= k, else 0."""
    if k < 0:
        raise ValueError("shift exponent must be nonnegative")
    if k > a.order:
        raise ValueError(f"shift exponent {k} exceeds series order {a.order}")
    out = [ZERO_POLY] * k
    for v in range(k, a.order + 1):
        out.append(a.coeffs[v - k] * (math.factorial(v) // math.factorial(v - k)))
    return ExpSeries(out)
