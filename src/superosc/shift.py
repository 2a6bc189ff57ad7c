"""Generalized superoscillating sums: derivative sequences, power-law
frequency maps, and polynomial (g, h) supershift sequences, with sup-error
profiling against their limits.

All of these are Fourier-type sums sum_j c_j(n,a) W(k_j) e^{i Phi(k_j) x}
with k_j = 1 - 2j/n, so they inherit the max(1,|a|)^n cancellation of the
plain sequence; each is one call of the scaled-precision kernel
coeffs.fourier_sum."""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from functools import partial

from .coeffs import (
    GridResult,
    _require_finite,
    fourier_sum,
    fourier_terms,
    limit_phase,
    poly_at,
    sup_error_sweep,
)


@dataclass(frozen=True)
class EntireFnSpec:
    """Real-coefficient polynomial standing in for an entire function;
    evaluation is Horner at real or complex arguments."""

    coeffs: tuple

    def __init__(self, coeffs):
        cs = tuple(float(c) for c in coeffs)
        if not cs:
            cs = (0.0,)
        object.__setattr__(self, "coeffs", cs)

    @classmethod
    def from_string(cls, text: str) -> "EntireFnSpec":
        """Parse "c0,c1,..." ascending-power float coefficients."""
        return cls(float(part) for part in text.split(","))

    def __call__(self, z):
        return poly_at(self.coeffs, z)


IDENTITY_FN = EntireFnSpec((0.0, 1.0))
ONE_FN = EntireFnSpec((1.0,))


def _ik_power(e: int) -> tuple:
    """(i k)^e as ascending coefficients in k."""
    return (0,) * e + (1j**e,)


def dpf_eval(n: int, a: float, x: float, p: int) -> complex:
    """p-th x-derivative of the superoscillating sum:
    sum_j c_j(n,a) (i k_j)^p e^{i k_j x}; p = 0 recovers the sequence."""
    if p < 0:
        raise ValueError("derivative order must be >= 0")
    return fourier_sum(n, a, x, _ik_power(p), (0, 1))


def z_eval(n: int, a: float, x: float, m: int, p: int) -> complex:
    """Power-law variant sum_j c_j(n,a) (i k_j)^(m p) e^{i k_j^m x}."""
    if m < 1:
        raise ValueError("frequency power m must be >= 1")
    if p < 0:
        raise ValueError("derivative order must be >= 0")
    return fourier_sum(n, a, x, _ik_power(m * p), (0,) * m + (1,))


def y_eval(n: int, a: float, x: float, g: EntireFnSpec, h: EntireFnSpec) -> complex:
    """Supershift sum sum_j c_j(n,a) h(k_j) e^{i g(k_j) x}; tends to
    h(a) e^{i g(a) x} on compact sets.

    The weight is h evaluated at the band-limited frequency k_j itself:
    that is the form the infinite-order operator argument produces, and
    the only one whose limit is h(a) e^{i g(a) x} (a weight h(i k_j)
    would converge to h(ia) e^{i g(a) x} instead)."""
    return fourier_sum(n, a, x, h.coeffs, g.coeffs)


def y_weights(n: int, a: float, h: EntireFnSpec) -> list:
    """The generalized Fourier weights E_j(n,a) = c_j(n,a) h(k_j),
    exposed for inspection (their frequencies k_j stay in [-1, 1]).  Each
    is the exact term N_j / D of fourier_sum, divided in int true
    division, so it is the correctly rounded float (per part) of the
    exact weight."""
    if n < 1:
        raise ValueError("n must be >= 1")
    j0, terms, den, _ = fourier_terms(n, a, h.coeffs)
    weights = [0j] * (n + 1)
    weights[j0 : j0 + len(terms)] = [complex(re / den, im / den) for re, im in terms]
    return weights


def _sum_and_limit(kind: str, a: float, p: int, m: int, g: EntireFnSpec, h: EntireFnSpec):
    """(evaluate(n, x), limit(x)) of the chosen sum: the sum itself and
    amp e^{i freq x}, its limit on compact sets.  A non-finite input
    raises ValueError, and an amp or freq that does not fit in a float
    raises ArithmeticError, both before any sum is evaluated."""
    _require_finite("a", a)
    if kind == "dpf":
        evaluate = lambda n, x: dpf_eval(n, a, x, p)
        amp, freq, where = lambda: (1j * a) ** p, lambda: a, f"a={a!r}, p={p}"
    elif kind == "z":
        evaluate = lambda n, x: z_eval(n, a, x, m, p)
        amp, freq, where = lambda: (1j * a) ** (m * p), lambda: a**m, f"a={a!r}, m={m}, p={p}"
    elif kind == "y":
        for c in h.coeffs:
            _require_finite("weight coefficient", c)
        for c in g.coeffs:
            _require_finite("phase coefficient", c)
        evaluate = lambda n, x: y_eval(n, a, x, g, h)
        amp, freq, where = lambda: complex(h(a)), lambda: g(a), f"a={a!r}"
    else:
        raise ValueError(f"unknown kind {kind!r}")
    amp, freq = _limit_part("amplitude", amp, where), _limit_part("frequency", freq, where)
    return evaluate, lambda x: amp * limit_phase(freq, x, where)


def _limit_part(name: str, compute, where: str):
    """compute(), or ArithmeticError when its value does not fit in a float."""
    try:
        value = compute()
        if cmath.isfinite(value):
            return value
    except OverflowError:
        pass
    raise ArithmeticError(f"limit {name} does not fit in a float at {where}")


def limit_profile(
    kind: str,
    a: float,
    n_list,
    x_lo: float,
    x_hi: float,
    samples: int,
    p: int = 0,
    m: int = 1,
    g: EntireFnSpec = IDENTITY_FN,
    h: EntireFnSpec = ONE_FN,
) -> GridResult:
    """Sup error of the chosen sum against its stated limit, per n."""
    return sup_error_sweep(n_list, x_lo, x_hi, samples, partial(_sum_and_limit, kind, a, p, m, g, h))
