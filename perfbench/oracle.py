"""Independent reference values for the supershift-sweep workload.

Evaluates sum_j c_j(n,a) W(k_j) exp(i Phi(k_j) x), k_j = 1 - 2j/n, without
calling superosc.  The weights are computed once per (n, a); the phase
factors come from a forward-difference recurrence (Phi(k_j) x is a
polynomial in j), run with 128 guard bits above the cancellation
n log2(1+|a|), so the rounding it accumulates over n terms stays far below
the 1e-12 comparison tolerance.
"""

from __future__ import annotations

import math

import mpmath as mp


def _poly(coeffs, k):
    acc = mp.mpc(0)
    for c in reversed(coeffs):
        acc = acc * k + mp.mpc(c)
    return acc


def _sample_grid(x_lo: float, x_hi: float, samples: int) -> list:
    step = (x_hi - x_lo) / (samples - 1)
    return [x_lo + i * step for i in range(samples)]


def sweep_rows(call, offset: float, samples: int) -> list:
    """Rows [n, x, re, im] in the order the CLI prints them."""
    _kind, a, n_list, _flags, weight, phase = call
    xs = _sample_grid(-0.5 + offset, 0.5 + offset, samples)
    rows = []
    for n in n_list:
        with mp.workprec(128 + math.ceil(n * math.log2(1 + abs(a)))):
            u = (1 + mp.mpf(a)) / 2
            w = (1 - mp.mpf(a)) / 2
            ks = [mp.mpf(n - 2 * j) / n for j in range(n + 1)]
            terms = [math.comb(n, j) * u ** (n - j) * w**j * _poly(weight, ks[j]) for j in range(n + 1)]
            degree = len(phase) - 1
            for x in xs:
                # forward differences of P(j) = Phi(k_j) x at j = 0
                diffs = [mp.re(_poly(phase, ks[j])) * x for j in range(degree + 1)]
                for level in range(1, degree + 1):
                    for i in range(degree, level - 1, -1):
                        diffs[i] -= diffs[i - 1]
                rot = [mp.expj(d) for d in diffs]
                total = mp.mpc(0)
                for term in terms:
                    total += term * rot[0]
                    for i in range(degree):
                        rot[i] *= rot[i + 1]
                value = complex(total)
                rows.append([n, x, value.real, value.imag])
    return rows
