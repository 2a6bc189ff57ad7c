"""Command-line surface: coefficient tables, sequence evaluation curves,
generating-series dumps, the identity-verification runner, and supershift
sweeps.

Output is CSV (default) or JSON, deterministic and byte-stable for fixed
flags; floats are printed with 17 significant digits.  Exit codes:
0 = success (printed-form mismatches are expected and do not fail),
1 = verification mismatch, 2 = usage or domain error (any ValueError,
such as a bad flag value or a non-finite input), 3 = a computation that
failed (ArithmeticError, such as a value that does not fit in a float,
RuntimeError, or any other exception).  Exit codes 2 and 3 print a
one-line message to stderr.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from .classical import bernstein, hermite
from .coeffs import c_coeff, f_eval, limit_phase, sample_grid
from .combinat import stirling2
from .exact import DEFAULT_ORDER, Rat, as_rat
from .genfun import (
    GenFunParams,
    GridOrderError,
    IDENTITY_IDS,
    b_extract,
    run_suite,
    s1_series,
    s2_series,
)
from .shift import EntireFnSpec, IDENTITY_FN, ONE_FN, limit_profile


def _fmt(value: float) -> str:
    return format(value, ".17g")


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def _parse_rational(text: str) -> Rat:
    if not _RATIONAL_RE.match(text.strip()):
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}")
    return as_rat(Fraction(text.strip()))


def _parse_int_list(text: str) -> list:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated int list: {text!r}")


def _parse_poly_coeffs(text: str) -> EntireFnSpec:
    try:
        return EntireFnSpec.from_string(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")


def _emit_table(header, rows, args) -> str:
    if args.format == "json":
        payload = [dict(zip(header, row)) for row in rows]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(cell) for cell in row))
    return "\n".join(lines) + "\n"


def _write(text: str, args):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_coeffs(args) -> int:
    n = args.n
    ks = [args.k] if args.k is not None else list(range(n + 1))
    ks = [k for k in ks if 0 <= k <= n]
    rows = []
    for k in ks:
        poly = c_coeff(k, n)
        value = str(poly(args.a)) if args.a is not None else str(poly)
        rows.append((k, value))
    _write(_emit_table(("k", "value"), rows, args), args)
    return 0


def cmd_eval(args) -> int:
    if args.x_min >= args.x_max:
        raise UsageError("--x-min must be below --x-max")
    rows = []
    for x in sample_grid(args.x_min, args.x_max, args.samples):
        value = f_eval(args.n, args.a, x)
        limit = limit_phase(args.a, x, f"a={args.a!r}")
        rows.append(
            (
                _fmt(x),
                _fmt(value.real),
                _fmt(value.imag),
                _fmt(limit.real),
                _fmt(limit.imag),
                _fmt(abs(value - limit)),
            )
        )
    header = ("x", "re_f", "im_f", "re_limit", "im_limit", "abs_error")
    _write(_emit_table(header, rows, args), args)
    return 0


def cmd_genfun(args) -> int:
    params = GenFunParams(m=args.m, k=args.k, n=args.n, alphas=args.alphas)
    series = {"s1": s1_series, "s2": s2_series}[args.which](params, args.order)
    rows = [(v, str(b_extract(series, v))) for v in range(args.order + 1)]
    _write(_emit_table(("v", "coefficient"), rows, args), args)
    return 0


def cmd_verify(args) -> int:
    try:
        reports = run_suite(args.suite, order=args.order, max_n=args.max_n, max_k=args.max_k)
    except GridOrderError as exc:
        raise UsageError(exc.describe("--order", "--max-k")) from None
    payload = [r.to_json_dict() for r in reports]
    if args.format == "json":
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        rows = [
            (
                r["identity"],
                json.dumps(r["params"], sort_keys=True).replace(",", ";"),
                r["order"],
                r["status"],
                "" if r["first_divergence"] is None else r["first_divergence"]["v"],
            )
            for r in payload
        ]
        text = _emit_table(
            ("identity", "params", "order", "status", "first_divergence_v"),
            rows,
            args,
        )
    _write(text, args)
    failed = sum(1 for r in reports if r.failed)
    total = len(reports)
    print(f"{total} checks, {failed} mismatches", file=sys.stderr)
    return 1 if failed else 0


def cmd_stirling(args) -> int:
    rows = []
    for c in range(args.max_c + 1):
        for d in range(c + 1):
            rows.append((c, d, stirling2(c, d)))
    _write(_emit_table(("c", "d", "value"), rows, args), args)
    return 0


def cmd_hermite(args) -> int:
    rows = [(n, hermite(n).to_string("z")) for n in range(args.n_max + 1)]
    _write(_emit_table(("n", "polynomial"), rows, args), args)
    return 0


def cmd_bernstein(args) -> int:
    rows = [(k, bernstein(k, args.v).to_string("y")) for k in range(args.v + 1)]
    _write(_emit_table(("k", "polynomial"), rows, args), args)
    return 0


def cmd_supershift(args) -> int:
    if args.x_min >= args.x_max:
        raise UsageError("--x-min must be below --x-max")
    result = limit_profile(
        args.kind,
        args.a,
        args.n_list,
        args.x_min,
        args.x_max,
        args.samples,
        p=args.p,
        m=args.m,
        g=args.g,
        h=args.h,
    )
    if args.values:
        rows = []
        for n in args.n_list:
            for x, value in zip(result.xs, result.values[n]):
                rows.append((n, _fmt(x), _fmt(value.real), _fmt(value.imag)))
        _write(_emit_table(("n", "x", "re", "im"), rows, args), args)
    else:
        rows = [(n, _fmt(result.sup_error[n])) for n in args.n_list]
        _write(_emit_table(("n", "sup_error"), rows, args), args)
    return 0


class UsageError(ValueError):
    pass


def _add_common(sub):
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--out", default=None, help="write to this path instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superosc",
        description="Superoscillation coefficient tables, generating series, "
        "identity verification, and convergence sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient table for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, default=None, help="single index (default: 0..n)")
    p.add_argument("--a", type=_parse_rational, default=None, help="rational p/q; omit for symbolic x")
    _add_common(p)
    p.set_defaults(fn=cmd_coeffs)

    p = sub.add_parser("eval", help="sequence vs limit curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--x-min", type=float, default=-1.0)
    p.add_argument("--x-max", type=float, default=1.0)
    p.add_argument("--samples", type=int, default=101)
    _add_common(p)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("genfun", help="dump a generating-series coefficient family")
    p.add_argument("--which", choices=("s1", "s2"), required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--alphas",
        type=lambda s: [_parse_rational(x) for x in s.split(",")],
        required=True,
        help="comma-separated rationals, m+1 of them",
    )
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    _add_common(p)
    p.set_defaults(fn=cmd_genfun)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", required=True, help=f"one of: all, {', '.join(IDENTITY_IDS)}")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--max-n", type=int, default=10)
    p.add_argument("--max-k", type=int, default=6)
    _add_common(p)
    p.set_defaults(fn=cmd_verify, format="json")

    p = sub.add_parser("stirling", help="Stirling partition-number triangle")
    p.add_argument("--max-c", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=cmd_stirling)

    p = sub.add_parser("hermite", help="Hermite polynomial table")
    p.add_argument("--n-max", type=int, default=10)
    _add_common(p)
    p.set_defaults(fn=cmd_hermite)

    p = sub.add_parser("bernstein", help="Bernstein basis row of degree v")
    p.add_argument("--v", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=cmd_bernstein)

    p = sub.add_parser("supershift", help="sup-error sweep of a generalized sum")
    p.add_argument("--kind", choices=("dpf", "z", "y"), required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--p", type=int, default=0)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--g", type=_parse_poly_coeffs, default=IDENTITY_FN)
    p.add_argument("--h", type=_parse_poly_coeffs, default=ONE_FN)
    p.add_argument("--n-list", type=_parse_int_list, default=[50, 100, 200])
    p.add_argument("--x-min", type=float, default=-0.5)
    p.add_argument("--x-max", type=float, default=0.5)
    p.add_argument("--samples", type=int, default=51)
    p.add_argument("--values", action="store_true", help="emit per-sample values")
    _add_common(p)
    p.set_defaults(fn=cmd_supershift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 3 keeps failures apart from mismatches (1)
        message = " ".join(str(exc).split())
        print(f"error: {type(exc).__name__}: {message}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
