"""Compare two run records that run.py wrote to .perfbench_out/.

    python3 perfbench/compare.py BASE.json NEW.json

Prints every metric the two records share, with the ratio NEW/BASE.
Records of different workloads or trace modes, or taken with different
rational backends (stdlib Fraction against gmpy2 mpq), are not comparable:
that is an error, exit status 2.
"""

import json
import sys


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (_load(path) for path in argv)
    for key, a, b in (
        ("backend", base["env"]["backend"], new["env"]["backend"]),
        ("workload", base["workload"], new["workload"]),
        ("trace", base["trace"], new["trace"]),
    ):
        if a != b:
            print(f"error: records differ in {key}: {a} vs {b}", file=sys.stderr)
            return 2
    print(f"{'metric':48} {'base':>12} {'new':>12} {'new/base':>9}")
    for name in sorted(base["metrics"].keys() & new["metrics"].keys()):
        b, n = base["metrics"][name]["value"], new["metrics"][name]["value"]
        ratio = f"{n / b:9.3f}" if b else f"{'-':>9}"
        print(f"{name:48} {b:12.6g} {n:12.6g} {ratio} {new['metrics'][name]['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
