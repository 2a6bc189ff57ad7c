"""Regenerate perfbench/refs from the current sources.

Run from the repository root, only on a commit whose outputs are trusted
(the references freeze them):

    python3 perfbench/make_refs.py

The supershift values are written only after they agree with oracle.py.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))
sys.path.insert(1, HERE)

import superosc.cli as cli  # noqa: E402
import workloads as wl  # noqa: E402
from oracle import sweep_rows  # noqa: E402


def _summary(workload, inputs):
    return wl.summarize(workload, wl.execute(workload, cli, inputs))


def _write(workload, payload):
    with open(os.path.join(wl.REFS_DIR, f"{workload}.json"), "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main():
    os.makedirs(wl.REFS_DIR, exist_ok=True)
    dense = _summary("verify-dense", {})
    if dense.pop("error"):
        raise SystemExit("verify-dense raised; not writing a reference")
    _write("verify-dense", dict(dense, argv=wl.DENSE_ARGV))

    triples = None
    deep_by_seed, sweep_by_seed = {}, {}
    for seed in wl.SHIPPED_SEEDS:
        inputs = wl.draw(seed)
        deep = _summary("verify-deep", inputs)
        errors = [k for k, v in deep.items() if k != "sha256" and v["error"]]
        if errors:
            raise SystemExit(f"verify-deep raised in {errors}; not writing a reference")
        seed_triples = {k: v["triples"] for k, v in deep.items() if k != "sha256"}
        if triples is not None and seed_triples != triples:
            raise SystemExit("verify-deep statuses depend on alpha; the triple reference would be wrong")
        triples = seed_triples
        deep_by_seed[str(seed)] = {
            "alpha": inputs["alpha"],
            "sha256": deep["sha256"],
            "digests": {k: v["digests"] for k, v in deep.items() if k != "sha256"},
        }

        sweep = _summary("supershift-sweep", inputs)
        expected = [sweep_rows(call, inputs["offset"], wl.SWEEP_SAMPLES) for call in wl.SWEEP_CALLS]
        attempted, failed, problems = wl.check("supershift-sweep", seed, inputs, sweep, expected)
        if failed or problems:
            raise SystemExit(f"supershift seed {seed}: {failed} of {attempted} values disagree with the oracle {problems}")
        sweep_by_seed[str(seed)] = {"offset": inputs["offset"], "calls": [c["rows"] for c in sweep["calls"]]}

    _write("verify-deep", {
        "order": wl.DEEP_ORDER, "max_n": wl.DEEP_MAX_N, "max_k": wl.DEEP_MAX_K,
        "triples": triples, "by_seed": deep_by_seed,
    })
    _write("supershift-sweep", {"tolerance": wl.SWEEP_TOLERANCE, "samples": wl.SWEEP_SAMPLES, "by_seed": sweep_by_seed})


if __name__ == "__main__":
    main()
