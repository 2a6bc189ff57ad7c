"""Benchmark of the superosc toolkit.

Run from the repository root:

    python3 perfbench/run.py --workload verify-dense --seed 0 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and perfbench/DESIGN.md): verify-dense,
verify-deep, supershift-sweep.  Every repetition runs in a fresh,
single-threaded interpreter (child.py), so each lru_cache starts cold and
every import is paid, as in one ``superosc`` invocation.  Repetitions run
one at a time.

--trace 0 runs repetitions back to back until --seconds have passed and
prints the end-to-end metrics (medians over repetitions).  --trace 1 runs
one untraced and one traced repetition and prints the per-layer metrics of
the traced one, with the traced/untraced wall-time ratio.  Times of
untraced runs are normalised by the machine-speed samples of speed.py.

Every repetition's outputs are checked against perfbench/refs (the
supershift values of seeds without stored values against oracle.py).  The
last stdout line is one JSON object {correct, attempted, failed, metrics};
the full record, with the environment stamp, is written to
.perfbench_out/.  Exit status: 0 when every output matches, 1 when one
does not or a repetition failed, 2 when the current directory holds no
superosc sources.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from speed import normalise  # noqa: E402

#: setup-only interpreters started per untraced run, besides the one that
#: warms the bytecode and file caches and the repetitions themselves
SETUP_SPAWNS = 3
#: every run ends within the 180 s allowed
DEADLINE_S = 170.0
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
IMPORT_PACKAGES = ("superosc", "scipy", "mpmath")


class ChildFailed(Exception):
    pass


def _env(src: str) -> dict:
    return dict(os.environ, PYTHONPATH=src, **CHILD_ENV)


def spawn(spec: dict, deadline: float) -> dict:
    """Run child.py in a new interpreter and return its result, with
    setup_s measured from just before the process was started."""
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise ChildFailed("no time left before the run deadline")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)],
            capture_output=True, text=True, env=_env(spec["src"]), timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed("repetition killed at the run deadline") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise ChildFailed(f"child exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["wall_setup_s"] = result["t_ready"] - start
    if "work_start" in result:
        result["wall_work_s"] = result["work_end"] - result["work_start"]
    samples = result.pop("speed_samples", None)
    if samples is not None:
        # in seconds of the nominal machine (speed.py)
        result["setup_s"] = normalise(result["wall_setup_s"], samples, start, result["t_ready"])
        if "work_start" in result:
            result["work_s"] = normalise(result["wall_work_s"], samples, result["work_start"], result["work_end"])
    return result


def import_times(src: str, deadline: float) -> dict:
    """Cumulative import time per package from ``-X importtime``: the sum
    over the package's outermost entries (those not nested in another
    entry of the same package)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import superosc.cli"],
        capture_output=True, text=True, env=_env(src), timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise ChildFailed(f"importtime run exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    entries = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _self_us, cumulative_us, field = line[len("import time:"):].split("|")
        depth = (len(field) - len(field.lstrip()) - 1) // 2
        entries.append((depth, field.strip(), int(cumulative_us)))
    totals = dict.fromkeys(IMPORT_PACKAGES, 0)
    ancestors = []
    # the listing is post-order; reversed, every entry follows its parent
    for depth, name, cumulative_us in reversed(entries):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        package = name.split(".")[0]
        if package in totals and all(a[1] != package for a in ancestors):
            totals[package] += cumulative_us
        ancestors.append((depth, package))
    return {f"setup.import.{p}_s": {"value": totals[p] / 1e6, "unit": "s"} for p in IMPORT_PACKAGES}


def git_sha(root: str) -> str:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "superosc", "cli.py")):
        print(f"error: no superosc sources under {src}; run from the repository root", file=sys.stderr)
        return 2
    out_dir = os.path.join(root, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)

    run_start = time.monotonic()
    deadline = run_start + DEADLINE_S
    workload, seed = args.workload, args.seed
    inputs = workloads.draw(seed)
    reference = workloads.reference(workload, seed, inputs)
    outputs_per_rep = workloads.expected_outputs(workload, reference)
    tag = f"{workload}-seed{seed}-trace{args.trace}"
    rep_spec = {
        "src": src, "mode": "rep", "workload": workload, "inputs": inputs, "trace": False,
        "run_id": tag, "spans_path": os.path.join(out_dir, f"spans-{workload}-seed{seed}.jsonl"),
    }
    setup_spec = {"src": src, "mode": "setup", "trace": False}

    attempted = failed = 0
    problems = []
    reps = []
    setups = []
    import_metrics = {}

    def record(rep):
        nonlocal attempted, failed
        a, f, p = workloads.check(workload, seed, inputs, rep.pop("summary"), reference)
        attempted += a
        failed += f
        problems.extend(p)
        reps.append(rep)

    try:
        # warms the bytecode and file caches; not measured
        backend = spawn(setup_spec, deadline)["backend"]
        if args.trace:
            import_metrics = import_times(src, deadline)
            record(spawn(rep_spec, deadline))
            record(spawn(dict(rep_spec, trace=True), deadline))
        else:
            setups = [spawn(setup_spec, deadline) for _ in range(SETUP_SPAWNS)]
            measure_start = time.monotonic()
            while not reps or time.monotonic() - measure_start < args.seconds:
                record(spawn(rep_spec, deadline))
    except ChildFailed as exc:
        backend = reps[0]["backend"] if reps else "unknown"
        problems.append(str(exc))
        attempted += outputs_per_rep
        failed += outputs_per_rep

    metrics = {}
    if args.trace and len(reps) == 2:
        plain, traced = reps
        metrics = dict(traced["layers"], **import_metrics)
        metrics["trace.overhead_ratio"] = {"value": traced["wall_work_s"] / plain["wall_work_s"], "unit": "ratio"}
    elif not args.trace and reps:
        rate = statistics.median(outputs_per_rep / r["work_s"] for r in reps)
        metrics = {
            "setup_s": {"value": statistics.median(r["setup_s"] for r in setups + reps), "unit": "s"},
            "checks_per_s": {"value": rate, "unit": "1/s"},
            "samples_per_s": {"value": rate, "unit": "1/s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in reps), "unit": "MB"},
        }

    correct = failed == 0 and not problems
    env = {
        "backend": backend,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_sha": git_sha(root),
        "seed": seed,
    }
    full = {
        "workload": workload, "trace": args.trace, "inputs": inputs, "env": env,
        "correct": correct, "attempted": attempted, "failed": failed, "problems": problems,
        "metrics": metrics, "run_s": time.monotonic() - run_start,
        "reps": [{k: v for k, v in r.items() if k != "layers"} for r in reps],
        "setups": setups,
    }
    if reps and not args.trace:
        full["wall"] = {
            "setup_s": statistics.median(r["wall_setup_s"] for r in setups + reps),
            "checks_per_s": statistics.median(outputs_per_rep / r["wall_work_s"] for r in reps),
        }
    with open(os.path.join(out_dir, f"{tag}.json"), "w") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)

    print("env " + " ".join(f"{k}={v}" for k, v in env.items()) + f" workload={workload}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    for name, value in full.get("wall", {}).items():
        print(f"wall-clock {name} {value:.6g} (not normalised)")
    print(f"failed_frac {failed / attempted if attempted else 1.0:.6g} ratio ({failed} of {attempted} outputs)")
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
