"""One repetition of a workload in a fresh, single-threaded interpreter.

Usage (run by run.py): python3 perfbench/child.py '<json spec>'

The spec names the repository's ``src`` directory, the mode (``setup``
or ``rep``), the workload, its inputs and whether to trace.  The last
stdout line is a JSON object.  ``t_ready`` is the CLOCK_MONOTONIC reading
taken once ``superosc.cli`` is imported; the parent subtracts it from its
own reading taken before the process was started.  Untraced children
sample the machine's speed from start to end (speed.py).
"""

import json
import os
import sys
import time

from speed import Sampler


def run(spec, cli, t_ready, sampler):
    import resource

    import superosc.exact

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(spec["src"]) + os.sep):
        raise SystemExit(f"superosc imported from {cli.__file__}, not from {spec['src']}")
    result = {"t_ready": t_ready, "backend": type(superosc.exact.Rat(0)).__name__}
    if spec["mode"] == "rep":
        import workloads

        tracer = None
        if spec["trace"]:
            from tracer import Tracer

            tracer = Tracer(spec["run_id"])
            tracer.install()
        result["work_start"] = time.monotonic()
        raw = workloads.execute(spec["workload"], cli, spec["inputs"])
        result["work_end"] = time.monotonic()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is not None:
            tracer.uninstall()
            result["layers"] = tracer.layer_metrics()
            tracer.write_spans(spec["spans_path"])
            result["spans"] = len(tracer.spans)
    if sampler is not None:
        sampler.stop()
        result["speed_samples"] = sampler.samples
    if spec["mode"] == "rep":
        result["summary"] = workloads.summarize(spec["workload"], raw)
    return result


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    # the tracer counts Fraction constructions, so traced runs take no samples
    sampler = None if spec["trace"] else Sampler()
    if sampler is not None:
        sampler.start()
    sys.path.insert(0, spec["src"])
    import superosc.cli as cli  # what setup_s measures

    t_ready = time.monotonic()
    print(json.dumps(run(spec, cli, t_ready, sampler)))
