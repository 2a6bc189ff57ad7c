"""Per-layer tracing of superosc from outside the package.

The tracer replaces every module and class binding of the listed public
functions with a wrapper, so a call made through any import path (for
example ``genfun`` calling ``pfq_series`` by its imported name) is seen.
Nothing inside ``src/`` is edited and results are unchanged: a wrapper
only counts, times and forwards.

Three kinds of wrapper:

* ``COUNT`` -- increments a call counter;
* ``TIME``  -- also keeps the call on a stack, so that each function's self
  time (duration minus the time of wrapped calls made inside it) and its
  inclusive total are accumulated;
* ``SPAN``  -- also appends a span (name, start, end, parent, run id) to an
  in-memory list that is written out when the run ends.  Hot functions
  (``exact``, ``combinat``, cache lookups) are TIME only, which keeps the
  span list to a few tens of thousands of entries.
"""

from __future__ import annotations

import json
import math
import sys
import time
from fractions import Fraction

COUNT, TIME, SPAN = "count", "time", "span"

#: (metric stem, module, attribute path, kind).  The stem is the metric
#: name prefix; the module part of the stem names the layer.
TARGETS = (
    ("exact.Poly.init", "exact", "Poly.__init__", COUNT),
    ("exact.as_rat", "exact", "as_rat", COUNT),
    ("exact.Poly.add", "exact", "Poly.__add__", TIME),
    ("exact.Poly.mul", "exact", "Poly.__mul__", TIME),
    ("exact.Poly.neg", "exact", "Poly.__neg__", TIME),
    ("exact.Poly.truediv", "exact", "Poly.__truediv__", TIME),
    ("exact.Poly.pow", "exact", "Poly.__pow__", TIME),
    ("exact.Poly.compose", "exact", "Poly.compose", TIME),
    ("exact.Poly.derivative", "exact", "Poly.derivative", TIME),
    ("exact.Poly.call", "exact", "Poly.__call__", TIME),
    ("exact.ExpSeries.add", "exact", "ExpSeries.__add__", TIME),
    ("exact.ExpSeries.sub", "exact", "ExpSeries.__sub__", TIME),
    ("exact.ExpSeries.scale", "exact", "ExpSeries.scale", TIME),
    ("exact.ExpSeries.first_difference", "exact", "ExpSeries.first_difference", TIME),
    ("exact.series_mul", "exact", "series_mul", TIME),
    ("exact.series_shift_tk", "exact", "series_shift_tk", TIME),
    ("exact.series_exp_linear", "exact", "series_exp_linear", TIME),
    ("combinat.binomial", "combinat", "binomial", TIME),
    ("combinat.stirling2", "combinat", "stirling2", TIME),
    ("combinat.stirling2_alt_sum", "combinat", "stirling2_alt_sum", TIME),
    ("combinat.pochhammer", "combinat", "pochhammer", TIME),
    ("hyper.HyperSpec.init", "hyper", "HyperSpec.__init__", TIME),
    ("hyper.pfq_series", "hyper", "pfq_series", SPAN),
    ("hyper.exp_moment_series", "hyper", "exp_moment_series", SPAN),
    ("hyper.miller_paris_rhs", "hyper", "miller_paris_rhs", SPAN),
    ("hyper.miller_paris_lhs", "hyper", "miller_paris_lhs", SPAN),
    ("hyper.pfq_eval_float", "hyper", "pfq_eval_float", SPAN),
    ("hyper.kummer_integral", "hyper", "kummer_integral", SPAN),
    ("coeffs.c_coeff", "coeffs", "c_coeff", TIME),
    ("coeffs.half_power", "coeffs", "half_power", TIME),
    ("coeffs.g_series", "coeffs", "g_series", SPAN),
    ("coeffs.c_derivative", "coeffs", "c_derivative", TIME),
    ("coeffs.c_recurrence_rhs", "coeffs", "c_recurrence_rhs", TIME),
    ("coeffs.fourier_sum_precision", "coeffs", "fourier_sum_precision", COUNT),
    ("coeffs.sample_grid", "coeffs", "sample_grid", TIME),
    ("coeffs.f_eval", "coeffs", "f_eval", TIME),
    ("coeffs.f_eval_fourier", "coeffs", "f_eval_fourier", SPAN),
    ("coeffs.convergence_profile", "coeffs", "convergence_profile", SPAN),
    ("genfun.run_suite", "genfun", "run_suite", SPAN),
    ("genfun.verify_identity", "genfun", "verify_identity", SPAN),
    ("genfun.GenFunParams.weights", "genfun", "GenFunParams.weights", TIME),
    ("genfun.s1_series", "genfun", "s1_series", SPAN),
    ("genfun.s2_series", "genfun", "s2_series", SPAN),
    ("genfun.s1_m1_closed", "genfun", "s1_m1_closed", SPAN),
    ("genfun.s1_m2_closed", "genfun", "s1_m2_closed", SPAN),
    ("genfun.s2_m1_closed", "genfun", "s2_m1_closed", SPAN),
    ("genfun.s2_m2_closed", "genfun", "s2_m2_closed", SPAN),
    ("genfun.s2_stirling_closed", "genfun", "s2_stirling_closed", SPAN),
    ("genfun.b2_explicit", "genfun", "b2_explicit", SPAN),
    ("genfun.b2_k1_explicit", "genfun", "b2_k1_explicit", SPAN),
    ("genfun.b_extract", "genfun", "b_extract", TIME),
    ("classical.bernstein", "classical", "bernstein", SPAN),
    ("classical.gould_hopper", "classical", "gould_hopper", SPAN),
    ("classical.heat_residual", "classical", "heat_residual", SPAN),
    ("classical.hermite", "classical", "hermite", SPAN),
    ("classical.hermite_via_gould_hopper", "classical", "hermite_via_gould_hopper", SPAN),
    ("classical.hermite_generating_series", "classical", "hermite_generating_series", SPAN),
    ("classical.hermite_from_kummer", "classical", "hermite_from_kummer", SPAN),
    ("classical.hermite_conv_theorem", "classical", "hermite_conv_theorem", SPAN),
    ("shift.dpf_eval", "shift", "dpf_eval", SPAN),
    ("shift.z_eval", "shift", "z_eval", SPAN),
    ("shift.y_eval", "shift", "y_eval", SPAN),
    ("shift.y_weights", "shift", "y_weights", SPAN),
    ("shift.limit_profile", "shift", "limit_profile", SPAN),
    ("report.IdentityReport.to_json_dict", "report", "IdentityReport.to_json_dict", SPAN),
    ("cli.main", "cli", "main", SPAN),
    ("cli.build_parser", "cli", "build_parser", SPAN),
    ("cli.cmd_verify", "cli", "cmd_verify", SPAN),
    ("cli.cmd_supershift", "cli", "cmd_supershift", SPAN),
    ("cli._emit_table", "cli", "_emit_table", SPAN),
    ("cli._write", "cli", "_write", SPAN),
)

#: lru_cache'd functions whose cache_info() is read at the end of a run
CACHED = (
    "hyper.pfq_series", "hyper.exp_moment_series", "hyper.miller_paris_rhs",
    "coeffs.c_coeff", "coeffs.half_power", "coeffs.g_series",
)

#: mpmath entry points counted (not timed) for the numeric layer
MPMATH_COUNTED = ("cos", "sin", "binomial")

IDENTITY_IDS = (
    "recurrence", "derivative", "g-closed-form", "s1-m1", "s1-m2", "s2-m1",
    "s2-m2", "s2-stirling", "ay-2", "b2-k1", "bernstein-map", "miller-paris",
    "16a", "hermite-conv", "heat-equation", "hermite-kummer",
)

#: series and closed-form builders counted by genfun.series_builds_per_check
BUILDERS = (
    "s1_series", "s2_series", "s1_m1_closed", "s1_m2_closed", "s2_m1_closed",
    "s2_m2_closed", "s2_stirling_closed", "b2_explicit", "b2_k1_explicit",
)

LAYERS = ("exact", "combinat", "hyper", "coeffs", "genfun", "classical", "shift", "report", "cli")


def _resolve(owner, path):
    for part in path.split("."):
        owner = owner.__dict__[part] if isinstance(owner, type) else getattr(owner, part)
    return owner


class Tracer:
    """Counters, self times and spans for one traced repetition."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # each frame: [time spent in wrapped callees, index of enclosing span]
        self.stack = [[0.0, -1]]
        self.spans = []
        self.stats = {}  # stem -> [calls, total_s, self_s]
        self.verify_calls = []  # (identity id, seconds) per verify_identity call
        self.working_bits = []
        self.originals = {}
        self._saved = []

    # -- wrappers -------------------------------------------------------

    def _counted(self, stem, fn, record=None):
        cell = self.stats.setdefault(stem, [0, 0.0, 0.0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            result = fn(*args, **kwargs)
            if record is not None:
                record.append(result)
            return result

        return wrapper

    def _timed(self, stem, fn, span):
        cell = self.stats.setdefault(stem, [0, 0.0, 0.0])
        stack, spans, run_id = self.stack, self.spans, self.run_id
        clock = time.perf_counter
        per_call = self.verify_calls if stem == "genfun.verify_identity" else None

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            if span:
                index = len(spans)
                spans.append(None)
                frame = [0.0, index]
            else:
                frame = [0.0, parent[1]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                cell[0] += 1
                cell[1] += duration
                cell[2] += duration - frame[0]
                parent[0] += duration
                if span:
                    spans[index] = (stem, start, end, parent[1], run_id)
                if per_call is not None:
                    per_call.append((args[0] if args else kwargs.get("identity_id"), duration))

        return wrapper

    def _rebind(self, original, wrapper):
        """Point every superosc module and class binding of original at
        wrapper."""
        for name, module in list(sys.modules.items()):
            if not (name == "superosc" or name.startswith("superosc.")):
                continue
            owners = [module]
            owners += [v for v in vars(module).values() if isinstance(v, type) and v.__module__.startswith("superosc")]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        self._saved.append((owner, attr, value))
                        setattr(owner, attr, wrapper)

    def install(self):
        import importlib

        import mpmath

        for stem, module_name, path, kind in TARGETS:
            module = importlib.import_module(f"superosc.{module_name}")
            original = _resolve(module, path)
            self.originals[stem] = original
            if kind == COUNT:
                record = self.working_bits if stem == "coeffs.fourier_sum_precision" else None
                wrapper = self._counted(stem, original, record)
            else:
                wrapper = self._timed(stem, original, kind == SPAN)
            self._rebind(original, wrapper)

        for name in MPMATH_COUNTED:
            original = getattr(mpmath, name)
            self._saved.append((mpmath, name, original))
            setattr(mpmath, name, self._counted(f"mpmath.{name}", original))

        # Rat construction, counted on the Fraction class itself; on the
        # gmpy2 backend this counts only the Fractions built on the way to
        # an mpq (string parsing in as_rat).
        original_new = Fraction.__new__
        self._saved.append((Fraction, "__new__", staticmethod(original_new)))
        cell = self.stats.setdefault("exact.rat_new", [0, 0.0, 0.0])

        def rat_new(cls, *args, **kwargs):
            cell[0] += 1
            return original_new(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(rat_new)

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    # -- results --------------------------------------------------------

    def cache_infos(self) -> dict:
        out = {}
        for stem in CACHED:
            info = self.originals[stem].cache_info()
            out[stem] = (info.hits, info.misses)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "run": run_id}))
                fh.write("\n")

    def layer_metrics(self) -> dict:
        """Every per-layer metric of one traced repetition, keyed by the
        names listed in BENCHMARK.json."""
        stats = self.stats
        caches = self.cache_infos()
        m = {}

        def calls(stem):
            return stats.get(stem, [0])[0]

        def put(name, value, unit):
            m[name] = {"value": value, "unit": unit}

        for layer in LAYERS:
            put(f"{layer}.self_s", sum(v[2] for k, v in stats.items() if k.split(".")[0] == layer), "s")

        for stem in ("exact.Poly.mul", "exact.Poly.add", "exact.series_mul", "exact.ExpSeries.scale",
                     "exact.ExpSeries.add", "exact.ExpSeries.first_difference"):
            put(f"{stem}.calls", calls(stem), "count")
            put(f"{stem}.self_s", stats[stem][2], "s")
        for stem in ("exact.Poly.init", "exact.as_rat", "exact.series_shift_tk", "exact.series_exp_linear",
                     "exact.rat_new", "combinat.binomial", "combinat.stirling2"):
            put(f"{stem}.calls", calls(stem), "count")

        for stem in ("hyper.pfq_series", "hyper.exp_moment_series", "hyper.miller_paris_rhs"):
            hits, misses = caches[stem]
            put(f"{stem}.hits", hits, "count")
            put(f"{stem}.misses", misses, "count")
            put(f"{stem}.hit_ratio", hits / (hits + misses) if hits + misses else 0.0, "ratio")
            put(f"{stem}.self_s", stats[stem][2], "s")

        for stem in ("coeffs.c_coeff", "coeffs.half_power", "coeffs.g_series"):
            hits, misses = caches[stem]
            put(f"{stem}.hits", hits, "count")
            put(f"{stem}.misses", misses, "count")
        put("coeffs.g_series.self_s", stats["coeffs.g_series"][2], "s")
        bits = self.working_bits
        put("coeffs.working_bits.mean", sum(bits) / len(bits) if bits else 0.0, "bits")
        put("coeffs.working_bits.max", max(bits) if bits else 0, "bits")

        per_id = {i: [0, 0.0] for i in IDENTITY_IDS}
        for identity_id, seconds in self.verify_calls:
            per_id[identity_id][0] += 1
            per_id[identity_id][1] += seconds
        for identity_id in IDENTITY_IDS:
            put(f"genfun.verify_identity.{identity_id}.calls", per_id[identity_id][0], "count")
            put(f"genfun.verify_identity.{identity_id}.total_s", per_id[identity_id][1], "s")
        ms = sorted(seconds * 1e3 for _, seconds in self.verify_calls)
        put("genfun.verify_identity.samples", len(ms), "count")
        put("genfun.verify_identity.ms_p50", _nearest_rank(ms, 0.50), "ms")
        put("genfun.verify_identity.ms_p99", _nearest_rank(ms, 0.99), "ms")
        for name in ("s1_series", "s2_series", "s2_stirling_closed", "b2_explicit"):
            put(f"genfun.{name}.calls", calls(f"genfun.{name}"), "count")
            put(f"genfun.{name}.total_s", stats[f"genfun.{name}"][1], "s")
        put("genfun.GenFunParams.weights.calls", calls("genfun.GenFunParams.weights"), "count")
        checks = len(self.verify_calls)
        builds = sum(calls(f"genfun.{name}") for name in BUILDERS)
        put("genfun.series_builds_per_check", builds / checks if checks else 0.0, "count/check")

        samples = sum(calls(f"shift.{name}") for name in ("dpf_eval", "z_eval", "y_eval"))
        for name in ("dpf_eval", "z_eval", "y_eval"):
            put(f"shift.{name}.calls", calls(f"shift.{name}"), "count")
            put(f"shift.{name}.self_s", stats[f"shift.{name}"][2], "s")
        put("shift.limit_profile.total_s", stats["shift.limit_profile"][1], "s")
        trig = calls("mpmath.cos") + calls("mpmath.sin")
        put("shift.trig_calls_per_sample", trig / samples if samples else 0.0, "count/sample")
        put("shift.weight_calls_per_sample", calls("mpmath.binomial") / samples if samples else 0.0, "count/sample")

        put("report.IdentityReport.to_json_dict.calls", calls("report.IdentityReport.to_json_dict"), "count")
        put("report.IdentityReport.to_json_dict.self_s", stats["report.IdentityReport.to_json_dict"][2], "s")
        put("cli.main.total_s", stats["cli.main"][1], "s")
        return m


def _nearest_rank(sorted_values, q):
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]
