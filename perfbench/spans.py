"""Span tracing of trlink's layer boundaries, installed from outside the package.

Each traced function is wrapped once and the wrapper is bound under every
name that refers to the original anywhere in ``trlink``: the modules bind
their callees at import (``from .dsp import convolve``), so patching only the
defining module would miss the calls that matter. Spans are kept in memory
as ``(name, start, end, parent, item)`` tuples and written out by the caller
when the run ends. Work counters are computed from call arguments and
results, never from the clock, so they repeat exactly for a given job.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter


# Counter hooks get the call's arguments, in signature order, from a
# function, so that hooks which do not need them skip the binding cost.
def _count_samples_out(counts, name, item, arguments, result):
    counts[f"{name}.samples_out"] += len(getattr(result, "samples", result))


def _count_samples_read(counts, name, item, arguments, result):
    received, windows = arguments()[:2]
    counts["modem.samples_read"] += (
        (2 * windows.half_width + 1) * windows.num_symbols * len(received)
    )


def _count_distinct_ensembles(counts, name, item, arguments, result):
    counts["channel.synth.ensembles"].add((item, arguments()[0].rng_seed))


# (module, attribute, span name, counter hook). The experiment entry points
# are traced too, so the spans of each workload item have a root.
TARGETS = (
    ("trlink.harness", "run_ber_sweep", "harness.run_ber_sweep", None),
    ("trlink.harness", "run_focusing_experiment", "harness.run_focusing_experiment", None),
    ("trlink.harness", "run_sounding_study", "harness.run_sounding_study", None),
    ("trlink.harness", "run_ber_point", "harness.run_ber_point", None),
    ("trlink.precoding", "focusing_report", "precoding.focusing_report", None),
    ("trlink.precoding", "tr_precode", "precoding.tr_precode", None),
    ("trlink.precoding", "propagate", "precoding.propagate", _count_samples_out),
    ("trlink.modem", "power_detect", "modem.power_detect", _count_samples_read),
    ("trlink.modem", "calibrate_threshold", "modem.calibrate_threshold", _count_samples_read),
    ("trlink.channel", "synth_cavity_ensemble", "channel.synth", _count_distinct_ensembles),
    ("trlink.channel", "sound_cir", "channel.sound_cir", None),
    ("trlink.dsp", "convolve", "dsp.convolve", _count_samples_out),
    ("trlink.dsp", "xcorr", "dsp.xcorr", None),
)


# The span of a host-speed probe (hostspeed.py), which is not trlink work.
PROBE_SPAN = "perfbench.probe"


class Tracer:
    """Collects spans and counters for calls made through installed wrappers.

    ``item`` is set by the workload to the id of the item being run, so
    spans of one item share it.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counts: dict = defaultdict(int)
        self.counts["channel.synth.ensembles"] = set()
        self.item = 0
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if hook is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (name, start, end, parent, self.item)
            if hook is not None:
                hook(counts, name, self.item,
                     lambda: list(signature.bind(*args, **kwargs).arguments.values()), result)
            return result

        return wrapper

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span for the benchmark's own work, under the call running now."""
        self.spans.append((name, start, end, self._stack[-1] if self._stack else -1, self.item))

    def install(self) -> None:
        """Bind a wrapper under every trlink name of each target that exists."""
        modules = [m for n, m in list(sys.modules.items()) if n == "trlink" or n.startswith("trlink.")]
        for module_name, attr, name, hook in TARGETS:
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, busy seconds and self seconds."""
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _item in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for span_id, (name, start, end, _parent, _item) in enumerate(self.spans):
            entry = totals[name]
            entry["calls"] += 1
            entry["busy_s"] += end - start
            entry["self_s"] += end - start - child_time[span_id]
        return totals

    def write(self, path) -> None:
        """Write one JSON object per span, in call order."""
        with open(path, "w", encoding="utf-8") as f:
            for span_id, (name, start, end, parent, item) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "item": item,
                }) + "\n")


# Per-layer metrics a traced job reports: (span name, fields from its spans).
_REPORTED = (
    ("dsp.convolve", ("calls", "busy_s")),
    ("dsp.xcorr", ("calls", "busy_s")),
    ("channel.synth", ("calls", "busy_s")),
    ("channel.sound_cir", ("calls", "busy_s", "self_s")),
    ("precoding.tr_precode", ("calls", "busy_s", "self_s")),
    ("precoding.propagate", ("calls", "busy_s", "self_s")),
    ("precoding.focusing_report", ("calls", "busy_s", "self_s")),
    ("modem.power_detect", ("calls", "busy_s")),
    ("modem.calibrate_threshold", ("calls", "busy_s")),
    ("harness.run_ber_point", ("calls", "busy_s", "self_s")),
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced job, keyed by metric name."""
    totals = tracer.layer_totals()
    counts = tracer.counts
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    for name, fields in _REPORTED:
        for f in fields:
            metrics[f"{name}.{f}"] = totals.get(name, empty)[f]
    metrics["dsp.convolve.samples_out"] = counts["dsp.convolve.samples_out"]
    metrics["precoding.propagate.samples_out"] = counts["precoding.propagate.samples_out"]
    metrics["modem.samples_read"] = counts["modem.samples_read"]
    propagated = counts["precoding.propagate.samples_out"]
    metrics["modem.read_ratio"] = counts["modem.samples_read"] / propagated if propagated else 0.0
    synth_calls = totals.get("channel.synth", empty)["calls"]
    distinct = len(counts["channel.synth.ensembles"])
    metrics["channel.synth.useful_ratio"] = distinct / synth_calls if synth_calls else 0.0
    # The probes run from the sweep's progress callback are benchmark work.
    sweeps = {i for i, span in enumerate(tracer.spans) if span[0] == "harness.run_ber_sweep"}
    probed = sum(end - start for name, start, end, parent, _item in tracer.spans
                 if name == PROBE_SPAN and parent in sweeps)
    metrics["harness.sweep_overhead_s"] = (
        totals.get("harness.run_ber_sweep", empty)["busy_s"]
        - totals.get("harness.run_ber_point", empty)["busy_s"]
        - probed
    )
    return metrics


def is_count(metric: str) -> bool:
    """Counters and ratios of counters repeat exactly for a given job."""
    return not metric.endswith("_s")


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(".calls"):
        return "count"
    if metric.endswith((".samples_out", ".samples_read")):
        return "samples"
    return "ratio"
