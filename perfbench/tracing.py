"""Spans around the public functions of every layer, for traced runs only.

A :class:`Tracer` replaces each instrumented function at the attribute its
caller looks it up by (``repro.core.toolchain.detect_deadlocks``,
``repro.sweep.executor.simulate_batch``, ``StatisticsSink.on_instant``...)
with a wrapper that records a span, and puts the original back on
:meth:`Tracer.uninstall`.  Nothing in ``src/`` changes; an untraced run
installs no wrapper at all and its workload code talks to a
:class:`NullTracer`.

Spans stay in memory until the run ends.  Each has a name, a layer, start
and end, the id of its parent span and the id of the operation (model,
run, partition or request) it belongs to.  Functions called once per
simulated instant or per scenario row are *leaves*: their calls fold into
one aggregate span per parent with a call count and the summed busy time,
which keeps the span count and the tracing cost flat in the horizon.

A layer's self time is its spans' durations minus the time covered by
their child spans.  Worker processes forked by a pooled ``simulate_batch``
would inherit the wrappers but keep their spans; the workloads run
everything in the measuring process, so every span is recorded.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

#: Layers in report order; ``client`` is the benchmark's own code inside an
#: operation (request JSON, sink set-up), charged to no repo module.
LAYERS = (
    "aadl",
    "core",
    "scheduling",
    "sig_analysis",
    "store",
    "engine",
    "sinks",
    "sweep",
    "serve",
    "client",
)


class NullTracer:
    """The tracer of untraced runs: every call is a no-op."""

    active = False
    op: Optional[str] = None

    def span(self, name: str, layer: str, **attrs: Any) -> Any:
        return contextlib.nullcontext()

    def begin(self, name: str, layer: str, **attrs: Any) -> None:
        return None

    def end(self, record: Any) -> None:
        pass

    def count(self, name: str, value: float = 1) -> None:
        pass


class Tracer:
    """In-memory span recorder plus the function wrappers that feed it."""

    active = True

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = defaultdict(float)
        #: The operation id new spans are tagged with (set by the workload).
        self.op: Optional[str] = None
        self._stack: List[Dict[str, Any]] = []
        self._leaves: Dict[Tuple[Optional[int], str], Dict[str, Any]] = {}
        self._ids = itertools.count(1)
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- recording ------------------------------------------------------
    def begin(self, name: str, layer: str, **attrs: Any) -> Dict[str, Any]:
        """Open a span under the innermost open span."""
        record = {
            "id": next(self._ids),
            "name": name,
            "layer": layer,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "op": self.op,
            "calls": 1,
        }
        record.update(attrs)
        self._stack.append(record)
        record["start"] = time.perf_counter()
        return record

    def end(self, record: Dict[str, Any]) -> None:
        """Close *record* (and anything an exception left open inside it)."""
        record["end"] = time.perf_counter()
        record["busy"] = record["end"] - record["start"]
        while self._stack:
            if self._stack.pop() is record:
                break
        self.spans.append(record)

    @contextlib.contextmanager
    def span(self, name: str, layer: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        """``with tracer.span(...)``: a span around the block."""
        record = self.begin(name, layer, **attrs)
        try:
            yield record
        finally:
            self.end(record)

    def leaf(self, name: str, layer: str, start: float, end: float) -> None:
        """Fold one call of a high-frequency function into its aggregate."""
        parent = self._stack[-1]["id"] if self._stack else None
        key = (parent, name)
        aggregate = self._leaves.get(key)
        if aggregate is None:
            aggregate = self._leaves[key] = {
                "id": next(self._ids),
                "name": name,
                "layer": layer,
                "parent": parent,
                "op": self.op,
                "calls": 0,
                "busy": 0.0,
                "start": start,
            }
        aggregate["calls"] += 1
        aggregate["busy"] += end - start
        aggregate["end"] = end

    def count(self, name: str, value: float = 1) -> None:
        """Add to a named counter (sizes, hit counts, fallbacks)."""
        self.counters[name] += value

    def all_spans(self) -> List[Dict[str, Any]]:
        """Closed spans plus leaf aggregates, in start order."""
        return sorted(self.spans + list(self._leaves.values()), key=lambda s: s["start"])

    # -- wrapping -------------------------------------------------------
    def patch(
        self,
        owner: Any,
        attr: str,
        name: str,
        layer: str,
        leaf: bool = False,
        after: Optional[Callable[[Dict[str, Any], tuple, Any], None]] = None,
    ) -> None:
        """Wrap ``owner.attr`` (module function, method or classmethod)."""
        raw = vars(owner)[attr]
        function = raw.__func__ if isinstance(raw, classmethod) else raw
        tracer = self

        if leaf:

            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                start = time.perf_counter()
                try:
                    return function(*args, **kwargs)
                finally:
                    tracer.leaf(name, layer, start, time.perf_counter())

        else:

            @functools.wraps(function)
            def wrapper(*args: Any, **kwargs: Any) -> Any:
                record = tracer.begin(name, layer)
                try:
                    result = function(*args, **kwargs)
                finally:
                    tracer.end(record)
                if after is not None:
                    after(record, args, result)
                return result

        setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)
        self._patches.append((owner, attr, raw))

    def install(self) -> None:
        """Wrap every instrumentation point of :func:`instrumentation_points`."""
        for owner, attr, name, layer, leaf, after in instrumentation_points():
            self.patch(owner, attr, name, layer, leaf=leaf, after=after)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)


def _record_chars(record: Dict[str, Any], args: tuple, result: Any) -> None:
    record["chars"] = len(args[0])


def _record_batch(record: Dict[str, Any], args: tuple, result: Any) -> None:
    record["compile_s"] = result.compile_seconds
    record["run_s"] = result.run_seconds
    record["errors"] = len(result.errors)
    record["faults"] = len(result.faults)


def _record_shard(record: Dict[str, Any], args: tuple, result: Any) -> None:
    record["bytes"] = os.path.getsize(os.path.join(args[0].directory, result))


def instrumentation_points() -> List[Tuple[Any, str, str, str, bool, Any]]:
    """``(owner, attribute, span name, layer, leaf, after)`` per wrapped call."""
    from repro.aadl.instance import Instantiator
    from repro.core import toolchain
    from repro.core.translator import Asme2SsmeTranslator
    from repro.serve import cache as serve_cache
    from repro.serve import service
    from repro.serve.programs import SimulateRequest
    from repro.sig.calculus_modular import ModularClockCalculus
    from repro.sig.engine import backends
    from repro.sig.process import ProcessModel
    from repro.sig.sinks import StatisticsSink, TraceStatistics
    from repro.sig.vcd import StreamingVcdSink
    from repro.store import ArtifactStore
    from repro.sweep import executor
    from repro.sweep.shards import ShardWriter
    from repro.sweep.spaces import RandomSpace

    return [
        (toolchain, "parse_string", "aadl.parse", "aadl", False, _record_chars),
        (serve_cache, "parse_string", "aadl.parse", "aadl", False, _record_chars),
        (Instantiator, "instantiate", "aadl.instantiate", "aadl", False, None),
        (toolchain, "validate", "aadl.validate", "aadl", False, None),
        (Asme2SsmeTranslator, "translate", "core.translate", "core", False, None),
        (toolchain, "analyse_schedulability", "scheduling.analysis", "scheduling", False, None),
        (toolchain, "analyse_synchronizability", "scheduling.analysis", "scheduling", False, None),
        (ProcessModel, "flatten", "sig.flatten", "sig_analysis", False, None),
        (ModularClockCalculus, "run", "sig.clock_calculus", "sig_analysis", False, None),
        (toolchain, "build_clock_report", "sig.clock_report", "sig_analysis", False, None),
        (toolchain, "check_determinism", "sig.determinism", "sig_analysis", False, None),
        (toolchain, "detect_deadlocks", "sig.deadlock", "sig_analysis", False, None),
        (ArtifactStore, "save", "store.save", "store", False, None),
        (ArtifactStore, "load", "store.load", "store", False, None),
        (backends, "compile_plan", "engine.compile", "engine", False, None),
        (executor, "simulate_batch", "engine.simulate_batch", "engine", False, _record_batch),
        (service, "simulate_batch", "engine.simulate_batch", "engine", False, _record_batch),
        (StatisticsSink, "on_instant", "sinks.statistics", "sinks", True, None),
        (StreamingVcdSink, "on_instant", "sinks.vcd", "sinks", True, None),
        (TraceStatistics, "merge", "sinks.merge", "sinks", True, None),
        (RandomSpace, "build", "sweep.space", "sweep", True, None),
        (executor, "statistics_rows", "sweep.rows", "sweep", True, None),
        (executor, "scenario_row", "sweep.rows", "sweep", True, None),
        (ShardWriter, "write", "sweep.shard_write", "sweep", False, _record_shard),
        (executor, "write_manifest", "sweep.manifest", "sweep", False, None),
        (SimulateRequest, "from_payload", "serve.decode", "serve", False, None),
        (service, "scenario_from_payload", "serve.decode", "serve", False, None),
        (service, "trace_to_payload", "serve.encode", "serve", False, None),
        (service, "statistics_to_payload", "serve.encode", "serve", False, None),
        (service, "canonical_source", "serve.canonicalise", "serve", False, None),
    ]


# ----------------------------------------------------------------------
# analysis of recorded spans
# ----------------------------------------------------------------------
def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> busy time minus the busy time of its direct children."""
    covered: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["busy"]
    return {span["id"]: span["busy"] - covered[span["id"]] for span in spans}


def layer_table(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per layer: self ms, call count and share of the operations' time.

    The denominator is the summed duration of the top-level spans, which
    the workloads open once per operation: time spent between operations
    (oracle checks, clean-up) is no layer's and is left out.
    """
    own = self_times(spans)
    total = sum(span["busy"] for span in spans if span["parent"] is None)
    table = {layer: {"self_ms": 0.0, "calls": 0, "share": 0.0} for layer in LAYERS}
    for span in spans:
        row = table[span["layer"]]
        row["self_ms"] += own[span["id"]] * 1000.0
        row["calls"] += span["calls"]
    for row in table.values():
        row["share"] = row["self_ms"] / (total * 1000.0) if total else 0.0
    return table


def totals_by_name(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, float]]:
    """Per span name: summed busy seconds and call count."""
    totals: Dict[str, Dict[str, float]] = defaultdict(lambda: {"busy": 0.0, "calls": 0})
    for span in spans:
        totals[span["name"]]["busy"] += span["busy"]
        totals[span["name"]]["calls"] += span["calls"]
    return totals


def write_spans(path: str, spans: List[Dict[str, Any]]) -> None:
    """One JSON object per span, start order."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span, sort_keys=True, default=repr))
            handle.write("\n")


def format_layer_table(workload: str, table: Dict[str, Dict[str, float]]) -> str:
    """The layer table as aligned text."""
    lines = [f"layer table of {workload} (self time inside operations)"]
    lines.append(f"  {'layer':<14s} {'self ms':>12s} {'calls':>10s} {'share':>8s}")
    for layer in LAYERS:
        row = table[layer]
        lines.append(
            f"  {layer:<14s} {row['self_ms']:12.1f} {int(row['calls']):10d} "
            f"{row['share'] * 100.0:7.1f}%"
        )
    return "\n".join(lines)
