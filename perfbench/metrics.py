"""The metrics a run prints: end-to-end ones from the untraced run and
per-layer ones from the traced run.  ``BENCHMARK.json`` lists the same
names and units (a test keeps the two in step).

End-to-end metrics carry the same name on every workload; what an
operation is differs per workload (see ``RATIONALE.md``):

=====================  =============  ==============  =============  ==========
metric                 analyse        simulate        sweep          serve
=====================  =============  ==============  =============  ==========
ops_per_s              cold models/s  instants/s      scenarios/s    requests/s
                       (totals over the run: units of work / seconds)
latency_p50_ms         per-model      per-model mean  per partition  per request
                       mean cold      stimulus period
latency_tail_ms        p75            p90             p75            p95
secondary_path_ms      warm restore   compile per     query set per  resubmit
(mean over the run)    per model      round           sweep          latency
=====================  =============  ==============  =============  ==========
"""

from __future__ import annotations

import resource
from collections import defaultdict
from typing import Any, Dict, List, Tuple

from .common import mean, median, percentile, throughput
from .tracing import LAYERS, layer_table, self_times, totals_by_name

#: ``(name, unit, better)`` of the end-to-end metrics.
END_TO_END: List[Tuple[str, str, str]] = [
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("secondary_path_ms", "ms", "lower"),
]

#: The models simulate_long reports engine figures for, one by one.
ENGINE_MODELS = ("producer_consumer", "engine_monitor", "large_integration")
#: serve_warm's request kinds.
REQUEST_KINDS = ("trace", "stats", "batch", "resubmit")

#: ``(name, unit, better)`` of the per-layer metrics.
PER_LAYER: List[Tuple[str, str, str]] = (
    [
        ("aadl.parse_ms", "ms", "lower"),
        ("aadl.parse_kchars_per_s", "kchar/s", "higher"),
        ("aadl.instantiate_ms", "ms", "lower"),
        ("aadl.validate_ms", "ms", "lower"),
        ("core.translate_ms", "ms", "lower"),
        ("scheduling.analysis_ms", "ms", "lower"),
        ("sig.flatten_ms", "ms", "lower"),
        ("sig.flat_equations", "count", "lower"),
        ("sig.clock_calculus_ms", "ms", "lower"),
        ("sig.clock_iterative_fallbacks", "count", "lower"),
        ("sig.extraction_hit_ratio", "ratio", "higher"),
        ("sig.determinism_ms", "ms", "lower"),
        ("sig.deadlock_ms", "ms", "lower"),
        ("store.save_ms", "ms", "lower"),
        ("store.kib_written", "KiB", "lower"),
        ("store.load_ms", "ms", "lower"),
        ("store.hit_ratio", "ratio", "higher"),
        ("engine.compile_ms", "ms", "lower"),
    ]
    + [(f"engine.compile_ms.{model}", "ms", "lower") for model in ENGINE_MODELS]
    + [(f"engine.run_us_per_instant.{model}", "us", "lower") for model in ENGINE_MODELS]
    + [
        ("engine.batch_ms", "ms", "lower"),
        ("engine.batch_compile_ms", "ms", "lower"),
        ("engine.batch_run_ms", "ms", "lower"),
        ("engine.errors", "count", "lower"),
        ("engine.faults", "count", "lower"),
        ("sinks.statistics_instant_us", "us", "lower"),
        ("sinks.vcd_instant_us", "us", "lower"),
        ("sinks.vcd_kib", "KiB", "lower"),
        ("sinks.merge_ms", "ms", "lower"),
        ("sweep.space_ms", "ms", "lower"),
        ("sweep.rows_ms", "ms", "lower"),
        ("sweep.shard_write_ms", "ms", "lower"),
        ("sweep.shard_kib", "KiB", "lower"),
        ("sweep.manifest_ms", "ms", "lower"),
        ("sweep.partition_ms", "ms", "lower"),
        ("sweep.parent_wait_fraction", "ratio", "lower"),
        ("sweep.query_scan_ms", "ms", "lower"),
        ("sweep.query_project_ms", "ms", "lower"),
        ("sweep.query_aggregate_ms", "ms", "lower"),
        ("sweep.query_rows_returned_ratio", "ratio", "higher"),
        ("serve.decode_ms", "ms", "lower"),
        ("serve.encode_ms", "ms", "lower"),
        ("serve.wire_ms", "ms", "lower"),
        ("serve.canonicalise_ms", "ms", "lower"),
        ("serve.engine_ms", "ms", "lower"),
        ("serve.response_kib", "KiB", "lower"),
        ("serve.cache_hit_ratio", "ratio", "higher"),
    ]
    + [(f"serve.latency_ms.{kind}", "ms", "lower") for kind in REQUEST_KINDS]
    + [(f"layer.{layer}.share", "ratio", "lower") for layer in LAYERS]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


def peak_rss_mib() -> float:
    """Peak resident set of this process plus its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def end_to_end(workload: Any, samples: Dict[str, Any], setups: List[float]) -> Dict[str, float]:
    """The end-to-end metric values of one untraced run."""
    return {
        "setup_s": median(setups),
        "peak_rss_mib": peak_rss_mib(),
        "ops_per_s": throughput(samples),
        "latency_p50_ms": median(samples.get("typical", samples["latencies"])) * 1000.0,
        "latency_tail_ms": percentile(samples["latencies"], workload.tail) * 1000.0,
        # A mean, not a median: the secondary path has few samples per run
        # (7-10 query sets or compile rounds) or mixes models of different
        # sizes, and a median of those jumped between the host's fast and
        # slow speeds where a mean moves with the share of each.
        "secondary_path_ms": mean(samples["secondary"]) * 1000.0,
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(spans: List[Dict[str, Any]], counters: Dict[str, float], samples: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer metric values of one traced run (0 where unreached)."""
    totals = totals_by_name(spans)
    own = self_times(spans)
    by_id = {span["id"]: span for span in spans}

    def busy(name: str) -> float:
        return totals[name]["busy"] if name in totals else 0.0

    def calls(name: str) -> float:
        return totals[name]["calls"] if name in totals else 0

    def mean_ms(name: str) -> float:
        return _ratio(busy(name), calls(name)) * 1000.0

    def named(name: str) -> List[Dict[str, Any]]:
        return [span for span in spans if span["name"] == name]

    def under(name: str, parent: str) -> List[Dict[str, Any]]:
        return [
            span for span in named(name)
            if span["parent"] in by_id and by_id[span["parent"]]["name"] == parent
        ]

    batches = named("engine.simulate_batch")
    shards = named("sweep.shard_write")
    serve_batches = under("engine.simulate_batch", "serve.simulate")
    simulate_calls = calls("serve.simulate")
    partition_wait = sum(span["busy"] for span in under("engine.simulate_batch", "sweep.partition"))
    values: Dict[str, float] = {
        "aadl.parse_ms": mean_ms("aadl.parse"),
        "aadl.parse_kchars_per_s": _ratio(
            sum(span["chars"] for span in named("aadl.parse")) / 1000.0, busy("aadl.parse")
        ),
        "aadl.instantiate_ms": mean_ms("aadl.instantiate"),
        "aadl.validate_ms": mean_ms("aadl.validate"),
        "core.translate_ms": mean_ms("core.translate"),
        "scheduling.analysis_ms": mean_ms("scheduling.analysis"),
        "sig.flatten_ms": mean_ms("sig.flatten"),
        "sig.flat_equations": _ratio(counters["sig.flat_equations"], counters["sig.cold_models"]),
        "sig.clock_calculus_ms": mean_ms("sig.clock_calculus"),
        "sig.clock_iterative_fallbacks": _ratio(
            counters["sig.iterative_fallbacks"], counters["store.cold_passes"]
        ),
        "sig.extraction_hit_ratio": _ratio(counters["sig.extraction_hits"], counters["sig.extractions"]),
        "sig.determinism_ms": mean_ms("sig.determinism"),
        "sig.deadlock_ms": mean_ms("sig.deadlock"),
        "store.save_ms": mean_ms("store.save"),
        "store.kib_written": _ratio(counters["store.bytes_written"], counters["store.cold_passes"]) / 1024.0,
        "store.load_ms": mean_ms("store.load"),
        "store.hit_ratio": _ratio(counters["store.hits"], counters["store.hits"] + counters["store.misses"]),
        "engine.compile_ms": mean_ms("engine.compile"),
        "engine.batch_ms": mean_ms("engine.simulate_batch"),
        "engine.batch_compile_ms": _ratio(sum(s["compile_s"] for s in batches), len(batches)) * 1000.0,
        "engine.batch_run_ms": _ratio(sum(s["run_s"] for s in batches), len(batches)) * 1000.0,
        "engine.errors": sum(s["errors"] for s in batches),
        "engine.faults": sum(s["faults"] for s in batches),
        "sinks.statistics_instant_us": _ratio(busy("sinks.statistics"), calls("sinks.statistics")) * 1e6,
        "sinks.vcd_instant_us": _ratio(busy("sinks.vcd"), calls("sinks.vcd")) * 1e6,
        "sinks.vcd_kib": _ratio(counters["sinks.vcd_bytes"], counters["sinks.vcd_files"]) / 1024.0,
        "sinks.merge_ms": mean_ms("sinks.merge"),
        "sweep.space_ms": mean_ms("sweep.space"),
        "sweep.rows_ms": mean_ms("sweep.rows"),
        "sweep.shard_write_ms": mean_ms("sweep.shard_write"),
        "sweep.shard_kib": _ratio(sum(s["bytes"] for s in shards), len(shards)) / 1024.0,
        "sweep.manifest_ms": mean_ms("sweep.manifest"),
        "sweep.partition_ms": mean_ms("sweep.partition"),
        "sweep.parent_wait_fraction": _ratio(partition_wait, busy("sweep.partition")),
        "sweep.query_scan_ms": mean_ms("sweep.query.scan"),
        "sweep.query_project_ms": mean_ms("sweep.query.project"),
        "sweep.query_aggregate_ms": mean_ms("sweep.query.aggregate"),
        "sweep.query_rows_returned_ratio": _ratio(
            counters["sweep.rows_returned"], counters["sweep.rows_scanned"]
        ),
        "serve.decode_ms": _ratio(busy("serve.decode"), simulate_calls) * 1000.0,
        "serve.encode_ms": _ratio(busy("serve.encode"), simulate_calls) * 1000.0,
        "serve.wire_ms": _ratio(busy("client.wire"), counters["serve.responses"]) * 1000.0,
        "serve.canonicalise_ms": mean_ms("serve.canonicalise"),
        "serve.engine_ms": _ratio(sum(s["busy"] for s in serve_batches), simulate_calls) * 1000.0,
        "serve.response_kib": _ratio(counters["serve.response_bytes"], counters["serve.responses"]) / 1024.0,
        "serve.cache_hit_ratio": _ratio(counters["serve.cache_hits"], counters["serve.cache_lookups"]),
    }
    compiles: Dict[str, List[float]] = defaultdict(list)
    for span in named("engine.create_backend"):
        compiles[span["model"]].append(span["busy"])
    run_self: Dict[str, float] = defaultdict(float)
    instants: Dict[str, int] = defaultdict(int)
    for span in named("engine.run"):
        run_self[span["model"]] += own[span["id"]]
        instants[span["model"]] += span["instants"]
    for model in ENGINE_MODELS:
        values[f"engine.compile_ms.{model}"] = _ratio(sum(compiles[model]), len(compiles[model])) * 1000.0
        values[f"engine.run_us_per_instant.{model}"] = _ratio(run_self[model], instants[model]) * 1e6
    by_kind = samples.get("by_kind", {})
    for kind in REQUEST_KINDS:
        values[f"serve.latency_ms.{kind}"] = median(by_kind.get(kind, [])) * 1000.0
    for layer, row in layer_table(spans).items():
        values[f"layer.{layer}.share"] = row["share"]
    return values
