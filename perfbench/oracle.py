"""Expected outputs of every workload, from the repository's oracles.

Nothing here runs the fast paths the workloads time.  The oracles are the
ones the ROADMAP names:

* analysis reports come from the *flat* clock calculus
  (``build_clock_report`` over the flattened model, which runs
  ``run_clock_calculus``) plus the determinism, deadlock and
  schedulability verdicts, computed stage by stage instead of through
  ``run_toolchain``'s modular calculus and artifact store;
* statistics, VCD bytes, shard query results and served traces come from
  the ``reference`` interpreter backend.

An oracle file (``oracles/seed-<n>.json``) holds, per workload, a digest of
the workload's inputs and the expected output digests.  A run uses the
file only when its inputs digest matches; any other run computes the
oracle in the parent process before the timed child starts.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from .common import (
    ORACLE_DIR,
    analysis_key,
    digest,
    file_digest,
    input_flat_model,
    rows_key,
    statistics_key,
    trace_key,
)


def oracle_path(seed: int, directory: str = ORACLE_DIR) -> str:
    """Where the oracle file of *seed* lives."""
    return os.path.join(directory, f"seed-{seed}.json")


def load(seed: int, workload: str, inputs_digest: str, directory: str = ORACLE_DIR) -> Optional[Dict[str, Any]]:
    """The stored expectations of *workload*, if a file covers these inputs."""
    path = oracle_path(seed, directory)
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as handle:
        stored = json.load(handle).get(workload)
    if stored is None or stored["inputs"] != inputs_digest:
        return None
    return stored["expected"]


def save(seed: int, workload: str, inputs_digest: str, expected: Dict[str, Any], directory: str = ORACLE_DIR) -> str:
    """Write (or replace) one workload's entry of an oracle file."""
    os.makedirs(directory, exist_ok=True)
    path = oracle_path(seed, directory)
    content: Dict[str, Any] = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            content = json.load(handle)
    content[workload] = {"inputs": inputs_digest, "expected": expected}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(content, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return path


# ----------------------------------------------------------------------
# per-workload oracles
# ----------------------------------------------------------------------
def analyse_catalog(inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
    """Model name -> analysis digest, stage by stage with the flat calculus."""
    from repro.aadl.instance import Instantiator, processor_bindings
    from repro.aadl.parser import parse_string
    from repro.casestudies import load_case_study
    from repro.core import TranslationConfig
    from repro.core.translator import Asme2SsmeTranslator
    from repro.scheduling.analysis import analyse_schedulability
    from repro.scheduling.task import task_set_from_threads
    from repro.sig.analysis import build_clock_report, check_determinism, detect_deadlocks

    expected = {}
    for model in inputs["models"]:
        entry = load_case_study(model["name"])
        aadl = parse_string(model["source"])
        root = Instantiator(aadl, default_package=entry.default_package).instantiate(
            entry.root_implementation
        )
        translation = Asme2SsmeTranslator(
            TranslationConfig(include_scheduler=model["include_scheduler"])
        ).translate(root)
        flat = translation.system_model.flatten()
        bindings = processor_bindings(root)
        groups: Dict[str, List[Any]] = {}
        for process in root.processes():
            processor = bindings.get(process.qualified_name)
            key = processor.qualified_name if processor is not None else "logical_processor"
            groups.setdefault(key, []).extend(process.threads())
        schedulability = {}
        for processor, threads in groups.items():
            task_set = task_set_from_threads(threads, processor_name=processor)
            if len(task_set):
                schedulability[processor] = analyse_schedulability(task_set)
        expected[model["name"]] = digest(
            analysis_key(
                build_clock_report(flat),
                check_determinism(flat),
                detect_deadlocks(flat),
                schedulability,
            )
        )
    return expected


def simulate_long(inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
    """Model name -> statistics and VCD digests of its reference run."""
    from repro.sig.engine import create_backend
    from repro.sig.sinks import StatisticsSink
    from repro.sig.vcd import StreamingVcdSink

    expected = {}
    for run in inputs["runs"]:
        flat = input_flat_model(run["name"], run["source"])
        reference = create_backend(flat, "reference", strict=False)
        path = os.path.join(scratch, f"oracle-{run['name']}.vcd")
        statistics = StatisticsSink()
        reference.run(
            run["scenario"],
            sinks=[statistics, StreamingVcdSink(path)],
            length=run["horizon"],
        )
        expected[run["name"]] = {
            "statistics": digest(statistics_key(statistics.result())),
            "vcd": file_digest(path),
        }
        os.unlink(path)
    return expected


def sweep_fleet(inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
    """Per-scenario query digests and the aggregate digest, on ``reference``."""
    from repro.sig.engine import simulate_batch
    from repro.sig.sinks import TraceStatistics
    from repro.sweep.shards import statistics_rows

    space = inputs["space"]
    built = [space.build(index) for index in range(len(space))]
    batch = simulate_batch(
        input_flat_model(inputs["model"], inputs["source"]),
        [scenario for _, scenario in built],
        strict=False,
        backend="reference",
        sink_factory=_statistics_sink,
        length=inputs["length"],
    )
    scenarios = []
    aggregate = None
    for index, ((params, _), stats) in enumerate(zip(built, batch.sink_results)):
        rows = [row for row in statistics_rows(index, stats) if row["present"] > 0]
        listed = {
            "scenario_id": index,
            "status": "ok",
            "warnings": len(stats.warnings),
            "params": params,
        }
        scenarios.append(scenario_digest(rows, listed))
        if aggregate is None:
            aggregate = TraceStatistics(process_name=stats.process_name, length=0)
        stats.warnings = []
        aggregate.merge(stats)
    return {
        "scenarios": scenarios,
        "aggregate": digest(statistics_key(aggregate)),
    }


def _statistics_sink(index: int) -> Any:
    from repro.sig.sinks import StatisticsSink

    return StatisticsSink()


def scenario_digest(statistics_rows: List[Dict[str, Any]], scenario_row: Dict[str, Any]) -> str:
    """One scenario's digest over its query results (both tables)."""
    return digest([rows_key(statistics_rows), rows_key([scenario_row])])


def serve_warm(inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
    """Request id -> digest of the results the reference backend gives."""
    from repro.sig.engine import create_backend
    from repro.sig.sinks import StatisticsSink

    references = {
        model["name"]: create_backend(
            input_flat_model(model["name"], model["body"]["source"]), "reference", strict=True
        )
        for model in inputs["models"]
    }
    expected = {}
    for request in inputs["pool"]:
        reference = references[request["model"]]
        length = request["body"]["length"]
        results = []
        for scenario in request["scenarios"]:
            if request["kind"] == "stats":
                sink = StatisticsSink()
                reference.run(scenario, sinks=[sink], length=length)
                results.append(statistics_key(sink.result()))
            else:
                results.append(trace_key(reference.run(scenario, length=length)))
        expected[request["id"]] = digest(results)
    return expected


ORACLES = {
    "analyse_catalog": analyse_catalog,
    "simulate_long": simulate_long,
    "sweep_fleet": sweep_fleet,
    "serve_warm": serve_warm,
}
