"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload analyse_catalog --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all    # the four, one after another

The parent process generates the workload's inputs from ``--seed``, loads
the matching oracle file or computes the oracle (reference backend, flat
clock calculus), then starts a fresh child process that sets the system
up (several times; ``setup_s`` is the median), measures it for
``--seconds`` and checks every output.  With
``--trace 1`` the child measures once untraced and once with spans
around every layer, writes the spans (JSONL) and a layer table under
``perfbench/out/`` and reports the per-layer metrics plus the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every output matched its oracle, 1 on a mismatch and 2 when the
run could not start (for instance without the repository's ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import pickle
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import oracle  # noqa: E402
from perfbench.common import OUT_DIR, ORACLE_DIR, digest, median, throughput  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER, end_to_end, per_layer  # noqa: E402
from perfbench.tracing import NullTracer, Tracer, format_layer_table, layer_table, write_spans  # noqa: E402
from perfbench.workloads import WORKLOADS, Tally  # noqa: E402

#: A run sets up at least ``SETUP_MIN_REPEATS`` times and until the set-ups
#: have taken ``SETUP_MIN_SECONDS``, at most ``SETUP_MAX_REPEATS`` times;
#: ``setup_s`` is their median.  A short set-up (analyse_catalog's takes
#: ~0.2 s) thus gets many samples, and the first, which pays the imports,
#: does not set the median.
SETUP_MIN_REPEATS = 3
SETUP_MIN_SECONDS = 2.0
SETUP_MAX_REPEATS = 15
#: Wall-clock limit of the measuring child, in seconds.
CHILD_TIMEOUT = 170.0


@dataclass
class Job:
    """Everything the measuring child needs: inputs, oracle, settings."""

    workload: Any
    seed: int
    seconds: float
    trace: bool
    inputs: Any
    expected: Any
    oracle_source: str
    #: Where scratch files, spans and layer tables go.
    out_dir: str


def host_reference_ms() -> float:
    """Median time of a fixed pure-Python loop, in ms: how fast the host runs.

    Printed beside the metrics, never folded into them, so that a run made
    while a shared host ran slow can be told from a slower program.
    """
    samples = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(200_000):
            total += value * value % 7
        samples.append(time.perf_counter() - started)
    return median(samples) * 1000.0


def prepare(
    workload: Any,
    seed: int,
    seconds: float,
    trace: bool,
    oracle_dir: str = ORACLE_DIR,
    out_dir: str = OUT_DIR,
) -> Job:
    """Generate the inputs and fetch or compute their oracle."""
    os.makedirs(out_dir, exist_ok=True)
    inputs = workload.make_inputs(seed)
    inputs_digest = digest(workload.describe(inputs))
    expected = oracle.load(seed, workload.name, inputs_digest, oracle_dir)
    source = f"file {oracle.oracle_path(seed, oracle_dir)}"
    if expected is None:
        scratch = tempfile.mkdtemp(prefix="oracle-", dir=out_dir)
        try:
            expected = oracle.ORACLES[workload.name](inputs, scratch)
        finally:
            shutil.rmtree(scratch, ignore_errors=True)
        source = "computed before timing"
    return Job(workload, seed, seconds, trace, inputs, expected, source, out_dir)


def execute(job: Job) -> Dict[str, Any]:
    """Set up, measure and check one workload in this process."""
    workload = job.workload
    scratch = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=job.out_dir)
    try:
        setups: List[float] = []
        while len(setups) < SETUP_MAX_REPEATS and (
            len(setups) < SETUP_MIN_REPEATS or sum(setups) < SETUP_MIN_SECONDS
        ):
            started = time.perf_counter()
            state = workload.setup(job.inputs, scratch)
            setups.append(time.perf_counter() - started)
        tally = Tally()
        host_before = host_reference_ms()
        samples = workload.run(state, job.inputs, job.expected, job.seconds, NullTracer(), tally, scratch)
        result: Dict[str, Any] = {
            "end_to_end": end_to_end(workload, samples, setups),
            "named": workload.named(samples),
            "tally": tally,
            "host_reference_ms": (host_before, host_reference_ms()),
        }
        if job.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced = workload.run(state, job.inputs, job.expected, job.seconds, tracer, tally, scratch)
            finally:
                tracer.uninstall()
            spans = tracer.all_spans()
            layers = per_layer(spans, tracer.counters, traced)
            layers["trace.overhead_ratio"] = result["end_to_end"]["ops_per_s"] / throughput(traced) - 1.0
            result["per_layer"] = layers
            result["layer_table"] = layer_table(spans)
            stem = os.path.join(job.out_dir, f"{workload.name}-seed{job.seed}")
            write_spans(stem + ".spans.jsonl", spans)
            with open(stem + ".layers.json", "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "workload": workload.name,
                        "seed": job.seed,
                        # Top-level spans, one per operation: the unit that
                        # makes two runs' self times comparable.
                        "operations": sum(1 for span in spans if span["parent"] is None),
                        "layers": result["layer_table"],
                        "metrics": layers,
                    },
                    handle, indent=1, sort_keys=True,
                )
            result["files"] = [stem + ".spans.jsonl", stem + ".layers.json"]
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def report(job: Job, result: Dict[str, Any]) -> Dict[str, Any]:
    """Print the human-readable summary; return the final JSON object."""
    tally = result["tally"]
    ratio = tally.failed / tally.attempted if tally.attempted else 0.0
    print(f"workload {job.workload.name}, seed {job.seed}, oracle {job.oracle_source}")
    print(f"  operations: {tally.attempted} attempted, {tally.failed} failed (failed_ratio {ratio:.4f})")
    print("  host reference loop: {:.2f} ms before, {:.2f} ms after the timed run".format(*result["host_reference_ms"]))
    named = {
        "setup_s": (result["end_to_end"]["setup_s"], "s"),
        "peak_rss_mib": (result["end_to_end"]["peak_rss_mib"], "MiB"),
        **result["named"],
    }
    for name, (value, unit) in named.items():
        print(f"  {name:<30s} {value:14.3f} {unit}")
    for message in tally.mismatches[:20]:
        print(f"  MISMATCH {message}")
    if job.trace:
        print(format_layer_table(job.workload.name, result["layer_table"]))
        for path in result["files"]:
            print(f"  wrote {path}")
        chosen, source = PER_LAYER, result["per_layer"]
    else:
        chosen, source = END_TO_END, result["end_to_end"]
    metrics = {name: {"value": source[name], "unit": unit} for name, unit, _ in chosen}
    return {
        "correct": not tally.mismatches,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _child(job_path: str, result_path: str) -> int:
    with open(job_path, "rb") as handle:
        job = pickle.load(handle)
    result = execute(job)
    with open(result_path, "wb") as handle:
        pickle.dump(result, handle)
    return 0


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    """Measure one workload in a fresh child process; print its result.

    Returns the exit code: 0 when every output matched its oracle, 1 on a
    mismatch, 2 when the measuring process failed.
    """
    job = prepare(WORKLOADS[name](), seed, seconds, trace)
    exchange = tempfile.mkdtemp(prefix="job-", dir=job.out_dir)
    try:
        job_path = os.path.join(exchange, "job.pkl")
        result_path = os.path.join(exchange, "result.pkl")
        with open(job_path, "wb") as handle:
            pickle.dump(job, handle)
        # A fresh interpreter: peak RSS and set-up time cover the system's
        # work only, not input generation or the oracle.
        try:
            child = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--child", job_path, result_path],
                timeout=CHILD_TIMEOUT,
            )
        except subprocess.TimeoutExpired:
            print(f"measuring process exceeded {CHILD_TIMEOUT:.0f} s", file=sys.stderr)
            return 2
        if child.returncode != 0:
            print(f"measuring process failed with exit code {child.returncode}", file=sys.stderr)
            return 2
        with open(result_path, "rb") as handle:
            result = pickle.load(handle)
    finally:
        shutil.rmtree(exchange, ignore_errors=True)
    final = report(job, result)
    print(json.dumps(final, sort_keys=True))
    return 0 if final["correct"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted(WORKLOADS) + ["all"],
        help="one workload, or 'all' to run the four one after another",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", nargs=2, metavar=("JOB", "RESULT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return _child(*args.child)
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return max(run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as error:
        print(f"perfbench cannot start: {error}", file=sys.stderr)
        sys.exit(2)
