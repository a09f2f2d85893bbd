"""The four workloads: inputs from a seed, set-up, a timed closed loop and
the metrics it yields.

Every workload follows the same protocol, driven by :mod:`perfbench.run`:

* ``make_inputs(seed)`` (parent process) generates the inputs the program
  receives — AADL text, symbolic scenarios, request bodies — from the seed
  alone; ``describe(inputs)`` is their JSON-able identity, whose digest
  selects a stored oracle;
* ``setup(inputs, scratch)`` (timed child) builds the system under test;
  it runs several times and ``setup_s`` is the median;
* ``run(...)`` repeats whole rounds of operations until the operations
  have taken ``seconds``, checks every output against the oracle between
  operations (untimed) and returns the samples the metrics come from.
  Garbage is collected between operations, untimed, so that a collection
  the previous operation's garbage triggers does not land in the next
  operation's timing (serve_warm collects once per round of requests).

One caller, closed loop: each operation starts when the previous one and
its check are done.  An operation is one model analysed, one simulation
run, one swept scenario or one served request; ``attempted``/``failed``
count them.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import random
import shutil
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from .common import (
    NOT_RM_SCHEDULABLE,
    digest,
    file_digest,
    flat_model,
    input_flat_model,
    mean,
    median,
    percentile,
    reformat,
    statistics_key,
    throughput,
    toolchain_analysis_digest,
    toolchain_options,
    trace_key,
)
from .oracle import scenario_digest


@dataclass
class Tally:
    """Operations attempted and failed, and outputs that missed the oracle."""

    attempted: int = 0
    failed: int = 0
    mismatches: List[str] = field(default_factory=list)

    def mismatch(self, message: str) -> None:
        self.mismatches.append(message)


#: How often, at most, ``CpuRotation`` moves the measuring process.
CPU_ROTATION_SECONDS = 1.0


class CpuRotation:
    """Moves this process to the next CPU it may run on, at most once per
    ``CPU_ROTATION_SECONDS``.  Called between operations, outside their
    timing.

    On a shared host each CPU has slow stretches of its own, lasting from
    seconds to minutes.  A single-threaded run the scheduler left on one
    CPU took that CPU's speed for its whole length, and runs of the same
    code differed by up to 1.8x; moving about once a second samples every
    CPU in every run.  Forked workers would inherit the one-CPU affinity,
    so it suits only workloads that run in one process.
    """

    def __init__(self) -> None:
        self.cpus = sorted(os.sched_getaffinity(0))
        self.turn = 0
        self.moved = time.perf_counter()
        os.sched_setaffinity(0, {self.cpus[0]})

    def __call__(self) -> None:
        now = time.perf_counter()
        if now - self.moved >= CPU_ROTATION_SECONDS:
            self.turn += 1
            self.moved = now
            os.sched_setaffinity(0, {self.cpus[self.turn % len(self.cpus)]})

    def close(self) -> None:
        """Give the process back every CPU it started with."""
        os.sched_setaffinity(0, set(self.cpus))


def _fresh_dir(scratch: str, name: str) -> str:
    path = os.path.join(scratch, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def _source_of(name: str) -> str:
    from repro.aadl.printer import render_model
    from repro.casestudies import load_case_study

    return render_model(load_case_study(name).load_model())


# ======================================================================
# analyse_catalog
# ======================================================================
class AnalyseCatalog:
    """Every catalog model from AADL text to analysis verdicts, cold and warm.

    A round is one catalog pass: each model (seeded order, seeded cosmetic
    reformatting of its text) goes through ``run_toolchain`` with
    simulation off, publishing into a fresh empty ``ArtifactStore`` — the
    first ``repro analyse`` of a model — and then again through a new store
    instance on the same directory — the second one, a restore.
    """

    name = "analyse_catalog"
    #: The latency percentile reported as ``latency_tail_ms``, taken over
    #: the 12 per-model mean cold latencies (see ``run``).
    tail = 0.75

    def __init__(self, models: Optional[Tuple[str, ...]] = None) -> None:
        from repro.casestudies import catalog_names

        self.models = tuple(models or catalog_names())

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        return {
            "seed": seed,
            "models": [
                {
                    "name": name,
                    "include_scheduler": name not in NOT_RM_SCHEDULABLE,
                    "source": reformat(_source_of(name), random.Random(f"{seed}:{name}")),
                }
                for name in self.models
            ],
        }

    def describe(self, inputs: Dict[str, Any]) -> Any:
        return {
            "seed": inputs["seed"],
            "models": {m["name"]: digest(m["source"]) for m in inputs["models"]},
        }

    def setup(self, inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
        from repro.casestudies import load_case_study
        from repro.core import run_toolchain
        from repro.store import ArtifactStore

        entries = {m["name"]: load_case_study(m["name"]) for m in inputs["models"]}
        # Warm-up: the smallest model once cold and once restored.
        smallest = min(inputs["models"], key=lambda m: len(m["source"]))
        directory = _fresh_dir(scratch, "setup-store")
        entry = entries[smallest["name"]]
        for _ in range(2):
            run_toolchain(smallest["source"], toolchain_options(entry, ArtifactStore(directory)))
        shutil.rmtree(directory)
        return {"entries": entries}

    def run(self, state, inputs, expected, seconds, tracer, tally, scratch) -> Dict[str, Any]:
        from repro.core import run_toolchain
        from repro.store import ArtifactStore

        rotate = CpuRotation()
        entries = state["entries"]
        sources = {m["name"]: m["source"] for m in inputs["models"]}
        cold: Dict[str, List[float]] = defaultdict(list)
        warm: List[float] = []
        busy = 0.0
        passes = 0
        while busy < seconds or passes == 0:
            order = sorted(sources)
            random.Random(f"{inputs['seed']}:pass:{passes}").shuffle(order)
            directory = _fresh_dir(scratch, "store")
            timings: Dict[str, List[Tuple[str, float]]] = {"cold": [], "warm": []}
            for phase, samples in timings.items():
                store = ArtifactStore(directory)
                for name in order:
                    gc.collect()
                    rotate()
                    tally.attempted += 1
                    tracer.op = f"{phase}:{passes}:{name}"
                    started = time.perf_counter()
                    try:
                        with tracer.span(f"op.analyse.{phase}", "client"):
                            with tracer.span("core.run_toolchain", "core"):
                                result = run_toolchain(
                                    sources[name], toolchain_options(entries[name], store)
                                )
                    except Exception as error:  # counted, not fatal
                        tally.failed += 1
                        print(f"analyse {name} ({phase}) raised {error!r}")
                        continue
                    elapsed = time.perf_counter() - started
                    samples.append((name, elapsed))
                    busy += elapsed
                    self._check(result, phase, name, expected, tally)
                    if tracer.active and phase == "cold":
                        self._count(result, tracer)
                if tracer.active:
                    stats = store.stats()
                    tracer.count("store.hits", stats["hits"])
                    tracer.count("store.misses", stats["misses"])
                    if phase == "cold":
                        tracer.count("store.bytes_written", stats["bytes"])
                        tracer.count("store.cold_passes")
            shutil.rmtree(directory)
            for name, elapsed in timings["cold"]:
                cold[name].append(elapsed)
            warm.extend(elapsed for _, elapsed in timings["warm"])
            passes += 1
        rotate.close()
        every = [elapsed for per_model in cold.values() for elapsed in per_model]
        # The latency percentiles are taken over each model's mean cold
        # latency.  The 12 models' latencies (40-680 ms) form 12 clusters, and
        # a percentile over the raw samples falls on the edge between two of
        # them, i.e. on the slowest sample of one model and the fastest of the
        # next: single samples, which a slow second of a shared host moves.
        means = [mean(per_model) for per_model in cold.values()]
        return {"work": (len(every), sum(every)), "latencies": means, "secondary": warm}

    @staticmethod
    def _check(result, phase, name, expected, tally) -> None:
        if phase == "warm" and not result.store_hit:
            tally.mismatch(f"{name}: the second run missed the store")
        if toolchain_analysis_digest(result) != expected[name]:
            tally.mismatch(f"{name}: {phase} analysis differs from the flat-calculus oracle")

    @staticmethod
    def _count(result, tracer) -> None:
        stats = result.calculus_stats
        tracer.count("sig.flat_equations", len(result.flat_model.equations))
        tracer.count("sig.extraction_hits", stats.extraction_hits)
        tracer.count("sig.extractions", stats.extraction_hits + stats.extraction_misses)
        if stats.resolution == "iterative-fallback":
            tracer.count("sig.iterative_fallbacks")
        tracer.count("sig.cold_models")

    def named(self, samples: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        warm = samples["secondary"]
        return {
            "analyse.cold_models_per_s": (throughput(samples), "models/s"),
            "analyse.cold_p50_ms": (median(samples["latencies"]) * 1000.0, "ms"),
            "analyse.cold_p75_ms": (percentile(samples["latencies"], 0.75) * 1000.0, "ms"),
            "analyse.warm_models_per_s": (len(warm) / sum(warm) if warm else 0.0, "models/s"),
        }


# ======================================================================
# simulate_long
# ======================================================================
#: Horizons (instants) of the simulate_long runs: a round of the three
#: takes about 2 s on the compiled backend of a 2-core host.  Equal
#: horizons give each model a third of the stimulus periods, so p90 lies
#: inside the slowest model's periods, not on the edge between two
#: models' period times.
SIMULATE_HORIZONS = {"producer_consumer": 120, "engine_monitor": 120, "large_integration": 120}
#: Stimulus period of simulate_long's inputs.  Stimulus ``i`` of a model
#: fires at phase ``(shift + i) % SIMULATE_PERIOD`` and the seed draws the
#: shift only, so every seed simulates the same events, shifted in time:
#: with two stimulated inputs per model, random periods and independent
#: phases (same instant or not) made the per-instant cost, and the metrics,
#: depend on the seed more than on the code.
SIMULATE_PERIOD = 4


class StepClock:
    """A sink stamping the wall clock at every instant; its samples are the
    times of whole stimulus periods (``SIMULATE_PERIOD`` instants).

    Listed last, so a step spans the engine's instants plus the other
    sinks' encoding of them — the pace a co-simulation partner sees.  A
    period, not an instant, is the sample because every period holds each
    stimulus once: instants with and without events cost different
    amounts, and half of a model's instants carrying events put a
    per-instant median on the edge between the two costs.
    """

    header = None

    def __init__(self) -> None:
        self.stamps: List[float] = []

    def on_header(self, header: Any) -> None:
        self.header = header
        self.stamps.append(time.perf_counter())

    def on_instant(self, instant: int, statuses: Any, values: Any) -> None:
        self.stamps.append(time.perf_counter())

    def on_close(self) -> None:
        pass

    def result(self) -> List[float]:
        ends = self.stamps[::SIMULATE_PERIOD]
        return [b - a for a, b in zip(ends, ends[1:])]


class SimulateLong:
    """Streaming long-horizon runs into statistics and a VCD file.

    A round compiles the default (``compiled``) backend of each of three
    analysed models and runs one seeded stimulus scenario over a long
    horizon, streaming into a ``StatisticsSink`` and a ``StreamingVcdSink``
    writing to disk.  The analysis stays in set-up.
    """

    name = "simulate_long"
    #: A round simulates 90 stimulus periods, 30 per model; the 7-10 rounds
    #: of a 15-second run leave 60 or more periods beyond p90.  A higher
    #: percentile sits in the slowest model's own tail, which measured the
    #: host's slow stretches more than the program.
    tail = 0.9

    def __init__(self, horizons: Optional[Dict[str, int]] = None) -> None:
        self.horizons = dict(horizons or SIMULATE_HORIZONS)

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        from repro.sweep import stimulus_space

        runs = []
        for name, horizon in self.horizons.items():
            source = _source_of(name)
            space = stimulus_space(
                input_flat_model(name, source), 1, seed=seed, period_range=(SIMULATE_PERIOD, SIMULATE_PERIOD)
            )
            scenario = space.scenario(0)
            shift = random.Random(f"{seed}:{name}").randrange(SIMULATE_PERIOD)
            for index, stimulus in enumerate(space.builder.stimulus_inputs):
                scenario.set_periodic(stimulus, SIMULATE_PERIOD, phase=(shift + index) % SIMULATE_PERIOD)
            runs.append({"name": name, "source": source, "horizon": horizon, "scenario": scenario})
        return {"seed": seed, "runs": runs}

    def describe(self, inputs: Dict[str, Any]) -> Any:
        from repro.serve.programs import scenario_to_payload

        return [
            {
                "name": run["name"],
                "source": digest(run["source"]),
                "horizon": run["horizon"],
                "scenario": scenario_to_payload(run["scenario"]),
            }
            for run in inputs["runs"]
        ]

    def setup(self, inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
        from repro.sig.engine import create_backend

        models = {}
        for run in inputs["runs"]:
            flat = flat_model(run["name"], run["source"])
            create_backend(flat, strict=False).run(run["scenario"], length=8)
            models[run["name"]] = flat
        return {"models": models}

    def run(self, state, inputs, expected, seconds, tracer, tally, scratch) -> Dict[str, Any]:
        from repro.sig.engine import create_backend
        from repro.sig.sinks import StatisticsSink
        from repro.sig.vcd import StreamingVcdSink

        periods: Dict[str, List[float]] = defaultdict(list)
        compiles: List[float] = []
        simulated = 0
        run_seconds = 0.0
        busy = 0.0
        rounds = 0
        directory = _fresh_dir(scratch, "vcd")
        rotate = CpuRotation()
        while busy < seconds or rounds == 0:
            compile_round = run_round = 0.0
            instants = 0
            for run in inputs["runs"]:
                name = run["name"]
                gc.collect()
                rotate()
                tally.attempted += 1
                tracer.op = f"run:{rounds}:{name}"
                path = os.path.join(directory, f"{name}.vcd")
                try:
                    with tracer.span("op.simulate", "client"):
                        started = time.perf_counter()
                        with tracer.span("engine.create_backend", "engine", model=name):
                            backend = create_backend(state["models"][name], strict=False)
                        compiled = time.perf_counter()
                        statistics, clock = StatisticsSink(), StepClock()
                        sinks = [statistics, StreamingVcdSink(path), clock]
                        with tracer.span("engine.run", "engine", model=name, instants=run["horizon"]):
                            backend.run(run["scenario"], sinks=sinks, length=run["horizon"])
                        finished = time.perf_counter()
                except Exception as error:  # counted, not fatal
                    tally.failed += 1
                    print(f"simulate {name} raised {error!r}")
                    continue
                compile_round += compiled - started
                run_round += finished - compiled
                busy += finished - started
                instants += run["horizon"]
                periods[name].extend(clock.result())
                actual = {
                    "statistics": digest(statistics_key(statistics.result())),
                    "vcd": file_digest(path),
                }
                if tracer.active:
                    tracer.count("sinks.vcd_bytes", os.path.getsize(path))
                    tracer.count("sinks.vcd_files")
                for part in ("statistics", "vcd"):
                    if actual[part] != expected[name][part]:
                        tally.mismatch(f"{name}: {part} differs from the reference backend")
                os.unlink(path)
            compiles.append(compile_round)
            simulated += instants
            run_seconds += run_round
            rounds += 1
        shutil.rmtree(directory)
        rotate.close()
        return {
            "work": (simulated, run_seconds),
            "latencies": [period for per_model in periods.values() for period in per_model],
            # The median is taken over each model's mean period: the two large
            # models' periods (about 18 and 23 ms) overlap once the host runs
            # slow, and the median of the raw periods then jumped between
            # them.
            "typical": [mean(per_model) for per_model in periods.values()],
            "secondary": compiles,
        }

    def named(self, samples: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        return {
            "simulate.instants_per_s": (throughput(samples), "instants/s"),
            "simulate.compile_ms": (mean(samples["secondary"]) * 1000.0, "ms"),
        }


# ======================================================================
# sweep_fleet
# ======================================================================
#: Worker processes of every sweep.  One: the sweep runs in the measuring
#: process, like the other workloads.  With ``workers=2`` on the 2-core
#: host, the parent and two workers shared two CPUs whose speeds changed
#: independently, and the same code swept 30% slower in some runs than in
#: others while a single-threaded loop ran at full speed.
SWEEP_WORKERS = 1


class SweepFleet:
    """A partitioned sweep of seeded stimuli into JSONL shards, then queries.

    A round sweeps the whole space into a fresh directory with
    ``run_sweep`` (short horizon, several partitions, ``SWEEP_WORKERS``)
    and runs the fixed query set through ``SweepResultStore``.
    """

    name = "sweep_fleet"
    #: The 7-10 sweeps of 8 partitions in a 15-second run leave 14-20
    #: partitions beyond p75.
    tail = 0.75
    model = "autobrake"

    def __init__(self, scenarios: int = 256, length: int = 8, partition_size: int = 32) -> None:
        self.scenarios = scenarios
        self.length = length
        self.partition_size = partition_size

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        from repro.sweep import stimulus_space

        source = _source_of(self.model)
        return {
            "model": self.model,
            "source": source,
            "space": stimulus_space(input_flat_model(self.model, source), self.scenarios, seed=seed),
            "length": self.length,
            "partition_size": self.partition_size,
        }

    def describe(self, inputs: Dict[str, Any]) -> Any:
        return {
            "model": inputs["model"],
            "source": digest(inputs["source"]),
            "space": inputs["space"].fingerprint(),
            "length": inputs["length"],
            "partition_size": inputs["partition_size"],
        }

    def setup(self, inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
        from repro.sweep import run_sweep

        flat = flat_model(inputs["model"], inputs["source"])
        warm = _fresh_dir(scratch, "setup-sweep")
        run_sweep(
            flat, inputs["space"], os.path.join(warm, "sweep"),
            partition_size=inputs["partition_size"], strict=False,
            length=inputs["length"], workers=SWEEP_WORKERS, shard_format="jsonl",
        )
        shutil.rmtree(warm)
        return {"flat": flat}

    def run(self, state, inputs, expected, seconds, tracer, tally, scratch) -> Dict[str, Any]:
        from repro.sweep import SweepResultStore, run_sweep

        partitions: List[float] = []
        queries: List[float] = []
        swept = 0
        sweep_seconds = 0.0
        busy = 0.0
        rounds = 0
        rotate = CpuRotation()
        while busy < seconds or rounds == 0:
            directory = os.path.join(_fresh_dir(scratch, "sweep"), "out")
            marks: Dict[str, float] = {}
            open_spans: Dict[int, Any] = {}

            def progress(event: str, index: int) -> None:
                if event == "partition-start":
                    rotate()
                now = time.perf_counter()
                if event == "partition-start":
                    marks.setdefault("first", now)
                    marks[f"start{index}"] = now
                    tracer.op = f"sweep:{rounds}:partition:{index}"
                    open_spans[index] = tracer.begin("sweep.partition", "sweep")
                elif event == "partition-complete":
                    marks["last"] = now
                    partitions.append(now - marks[f"start{index}"])
                    tracer.end(open_spans.pop(index))

            count = len(inputs["space"])
            gc.collect()
            tally.attempted += count
            started = time.perf_counter()
            try:
                with tracer.span("op.sweep", "client"):
                    with tracer.span("sweep.run_sweep", "sweep"):
                        result = run_sweep(
                            state["flat"], inputs["space"], directory,
                            partition_size=inputs["partition_size"], strict=False,
                            length=inputs["length"], workers=SWEEP_WORKERS,
                            shard_format="jsonl", progress=progress,
                        )
            except Exception as error:  # counted, not fatal
                tally.failed += count
                print(f"sweep raised {error!r}")
                rounds += 1
                busy += time.perf_counter() - started
                continue
            swept += count
            sweep_seconds += marks["last"] - marks["first"]
            tally.failed += result.fault_count + result.error_count
            tracer.op = f"sweep:{rounds}:queries"
            gc.collect()
            query_started = time.perf_counter()
            with tracer.span("op.query", "client"):
                store = SweepResultStore(directory)
                with tracer.span("sweep.query.scan", "sweep"):
                    scanned = list(store.query("statistics", where=[("present", ">", 0)]))
                with tracer.span("sweep.query.project", "sweep"):
                    listed = list(
                        store.query("scenarios", columns=["scenario_id", "status", "warnings", "params"])
                    )
                with tracer.span("sweep.query.aggregate", "sweep"):
                    aggregate = store.aggregate()
            finished = time.perf_counter()
            queries.append(finished - query_started)
            busy += finished - started
            if tracer.active:
                tracer.count("sweep.rows_returned", len(scanned) + len(listed))
                tracer.count("sweep.rows_scanned", store.rows("statistics") + store.rows("scenarios"))
            self._check(scanned, listed, aggregate, result, expected, tally)
            shutil.rmtree(os.path.dirname(directory))
            rounds += 1
        rotate.close()
        return {
            "work": (swept, sweep_seconds),
            "latencies": partitions,
            "secondary": queries,
        }

    @staticmethod
    def _check(scanned, listed, aggregate, result, expected, tally) -> None:
        by_scenario: Dict[int, List[Dict[str, Any]]] = defaultdict(list)
        for row in scanned:
            by_scenario[row["scenario_id"]].append(row)
        if len(listed) != len(expected["scenarios"]):
            tally.mismatch(f"scenarios table holds {len(listed)} rows, expected {len(expected['scenarios'])}")
        for row in listed:
            index = row["scenario_id"]
            if row["status"] != "ok":
                continue  # a failed operation, counted from the sweep result
            if scenario_digest(by_scenario[index], row) != expected["scenarios"][index]:
                tally.mismatch(f"scenario {index}: query results differ from the reference backend")
        if result.fault_count == 0 and result.error_count == 0:
            if digest(statistics_key(aggregate)) != expected["aggregate"]:
                tally.mismatch("sweep aggregate differs from the reference backend")

    def named(self, samples: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        return {
            "sweep.scenarios_per_s": (throughput(samples), "scenarios/s"),
            "sweep.query_ms": (mean(samples["secondary"]) * 1000.0, "ms"),
        }


# ======================================================================
# serve_warm
# ======================================================================
#: The resident models of serve_warm, with the submit's scheduler choice.
SERVE_MODELS = ("cabin_pressure", "autobrake", "producer_consumer")
#: Simulate request kinds: (kind, scenarios per request, horizon).
SERVE_KINDS = (("trace", 1, 32), ("stats", 1, 32), ("batch", 3, 16))


class ServeWarm:
    """One client against an in-process ``SimulationService``.

    Three models are submitted in set-up.  The request pool holds the same
    number of requests of every (model, kind) pair, each with seeded
    stimulus scenarios; the client walks a seeded permutation of the pool
    and every fifth request resubmits one model's source, freshly
    reformatted so that it is canonicalised (parsed) again.  A round is one
    walk of the pool.  Every request
    and response goes through ``json.dumps``/``json.loads``.
    """

    name = "serve_warm"
    #: >=200 requests per run leave >=10 beyond p95.
    tail = 0.95
    resubmit_every = 5

    def __init__(self, variants: int = 4) -> None:
        self.variants = variants

    def make_inputs(self, seed: int) -> Dict[str, Any]:
        from repro.casestudies import load_case_study
        from repro.serve.programs import scenario_to_payload
        from repro.sweep import stimulus_space

        models = []
        pool = []
        for name in SERVE_MODELS:
            entry = load_case_study(name)
            source = _source_of(name)
            models.append(
                {
                    "name": name,
                    "body": {
                        "source": source,
                        "root": entry.root_implementation,
                        "package": entry.default_package,
                        "include_scheduler": name not in NOT_RM_SCHEDULABLE,
                    },
                }
            )
            space = stimulus_space(
                input_flat_model(name, source), self.variants * sum(k[1] for k in SERVE_KINDS), seed=seed
            )
            drawn = iter(range(len(space)))
            for kind, count, length in SERVE_KINDS:
                for variant in range(self.variants):
                    scenarios = [space.scenario(next(drawn)) for _ in range(count)]
                    body: Dict[str, Any] = {
                        "scenarios": [scenario_to_payload(s) for s in scenarios],
                        "length": length,
                    }
                    if kind == "stats":
                        body.update(sinks=["stats"], include_trace=False)
                    pool.append(
                        {
                            "id": f"{name}:{kind}:{variant}",
                            "model": name,
                            "kind": kind,
                            "scenarios": scenarios,
                            "body": body,
                        }
                    )
        return {"seed": seed, "models": models, "pool": pool}

    def describe(self, inputs: Dict[str, Any]) -> Any:
        return {
            "seed": inputs["seed"],
            "models": [digest(model["body"]) for model in inputs["models"]],
            "pool": [digest([r["id"], r["body"]]) for r in inputs["pool"]],
        }

    def setup(self, inputs: Dict[str, Any], scratch: str) -> Dict[str, Any]:
        from repro.serve import ServiceConfig, SimulationService

        service = SimulationService(ServiceConfig())
        fingerprints = {}
        for model in inputs["models"]:
            fingerprints[model["name"]] = service.submit(json.loads(json.dumps(model["body"])))["fingerprint"]
        # Warm-up: one request of every kind on the first model.
        first = inputs["models"][0]["name"]
        for request in inputs["pool"]:
            if request["model"] == first and request["id"].endswith(":0"):
                service.simulate(fingerprints[first], json.loads(json.dumps(request["body"])))
        return {"service": service, "fingerprints": fingerprints, "resubmits": itertools.count()}

    def round_requests(
        self, inputs: Dict[str, Any], index: int, resubmits: Iterator[int]
    ) -> List[Tuple[str, str, Optional[str], Any]]:
        """Round *index* of the request sequence: ``(kind, model, id, body)``.

        Every pool request once, in a seeded order, with a resubmit of the
        next model after every ``resubmit_every - 1`` of them.  Resubmit
        *k* of the service's life (*resubmits* counts them) gets its own
        reformatting, so its raw text is new to the service and takes the
        canonicalisation path.
        """
        seed, pool, models = inputs["seed"], inputs["pool"], inputs["models"]
        order = list(range(len(pool)))
        random.Random(f"{seed}:round:{index}").shuffle(order)
        sequence: List[Tuple[str, str, Optional[str], Any]] = []
        for position, chosen in enumerate(order):
            request = pool[chosen]
            sequence.append((request["kind"], request["model"], request["id"], request["body"]))
            if position % (self.resubmit_every - 1) == self.resubmit_every - 2:
                model = models[(position // (self.resubmit_every - 1)) % len(models)]
                rng = random.Random(f"{seed}:resubmit:{next(resubmits)}")
                body = dict(model["body"], source=reformat(model["body"]["source"], rng))
                sequence.append(("resubmit", model["name"], None, body))
        return sequence

    def run(self, state, inputs, expected, seconds, tracer, tally, scratch) -> Dict[str, Any]:
        from repro.serve import ServeError
        from repro.serve.errors import error_payload

        service = state["service"]
        fingerprints = state["fingerprints"]
        latencies: List[float] = []
        by_kind: Dict[str, List[float]] = defaultdict(list)
        before = service.stats()["cache"]
        rotate = CpuRotation()
        busy = 0.0
        rounds = 0
        while busy < seconds or rounds == 0:
            round_busy = 0.0
            sequence = self.round_requests(inputs, rounds, state["resubmits"])
            gc.collect()
            for kind, model, request_id, body in sequence:
                rotate()
                tally.attempted += 1
                tracer.op = f"request:{tally.attempted}:{kind}"
                started = time.perf_counter()
                with tracer.span(f"op.request.{kind}", "client"):
                    with tracer.span("client.wire", "client"):
                        wire = json.dumps(body)
                        payload = json.loads(wire)
                    try:
                        if kind == "resubmit":
                            with tracer.span("serve.submit", "serve"):
                                response = service.submit(payload)
                        else:
                            with tracer.span("serve.simulate", "serve"):
                                response = service.simulate(fingerprints[model], payload)
                    except ServeError as error:
                        response = error_payload(error)
                    with tracer.span("client.wire", "client"):
                        text = json.dumps(response)
                        response = json.loads(text)
                elapsed = time.perf_counter() - started
                round_busy += elapsed
                latencies.append(elapsed)
                by_kind[kind].append(elapsed)
                if tracer.active:
                    tracer.count("serve.response_bytes", len(text))
                    tracer.count("serve.responses")
                self._check(kind, model, request_id, response, fingerprints, expected, tally)
            busy += round_busy
            rounds += 1
        rotate.close()
        after = service.stats()["cache"]
        if tracer.active:
            tracer.count("serve.cache_hits", after["hits"] - before["hits"])
            tracer.count("serve.cache_lookups", after["hits"] - before["hits"] + after["misses"] - before["misses"])
        return {
            "work": (len(latencies), busy),
            "latencies": latencies,
            "secondary": by_kind["resubmit"],
            "by_kind": dict(by_kind),
        }

    @staticmethod
    def _check(kind, model, request_id, response, fingerprints, expected, tally) -> None:
        from repro.serve.programs import decode_trace, decode_value

        if "error" in response:
            tally.failed += 1
            return
        if kind == "resubmit":
            if response["fingerprint"] != fingerprints[model] or not response["cached"]:
                tally.mismatch(f"resubmitted {model} did not resolve to its resident plan")
            return
        if not response["ok"]:
            tally.failed += 1
            return
        results = []
        for item in response["results"]:
            if kind == "stats":
                stats = item["stats"]
                results.append(
                    {
                        "process": stats["process"],
                        "length": stats["length"],
                        "warnings": stats["warnings"],
                        "signals": {
                            name: [
                                entry["present"],
                                entry["absent"],
                                repr(None if entry["minimum"] is None else decode_value(entry["minimum"])),
                                repr(None if entry["maximum"] is None else decode_value(entry["maximum"])),
                                entry["first_instant"],
                                entry["last_instant"],
                            ]
                            for name, entry in stats["signals"].items()
                        },
                    }
                )
            else:
                results.append(trace_key(decode_trace(item["trace"])))
        if digest(results) != expected[request_id]:
            tally.mismatch(f"request {request_id}: served results differ from the reference backend")

    def named(self, samples: Dict[str, Any]) -> Dict[str, Tuple[float, str]]:
        return {
            "serve.requests_per_s": (throughput(samples), "req/s"),
            "serve.latency_p50_ms": (median(samples["latencies"]) * 1000.0, "ms"),
            "serve.latency_p95_ms": (percentile(samples["latencies"], 0.95) * 1000.0, "ms"),
        }


WORKLOADS = {
    AnalyseCatalog.name: AnalyseCatalog,
    SimulateLong.name: SimulateLong,
    SweepFleet.name: SweepFleet,
    ServeWarm.name: ServeWarm,
}
