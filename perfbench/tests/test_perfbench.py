"""The benchmark's own tests: every workload end to end at a tiny size,
metric names against ``BENCHMARK.json``, oracle corruption and failure
counting."""

import functools
import json
import os
import shutil
import subprocess
import sys

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if _ROOT not in sys.path:
    sys.path.insert(0, _ROOT)

from perfbench.make_oracles import generate  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.run import execute, prepare, report  # noqa: E402
from perfbench.workloads import AnalyseCatalog, ServeWarm, SimulateLong, SweepFleet  # noqa: E402

#: Tiny instances of the four workloads (one round each at ``seconds=0``).
TINY = {
    "analyse_catalog": lambda: AnalyseCatalog(models=("cruise_control", "autobrake")),
    "simulate_long": lambda: SimulateLong(horizons={"producer_consumer": 6}),
    "sweep_fleet": lambda: SweepFleet(scenarios=6, length=3, partition_size=3),
    "serve_warm": lambda: ServeWarm(variants=1),
}


def _benchmark_json():
    with open(os.path.join(_ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def _run(name, tmp_path, trace, workload=None, oracle_dir=None):
    job = prepare(
        workload or TINY[name](),
        seed=3,
        seconds=0.0,
        trace=trace,
        oracle_dir=oracle_dir or str(tmp_path / "no-oracles"),
        out_dir=str(tmp_path / "out"),
    )
    return job, execute(job)


@pytest.mark.parametrize("name", sorted(TINY))
def test_workload_runs_end_to_end_and_prints_the_declared_metrics(name, tmp_path, capsys):
    job, result = _run(name, tmp_path, trace=True)
    declared = _benchmark_json()
    for mode, listed in ((False, "end_to_end"), (True, "per_layer")):
        job.trace = mode
        final = report(job, result)
        assert final["correct"], capsys.readouterr().out
        assert final["attempted"] >= 1 and final["failed"] == 0
        printed = {name: metric["unit"] for name, metric in final["metrics"].items()}
        assert printed == {entry["name"]: entry["unit"] for entry in declared[listed]}
        assert all(isinstance(m["value"], (int, float)) for m in final["metrics"].values())
    assert result["end_to_end"]["ops_per_s"] > 0
    assert all(os.path.exists(path) for path in result["files"])
    assert result["layer_table"]["client"]["calls"] > 0


def test_benchmark_json_matches_the_metric_catalog():
    declared = _benchmark_json()
    assert [(m["name"], m["unit"], m["better"]) for m in declared["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in declared["per_layer"]] == PER_LAYER
    assert sorted(w["name"] for w in declared["workloads"]) == sorted(TINY)


def test_a_corrupted_oracle_digest_fails_the_run(tmp_path):
    oracles = str(tmp_path / "oracles")
    path = generate(TINY["sweep_fleet"](), 3, oracles)
    with open(path, encoding="utf-8") as handle:
        content = json.load(handle)
    expected = content["sweep_fleet"]["expected"]
    expected["scenarios"][1] = "0" * len(expected["scenarios"][1])
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(content, handle)

    job, result = _run("sweep_fleet", tmp_path, trace=False, oracle_dir=oracles)
    assert job.oracle_source.startswith("file")
    final = report(job, result)
    assert not final["correct"]
    assert any("scenario 1" in message for message in result["tally"].mismatches)


def test_an_unknown_fingerprint_request_counts_as_failed(tmp_path, monkeypatch):
    original = ServeWarm.setup

    def evict_one_model(self, inputs, scratch):
        # The first round resubmits only the other two models, so every
        # producer_consumer request names a fingerprint the service lost.
        state = original(self, inputs, scratch)
        state["service"].evict(state["fingerprints"]["producer_consumer"])
        return state

    monkeypatch.setattr(ServeWarm, "setup", evict_one_model)
    job, result = _run("serve_warm", tmp_path, trace=False)
    final = report(job, result)
    assert final["correct"]
    assert final["failed"] == 3  # one request of each kind
    assert final["attempted"] == 11


def test_a_crashing_sweep_scenario_counts_as_failed(tmp_path, monkeypatch):
    import repro.sweep
    from repro.sig.engine import FaultPlan, FaultSpec

    crash = FaultPlan((FaultSpec("crash", 1, attempts=None),))
    monkeypatch.setattr(
        repro.sweep, "run_sweep", functools.partial(repro.sweep.run_sweep, fault_plan=crash, retries=0)
    )
    job, result = _run("sweep_fleet", tmp_path, trace=False)
    final = report(job, result)
    assert final["correct"]
    # Batch-local scenario 1 crashes in each of the two partitions.
    assert final["failed"] == 2
    assert final["attempted"] == 6


def test_without_the_repository_the_command_fails_cleanly(tmp_path):
    shutil.copy(os.path.join(_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(_ROOT, "perfbench"), tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    command = _benchmark_json()["command"] + [
        "--workload", "sweep_fleet", "--seed", "0", "--seconds", "1", "--trace", "0",
    ]
    completed = subprocess.run(command, cwd=str(tmp_path), capture_output=True, text=True, timeout=60)
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
