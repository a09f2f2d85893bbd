"""Helpers shared by the workloads, the oracle and the tracer.

Digests turn outputs into short stable strings that the oracle files store
and the timed runs compare against.  Values are digested through ``repr``
so that a change of value *type* (``1`` against ``1.0`` or ``True``) is a
mismatch, not only a change of value.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import random
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

#: Root of the checkout (the directory holding ``src/`` and ``perfbench/``).
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: Where runs leave spans, layer tables and their scratch files.
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
#: Where the committed oracle files live.
ORACLE_DIR = os.path.join(ROOT, "perfbench", "oracles")

#: Catalog models whose threads are not rate-monotonic schedulable: scheduler
#: synthesis fails on them, so they are analysed with ``include_scheduler``
#: off, the resolution a client of the service makes after its first 422.
NOT_RM_SCHEDULABLE = frozenset(
    {"flight_management", "autobrake", "display_manager", "large_integration"}
)


def digest(value: Any) -> str:
    """A 24-hex-digit sha-256 of a JSON-able value (``repr`` for the rest)."""
    text = json.dumps(value, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:24]


def file_digest(path: str) -> str:
    """The sha-256 of a file's bytes, same width as :func:`digest`."""
    sha = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()[:24]


def statistics_key(stats: Any) -> Dict[str, Any]:
    """Canonical form of a :class:`~repro.sig.sinks.TraceStatistics`."""
    return {
        "process": stats.process_name,
        "length": stats.length,
        "warnings": list(stats.warnings),
        "signals": {
            name: [
                entry.present,
                entry.absent,
                repr(entry.minimum),
                repr(entry.maximum),
                entry.first_instant,
                entry.last_instant,
            ]
            for name, entry in stats.per_signal.items()
        },
    }


def trace_key(trace: Any) -> Dict[str, Any]:
    """Canonical form of a :class:`~repro.sig.simulator.SimulationTrace`."""
    return {
        "process": trace.process_name,
        "length": trace.length,
        "warnings": list(trace.warnings),
        "flows": {
            name: [repr(value) for value in flow.values]
            for name, flow in trace.flows.items()
        },
    }


def rows_key(rows: Iterable[Mapping[str, Any]]) -> List[Dict[str, str]]:
    """Canonical form of decoded shard rows (every cell through ``repr``)."""
    return [{column: repr(cell) for column, cell in row.items()} for row in rows]


def analysis_key(
    clock_report: Any,
    determinism: Any,
    deadlocks: Any,
    schedulability: Mapping[str, Any],
) -> Dict[str, Any]:
    """Canonical form of one model's analysis verdicts."""
    return {
        "clocks": dataclasses.asdict(clock_report),
        "determinism": [
            determinism.deterministic,
            [str(issue) for issue in determinism.issues],
        ],
        "deadlocks": [
            deadlocks.deadlock_free,
            [list(cycle) for cycle in deadlocks.cycles],
        ],
        "schedulable": {
            processor: report.schedulable
            for processor, report in sorted(schedulability.items())
        },
    }


def toolchain_analysis_digest(result: Any) -> str:
    """The analysis digest of a :class:`~repro.core.ToolchainResult`."""
    return digest(
        analysis_key(
            result.clock_report,
            result.determinism,
            result.deadlocks,
            result.schedulability,
        )
    )


def reformat(source: str, rng: random.Random) -> str:
    """Reformat AADL text without changing its structure.

    Re-indents lines and sprinkles comment and blank lines, the way two
    editors would save the same model; the parser must see the same model.
    """
    lines: List[str] = []
    for line in source.splitlines():
        roll = rng.random()
        if roll < 0.08:
            lines.append(f"-- reviewed {rng.randrange(10 ** 6)}")
        elif roll < 0.12:
            lines.append("")
        stripped = line.strip()
        if not stripped:
            lines.append("")
            continue
        indent = " " * rng.choice((0, 2, 3, 4, 8))
        trailer = f"  -- {rng.randrange(1000)}" if rng.random() < 0.05 else ""
        lines.append(indent + stripped + trailer)
    return "\n".join(lines) + "\n"


def percentile(values: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile (``fraction`` in [0, 1])."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    """The median (0.0 for no values)."""
    return percentile(values, 0.5)


def mean(values: Sequence[float]) -> float:
    """The arithmetic mean (0.0 for no values)."""
    return sum(values) / len(values) if values else 0.0


def throughput(samples: Dict[str, Any]) -> float:
    """Units of work per second over a whole run: ``samples["work"]`` is
    ``(units, seconds)``, summed over every round.

    A total, not a median over rounds: a run holds only a few rounds (two
    or three catalog passes), and a total moves smoothly with the share of
    the run a slow stretch of a shared host covered, where a median of a
    few rounds jumps.
    """
    units, seconds = samples["work"]
    return units / seconds if seconds else 0.0


def toolchain_options(entry: Any, store: Any = None) -> Any:
    """Analysis-only tool-chain options of one catalog entry."""
    from repro.core import ToolchainOptions, TranslationConfig

    return ToolchainOptions(
        root_implementation=entry.root_implementation,
        default_package=entry.default_package,
        translation=TranslationConfig(
            include_scheduler=entry.name not in NOT_RM_SCHEDULABLE
        ),
        simulate_hyperperiods=0,
        cost_model=None,
        store=store,
    )


def flat_model(name: str, source: Optional[str] = None) -> Any:
    """The analysed, flattened system model of catalog entry *name*."""
    from repro.aadl.printer import render_model
    from repro.casestudies import load_case_study
    from repro.core import run_toolchain

    entry = load_case_study(name)
    if source is None:
        source = render_model(entry.load_model())
    return run_toolchain(source, toolchain_options(entry)).flat_model


@functools.lru_cache(maxsize=None)
def input_flat_model(name: str, source: str) -> Any:
    """:func:`flat_model`, computed once per process.

    Input generation and the oracle, both in the parent process, need the
    same models' flat forms.  The timed set-up calls :func:`flat_model`
    itself, so that every set-up does the tool-chain work.
    """
    return flat_model(name, source)
