"""Diff two traced runs layer by layer.

Usage::

    python3 perfbench/diff_layers.py BEFORE.layers.json AFTER.layers.json

The inputs are the ``<workload>-seed<n>.layers.json`` files a
``--trace 1`` run writes under ``perfbench/out/``.  The first table
compares each layer's self time per operation and its share of the
operations' time; the second lists every per-layer metric that changed,
with its relative change.  Self time is divided by the run's operation
count because a run repeats rounds until its time is used up: a faster
layer buys more rounds, which grows every layer's total self time.
Trace the parent commit and the change on the same workload and
seed, then diff, to name the layer a change moved.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional


def _load(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def diff(before: Dict[str, Any], after: Dict[str, Any]) -> List[str]:
    """The two tables as text lines."""
    lines = [
        f"{before['workload']} seed {before['seed']} ({before['operations']} operations) -> "
        f"{after['workload']} seed {after['seed']} ({after['operations']} operations)",
        f"  {'layer':<14s} {'self ms/op':>11s} {'->':>11s} {'change':>8s} {'share':>7s} {'->':>7s}",
    ]
    for layer, old in before["layers"].items():
        new = after["layers"].get(layer, {"self_ms": 0.0, "share": 0.0})
        old_per_op = old["self_ms"] / before["operations"]
        new_per_op = new["self_ms"] / after["operations"]
        change = (new_per_op / old_per_op - 1.0) * 100.0 if old_per_op else 0.0
        lines.append(
            f"  {layer:<14s} {old_per_op:11.3f} {new_per_op:11.3f} {change:7.1f}% "
            f"{old['share'] * 100.0:6.1f}% {new['share'] * 100.0:6.1f}%"
        )
    lines.append(f"  {'metric':<44s} {'before':>12s} {'after':>12s} {'change':>8s}")
    for name, old in sorted(before["metrics"].items()):
        new = after["metrics"].get(name, 0.0)
        if new == old:
            continue
        change = f"{(new / old - 1.0) * 100.0:7.1f}%" if old else "     new"
        lines.append(f"  {name:<44s} {old:12.4g} {new:12.4g} {change}")
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    print("\n".join(diff(_load(args.before), _load(args.after))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
