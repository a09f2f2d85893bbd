"""Regenerate the committed oracle files from the repository's oracles.

Usage (from the root of a checkout)::

    python3 perfbench/make_oracles.py                 # every workload, default seeds
    python3 perfbench/make_oracles.py --seeds 0 --workload sweep_fleet

Seed 0 is the default seed of ``run.py``; seed 7919 is held out: no tuning
of the benchmark looked at it.  Expectations come from the reference
backend and the flat clock calculus (:mod:`perfbench.oracle`), never from
the fast paths the workloads time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile
from typing import Any, List, Optional

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from perfbench import oracle  # noqa: E402
from perfbench.common import ORACLE_DIR, digest  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: The default seed and the held-out seed.
SEEDS = (0, 7919)


def generate(workload: Any, seed: int, directory: str = ORACLE_DIR) -> str:
    """Compute one workload's oracle for *seed* and store it; returns the file."""
    inputs = workload.make_inputs(seed)
    os.makedirs(directory, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=".scratch-", dir=directory)
    try:
        expected = oracle.ORACLES[workload.name](inputs, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return oracle.save(seed, workload.name, digest(workload.describe(inputs)), expected, directory)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(SEEDS))
    parser.add_argument("--workload", choices=sorted(WORKLOADS), nargs="+", default=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    for seed in args.seeds:
        for name in args.workload:
            path = generate(WORKLOADS[name](), seed)
            print(f"{name} seed {seed}: {os.path.relpath(path, _ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
