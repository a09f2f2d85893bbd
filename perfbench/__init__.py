"""The repository benchmark: AADL text to verdicts, traces, shards and
served responses, measured end to end and layer by layer.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``RATIONALE.md`` explains the workloads and metrics.
"""
