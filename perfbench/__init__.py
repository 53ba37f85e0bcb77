"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run one workload with ``python3 perfbench/run.py --workload NAME``; see
``perfbench/run.py`` for the options and ``perfbench/spec.json`` for the
layer map, the held-out seed and the layers left unmeasured.
"""
