"""The repository benchmark: four workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; ``BENCHMARK.json`` names the
workloads and metrics, ``perfbench/map.json`` maps them to the older
``BENCH_core.json`` records.
"""
