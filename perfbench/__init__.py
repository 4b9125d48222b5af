"""Seeded end-to-end benchmark of the analyzer, with a per-layer ledger.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads and every metric.
"""
