"""The repository benchmark: fixed workloads, end-to-end and per-layer metrics.

Run ``python3 perfbench/run.py --workload <name>`` from the repository
root; ``perfbench/NOTE.md`` explains the workloads and metrics.
"""
