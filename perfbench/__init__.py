"""The repository's benchmark: the paper's BU-scale sweep, timed layer by layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``perfbench/README.md`` describes
the workloads, the metrics and how to compare two commits.
"""
