"""The repository benchmark: four workloads measured from outside the program.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in a fresh process and prints one JSON
result line; ``--workload all`` runs every workload and prints a table.
See ``perfbench/README.md`` for the workloads and metrics.
"""
