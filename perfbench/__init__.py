"""The repository benchmark: four seeded workloads, one traced run.

Entry point: ``python3 perfbench/run.py`` (see ``perfbench/README.md``).
"""
