"""Layered benchmark for expsumlab: seeded workloads, correctness oracles and
a traced per-layer run.  Entry point: ``python3 perfbench/run.py``."""
