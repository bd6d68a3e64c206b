"""Benchmark of the jgreens paper workloads; run ``python3 perfbench/run.py``."""
