"""Benchmark harness for tlbt; run it with ``python3 perfbench/run.py``."""
