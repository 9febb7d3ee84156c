"""Benchmark harness for the enumtree CLI; see run.py and README.md."""
