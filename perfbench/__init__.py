"""Benchmark of fracvar: workloads, checks, tracer and runner (see README.md)."""
