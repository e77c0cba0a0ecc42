"""Benchmark of the hetwishart command line: workloads, output checks, tracing."""
