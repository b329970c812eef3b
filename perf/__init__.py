"""Benchmark of record for the SPO-Join reproduction (see README.md)."""
