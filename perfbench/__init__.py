"""Benchmark of the kinkline library; see README.md."""
