"""Benchmark of the crowdpose-kit pipelines; see bench/README.md."""
