"""The repository benchmark: workloads, tracing and comparison (see README.md)."""
