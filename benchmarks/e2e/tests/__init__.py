"""Self-tests of the benchmark harness: ``pytest benchmarks/e2e/tests``."""
