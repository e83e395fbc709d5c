"""The repository's end-to-end benchmark.

One harness, four fixed-script workloads (``lookup``, ``explore``,
``curate``, ``served``), end-to-end metrics from untraced runs and
per-layer metrics from a separate traced run.  Drives the public API
only (``InsightNotes``, ``repro.serve`` over TCP, ``repro.workloads``).
See ``README.md`` next to this file; ``BENCHMARK.json`` at the repository
root names the command, the workloads and every metric.
"""
