"""Checks of the engine's invariants.

* :mod:`repro.analysis.lint` — insightlint, the static checker of the
  concurrency, SQL-safety and summary-value disciplines (DESIGN.md §10);
* :mod:`repro.analysis.sanitizer` — insightsan, the runtime lock-order
  and blocking-under-lock checker (DESIGN.md §15).
"""
