"""Incremental maintenance of annotation summaries.

InsightNotes keeps summaries current under a continuous stream of new
annotations.  :class:`~repro.maintenance.incremental.SummaryManager` is the
write path used by the session facade: every annotation insert updates the
summary objects of the affected rows in place, analyzing each annotation
once per instance per batch however many tuples it is attached to
(summarize-once).  The recompute-from-scratch
baseline (:mod:`repro.maintenance.rebuild`) exists for comparison and for
bootstrapping newly linked instances.
"""

from repro.maintenance.incremental import MaintenanceStats, SummaryManager
from repro.maintenance.rebuild import RebuildMaintainer, rebuild_row, rebuild_table

__all__ = [
    "MaintenanceStats",
    "RebuildMaintainer",
    "SummaryManager",
    "rebuild_row",
    "rebuild_table",
]
