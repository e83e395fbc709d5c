"""InsightNotes reproduction: summary-based annotation management.

A from-scratch Python implementation of the InsightNotes system (Xiao,
Bashllari, Menard, Eltabakh - SIGMOD 2015 demo; engine semantics from
Xiao & Eltabakh, SIGMOD 2014): relational data annotated at cell level,
summarized per tuple by extensible Classifier / Cluster / Snippet
instances, with summary-aware query propagation, incremental maintenance,
and RCO-cached zoom-in back to the raw annotations.

Start with :class:`~repro.engine.session.InsightNotes`:

>>> from repro import InsightNotes
>>> notes = InsightNotes()
"""

from typing import TYPE_CHECKING, Any

from repro.errors import InsightNotesError
from repro.model.annotation import Annotation, AnnotationKind
from repro.model.cell import CellRef

if TYPE_CHECKING:
    from repro.engine.session import InsightNotes

__version__ = "1.0.0"

__all__ = [
    "Annotation",
    "AnnotationKind",
    "CellRef",
    "InsightNotes",
    "InsightNotesError",
    "__version__",
]


def __getattr__(name: str) -> Any:
    # The session is imported on first use, so importing a light
    # subpackage (``repro.analysis.sanitizer`` before the engine builds
    # its locks) does not drag the whole engine in.
    if name == "InsightNotes":
        from repro.engine.session import InsightNotes

        return InsightNotes
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
