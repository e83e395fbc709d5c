"""Tests for repro.model.tuple."""

from repro.model.tuple import AnnotatedTuple
from repro.summaries.classifier import ClassifierSummary


def _tuple_with_attachments() -> AnnotatedTuple:
    return AnnotatedTuple(
        values=(1, "x", 2.5),
        attachments={
            1: frozenset({"t.a"}),
            2: frozenset({"t.a", "t.b"}),
            3: frozenset({"t.c"}),
        },
    )


class TestAnnotatedTuple:
    def test_annotation_ids(self):
        row = _tuple_with_attachments()
        assert row.annotation_ids() == frozenset({1, 2, 3})

    def test_restrict_attachments_returns_dropped(self):
        row = _tuple_with_attachments()
        dropped = row.restrict_attachments(["t.a"])
        assert dropped == {3}
        assert row.attachments == {
            1: frozenset({"t.a"}),
            2: frozenset({"t.a"}),
        }

    def test_restrict_attachments_keeps_multi_column_survivors(self):
        row = _tuple_with_attachments()
        dropped = row.restrict_attachments(["t.b", "t.c"])
        assert dropped == {1}
        assert row.attachments[2] == frozenset({"t.b"})

    def test_restrict_to_nothing_drops_all(self):
        row = _tuple_with_attachments()
        dropped = row.restrict_attachments([])
        assert dropped == {1, 2, 3}
        assert row.attachments == {}

    def test_rename_attachment_columns(self):
        row = _tuple_with_attachments()
        row.rename_attachment_columns({"t.a": "u.a"})
        assert row.attachments[1] == frozenset({"u.a"})
        assert row.attachments[2] == frozenset({"u.a", "t.b"})

    def test_total_summary_size(self):
        row = AnnotatedTuple(values=(1,))
        assert row.total_summary_size() == 0
        summary = ClassifierSummary("C", ["x"])
        summary.add(1, "x")
        row.summaries["C"] = summary
        assert row.total_summary_size() == summary.size_estimate()

    def test_source_rows_default_empty(self):
        assert AnnotatedTuple(values=()).source_rows == frozenset()


def _classified(*labels: str) -> ClassifierSummary:
    """A classifier value with annotation ``i + 1`` under ``labels[i]``."""
    summary = ClassifierSummary("C", ["x", "y"])
    for annotation_id, label in enumerate(labels, start=1):
        summary.add(annotation_id, label)
    return summary.for_query()


class TestPendingDrops:
    def test_drop_is_deferred_to_the_read(self):
        value = _classified("x", "y")
        row = AnnotatedTuple(values=(1,), summaries={"C": value})
        row.drop({1})
        assert row.summary("C").annotation_ids() == frozenset({2})
        assert value.annotation_ids() == frozenset({1, 2})

    def test_a_forced_instance_is_kept(self):
        row = AnnotatedTuple(values=(1,), summaries={"C": _classified("x", "y")})
        row.drop({1})
        assert row.summary("C") is row.summary("C")
        assert row.summaries["C"] is row.summary("C")

    def test_a_later_drop_reaches_a_forced_instance(self):
        row = AnnotatedTuple(values=(1,), summaries={"C": _classified("x", "y", "x")})
        row.drop({1})
        assert row.summary("C").annotation_ids() == frozenset({2, 3})
        row.drop({3})
        assert row.summary("C").annotation_ids() == frozenset({2})

    def test_summaries_is_a_snapshot(self):
        row = AnnotatedTuple(values=(1,), summaries={"C": _classified("x", "y")})
        row.drop({1})
        snapshot = row.summaries
        row.drop({2})
        row.summary("C")
        assert row.summaries["C"].is_empty()
        assert snapshot["C"].annotation_ids() == frozenset({2})

    def test_assigning_summaries_clears_pending(self):
        row = AnnotatedTuple(values=(1,), summaries={"C": _classified("x")})
        row.drop({1})
        replacement = _classified("x", "y")
        row.summaries = {"C": replacement}
        assert row.summary("C") is replacement

    def test_missing_instance_reads_none(self):
        row = AnnotatedTuple(values=(1,), summaries={"C": _classified("x")})
        row.drop({1})
        assert row.summary("K") is None
