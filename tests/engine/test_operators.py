"""Tests for repro.engine.operators — the summary-aware algebra."""

import pytest

from repro import InsightNotes
from repro.engine.expressions import Column, Comparison, Literal
from repro.engine.operators import (
    DistinctOperator,
    GroupByOperator,
    HydrateOperator,
    JoinOperator,
    LimitOperator,
    ProjectOperator,
    ScanOperator,
    SelectOperator,
    SortOperator,
    Tracer,
    UnionOperator,
    merge_attachments,
    merge_summary_maps,
)
from repro.engine.plan import Aggregate
from repro.errors import PlanError
from repro.summaries.classifier import ClassifierSummary
from tests.conftest import TRAINING


@pytest.fixture
def stack():
    notes = InsightNotes()
    notes.create_table("R", ["a", "b", "c"])
    notes.create_table("S", ["x", "z"])
    notes.insert("R", (1, 2, "keep"))
    notes.insert("R", (1, 3, "other"))
    notes.insert("R", (4, 2, "third"))
    notes.insert("S", (1, "z1"))
    notes.insert("S", (4, "z4"))
    notes.define_classifier("C", ["Behavior", "Disease"], TRAINING)
    notes.link("C", "R")
    notes.link("C", "S")
    # Row 1 of R: one Behavior annotation on column a, one Disease on c.
    notes.add_annotation("observed feeding on stonewort",
                         table="R", row_id=1, columns=["a"])
    notes.add_annotation("shows symptoms of avian influenza",
                         table="R", row_id=1, columns=["c"])
    # Row 1 of S: one Behavior annotation on x.
    notes.add_annotation("seen foraging among pond weeds",
                         table="S", row_id=1, columns=["x"])
    yield notes
    notes.close()


def scan(notes, table, alias=None, tracer=None):
    """A hydrated scan: value-only ScanOperator + HydrateOperator on top."""
    base = ScanOperator(notes.db, table, alias or table, tracer=tracer)
    return HydrateOperator(
        base, notes.manager, table, alias or table, tracer=tracer,
    )


class TestScan:
    def test_schema_is_alias_qualified(self, stack):
        operator = scan(stack, "R", "r")
        assert operator.schema == ("r.a", "r.b", "r.c")

    def test_rows_carry_summaries_and_attachments(self, stack):
        rows = list(scan(stack, "R", "r"))
        assert len(rows) == 3
        first = rows[0]
        assert first.summaries["C"].count("Behavior") == 1
        assert first.summaries["C"].count("Disease") == 1
        assert set(first.attachments.values()) == {
            frozenset({"r.a"}), frozenset({"r.c"}),
        }
        assert first.source_rows == frozenset({("R", 1)})

    def test_unannotated_rows_get_empty_summaries(self, stack):
        rows = list(scan(stack, "R", "r"))
        assert rows[1].summaries["C"].is_empty()
        assert rows[1].attachments == {}

    def test_scan_strips_heavy_cluster_state(self, stack):
        stack.define_cluster("Cl", threshold=0.3)
        stack.link("Cl", "R")
        rows = list(scan(stack, "R", "r"))
        cluster = rows[0].summaries["Cl"]
        assert all(group.vectors is None for group in cluster.groups)


class TestSelect:
    def test_filters_without_touching_summaries(self, stack):
        child = scan(stack, "R", "r")
        predicate = Comparison("=", Column("r.b"), Literal(2))
        rows = list(SelectOperator(child, predicate))
        assert [row.values for row in rows] == [(1, 2, "keep"), (4, 2, "third")]
        assert rows[0].summaries["C"].count("Disease") == 1  # unchanged


class TestProject:
    def test_keeps_columns_in_requested_order(self, stack):
        operator = ProjectOperator(scan(stack, "R", "r"), ["r.b", "r.a"])
        assert operator.schema == ("r.b", "r.a")
        assert list(operator)[0].values == (2, 1)

    def test_removes_dropped_annotation_effects(self, stack):
        # Dropping column c must remove the Disease annotation's effect.
        rows = list(ProjectOperator(scan(stack, "R", "r"), ["r.a", "r.b"]))
        summary = rows[0].summaries["C"]
        assert summary.count("Behavior") == 1
        assert summary.count("Disease") == 0

    def test_keeps_annotations_spanning_kept_columns(self, stack):
        stack.add_annotation(
            "spotted diving for small insects",
            table="R", row_id=2, columns=["a", "c"],
        )
        rows = list(ProjectOperator(scan(stack, "R", "r"), ["r.a"]))
        assert rows[1].summaries["C"].count("Behavior") == 1

    def test_duplicate_columns_rejected(self, stack):
        with pytest.raises(PlanError, match="duplicate"):
            ProjectOperator(scan(stack, "R", "r"), ["r.a", "a"])


class TestJoin:
    def _join(self, stack):
        predicate = Comparison("=", Column("r.a"), Column("s.x"))
        return JoinOperator(scan(stack, "R", "r"), scan(stack, "S", "s"), predicate)

    def test_hash_join_matches(self, stack):
        rows = list(self._join(stack))
        assert sorted(row.values for row in rows) == [
            (1, 2, "keep", 1, "z1"),
            (1, 3, "other", 1, "z1"),
            (4, 2, "third", 4, "z4"),
        ]

    def test_merges_counterpart_summaries(self, stack):
        rows = list(self._join(stack))
        first = next(row for row in rows if row.values[:2] == (1, 2))
        # R row 1 contributes Behavior+Disease, S row 1 contributes Behavior.
        assert first.summaries["C"].count("Behavior") == 2
        assert first.summaries["C"].count("Disease") == 1

    def test_join_does_not_double_count_shared_annotation(self, stack):
        from repro.model.cell import CellRef

        stack.add_annotation(
            "watched chasing grass shoots",
            cells=[CellRef("R", 3, "a"), CellRef("S", 2, "x")],
        )
        rows = list(self._join(stack))
        third = next(row for row in rows if row.values[0] == 4)
        assert third.summaries["C"].count("Behavior") == 1

    def test_equi_join_spreads_attachments_to_equivalent_column(self, stack):
        rows = list(self._join(stack))
        first = next(row for row in rows if row.values[:2] == (1, 2))
        behavior_on_s = {i for i, cols in first.attachments.items() if "s.x" in cols}
        behavior_on_r = {i for i, cols in first.attachments.items() if "r.a" in cols}
        # The S annotation also covers r.a now (and vice versa).
        assert behavior_on_s == behavior_on_r

    def test_cross_join_without_predicate(self, stack):
        operator = JoinOperator(scan(stack, "R", "r"), scan(stack, "S", "s"), None)
        assert len(list(operator)) == 6

    def test_theta_join_nested_loop(self, stack):
        predicate = Comparison("<", Column("r.a"), Column("s.x"))
        operator = JoinOperator(
            scan(stack, "R", "r"), scan(stack, "S", "s"), predicate
        )
        assert all(row.values[0] < row.values[3] for row in operator)

    def test_overlapping_schemas_rejected(self, stack):
        with pytest.raises(PlanError, match="share columns"):
            JoinOperator(scan(stack, "R", "r"), scan(stack, "R", "r"), None)

    def test_null_keys_never_match(self, stack):
        stack.insert("R", (None, 9, "nul"))
        rows = list(self._join(stack))
        assert all(row.values[0] is not None for row in rows)


class TestGroupBy:
    def test_aggregates(self, stack):
        operator = GroupByOperator(
            scan(stack, "R", "r"),
            keys=["r.b"],
            aggregates=[Aggregate("count", None), Aggregate("sum", Column("r.a"))],
        )
        assert operator.schema == ("r.b", "count(*)", "sum(r.a)")
        results = {row.values[0]: row.values[1:] for row in operator}
        assert results[2] == (2, 5)
        assert results[3] == (1, 1)

    def test_merges_group_member_summaries(self, stack):
        stack.add_annotation("seen foraging near shore",
                             table="R", row_id=3, columns=["b"])
        operator = GroupByOperator(
            scan(stack, "R", "r"), keys=["r.b"],
            aggregates=[Aggregate("count", None)],
        )
        by_key = {row.values[0]: row for row in operator}
        # b=2 group contains R rows 1 and 3; row 1 has a Behavior note on a
        # (dropped: a is not key/agg) and row 3 one on b (kept).
        assert by_key[2].summaries["C"].count("Behavior") == 1

    def test_aggregate_argument_annotations_survive(self, stack):
        operator = GroupByOperator(
            scan(stack, "R", "r"), keys=["r.b"],
            aggregates=[Aggregate("sum", Column("r.a"))],
        )
        by_key = {row.values[0]: row for row in operator}
        # The Behavior annotation on r.a maps to output column sum(r.a).
        assert by_key[2].summaries["C"].count("Behavior") == 1
        annotation_id = next(iter(by_key[2].attachments))
        assert by_key[2].attachments[annotation_id] == frozenset({"sum(r.a)"})

    def test_having_filters_groups(self, stack):
        operator = GroupByOperator(
            scan(stack, "R", "r"), keys=["r.b"],
            aggregates=[Aggregate("count", None)],
            having=Comparison(">", Column("count(*)"), Literal(1)),
        )
        assert [row.values for row in operator] == [(2, 2)]

    def test_count_column_skips_nulls(self, stack):
        stack.insert("R", (None, 7, "x"))
        operator = GroupByOperator(
            scan(stack, "R", "r"), keys=["r.b"],
            aggregates=[Aggregate("count", Column("r.a"))],
        )
        by_key = {row.values[0]: row.values[1] for row in operator}
        assert by_key[7] == 0

    def test_avg_and_min_max(self, stack):
        operator = GroupByOperator(
            scan(stack, "R", "r"), keys=[],
            aggregates=[
                Aggregate("avg", Column("r.a")),
                Aggregate("min", Column("r.a")),
                Aggregate("max", Column("r.a")),
            ],
        )
        (row,) = list(operator)
        assert row.values == (2.0, 1, 4)


    def test_each_instance_merges_once_per_output_row(self, monkeypatch):
        # Twelve rows in three groups of four, every row annotated under
        # three instances: the group-by makes one k-way merge call per
        # instance per output row, not one pairwise call per member.
        from repro.summaries.cluster import ClusterSummary
        from repro.summaries.snippet import SnippetSummary

        calls: list[tuple[str, int]] = []

        def spy(cls):
            merge = cls.merge

            def counted(self, *others):
                calls.append((self.instance_name, len(others)))
                return merge(self, *others)

            monkeypatch.setattr(cls, "merge", counted)

        with InsightNotes() as notes:
            notes.create_table("R", ["k", "v"])
            notes.define_classifier("C", ["Behavior", "Disease"], TRAINING)
            notes.define_cluster("K")
            notes.define_snippet("S")
            for name in ("C", "K", "S"):
                notes.link(name, "R")
            for row_id in range(1, 13):
                notes.insert("R", (row_id % 3, row_id))
                notes.add_annotation(
                    f"observed feeding on stonewort, visit {row_id}",
                    table="R", row_id=row_id, columns=["k"],
                )
            for cls in (ClassifierSummary, ClusterSummary, SnippetSummary):
                spy(cls)
            rows = list(
                GroupByOperator(
                    scan(notes, "R", "r"), keys=["r.k"],
                    aggregates=[Aggregate("count", None)],
                )
            )
        assert [row.values[1] for row in rows] == [4, 4, 4]
        assert sorted(calls) == [(name, 3) for name in "CKS" for _ in range(3)]
        for row in rows:
            assert row.summaries["C"].count("Behavior") + row.summaries[
                "C"
            ].count("Disease") == 4
            assert sum(row.summaries["K"].group_sizes()) == 4


class TestDistinct:
    def test_merges_duplicate_summaries(self, stack):
        projected = ProjectOperator(scan(stack, "R", "r"), ["r.a"])
        rows = list(DistinctOperator(projected))
        values = sorted(row.values for row in rows)
        assert values == [(1,), (4,)]
        merged = next(row for row in rows if row.values == (1,))
        # Rows 1 and 2 of R both have a=1; row 1's Behavior note survives.
        assert merged.summaries["C"].count("Behavior") == 1


    def test_duplicates_merge_once_per_output_row(self, stack, monkeypatch):
        stack.insert("R", (1, 9, "again"))
        stack.add_annotation("observed nesting by the reeds",
                             table="R", row_id=4, columns=["a"])
        calls: list[int] = []
        merge = ClassifierSummary.merge

        def counted(self, *others):
            calls.append(len(others))
            return merge(self, *others)

        monkeypatch.setattr(ClassifierSummary, "merge", counted)
        projected = ProjectOperator(scan(stack, "R", "r"), ["r.a"])
        rows = list(DistinctOperator(projected))
        assert sorted(row.values for row in rows) == [(1,), (4,)]
        # Rows 1, 2 and 4 share a=1: one merge of three objects.
        assert calls == [2]
        merged = next(row for row in rows if row.values == (1,))
        assert merged.summaries["C"].count("Behavior") == 2


class TestSortLimitUnion:
    def test_sort_descending(self, stack):
        operator = SortOperator(
            scan(stack, "R", "r"), [Column("r.b")], [True]
        )
        assert [row.values[1] for row in operator] == [3, 2, 2]

    def test_sort_nulls_first_ascending(self, stack):
        stack.insert("R", (None, 0, "n"))
        operator = SortOperator(scan(stack, "R", "r"), [Column("r.a")])
        assert list(operator)[0].values[0] is None

    def test_limit(self, stack):
        operator = LimitOperator(scan(stack, "R", "r"), 2)
        assert len(list(operator)) == 2

    def test_union_concatenates(self, stack):
        left = ProjectOperator(scan(stack, "R", "r"), ["r.a"])
        right = ProjectOperator(scan(stack, "S", "s"), ["s.x"])
        operator = UnionOperator(left, right)
        assert len(list(operator)) == 5
        assert operator.schema == ("r.a",)

    def test_union_arity_mismatch(self, stack):
        with pytest.raises(PlanError, match="arity"):
            UnionOperator(scan(stack, "R", "r"), scan(stack, "S", "s"))

    def test_union_renames_right_attachments(self, stack):
        left = ProjectOperator(scan(stack, "S", "s"), ["s.x"])
        right = ProjectOperator(scan(stack, "R", "r"), ["r.a"])
        rows = list(UnionOperator(left, right))
        for row in rows:
            for columns in row.attachments.values():
                assert columns <= {"s.x"}


class TestTracer:
    def test_records_per_operator(self, stack):
        tracer = Tracer()
        child = scan(stack, "R", "r", tracer=tracer)
        predicate = Comparison("=", Column("r.b"), Literal(2))
        operator = SelectOperator(child, predicate, tracer=tracer)
        list(operator)
        grouped = tracer.by_operator()
        assert len(grouped["Scan(R AS r)"]) == 3
        assert len(grouped["Select(r.b = 2)"]) == 2

    def test_entries_include_summary_renderings(self, stack):
        tracer = Tracer()
        list(scan(stack, "R", "r", tracer=tracer))
        entry = next(
            e for e in tracer.entries if e.operator.startswith("Hydrate")
        )
        assert "C" in entry.summaries
        assert entry.summaries["C"].startswith("C [")


class TestMergeHelpers:
    def test_merge_summary_maps_one_sided(self):
        left_summary = ClassifierSummary("L", ["a"])
        left_summary.add(1, "a")
        view = left_summary.for_query()
        merged = merge_summary_maps({"L": view}, {})
        assert merged["L"] is view  # a value passes through uncopied
        left_summary.add(2, "a")
        assert merged["L"].count("a") == 1

    def test_merge_attachments_unions_columns(self):
        merged = merge_attachments(
            {1: frozenset({"a"})}, {1: frozenset({"b"}), 2: frozenset({"c"})}
        )
        assert merged == {1: frozenset({"a", "b"}), 2: frozenset({"c"})}
