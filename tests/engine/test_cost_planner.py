"""Tests for planning rules, statistics, the cost model and EXPLAIN.

Covers the surfaces of DESIGN.md §13:

* catalog statistics — ``analyze()`` collection into memory and
  execution feedback (nothing is persisted, no write path updates them);
* the cost model — stats-driven cardinality estimates, which price
  plans and decide nothing: planning never calls it;
* the rules — joins in FROM order, storage-side aggregation pushdown
  (and its safety gates), and the hydrate split — each pinned to answer
  like the un-rewritten plan under raw propagation
  (:mod:`tests.raw_oracle`);
* EXPLAIN — the costed text rendering and its ``to_json`` form;
* staleness — plans stay valid with no or stale statistics, and a file
  that still holds the ``_in_planner_stats`` table older releases wrote
  opens, queries and explains.
"""

import sqlite3

from repro.engine import plan as lp
from repro.engine.cost import CostModel
from repro.engine.explain import Explanation
from repro.engine.session import InsightNotes
from repro.engine.sqlparser import build_logical, parse_sql
from tests.raw_oracle import RawOracle


def make_star_session() -> InsightNotes:
    """Two dimensions and a fact table, dimensions annotated."""
    notes = InsightNotes()
    notes.create_table("suppliers", ["sname", "region"])
    notes.create_table("parts", ["pname", "kind"])
    notes.create_table("orders", ["supplier", "part", "qty"])
    supplier_ids = notes.insert_many(
        "suppliers", [(f"s{i}", f"r{i % 3}") for i in range(12)]
    )
    notes.insert_many("parts", [(f"p{i}", f"k{i % 2}") for i in range(8)])
    notes.insert_many(
        "orders",
        [(f"s{i % 12}", f"p{i % 8}", i * 7 % 100) for i in range(60)],
    )
    notes.define_classifier(
        "DimClass",
        labels=["Behavior", "Other"],
        training=[("observed feeding near the shore", "Behavior")],
    )
    notes.link("DimClass", "suppliers")
    for row_id in supplier_ids[:4]:
        notes.add_annotation(
            "observed feeding near the shore",
            table="suppliers",
            row_id=row_id,
        )
    notes.analyze()
    return notes


STAR_SQL = (
    "SELECT s.sname, p.pname, o.qty FROM suppliers s, parts p, orders o "
    "WHERE s.sname = o.supplier AND p.pname = o.part AND o.qty > 80"
)


def find_nodes(root, node_type):
    found = []

    def walk(node):
        if isinstance(node, node_type):
            found.append(node)
        for child in node.children():
            walk(child)

    walk(root)
    return found


class TestCatalogStatistics:
    def test_analyze_collects_per_table_stats(self):
        with make_star_session() as notes:
            digest = notes.analyze("suppliers")["suppliers"]
            assert digest["row_count"] == 12
            assert digest["columns_analyzed"] == 2
            assert digest["summary_instances"] == 1
            # Whole-row annotations on 4 suppliers, 2 columns each.
            assert digest["annotations"] == 8

    def test_row_count_tracks_incremental_changes(self):
        # No write path updates the registry: an insert shows up once the
        # next full scan feeds the true count back.
        with make_star_session() as notes:
            assert notes.stats_registry.table_stats("orders").row_count == 60
            notes.insert("orders", ("s0", "p0", 1))
            assert notes.stats_registry.table_stats("orders").row_count == 60
            notes.query("SELECT qty FROM orders")
            assert notes.stats_registry.table_stats("orders").row_count == 61

    def test_execution_feedback_updates_row_count(self):
        with InsightNotes() as notes:
            notes.create_table("t", ["a"])
            notes.insert_many("t", [(i,) for i in range(7)])
            # Never analyzed: the first full scan teaches the registry
            # the true cardinality.
            notes.query("SELECT a FROM t")
            stats = notes.stats_registry.table_stats("t")
            assert stats.row_count == 7
            freshness = notes.statistics()["planner"]["stats"]
            assert freshness["feedback_updates"] >= 1


class TestCostModel:
    def test_scan_estimate_uses_row_count(self):
        with make_star_session() as notes:
            model = notes.planner.cost_model
            orders = model.estimate(lp.Scan("orders", "o"))
            parts = model.estimate(lp.Scan("parts", "p"))
            assert orders.rows == 60
            assert parts.rows == 8
            assert orders.cost > parts.cost

    def test_storage_filter_reduces_estimate(self):
        with make_star_session() as notes:
            model = notes.planner.cost_model
            full = model.estimate(lp.Scan("orders", "o"))
            filtered = model.estimate(
                lp.Scan("orders", "o", storage_filter=object())
            )
            assert filtered.rows < full.rows

    def test_hydration_cost_scales_with_summary_stats(self):
        with make_star_session() as notes:
            model = notes.planner.cost_model
            annotated = model.hydration_cost_per_row("suppliers", None)
            bare = model.hydration_cost_per_row("parts", None)
            assert annotated > bare

    def test_defaults_without_statistics(self):
        with InsightNotes() as notes:
            model = CostModel(None, notes.planner.schema_of)
            estimate = model.estimate(lp.Scan("anything", "a"))
            assert estimate.rows == CostModel.DEFAULT_ROWS


class TestJoinsInFromOrder:
    def test_star_join_answers_in_from_order(self):
        with make_star_session() as notes:
            result = notes.query(STAR_SQL)
            RawOracle(notes).check(result, STAR_SQL, ordered=False)

    def test_from_order_keeps_output_schema(self):
        with make_star_session() as notes:
            result = notes.query(STAR_SQL)
            assert result.columns == ("s.sname", "p.pname", "o.qty")

    def test_outer_join_answers_in_from_order(self):
        sql = (
            "SELECT s.sname, o.qty FROM suppliers s "
            "LEFT JOIN orders o ON s.sname = o.supplier"
        )
        with make_star_session() as notes:
            RawOracle(notes).check(notes.query(sql), sql, ordered=False)


class TestAggregatePushdown:
    def build(self) -> InsightNotes:
        notes = InsightNotes()
        notes.create_table("readings", ["region", "value"])
        notes.insert_many(
            "readings", [(f"r{i % 4}", i * 3 % 50) for i in range(40)]
        )
        notes.analyze()
        return notes

    def test_group_by_lowers_to_storage(self):
        with self.build() as notes:
            sql = (
                "SELECT region, count(*), sum(value) FROM readings "
                "GROUP BY region"
            )
            explanation = notes.explain(sql)
            nodes = find_nodes(explanation.plan, lp.StorageAggregate)
            assert len(nodes) == 1 and not nodes[0].distinct
            RawOracle(notes).check(notes.query(sql), sql)

    def test_group_by_with_having(self):
        sql = (
            "SELECT region, count(*) FROM readings "
            "GROUP BY region HAVING count(*) > 8"
        )
        with self.build() as notes:
            RawOracle(notes).check(notes.query(sql), sql)

    def test_global_aggregate_on_empty_table(self):
        with InsightNotes() as notes:
            notes.create_table("empty", ["a"])
            notes.analyze()
            result = notes.query("SELECT count(*), min(a) FROM empty")
            assert result.rows() == [(0, None)]

    def test_distinct_lowers_to_storage(self):
        with self.build() as notes:
            sql = "SELECT DISTINCT region FROM readings"
            nodes = find_nodes(notes.explain(sql).plan, lp.StorageAggregate)
            assert len(nodes) == 1 and nodes[0].distinct
            RawOracle(notes).check(notes.query(sql), sql)

    def test_pushdown_keeps_first_seen_group_order(self):
        with self.build() as notes:
            sql = "SELECT region, count(*) FROM readings GROUP BY region"
            # Order, not just content: GroupByOperator emits groups in
            # first-seen order and the storage path must reproduce it.
            RawOracle(notes).check(notes.query(sql), sql)

    def test_annotated_table_is_not_lowered(self):
        with make_star_session() as notes:
            explanation = notes.explain(
                "SELECT region, count(*) FROM suppliers GROUP BY region"
            )
            assert not find_nodes(explanation.plan, lp.StorageAggregate)

    def test_sharded_backend_is_not_lowered(self, tmp_path):
        path = str(tmp_path / "sharded.db")
        with InsightNotes(path, shards=4) as notes:
            notes.create_table("readings", ["region", "value"])
            notes.insert_many(
                "readings", [(f"r{i % 4}", i) for i in range(40)]
            )
            notes.analyze()
            sql = "SELECT region, count(*) FROM readings GROUP BY region"
            explanation = notes.explain(sql)
            assert not find_nodes(explanation.plan, lp.StorageAggregate)
            assert sorted(notes.query(sql).rows()) == sorted(
                (f"r{i}", 10) for i in range(4)
            )

    def test_provenance_survives_pushdown(self):
        with self.build() as notes:
            result = notes.query(
                "SELECT region, count(*) FROM readings GROUP BY region"
            )
            source_tables = {
                table
                for row in result.tuples
                for table, _ in row.source_rows
            }
            assert source_tables == {"readings"}
            assert (
                sum(len(row.source_rows) for row in result.tuples) == 40
            )


class TestHydratePlacement:
    def build(self) -> InsightNotes:
        notes = InsightNotes()
        notes.create_table("obs", ["value", "cutoff"])
        ids = notes.insert_many("obs", [(i, 4) for i in range(30)])
        notes.define_classifier(
            "ObsClass",
            labels=["A", "B"],
            training=[("alpha beta", "A")],
        )
        notes.link("ObsClass", "obs")
        notes.add_annotations(
            [
                {"text": f"alpha note {i}", "table": "obs", "row_id": row_id}
                for i, row_id in enumerate(ids)
            ]
        )
        notes.analyze()
        return notes

    #: value < cutoff is column-vs-column — not sargable — and the
    #: summary conjunct needs hydrated rows: the exact split shape.
    SQL = (
        "SELECT value FROM obs WHERE value < cutoff "
        "AND SUMMARY_COUNT('ObsClass') >= 0"
    )

    def test_split_hydrates_only_surviving_rows(self):
        with self.build() as notes:
            result = notes.query(self.SQL)
            assert len(result.rows()) == 4
            assert result.stats.rows_scanned == 30
            assert result.stats.rows_hydrated == 4
            # The value conjunct filters plain tuples below the Hydrate;
            # the summary conjunct runs above it.
            plan = notes.explain(self.SQL).plan
            upper, lower = find_nodes(plan, lp.Select)
            assert isinstance(upper.child, lp.Hydrate)
            assert upper.child.child is lower

    def test_summaries_identical_after_split(self):
        with self.build() as notes:
            result = notes.query(self.SQL)
            assert set(result.tuples[0].summaries) == {"ObsClass"}
            RawOracle(notes).check(result, self.SQL)


class TestPlanningIsCostFree:
    """``prepare()`` applies rules: it never asks the cost model."""

    @staticmethod
    def prepare(notes, sql, monkeypatch):
        """Prepare ``sql``; return the plan and the estimate calls made."""
        calls = []
        estimate = CostModel.estimate

        def counting(model, root):
            calls.append(root)
            return estimate(model, root)

        logical = build_logical(parse_sql(sql), notes.planner)
        with monkeypatch.context() as patch:
            patch.setattr(CostModel, "estimate", counting)
            prepared = notes.planner.prepare(logical)
        return prepared, calls

    def test_three_way_join(self, monkeypatch):
        with make_star_session() as notes:
            plan, calls = self.prepare(notes, STAR_SQL, monkeypatch)
            assert calls == []
            assert len(find_nodes(plan, lp.Join)) == 2

    def test_mixed_residual_selection(self, monkeypatch):
        case = TestHydratePlacement()
        with case.build() as notes:
            plan, calls = self.prepare(notes, case.SQL, monkeypatch)
            assert calls == []
            upper, lower = find_nodes(plan, lp.Select)
            assert isinstance(upper.child, lp.Hydrate)
            assert upper.child.child is lower

    def test_group_by_on_summary_free_table(self, monkeypatch):
        with TestAggregatePushdown().build() as notes:
            plan, calls = self.prepare(
                notes,
                "SELECT region, count(*) FROM readings GROUP BY region",
                monkeypatch,
            )
            assert calls == []
            assert find_nodes(plan, lp.StorageAggregate)


class TestExplain:
    def test_explain_is_str_with_estimates(self):
        with make_star_session() as notes:
            explanation = notes.explain(STAR_SQL)
            assert isinstance(explanation, Explanation)
            assert isinstance(explanation, str)
            for line in explanation.splitlines():
                assert "rows~" in line and "cost~" in line

    def test_explain_json_shape(self):
        with make_star_session() as notes:
            tree = notes.explain(
                "SELECT sname FROM suppliers WHERE region = 'r1'"
            ).to_json()
            assert set(tree) == {
                "operator",
                "describe",
                "estimated_rows",
                "estimated_cost",
                "children",
            }
            assert tree["estimated_cost"] > 0
            leaves = [tree]
            while leaves[-1]["children"]:
                leaves.append(leaves[-1]["children"][0])
            assert leaves[-1]["operator"] == "Scan"

    def test_explain_root_cost_covers_whole_plan(self):
        with make_star_session() as notes:
            explanation = notes.explain(STAR_SQL)
            root = explanation.estimate_for(explanation.plan)
            for child in explanation.plan.children():
                assert root.cost >= explanation.estimate_for(child).cost

    def test_explain_matches_executed_semantics(self):
        # EXPLAIN must go through exactly the prepare() path queries
        # use, so a rewritten plan is what the rendering shows.
        with make_star_session() as notes:
            explanation = notes.explain(
                "SELECT kind, count(*) FROM parts GROUP BY kind"
            )
            assert find_nodes(explanation.plan, lp.StorageAggregate)


class TestStaleness:
    def test_plans_valid_with_no_statistics(self):
        # Never-analyzed session: every rewrite must fall back to
        # defaults/stubs without error and keep answers right.
        with InsightNotes() as notes:
            notes.create_table("a", ["x"])
            notes.create_table("b", ["y"])
            notes.insert_many("a", [(i,) for i in range(5)])
            notes.insert_many("b", [(i,) for i in range(5)])
            result = notes.query(
                "SELECT a.x, b.y FROM a, b WHERE a.x = b.y"
            )
            assert len(result.rows()) == 5

    def test_plans_valid_with_stale_statistics(self):
        with InsightNotes() as notes:
            notes.create_table("t", ["v"])
            notes.insert_many("t", [(i,) for i in range(4)])
            notes.analyze()
            # The table grows 25x after ANALYZE; plans must stay
            # correct (if not optimal) on badly stale stats.
            notes.insert_many("t", [(i,) for i in range(4, 100)])
            result = notes.query("SELECT v, count(*) FROM t GROUP BY v")
            assert len(result.rows()) == 100

    def test_persisted_stats_for_dropped_table_are_harmless(self, tmp_path):
        path = str(tmp_path / "dropped.db")
        with InsightNotes(path) as notes:
            notes.create_table("t", ["v"])
            notes.insert("t", (1,))
            fresh_explain = str(notes.explain("SELECT v FROM t"))
        # Older releases persisted statistics in this table, here with
        # rows for ``t`` and for a table dropped out-of-band.
        legacy = sqlite3.connect(path)
        with legacy:
            legacy.execute(
                "CREATE TABLE _in_planner_stats (table_name TEXT NOT NULL, "
                "stat_key TEXT NOT NULL, stat_value REAL NOT NULL, "
                "PRIMARY KEY (table_name, stat_key))"
            )
            legacy.executemany(
                "INSERT INTO _in_planner_stats VALUES (?, ?, ?)",
                [("t", "row_count", 5e6), ("ghost", "row_count", 1e9)],
            )
        legacy.close()
        with InsightNotes(path) as reopened:
            assert reopened.db.tables() == ["t"]
            assert reopened.query("SELECT v FROM t").rows() == [(1,)]
            # The stale rows are never read: estimates come from the live
            # table, exactly as on a file without them.
            assert str(reopened.explain("SELECT v FROM t")) == fresh_explain
