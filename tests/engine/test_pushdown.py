"""Predicate/limit pushdown and lazy hydration.

Three layers of coverage: the sargable compiler
(:func:`repro.engine.pushdown.compile_conjuncts`) in isolation, the
planner's Hydrate-placement and LIMIT-sinking rewrites on plan shapes,
and end-to-end execution — counters on the query result, storage
statement budgets, and the values-only subquery fast path.
"""

import pytest

from repro import InsightNotes
from repro.engine import plan as lp
from repro.engine.expressions import (
    BooleanOp,
    Column,
    Comparison,
    InList,
    IsNull,
    Like,
    Literal,
    Not,
    SummaryCount,
    uses_summaries,
)
from repro.engine.operators import HydrateOperator, ScanOperator
from repro.engine.pushdown import StorageFilter, compile_conjuncts
from repro.engine.sqlparser import build_logical, parse_sql
from tests.raw_oracle import RawOracle

SCHEMA = ("birds.name", "birds.species", "birds.weight")
COLUMNS = ("name", "species", "weight")


def compile_one(expr):
    return compile_conjuncts([expr], SCHEMA, COLUMNS)


class TestCompiler:
    def test_column_op_literal_is_pushed(self):
        pushed, residual = compile_one(
            Comparison(">", Column("weight"), Literal(5.0))
        )
        assert residual == []
        assert pushed.sql == '"weight" > ?'
        assert pushed.params == (5.0,)
        assert pushed.display == "weight > 5.0"

    def test_literal_op_column_is_pushed(self):
        pushed, residual = compile_one(
            Comparison("<", Literal(5), Column("weight"))
        )
        assert residual == []
        assert pushed.sql == '? < "weight"'
        assert pushed.params == (5,)

    def test_qualified_column_resolves_to_storage_name(self):
        pushed, _ = compile_one(
            Comparison("=", Column("birds.name"), Literal("Swan Goose"))
        )
        assert pushed.sql == '"name" = ?'

    def test_in_list_is_pushed(self):
        pushed, residual = compile_one(
            InList(Column("species"), ("a", "b"))
        )
        assert residual == []
        assert pushed.sql == '"species" IN (?, ?)'
        assert pushed.params == ("a", "b")

    def test_in_list_with_null_element_stays_residual(self):
        # Python's ``None in (None,)`` is true; SQLite's ``x IN (NULL)``
        # never is.  Pushing would silently drop rows.
        expr = InList(Column("species"), ("a", None))
        pushed, residual = compile_one(expr)
        assert pushed is None
        assert residual == [expr]

    def test_empty_in_list_stays_residual(self):
        expr = InList(Column("species"), ())
        assert compile_one(expr) == (None, [expr])

    def test_is_null_and_is_not_null_are_pushed(self):
        pushed, _ = compile_one(IsNull(Column("weight")))
        assert pushed.sql == '"weight" IS NULL'
        assert pushed.params == ()
        pushed, _ = compile_one(IsNull(Column("weight"), negated=True))
        assert pushed.sql == '"weight" IS NOT NULL'

    def test_not_stays_residual(self):
        # Engine NOT(x = 5) keeps NULL rows; SQLite filters them out.
        expr = Not(Comparison("=", Column("weight"), Literal(5)))
        assert compile_one(expr) == (None, [expr])

    def test_like_stays_residual(self):
        # Engine LIKE is case-insensitive over full Unicode; SQLite's
        # only folds ASCII.
        expr = Like(Column("name"), "swan%")
        assert compile_one(expr) == (None, [expr])

    def test_column_vs_column_stays_residual(self):
        expr = Comparison("=", Column("name"), Column("species"))
        assert compile_one(expr) == (None, [expr])

    def test_summary_function_stays_residual(self):
        expr = Comparison(">", SummaryCount("BirdClass", "Disease"), Literal(1))
        assert compile_one(expr) == (None, [expr])

    def test_unknown_column_stays_residual(self):
        expr = Comparison("=", Column("wingspan"), Literal(1))
        assert compile_one(expr) == (None, [expr])

    def test_non_pushable_literal_stays_residual(self):
        expr = Comparison("=", Column("weight"), Literal(None))
        assert compile_one(expr) == (None, [expr])

    def test_or_with_all_pushable_branches_is_pushed(self):
        pushed, residual = compile_one(
            BooleanOp("or", (
                Comparison(">", Column("weight"), Literal(9.0)),
                InList(Column("species"), ("a",)),
            ))
        )
        assert residual == []
        assert pushed.sql == '("weight" > ? OR "species" IN (?))'
        assert pushed.params == (9.0, "a")

    def test_or_with_one_unpushable_branch_stays_whole(self):
        # OR is all-or-nothing: pushing half would change semantics.
        expr = BooleanOp("or", (
            Comparison(">", Column("weight"), Literal(9.0)),
            Like(Column("name"), "swan%"),
        ))
        assert compile_one(expr) == (None, [expr])

    def test_mixed_conjuncts_split_in_order(self):
        pushable = Comparison(">", Column("weight"), Literal(2.0))
        residual_a = Like(Column("name"), "s%")
        residual_b = Not(IsNull(Column("species")))
        also_pushable = InList(Column("species"), ("a", "b"))
        pushed, residual = compile_conjuncts(
            [pushable, residual_a, residual_b, also_pushable],
            SCHEMA, COLUMNS,
        )
        assert pushed.sql == '"weight" > ? AND "species" IN (?, ?)'
        assert pushed.params == (2.0, "a", "b")
        assert residual == [residual_a, residual_b]

    def test_merge_ands_filters(self):
        first = StorageFilter('"a" = ?', (1,), "a = 1")
        second = StorageFilter('"b" = ?', (2,), "b = 2")
        merged = first.merge(second)
        assert merged.sql == '("a" = ?) AND ("b" = ?)'
        assert merged.params == (1, 2)
        assert str(merged) == "(a = 1) AND (b = 2)"


def prepared_plan(notes, sql):
    logical = build_logical(parse_sql(sql), notes.planner)
    return notes.planner.prepare(logical)


def nodes_of(plan, kind):
    return [node for node in lp.walk(plan) if isinstance(node, kind)]


class TestPlanShapes:
    def test_sargable_select_collapses_into_scan(self, birds_session):
        plan = prepared_plan(
            birds_session, "SELECT name FROM birds WHERE weight > 5"
        )
        assert nodes_of(plan, lp.Select) == []
        (scan,) = nodes_of(plan, lp.Scan)
        assert scan.storage_filter is not None
        assert scan.storage_filter.sql == '"weight" > ?'
        assert len(nodes_of(plan, lp.Hydrate)) == 1

    def test_residual_select_stays_below_hydrate(self, birds_session):
        plan = prepared_plan(
            birds_session,
            "SELECT name FROM birds WHERE weight > 5 AND name LIKE 's%'",
        )
        (hydrate,) = nodes_of(plan, lp.Hydrate)
        (select,) = nodes_of(plan, lp.Select)
        # The LIKE residual filters un-hydrated rows under the Hydrate;
        # the comparison went into the scan.
        assert select in list(lp.walk(hydrate.child))
        assert isinstance(select.predicate, Like)
        (scan,) = nodes_of(plan, lp.Scan)
        assert scan.storage_filter.sql == '"weight" > ?'

    def test_summary_predicate_is_a_hydration_barrier(self, birds_session):
        plan = prepared_plan(
            birds_session,
            "SELECT name FROM birds "
            "WHERE SUMMARY_COUNT('BirdClass', 'Behavior') >= 2",
        )
        (hydrate,) = nodes_of(plan, lp.Hydrate)
        (select,) = nodes_of(plan, lp.Select)
        assert uses_summaries(select.predicate)
        # The summary-consuming selection must read hydrated rows.
        assert select not in list(lp.walk(hydrate.child))
        assert hydrate in list(lp.walk(select.child))

    def test_limit_is_pushed_into_scan(self, birds_session):
        plan = prepared_plan(birds_session, "SELECT name FROM birds LIMIT 2")
        (scan,) = nodes_of(plan, lp.Scan)
        assert scan.storage_limit == 2
        # The in-memory Limit stays as the authoritative cap.
        assert len(nodes_of(plan, lp.Limit)) == 1

    def test_order_by_blocks_limit_pushdown(self, birds_session):
        plan = prepared_plan(
            birds_session, "SELECT name, weight FROM birds ORDER BY weight LIMIT 2"
        )
        (scan,) = nodes_of(plan, lp.Scan)
        assert scan.storage_limit is None

    def test_value_sort_and_limit_stay_below_hydrate(self, birds_session):
        plan = prepared_plan(
            birds_session, "SELECT name, weight FROM birds ORDER BY weight LIMIT 2"
        )
        # Sort on plain values passes through: Hydrate tops the chain, so
        # only the two emitted rows are hydrated.
        assert isinstance(plan, lp.Hydrate)
        assert nodes_of(plan.child, lp.Sort) and nodes_of(plan.child, lp.Limit)

    def test_summary_sort_is_a_hydration_barrier(self, birds_session):
        plan = prepared_plan(
            birds_session,
            "SELECT name FROM birds ORDER BY SUMMARY_COUNT('BirdClass')",
        )
        (hydrate,) = nodes_of(plan, lp.Hydrate)
        (sort,) = nodes_of(plan, lp.Sort)
        assert hydrate in list(lp.walk(sort.child))

    def test_with_no_summaries_skips_hydration(self, birds_session):
        plan = prepared_plan(
            birds_session, "SELECT name FROM birds WITH NO SUMMARIES"
        )
        assert nodes_of(plan, lp.Hydrate) == []

    def test_stacked_filters_merge_on_one_scan(self, birds_session):
        plan = prepared_plan(
            birds_session,
            "SELECT name FROM birds WHERE weight > 2 AND weight < 11 "
            "AND species IN ('Anser cygnoides', 'Cygnus olor')",
        )
        (scan,) = nodes_of(plan, lp.Scan)
        assert scan.storage_filter.sql.count("?") == 4
        assert nodes_of(plan, lp.Select) == []


TRAINING = [
    ("observed feeding on stonewort beds at dawn", "Behavior"),
    ("seen foraging among pond weeds near shore", "Behavior"),
    ("shows symptoms of avian influenza on the wing", "Disease"),
    ("tested positive for botulism in the flock", "Disease"),
]


def populate_flock(notes: InsightNotes, rows: int = 30) -> InsightNotes:
    notes.create_table("birds", ["name", "species", "weight"])
    for i in range(rows):
        notes.insert("birds", (f"bird-{i}", f"species-{i % 5}", float(i)))
    notes.define_classifier("BirdClass", ["Behavior", "Disease"], TRAINING)
    notes.link("BirdClass", "birds")
    for i in range(rows):
        notes.add_annotation(
            f"observed feeding on stonewort at dawn, visit {i}",
            table="birds", row_id=i + 1,
        )
    return notes


@pytest.fixture(scope="module")
def flock():
    notes = populate_flock(InsightNotes())
    yield notes
    notes.close()


class TestExecutionStats:
    def test_full_scan_hydrates_everything(self, flock):
        result = flock.query("SELECT name, species, weight FROM birds")
        assert result.stats.rows_scanned == 30
        assert result.stats.rows_hydrated == 30
        assert result.stats.hydration_blocks == 1

    def test_pushed_filter_scans_survivors_only(self, flock):
        result = flock.query(
            "SELECT name, species, weight FROM birds WHERE weight > 25"
        )
        assert len(result.tuples) == 4
        assert result.stats.rows_scanned == 4
        assert result.stats.rows_hydrated == 4

    def test_residual_filter_hydrates_survivors_only(self, flock):
        # LIKE cannot be pushed; it filters plain rows below the Hydrate,
        # so all rows are scanned but only the 3 matches are hydrated.
        result = flock.query(
            "SELECT name, species, weight FROM birds WHERE name LIKE '%5'"
        )
        assert len(result.tuples) == 3
        assert result.stats.rows_scanned == 30
        assert result.stats.rows_hydrated == 3

    def test_pushed_limit_bounds_the_scan(self, flock):
        result = flock.query("SELECT name FROM birds LIMIT 2")
        assert result.stats.rows_scanned == 2
        assert result.stats.rows_hydrated == 2

    def test_no_summaries_query_never_hydrates(self, flock):
        result = flock.query("SELECT name FROM birds WITH NO SUMMARIES")
        assert result.stats.rows_scanned == 30
        assert result.stats.rows_hydrated == 0
        assert result.stats.hydration_blocks == 0

    def test_stats_serialize(self, flock):
        result = flock.query("SELECT name FROM birds LIMIT 1")
        assert result.stats.to_json() == {
            "rows_scanned": 1,
            "rows_hydrated": 1,
            "hydration_blocks": 1,
        }


class TestExecutionBudgets:
    def test_selective_query_fetches_one_block_of_summaries(self):
        # Small blocks + an empty object cache make round-trips visible:
        # of 30 rows (8 blocks of 4) only the 4 survivors are hydrated, in
        # one block, with one summary-state fetch.
        notes = populate_flock(InsightNotes())
        notes.planner.scan_block_size = 4
        sql = "SELECT name, species, weight FROM birds WHERE weight > 25"
        try:
            notes.manager.drop_caches()
            with notes.db.track_queries() as counter:
                result = notes.query(sql)
            RawOracle(notes).check(result, sql)
            assert result.stats.rows_hydrated == 4
            assert result.stats.hydration_blocks == 1
            state = [s for s in counter.statements if "summary_state" in s]
            assert len(state) == 1
        finally:
            notes.close()

    def test_values_only_subquery_skips_hydration(self):
        notes = populate_flock(InsightNotes())
        sql = (
            "SELECT name FROM birds WHERE weight IN "
            "(SELECT weight FROM birds WHERE weight > 25) WITH NO SUMMARIES"
        )
        try:
            notes.manager.drop_caches()
            with notes.db.track_queries() as counter:
                result = notes.query(sql)
            assert len(result.tuples) == 4
            assert [s for s in counter.statements if "summary_state" in s] == []
        finally:
            notes.close()

    def test_query_mix_matches_raw_propagation(self, flock):
        queries = [
            "SELECT name, species, weight FROM birds WHERE weight > 25",
            "SELECT name FROM birds WHERE name LIKE '%5' ORDER BY name",
            "SELECT species, count(*) FROM birds WHERE weight >= 10 "
            "GROUP BY species",
            "SELECT name FROM birds WHERE weight > 3 LIMIT 4",
            "SELECT DISTINCT species FROM birds WHERE weight < 20",
        ]
        oracle = RawOracle(flock)
        for sql in queries:
            oracle.check(flock.query(sql), sql)


class TestGhostInstances:
    def test_named_subset_without_links_passes_through(self):
        # WITH SUMMARIES (Ghost) where Ghost is not linked: plain
        # relational rows, no fetches, no attachment bookkeeping.
        notes = InsightNotes()
        try:
            notes.create_table("t", ["a"])
            notes.insert("t", (1,))
            notes.insert("t", (2,))
            scan = ScanOperator(notes.db, "t", "t")
            hydrate = HydrateOperator(
                scan, notes.manager, "t", "t", instances=("Ghost",),
            )
            rows = list(hydrate)
            assert [row.values for row in rows] == [(1,), (2,)]
            assert all(not row.summaries for row in rows)
            assert all(not row.attachments for row in rows)
        finally:
            notes.close()
