"""Rule-level tests for insightlint.

Every rule gets at least one positive fixture (the violation is caught)
and one negative fixture (the disciplined idiom passes).  Fixtures are
inline strings through :func:`lint_source`, never repo files — the rules
must stand on their own semantics, not on the current tree's contents.
"""

import textwrap

from repro.analysis.lint import lint_source


def lint(source: str, path: str = "repro/module.py", rules=None):
    return lint_source(textwrap.dedent(source), path=path, rule_ids=rules)


def rule_ids(findings):
    return [finding.rule for finding in findings]


# -- IN001: no SQL under a lock ----------------------------------------


class TestNoSQLUnderLock:
    def test_execute_inside_lock_is_flagged(self):
        findings = lint(
            """
            class Store:
                def save(self, sql):
                    with self._lock:
                        self._db.execute(sql)
            """,
            rules=["IN001"],
        )
        assert rule_ids(findings) == ["IN001"]
        assert "inside a lock" in findings[0].message

    def test_shard_fanout_inside_lock_is_flagged(self):
        findings = lint(
            """
            class Store:
                def save(self, batches):
                    with self._lock:
                        self._db.commit_shards(batches)
            """,
            rules=["IN001"],
        )
        assert rule_ids(findings) == ["IN001"]

    def test_pool_checkout_inside_lock_is_flagged(self):
        findings = lint(
            """
            class Store:
                def load(self):
                    with self._lock:
                        with self._pool.read() as connection:
                            return connection
            """,
            rules=["IN001"],
        )
        assert rule_ids(findings) == ["IN001"]
        assert "pool checkout" in findings[0].message

    def test_probe_under_lock_sql_outside_passes(self):
        findings = lint(
            """
            class Store:
                def load(self, key):
                    with self._lock:
                        cached = self._cache.get(key)
                    if cached is not None:
                        return cached
                    rows = self._db.fetch_all("SELECT 1")
                    with self._lock:
                        self._cache[key] = rows
                    return rows
            """,
            rules=["IN001"],
        )
        assert findings == []

    def test_nested_function_does_not_inherit_lock_context(self):
        # A closure defined under a lock runs when called, not where
        # defined — the SQL inside it is not "under the lock".
        findings = lint(
            """
            class Store:
                def load(self):
                    with self._lock:
                        def fetch():
                            return self._db.fetch_all("SELECT 1")
                    return fetch
            """,
            rules=["IN001"],
        )
        assert findings == []

    def test_allowlisted_fill_under_lock_site_passes(self):
        findings = lint(
            """
            class SummaryManager:
                def flush(self):
                    with self._lock:
                        self._catalog.save_object("inst", "t", 1, obj)
            """,
            path="src/repro/maintenance/incremental.py",
            rules=["IN001"],
        )
        assert findings == []

    def test_same_code_outside_allowlisted_module_is_flagged(self):
        findings = lint(
            """
            class SummaryManager:
                def flush(self):
                    with self._lock:
                        self._catalog.save_object("inst", "t", 1, obj)
            """,
            path="src/repro/engine/operators.py",
            rules=["IN001"],
        )
        assert rule_ids(findings) == ["IN001"]


# -- IN002: pool-only connections --------------------------------------


class TestPoolOnlyConnections:
    def test_raw_connect_outside_pool_is_flagged(self):
        findings = lint(
            """
            import sqlite3

            def open_db(path):
                return sqlite3.connect(path)
            """,
            rules=["IN002"],
        )
        assert rule_ids(findings) == ["IN002"]

    def test_from_import_of_connect_is_flagged(self):
        findings = lint(
            """
            from sqlite3 import connect
            """,
            rules=["IN002"],
        )
        assert rule_ids(findings) == ["IN002"]

    def test_connect_inside_pool_module_passes(self):
        findings = lint(
            """
            import sqlite3

            def connect(path):
                return sqlite3.connect(path, check_same_thread=False)
            """,
            path="src/repro/storage/pool.py",
            rules=["IN002"],
        )
        assert findings == []

    def test_pool_factory_usage_passes(self):
        findings = lint(
            """
            from repro.storage.pool import connect

            def open_db(path):
                return connect(path)
            """,
            rules=["IN002"],
        )
        assert findings == []

    def test_direct_connection_construction_is_flagged(self):
        findings = lint(
            """
            import sqlite3

            def open_db(path):
                return sqlite3.Connection(path)
            """,
            rules=["IN002"],
        )
        assert rule_ids(findings) == ["IN002"]

    def test_dbapi2_alias_is_flagged(self):
        findings = lint(
            """
            import sqlite3.dbapi2

            def open_db(path):
                return sqlite3.dbapi2.connect(path)
            """,
            rules=["IN002"],
        )
        assert rule_ids(findings) == ["IN002"]

    def test_from_import_of_connection_is_flagged(self):
        findings = lint(
            """
            from sqlite3 import Connection
            """,
            rules=["IN002"],
        )
        assert rule_ids(findings) == ["IN002"]

    def test_connection_type_annotation_passes(self):
        # sqlite3.Connection as a *type* is everywhere (signatures,
        # isinstance); only *calling* it opens a connection.
        findings = lint(
            """
            import sqlite3

            def tune(connection: sqlite3.Connection) -> None:
                if isinstance(connection, sqlite3.Connection):
                    connection.execute("PRAGMA foreign_keys = ON")
            """,
            rules=["IN002"],
        )
        assert findings == []


# -- IN003: parameterized-only SQL -------------------------------------


class TestParameterizedSQLOnly:
    def test_fstring_identifier_is_flagged(self):
        findings = lint(
            """
            def fetch(conn, table):
                return conn.execute(f"SELECT * FROM {table}")
            """,
            rules=["IN003"],
        )
        assert rule_ids(findings) == ["IN003"]
        assert "'table'" in findings[0].message

    def test_percent_formatting_is_flagged(self):
        findings = lint(
            """
            def fetch(db, table):
                return db.fetch_all("SELECT * FROM %s" % table)
            """,
            rules=["IN003"],
        )
        assert rule_ids(findings) == ["IN003"]

    def test_format_call_is_flagged(self):
        findings = lint(
            """
            def fetch(cursor, table):
                return cursor.execute("SELECT * FROM {}".format(table))
            """,
            rules=["IN003"],
        )
        assert rule_ids(findings) == ["IN003"]

    def test_local_built_from_fstring_is_flagged(self):
        findings = lint(
            """
            def fetch(conn, table):
                sql = f"SELECT * FROM {table}"
                return conn.execute(sql)
            """,
            rules=["IN003"],
        )
        assert rule_ids(findings) == ["IN003"]

    def test_parameterized_constant_passes(self):
        findings = lint(
            """
            def fetch(conn, row_id):
                return conn.execute(
                    "SELECT * FROM birds WHERE rowid = ?", (row_id,)
                )
            """,
            rules=["IN003"],
        )
        assert findings == []

    def test_vetted_helpers_and_module_constants_pass(self):
        findings = lint(
            """
            _STATE_TABLE = "sys_state"

            def fetch(conn, table, ids):
                marks = placeholders(len(ids))
                return conn.execute(
                    f"SELECT * FROM {quote_ident(table)} "
                    f"WHERE t = {_STATE_TABLE} AND id IN ({marks})",
                    ids,
                )
            """,
            rules=["IN003"],
        )
        assert findings == []

    def test_non_connection_receiver_is_not_checked(self):
        # session.execute / zoomin.execute are engine entry points that
        # take SQL text from the user; only connection-like receivers
        # (conn/cursor/db) are execute sites for this rule.
        findings = lint(
            """
            def run(session, sql_text):
                return session.execute(f"{sql_text}")
            """,
            rules=["IN003"],
        )
        assert findings == []


# -- IN004: copy-on-write summaries ------------------------------------


class TestCopyOnWriteSummaries:
    def test_mutating_cached_object_is_flagged(self):
        findings = lint(
            """
            def emit(self, row_id):
                obj = self._catalog.load_object("inst", "t", row_id)
                obj.add_annotation(1)
                return obj
            """,
            path="src/repro/engine/operators.py",
            rules=["IN004"],
        )
        assert rule_ids(findings) == ["IN004"]
        assert "for_query" in findings[0].message

    def test_attribute_assignment_into_cached_object_is_flagged(self):
        findings = lint(
            """
            def emit(self, row_id):
                obj = self._manager.current_object("inst", "t", row_id)
                obj.count = 0
            """,
            path="src/repro/engine/operators.py",
            rules=["IN004"],
        )
        assert rule_ids(findings) == ["IN004"]

    def test_mutation_of_bulk_loaded_value_is_flagged(self):
        findings = lint(
            """
            def emit(self):
                objects = self._catalog.load_objects_for_table("inst", "t")
                for obj in objects.values():
                    obj.fold(1)
            """,
            path="src/repro/engine/operators.py",
            rules=["IN004"],
        )
        assert rule_ids(findings) == ["IN004"]

    def test_mutation_of_a_for_query_value_is_flagged(self):
        # for_query() returns the value cached on the stored object, not a
        # private copy: mutating it is as wrong as mutating the object.
        findings = lint(
            """
            def emit(self, row_id):
                obj = self._catalog.load_object("inst", "t", row_id)
                obj = obj.for_query()
                obj.add_annotation(1)
                return obj
            """,
            path="src/repro/engine/operators.py",
            rules=["IN004"],
        )
        assert rule_ids(findings) == ["IN004"]
        assert "without()" in findings[0].message
        assert "merge()" in findings[0].message

    def test_mutation_of_a_projected_value_is_flagged(self):
        findings = lint(
            """
            def emit(self, obj, dropped):
                value = obj.without(dropped)
                value.remove_annotations({1})
            """,
            path="src/repro/engine/operators.py",
            rules=["IN004"],
        )
        assert rule_ids(findings) == ["IN004"]

    def test_mutation_of_a_row_summary_is_flagged(self):
        # row.summary(name) returns the row's projected value, which may
        # share its groups and sets with the for_query() value it came from.
        findings = lint(
            """
            def evaluate(self, row):
                obj = row.summary(self.instance)
                obj.remove_annotations({1})
            """,
            path="src/repro/engine/expressions.py",
            rules=["IN004"],
        )
        assert rule_ids(findings) == ["IN004"]

    def test_reading_a_row_summary_passes(self):
        findings = lint(
            """
            def evaluate(self, row):
                obj = row.summary(self.instance)
                return len(obj.annotation_ids())
            """,
            path="src/repro/engine/expressions.py",
            rules=["IN004"],
        )
        assert findings == []

    def test_copy_before_mutation_passes(self):
        findings = lint(
            """
            def emit(self, row_id):
                obj = self._catalog.load_object("inst", "t", row_id)
                obj = obj.for_query().copy()
                obj.add_annotation(1)
                return obj
            """,
            path="src/repro/engine/operators.py",
            rules=["IN004"],
        )
        assert findings == []

    def test_maintenance_write_path_is_out_of_scope(self):
        # The write path mutates cached objects by design; IN004 only
        # applies to engine/zoomin modules.
        findings = lint(
            """
            def fold(self, row_id):
                obj = self._catalog.load_object("inst", "t", row_id)
                obj.add_annotation(1)
            """,
            path="src/repro/maintenance/incremental.py",
            rules=["IN004"],
        )
        assert findings == []


# -- IN005: no shared mutation in executor callables -------------------


class TestNoSharedMutationInExecutorCallables:
    def test_unlocked_attribute_assignment_is_flagged(self):
        findings = lint(
            """
            class Runner:
                def start(self, pool):
                    pool.submit(self._work)

                def _work(self):
                    self.completed = True
            """,
            rules=["IN005"],
        )
        assert rule_ids(findings) == ["IN005"]
        assert "_work" in findings[0].message

    def test_lambda_mutation_is_flagged(self):
        findings = lint(
            """
            class Runner:
                def start(self, pool):
                    pool.submit(lambda: setattr(self, "done", True) or None)
            """,
            rules=["IN005"],
        )
        # setattr is a call, not an assignment statement — but a direct
        # lambda assignment cannot exist; verify assignments in named
        # callables are what the rule targets.
        assert findings == []

    def test_lock_protected_assignment_passes(self):
        findings = lint(
            """
            class Runner:
                def start(self, pool):
                    pool.submit(self._work)

                def _work(self):
                    with self._lock:
                        self.completed = True
            """,
            rules=["IN005"],
        )
        assert findings == []

    def test_thread_local_assignment_passes(self):
        findings = lint(
            """
            class Runner:
                def start(self, pool):
                    pool.submit(self._work)

                def _work(self):
                    self._local.buffer = []
            """,
            rules=["IN005"],
        )
        assert findings == []

    def test_function_never_submitted_is_not_checked(self):
        findings = lint(
            """
            class Runner:
                def run_inline(self):
                    self.completed = True
            """,
            rules=["IN005"],
        )
        assert findings == []


# -- IN006: no silent broad except -------------------------------------


class TestNoSilentBroadExcept:
    def test_silent_broad_except_is_flagged(self):
        findings = lint(
            """
            def load(path):
                try:
                    return read(path)
                except Exception:
                    pass
            """,
            rules=["IN006"],
        )
        assert rule_ids(findings) == ["IN006"]

    def test_bare_except_continue_is_flagged(self):
        findings = lint(
            """
            def drain(items):
                for item in items:
                    try:
                        handle(item)
                    except:
                        continue
            """,
            rules=["IN006"],
        )
        assert rule_ids(findings) == ["IN006"]

    def test_narrow_silent_except_passes(self):
        findings = lint(
            """
            def resolve(schema, name):
                try:
                    return lookup(schema, name)
                except ExpressionError:
                    return None
            """,
            rules=["IN006"],
        )
        assert findings == []

    def test_broad_except_that_logs_passes(self):
        findings = lint(
            """
            def load(path):
                try:
                    return read(path)
                except Exception as exc:
                    log.warning("load failed: %s", exc)
                    return None
            """,
            rules=["IN006"],
        )
        assert findings == []

    def test_broad_except_that_reraises_passes(self):
        findings = lint(
            """
            def load(path):
                try:
                    return read(path)
                except Exception:
                    cleanup()
                    raise
            """,
            rules=["IN006"],
        )
        assert findings == []


# -- suppression comments ----------------------------------------------


class TestSuppression:
    def test_trailing_disable_comment_silences_the_rule(self):
        findings = lint(
            """
            def fetch(conn, table):
                return conn.execute(f"SELECT * FROM {table}")  # insightlint: disable=IN003 -- vetted upstream
            """,
        )
        assert findings == []

    def test_standalone_comment_applies_to_next_line(self):
        findings = lint(
            """
            def fetch(conn, table):
                # insightlint: disable=IN003 -- vetted upstream
                return conn.execute(f"SELECT * FROM {table}")
            """,
        )
        assert findings == []

    def test_disable_without_rule_list_silences_everything(self):
        findings = lint(
            """
            def load(path):
                try:
                    return read(path)
                except Exception:  # insightlint: disable -- best effort
                    pass
            """,
        )
        assert findings == []

    def test_disable_of_other_rule_does_not_silence(self):
        findings = lint(
            """
            def fetch(conn, table):
                return conn.execute(f"SELECT * FROM {table}")  # insightlint: disable=IN006
            """,
        )
        assert rule_ids(findings) == ["IN003"]

    def test_directive_inside_string_literal_is_ignored(self):
        findings = lint(
            """
            def fetch(conn, table):
                note = "# insightlint: disable=IN003"
                return conn.execute(f"SELECT * FROM {table}")
            """,
        )
        assert rule_ids(findings) == ["IN003"]
