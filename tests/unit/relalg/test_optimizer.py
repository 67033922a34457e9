"""Unit tests for the rule-based optimizer (pushdown, folding, index lookups)."""

from __future__ import annotations

import pytest

from repro.relalg import plan as planops
from repro.relalg.engine import QueryEngine, run_script
from repro.relalg.optimizer import fold_constants, join_conjuncts, optimize, split_conjuncts
from repro.relalg.planner import build_plan
from repro.sqlparser import ast, parse_statement
from repro.storage.database import Database


@pytest.fixture
def engine() -> QueryEngine:
    engine = QueryEngine(Database())
    run_script(
        engine,
        """
        CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price REAL);
        CREATE TABLE Airlines (fno INT PRIMARY KEY, airline TEXT);
        INSERT INTO Flights VALUES (122, 'Paris', 450.0), (123, 'Paris', 500.0), (136, 'Rome', 300.0);
        INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), (136, 'Alitalia');
        """,
    )
    return engine


def plan_for(engine: QueryEngine, sql: str) -> planops.PlanNode:
    select = parse_statement(sql)
    return optimize(build_plan(select, engine.database), engine.database)


def scan_reference(sql: str) -> str:
    """``sql`` with its WHERE clause rewritten to ``(p) OR FALSE``: the same
    truth value, but no top-level equality conjunct, so no index lookup."""
    head, _, rest = sql.partition(" WHERE ")
    tails = [rest.find(tail) for tail in (" GROUP BY", " ORDER BY", " LIMIT") if tail in rest]
    cut = min(tails, default=len(rest))
    return f"{head} WHERE ({rest[:cut]}) OR FALSE{rest[cut:]}"


class TestConjunctHelpers:
    def test_split_and_join_round_trip(self):
        where = parse_statement("SELECT 1 WHERE a = 1 AND b = 2 AND c = 3").where
        conjuncts = split_conjuncts(where)
        assert len(conjuncts) == 3
        rebuilt = join_conjuncts(conjuncts)
        assert split_conjuncts(rebuilt) == conjuncts
        assert join_conjuncts([]) is None

    def test_fold_constants(self):
        expression = parse_statement("SELECT 1 WHERE 1 + 1 = 2").where
        assert fold_constants(expression) == ast.Literal(True)
        untouched = parse_statement("SELECT 1 WHERE price > 1 + 1").where
        folded = fold_constants(untouched)
        assert isinstance(folded, ast.BinaryOp)
        assert folded.right == ast.Literal(2)


class TestRewrites:
    def test_equality_filter_becomes_index_lookup(self, engine):
        plan = plan_for(engine, "SELECT fno FROM Flights WHERE dest = 'Paris'")
        assert "IndexLookup" in plan.explain()

    def test_index_lookup_can_be_disabled(self, engine):
        """Writing the predicate as ``(p) OR FALSE`` turns the lookup into a
        scan + filter; the scan references below rely on it."""
        assert "IndexLookup" in plan_for(
            engine, "SELECT fno FROM Flights WHERE dest = 'Paris'"
        ).explain()
        plan = plan_for(engine, "SELECT fno FROM Flights WHERE (dest = 'Paris') OR FALSE")
        assert "IndexLookup" not in plan.explain()
        assert "Filter" in plan.explain()

    def test_residual_predicate_kept_above_lookup(self, engine):
        plan = plan_for(engine, "SELECT fno FROM Flights WHERE dest = 'Paris' AND price < 480")
        text = plan.explain()
        assert "IndexLookup" in text and "Filter" in text

    def test_predicate_pushdown_through_join(self, engine):
        plan = plan_for(
            engine,
            "SELECT f.fno FROM Flights f JOIN Airlines a ON f.fno = a.fno "
            "WHERE f.dest = 'Paris' AND a.airline = 'United'",
        )
        text = plan.explain()
        join_line = text.splitlines()[1]
        assert "Join" in join_line
        # both single-table predicates were pushed below the join
        assert text.index("Join") < text.index("IndexLookup")

    def test_contradictory_equalities_stay_as_filters(self, engine):
        """Regression: two equalities on the same column must not collapse into
        a single index probe (found by the optimizer-equivalence property test)."""
        sql = "SELECT fno FROM Flights WHERE dest = 'Paris' AND dest = 'Rome'"
        assert engine.query(sql).rows == []
        text = plan_for(engine, sql).explain()
        assert "Filter" in text

    def test_join_predicate_repeated_in_where_terminates(self, engine):
        """Regression: a WHERE conjunct equal to the join condition used to
        send the optimizer into infinite recursion."""
        sql = (
            "SELECT f.fno FROM Flights f JOIN Airlines a ON f.fno = a.fno "
            "WHERE f.fno = a.fno ORDER BY f.fno"
        )
        assert [row[0] for row in engine.query(sql).rows] == [122, 123, 136]

    def test_always_true_filter_removed(self, engine):
        plan = plan_for(engine, "SELECT fno FROM Flights WHERE 1 = 1")
        assert "Filter" not in plan.explain()

    def test_always_false_filter_kept(self, engine):
        plan = plan_for(engine, "SELECT fno FROM Flights WHERE 1 = 2")
        assert "Filter" in plan.explain()


class TestRewritesPreserveResults:
    QUERIES = [
        "SELECT fno FROM Flights WHERE dest = 'Paris' ORDER BY fno",
        "SELECT fno FROM Flights WHERE dest = 'Paris' AND price < 480 ORDER BY fno",
        "SELECT f.fno FROM Flights f JOIN Airlines a ON f.fno = a.fno "
        "WHERE a.airline = 'United' ORDER BY f.fno",
        "SELECT dest, COUNT(*) FROM Flights WHERE price > 0 GROUP BY dest ORDER BY dest",
        "SELECT fno FROM Flights WHERE 2 > 1 ORDER BY fno",
    ]

    @pytest.mark.parametrize("sql", QUERIES)
    def test_same_rows_with_and_without_index_lookup(self, sql):
        engine = QueryEngine(Database())
        run_script(
            engine,
            """
            CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price REAL);
            CREATE TABLE Airlines (fno INT PRIMARY KEY, airline TEXT);
            INSERT INTO Flights VALUES (122, 'Paris', 450.0), (123, 'Paris', 500.0), (136, 'Rome', 300.0);
            INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'), (136, 'Alitalia');
            """,
        )
        assert engine.query(scan_reference(sql)).rows == engine.query(sql).rows
