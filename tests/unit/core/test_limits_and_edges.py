"""Edge-case tests: search budgets, caps and defensive paths.

These exercise the guard rails that keep the coordination component well
behaved on adversarial inputs: the matcher's structural search budget and the
exhaustive reference evaluator's valuation cap.
"""

from __future__ import annotations

import random

import pytest
from matching_reference import ExhaustiveEvaluator

from repro.core.compiler import EntangledQueryBuilder, var
from repro.core.matching import GridProviderIndex, Matcher
from repro.relalg.engine import QueryEngine, run_script
from repro.storage.database import Database


@pytest.fixture
def engine() -> QueryEngine:
    engine = QueryEngine(Database())
    run_script(
        engine,
        """
        CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);
        INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris'), (3, 'Paris'), (4, 'Paris');
        """,
    )
    return engine


def clique_queries(size: int):
    """A fully connected coordination group of ``size`` members."""
    members = [f"user{i}" for i in range(size)]
    queries = []
    for member in members:
        builder = (
            EntangledQueryBuilder(owner=member)
            .head("Reservation", member, var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris'")
        )
        for other in members:
            if other != member:
                builder.require("Reservation", other, var("fno"))
        queries.append(builder.build(query_id=member))
    return queries


class TestMatcherBudgets:
    def test_structural_node_budget_aborts_search(self, engine):
        queries = clique_queries(6)
        pool = {query.query_id: query for query in queries}
        index = GridProviderIndex()
        for query in pool.values():
            index.add_query(query)
        strict = Matcher(engine, rng=random.Random(0), max_structural_nodes=3)
        assert strict.find_group(queries[0], pool, index) is None
        relaxed = Matcher(engine, rng=random.Random(0))
        assert relaxed.find_group(queries[0], pool, index) is not None

    def test_domain_subqueries_are_cached_within_one_match(self, engine):
        queries = clique_queries(4)
        pool = {query.query_id: query for query in queries}
        index = GridProviderIndex()
        for query in pool.values():
            index.add_query(query)
        group = Matcher(engine, rng=random.Random(0)).find_group(queries[0], pool, index)
        assert group is not None
        # all four queries share the same domain subquery text: one evaluation
        assert group.statistics.domain_queries == 1


class TestBaselineCaps:
    def test_valuation_cap_limits_enumeration(self, engine):
        # One self-contained query over 4 flights, capped to 2 candidate valuations.
        query = (
            EntangledQueryBuilder(owner="solo")
            .head("Reservation", "solo", var("fno"))
            .domain("fno", "SELECT fno FROM Flights")
            .build(query_id="solo")
        )
        capped = ExhaustiveEvaluator(engine, max_valuations_per_query=2)
        group = capped.find_group(query, {"solo": query})
        assert group is not None
        chosen = group.bindings["solo"][0]["fno"]
        assert chosen in (1, 2)  # the cap keeps only the first two candidates


class TestScalarFunctionExtras:
    def test_min2_max2_helpers(self):
        from repro.relalg.expressions import ExpressionEvaluator
        from repro.relalg.rows import RowEnv
        from repro.sqlparser import parse_statement

        evaluator = ExpressionEvaluator()
        expression = parse_statement("SELECT MIN2(3, 5), MAX2(3, 5)")
        low = evaluator.evaluate(expression.items[0].expression, RowEnv({}))
        high = evaluator.evaluate(expression.items[1].expression, RowEnv({}))
        assert (low, high) == (3, 5)
