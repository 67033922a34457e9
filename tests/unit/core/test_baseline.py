"""Unit tests for the exhaustive reference evaluator (the correctness oracle)."""

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
        CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price REAL);
        INSERT INTO Flights VALUES
            (122, 'Paris', 450.0), (123, 'Paris', 500.0), (136, 'Rome', 300.0);
        """,
    )
    return engine


def flight_query(owner, partner, dest="Paris", query_id=None):
    return (
        EntangledQueryBuilder(owner=owner)
        .head("Reservation", owner, var("fno"))
        .domain("fno", f"SELECT fno FROM Flights WHERE dest = '{dest}'")
        .require("Reservation", partner, var("fno"))
        .build(query_id=query_id or owner)
    )


def as_pool(*queries):
    return {query.query_id: query for query in queries}


class TestExhaustiveEvaluator:
    def test_pair_match_found(self, engine):
        evaluator = ExhaustiveEvaluator(engine, rng=random.Random(0))
        kramer, jerry = flight_query("Kramer", "Jerry"), flight_query("Jerry", "Kramer")
        pool = as_pool(kramer, jerry)
        group = evaluator.find_group(jerry, pool)
        assert group is not None
        contents = group.answer_relation_contents()["Reservation"]
        assert len({fno for _t, fno in contents}) == 1

    def test_unmatchable_query_returns_none(self, engine):
        evaluator = ExhaustiveEvaluator(engine)
        lonely = flight_query("Kramer", "Jerry")
        assert evaluator.find_group(lonely, as_pool(lonely)) is None

    def test_self_contained_query_answers_alone(self, engine):
        evaluator = ExhaustiveEvaluator(engine)
        solo = (
            EntangledQueryBuilder(owner="Newman")
            .head("Reservation", "Newman", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Rome'")
            .build(query_id="solo")
        )
        group = evaluator.find_group(solo, as_pool(solo))
        assert group is not None and group.query_ids == ["solo"]

    def test_group_size_limit_prevents_larger_matches(self, engine):
        evaluator = ExhaustiveEvaluator(engine, max_group_size=2)
        members = ["A", "B", "C"]
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
        pool = as_pool(*queries)
        assert evaluator.find_group(queries[0], pool) is None
        # a bigger budget finds it
        assert ExhaustiveEvaluator(engine, max_group_size=3).find_group(queries[0], pool)

    def test_agrees_with_matcher_on_pair_scenarios(self, engine):
        """Oracle check: optimized matcher and exhaustive semantics agree."""
        matcher = Matcher(engine, rng=random.Random(1))
        evaluator = ExhaustiveEvaluator(engine, rng=random.Random(1))
        scenarios = [
            (flight_query("Kramer", "Jerry"), flight_query("Jerry", "Kramer"), True),
            (flight_query("Kramer", "Jerry"), flight_query("Elaine", "Kramer"), False),
            (flight_query("Kramer", "Jerry", dest="Rome"), flight_query("Jerry", "Kramer"), False),
        ]
        for left, right, expected in scenarios:
            pool = as_pool(left, right)
            index = GridProviderIndex()
            for query in pool.values():
                index.add_query(query)
            fast = matcher.find_group(right, pool, index) is not None
            slow = evaluator.find_group(right, pool) is not None
            assert fast == slow == expected
