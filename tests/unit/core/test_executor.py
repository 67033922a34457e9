"""Unit tests for the joint executor (atomic answer insertion + side effects)."""

from __future__ import annotations

import random

import pytest

from repro.core.answer import AnswerRelationRegistry
from repro.core.compiler import EntangledQueryBuilder, var
from repro.core.executor import JointExecutor
from repro.core.matching import GridProviderIndex, Matcher
from repro.core.transactions import TransactionManager
from repro.errors import ExecutionError
from repro.relalg.engine import QueryEngine, run_script
from repro.storage.database import Database


@pytest.fixture
def engine() -> QueryEngine:
    engine = QueryEngine(Database())
    run_script(
        engine,
        """
        CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, seats INT);
        INSERT INTO Flights VALUES (122, 'Paris', 10), (123, 'Paris', 10);
        """,
    )
    return engine


@pytest.fixture
def registry(engine) -> AnswerRelationRegistry:
    registry = AnswerRelationRegistry(engine.database)
    registry.declare("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return registry


@pytest.fixture
def executor(engine, registry) -> JointExecutor:
    return JointExecutor(engine, registry, TransactionManager(engine.database))


def matched_pair(engine):
    def query(owner, partner):
        return (
            EntangledQueryBuilder(owner=owner)
            .head("Reservation", owner, var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris'")
            .require("Reservation", partner, var("fno"))
            .build(query_id=owner)
        )

    kramer, jerry = query("Kramer", "Jerry"), query("Jerry", "Kramer")
    pool = {"Kramer": kramer, "Jerry": jerry}
    index = GridProviderIndex()
    for item in pool.values():
        index.add_query(item)
    group = Matcher(engine, rng=random.Random(0)).find_group(jerry, pool, index)
    assert group is not None
    return group


class TestExecution:
    def test_answers_become_visible_in_answer_relation(self, engine, registry, executor):
        group = matched_pair(engine)
        outcome = executor.execute(group)
        assert set(outcome.query_ids) == {"Kramer", "Jerry"}
        tuples = registry.tuples("Reservation")
        assert len(tuples) == 2
        assert {traveler for traveler, _ in tuples} == {"Kramer", "Jerry"}
        assert outcome.inserted["Reservation"] == tuples

    def test_side_effect_hooks_run_in_same_transaction(self, engine, registry, executor):
        def decrement(_relation, values, hook_engine):
            hook_engine.execute(f"UPDATE Flights SET seats = seats - 1 WHERE fno = {values[1]}")

        executor.register_hook(decrement, relation="Reservation")
        group = matched_pair(engine)
        executor.execute(group)
        booked_fno = registry.tuples("Reservation")[0][1]
        seats = engine.query(f"SELECT seats FROM Flights WHERE fno = {booked_fno}").scalar()
        assert seats == 8  # two travellers on the same flight

    def test_global_hooks_see_every_relation(self, engine, registry, executor):
        seen = []
        executor.register_hook(lambda relation, values, _engine: seen.append((relation, values)))
        executor.execute(matched_pair(engine))
        assert len(seen) == 2
        assert all(relation == "Reservation" for relation, _values in seen)

    def test_failing_hook_rolls_back_everything(self, engine, registry, executor):
        calls = []

        def explode(_relation, values, _engine):
            calls.append(values)
            if len(calls) == 2:
                raise RuntimeError("inventory system offline")

        executor.register_hook(explode, relation="Reservation")
        with pytest.raises(ExecutionError):
            executor.execute(matched_pair(engine))
        # the first traveller's tuple must not survive the partial failure
        assert registry.tuples("Reservation") == []

    def test_auto_declares_unknown_answer_relation(self, engine, executor):
        query = (
            EntangledQueryBuilder(owner="Newman")
            .head("MysteryRelation", "Newman", var("fno"))
            .domain("fno", "SELECT fno FROM Flights")
            .build(query_id="newman")
        )
        pool = {"newman": query}
        index = GridProviderIndex()
        index.add_query(query)
        group = Matcher(engine, rng=random.Random(0)).find_group(query, pool, index)
        outcome = executor.execute(group)
        assert "MysteryRelation" in outcome.inserted
        assert engine.database.has_table("MysteryRelation")
