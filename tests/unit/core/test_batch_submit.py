"""Unit tests for batch submission (`submit_many`) and its helpers."""

from __future__ import annotations

import pytest

from repro.core import ir
from repro.core.compiler import compile_entangled
from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem
from repro.errors import ScriptError, UnknownTableError

SETUP = """
CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);
INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome');
"""


def entangled_sql(me: str, partner: str) -> str:
    return (
        f"SELECT '{me}', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{partner}', fno) IN ANSWER Reservation CHOOSE 1"
    )


@pytest.fixture
def system() -> YoutopiaSystem:
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    system.execute_script(SETUP)
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


class TestSubmitMany:
    def test_batch_pair_uses_single_match_pass(self, system):
        kramer, jerry = system.submit_many(
            [entangled_sql("Kramer", "Jerry"), entangled_sql("Jerry", "Kramer")]
        )
        assert kramer.status is QueryStatus.ANSWERED
        assert jerry.status is QueryStatus.ANSWERED
        stats = system.statistics()
        assert stats["match_attempts"] == 1
        assert stats["failed_match_attempts"] == 0
        # loop-of-submit would have taken two passes (one failing)
        assert stats["groups_matched"] == 1

    def test_batch_many_pairs_one_attempt_per_group(self, system):
        names = [(f"L{i}", f"R{i}") for i in range(10)]
        queries = []
        for left, right in names:
            queries.append(entangled_sql(left, right))
            queries.append(entangled_sql(right, left))
        requests = system.submit_many(queries)
        assert all(request.status is QueryStatus.ANSWERED for request in requests)
        stats = system.statistics()
        assert stats["groups_matched"] == 10
        assert stats["match_attempts"] == 10

        # the loop-of-submit baseline pays one inline pass per submission
        looped = YoutopiaSystem(config=SystemConfig(seed=0))
        looped.execute_script(SETUP)
        looped.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
        for sql in queries:
            looped.submit_entangled(sql)
        loop_stats = looped.statistics()
        assert loop_stats["groups_matched"] == 10
        assert loop_stats["match_attempts"] == len(queries)
        assert loop_stats["failed_match_attempts"] == 10

    def test_unmatchable_member_gets_exactly_one_sweep_attempt(self, system):
        requests = system.submit_many(
            [
                entangled_sql("Kramer", "Jerry"),
                entangled_sql("Jerry", "Kramer"),
                entangled_sql("Elaine", "Ghost"),
            ]
        )
        assert requests[0].status is QueryStatus.ANSWERED
        assert requests[1].status is QueryStatus.ANSWERED
        assert requests[2].status is QueryStatus.PENDING
        stats = system.statistics()
        assert stats["match_attempts"] == 2  # one per group + one sweep attempt
        assert stats["failed_match_attempts"] == 1

    def test_rejected_query_recorded_not_raised(self, system):
        unsafe = (
            "SELECT 'Kramer', fno INTO ANSWER Reservation "
            "WHERE ('Jerry', fno) IN ANSWER Reservation"
        )
        ok, bad = system.submit_many([entangled_sql("Kramer", "Jerry"), unsafe])
        assert ok.status is QueryStatus.PENDING
        assert bad.status is QueryStatus.REJECTED
        assert bad.error

    def test_duplicate_id_in_batch_rejected(self, system):
        query = compile_entangled(entangled_sql("Kramer", "Jerry"), owner="Kramer")
        first, second = system.submit_many([query, query])
        assert first.status is QueryStatus.PENDING
        assert second.status is QueryStatus.REJECTED
        assert "already registered" in (second.error or "")

    def test_batch_owner_default(self, system):
        requests = system.submit_many([entangled_sql("Kramer", "Jerry")], owner="Kramer")
        assert requests[0].owner == "Kramer"

    def test_empty_batch_is_a_noop(self, system):
        assert system.submit_many([]) == []
        assert system.statistics()["match_attempts"] == 0


class TestReplaceOwner:
    def test_replace_owner_copies_every_field(self, system):
        query = compile_entangled(entangled_sql("Kramer", "Jerry"))
        owned = query.replace_owner("Kramer")
        assert owned.owner == "Kramer"
        # every other field carried over verbatim
        for field_name in (
            "query_id",
            "heads",
            "answer_atoms",
            "domains",
            "predicates",
            "choose",
            "sql",
        ):
            assert getattr(owned, field_name) == getattr(query, field_name)

    def test_submit_attaches_owner_to_precompiled_ir(self, system):
        query = compile_entangled(entangled_sql("Kramer", "Jerry"))
        assert query.owner is None
        request = system.submit_entangled(query, owner="Kramer")
        assert request.owner == "Kramer"
        assert isinstance(request.query, ir.EntangledQuery)


class TestScriptErrors:
    def test_execute_script_reports_failing_statement(self, system):
        script = "SELECT COUNT(*) FROM Flights; SELECT * FROM Nowhere; SELECT 1"
        with pytest.raises(ScriptError) as excinfo:
            system.execute_script(script)
        error = excinfo.value
        assert error.statement_index == 1
        assert "Nowhere" in error.statement_sql
        assert "statement #2" in str(error)
        assert isinstance(error.__cause__, UnknownTableError)
        assert isinstance(error.cause, UnknownTableError)


class TestSystemConfig:
    def test_config_object_builds_equivalent_system(self):
        config = SystemConfig(seed=7, max_group_size=8, auto_retry_on_data_change=True)
        system = YoutopiaSystem(config=config)
        assert system.config is config
        assert system.coordinator.config.max_group_size == 8

    def test_replace_returns_modified_copy(self):
        base = SystemConfig(seed=1)
        tweaked = base.replace(max_group_size=4)
        assert tweaked.seed == 1 and tweaked.max_group_size == 4
        assert base.max_group_size == 32
        assert "max_group_size" in base.as_dict()
