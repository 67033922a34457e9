"""Unit tests for the system facade and per-user sessions."""

from __future__ import annotations

import pytest

from repro.core.coordinator import QueryStatus
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.errors import PlanError
from repro.relalg.engine import QueryResult

SETUP = """
CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);
INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome');
"""

KRAMER_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)
JERRY_SQL = (
    "SELECT 'Jerry', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
)


@pytest.fixture
def system() -> YoutopiaSystem:
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    system.execute_script(SETUP)
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


class TestStatementRouting:
    def test_plain_sql_returns_query_result(self, system):
        result = system.execute("SELECT COUNT(*) FROM Flights")
        assert isinstance(result, QueryResult) and result.scalar() == 3

    def test_entangled_sql_returns_coordination_request(self, system):
        request = system.execute(KRAMER_SQL, owner="Kramer")
        assert request.status is QueryStatus.PENDING

    def test_execute_script_mixes_both(self, system):
        results = system.execute_script(f"{KRAMER_SQL}; {JERRY_SQL};", owner="someone")
        assert len(results) == 2
        assert all(result.is_answered for result in results)

    def test_query_rejects_entangled(self, system):
        with pytest.raises(PlanError):
            system.query(KRAMER_SQL)

    def test_compile_does_not_register(self, system):
        query = system.compile(KRAMER_SQL, owner="Kramer")
        assert query.owner == "Kramer"
        assert system.coordinator.pending_count() == 0


class TestSessions:
    def test_sessions_tag_ownership(self, system):
        kramer = system.session("Kramer")
        jerry = system.session("Jerry")
        first = kramer.submit(KRAMER_SQL)
        assert first.owner == "Kramer"
        assert kramer.my_pending() == [first]
        second = jerry.submit(JERRY_SQL)
        assert second.owner == "Jerry"
        assert kramer.my_pending() == []
        assert len(kramer.my_answers()) == 1
        assert kramer.my_answer_tuples("Reservation")[0][0] == "Kramer"
        assert jerry.my_answer_tuples("reservation")[0][0] == "Jerry"

    def test_session_execute_routes_and_records(self, system):
        session = system.session("Kramer")
        result = session.execute("SELECT COUNT(*) FROM Flights")
        assert isinstance(result, QueryResult)
        request = session.execute(KRAMER_SQL)
        assert request.owner == "Kramer"
        assert [r.query_id for r in session.my_requests()] == [request.query_id]

    def test_session_builder_is_owned(self, system):
        session = system.session("Elaine")
        query = (
            session.builder()
            .head("Reservation", "Elaine", "x")
            .domain("x", "SELECT fno FROM Flights")
            .build()
        )
        assert query.owner == "Elaine"

    def test_session_wait_and_cancel(self, system):
        session = system.session("Kramer")
        request = session.submit(KRAMER_SQL)
        session.cancel(request.query_id)
        assert request.status is QueryStatus.CANCELLED


class TestConfigurationVariants:
    def test_seeded_systems_are_deterministic(self):
        def run(seed):
            system = YoutopiaSystem(config=SystemConfig(seed=seed))
            system.execute_script(SETUP)
            system.declare_answer_relation(
                "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
            system.execute(KRAMER_SQL, owner="Kramer")
            system.execute(JERRY_SQL, owner="Jerry")
            return sorted(system.answers("Reservation"))

        assert run(42) == run(42)
