"""Unit tests for the coordination component (pending pool, retries, waiting)."""

from __future__ import annotations

import threading
from collections import Counter

import pytest

from repro.core.coordinator import PENDING_TABLE, QueryStatus
from repro.core.events import EventType
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.errors import (
    CoordinationTimeoutError,
    EntanglementError,
    QueryAlreadyAnsweredError,
    QueryNotPendingError,
    SafetyError,
    StorageError,
)

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
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    system.execute(
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome')"
    )
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


class TestSubmission:
    def test_first_query_stays_pending(self, system):
        request = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        assert request.status is QueryStatus.PENDING
        assert system.coordinator.pending_count() == 1
        assert not request.is_answered

    def test_matching_pair_is_answered_jointly(self, system):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        jerry = system.submit_entangled(JERRY_SQL, owner="Jerry")
        assert kramer.status is QueryStatus.ANSWERED
        assert jerry.status is QueryStatus.ANSWERED
        assert set(kramer.group_query_ids) == {kramer.query_id, jerry.query_id}
        assert system.coordinator.pending_count() == 0
        fnos = {fno for _traveler, fno in system.answers("Reservation")}
        assert len(fnos) == 1

    def test_unsafe_query_is_rejected(self, system):
        with pytest.raises(SafetyError):
            system.submit_entangled(
                "SELECT 'K', fno INTO ANSWER Reservation WHERE ('J', fno) IN ANSWER Reservation"
            )
        assert system.statistics()["queries_rejected"] == 1

    def test_duplicate_query_id_rejected(self, system):
        query = system.compile(KRAMER_SQL, owner="Kramer")
        system.submit_entangled(query)
        with pytest.raises(EntanglementError):
            system.submit_entangled(query)

    def test_owner_attached_to_compiled_queries(self, system):
        query = system.compile(KRAMER_SQL)
        request = system.coordinator.submit(query, owner="Kramer")
        assert request.owner == "Kramer"

    def test_pending_table_mirrors_status(self, system):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        rows = system.query(f"SELECT query_id, status FROM {PENDING_TABLE}").rows
        assert (kramer.query_id, "pending") in rows
        system.submit_entangled(JERRY_SQL, owner="Jerry")
        rows = dict(system.query(f"SELECT query_id, status FROM {PENDING_TABLE}").rows)
        assert rows[kramer.query_id] == "answered"

    @pytest.mark.parametrize(
        "statement",
        [
            f"INSERT INTO {PENDING_TABLE} VALUES ('x1', 'Newman', 'pending', 'sql', 0.0)",
            f"UPDATE {PENDING_TABLE} SET status = 'cancelled'",
            f"DELETE FROM {PENDING_TABLE} WHERE status = 'pending'",
            f"DROP TABLE {PENDING_TABLE}",
            f"CREATE TABLE {PENDING_TABLE} (query_id TEXT)",
        ],
    )
    def test_pending_table_is_read_only(self, system, statement):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        before = system.query(f"SELECT * FROM {PENDING_TABLE}").rows
        with pytest.raises(StorageError):
            system.execute(statement)
        assert system.query(f"SELECT * FROM {PENDING_TABLE}").rows == before
        jerry = system.submit_entangled(JERRY_SQL, owner="Jerry")
        assert kramer.status is jerry.status is QueryStatus.ANSWERED


def pair_sql(traveler: str, companion: str) -> str:
    return (
        f"SELECT '{traveler}', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{companion}', fno) IN ANSWER Reservation CHOOSE 1"
    )


class TestPendingMirrorCost:
    """``_pending_queries`` is a view over the request records: no submit,
    answer or cancel writes a row to it, however much answered history the
    coordinator holds."""

    TABLE_WRITES = (
        "insert", "insert_mapping", "insert_many", "update_where", "update_by_key",
        "delete_where", "delete_by_key", "truncate", "restore",
    )
    DATABASE_WRITES = (
        "insert", "insert_many", "update_where", "update_by_key",
        "delete_where", "delete_by_key", "truncate", "drop_table",
    )

    @classmethod
    def cycle_writes(cls, system, monkeypatch, cycle: str) -> tuple[Counter, str]:
        """Storage writes by table during one submit → answer → cancel cycle,
        and the id of the cycle's cancelled query."""
        from repro.storage.database import Database
        from repro.storage.table import Table

        writes: Counter[str] = Counter()

        def counting(method, table_name):
            def wrapper(self, *args, **kwargs):
                writes[table_name(self, args).lower()] += 1
                return method(self, *args, **kwargs)

            return wrapper

        with monkeypatch.context() as patch:
            for name in cls.TABLE_WRITES:
                method = getattr(Table, name)
                patch.setattr(Table, name, counting(method, lambda table, _: table.name))
            for name in cls.DATABASE_WRITES:
                method = getattr(Database, name)
                patch.setattr(Database, name, counting(method, lambda _, args: args[0]))
            first = system.submit_entangled(pair_sql(f"{cycle}a", f"{cycle}b"))
            second = system.submit_entangled(pair_sql(f"{cycle}b", f"{cycle}a"))
            parked = system.submit_entangled(pair_sql(f"{cycle}c", "nobody"))
            system.coordinator.cancel(parked.query_id)
        assert first.status is second.status is QueryStatus.ANSWERED
        assert parked.status is QueryStatus.CANCELLED
        return writes, parked.query_id

    def test_status_flips_do_not_grow_with_answered_history(self, system, monkeypatch):
        fresh, _ = self.cycle_writes(system, monkeypatch, "warm")
        for pair in range(2000):
            system.submit_entangled(pair_sql(f"p{pair}a", f"p{pair}b"))
            system.submit_entangled(pair_sql(f"p{pair}b", f"p{pair}a"))
        assert system.query(f"SELECT COUNT(*) FROM {PENDING_TABLE}").rows == [(4003,)]
        after_history, cancelled = self.cycle_writes(system, monkeypatch, "late")
        for writes in (fresh, after_history):
            assert writes[PENDING_TABLE] == 0
            assert writes["reservation"] > 0  # the counters do see the answer writes

        probe = f"SELECT * FROM {PENDING_TABLE} WHERE query_id = '{cancelled}'"
        scan = f"SELECT * FROM {PENDING_TABLE} WHERE (query_id = '{cancelled}') OR FALSE"
        assert "IndexLookup" in system.engine.explain(probe)
        assert "IndexLookup" not in system.engine.explain(scan)
        rows = system.query(probe).rows
        assert rows == system.query(scan).rows
        assert [row[:3] for row in rows] == [(cancelled, None, "cancelled")]


class TestWaitAndCancel:
    def test_wait_returns_answer_from_other_thread(self, system):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")

        def later():
            system.submit_entangled(JERRY_SQL, owner="Jerry")

        thread = threading.Thread(target=later)
        thread.start()
        answer = system.wait(kramer.query_id, timeout=5.0)
        thread.join()
        assert answer.tuples["Reservation"][0][0] == "Kramer"

    def test_wait_timeout(self, system):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        with pytest.raises(CoordinationTimeoutError):
            system.wait(kramer.query_id, timeout=0.05)
        assert system.statistics()["queries_timed_out"] == 1
        # the query is still pending (not rejected) after the timeout
        assert system.status(kramer.query_id) is QueryStatus.PENDING

    def test_wait_unknown_query(self, system):
        with pytest.raises(QueryNotPendingError):
            system.wait("does-not-exist", timeout=0.01)

    def test_cancel_removes_from_pool(self, system):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        system.cancel(kramer.query_id)
        assert system.status(kramer.query_id) is QueryStatus.CANCELLED
        assert system.coordinator.pending_count() == 0
        # the partner can no longer match
        jerry = system.submit_entangled(JERRY_SQL, owner="Jerry")
        assert jerry.status is QueryStatus.PENDING

    def test_cancel_twice_rejected(self, system):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        system.cancel(kramer.query_id)
        with pytest.raises(QueryNotPendingError):
            system.cancel(kramer.query_id)

    def test_cancel_answered_query_raises_typed_error(self, system):
        """Regression: cancelling a matched query must fail loudly and typed.

        The group's effects (answer tuples, side effects) are durable; the
        request record must stay ANSWERED and untouched.
        """
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        jerry = system.submit_entangled(JERRY_SQL, owner="Jerry")
        assert kramer.status is QueryStatus.ANSWERED
        with pytest.raises(QueryAlreadyAnsweredError) as excinfo:
            system.cancel(kramer.query_id)
        assert excinfo.value.query_id == kramer.query_id
        # typed error is still a QueryNotPendingError for generic handlers
        assert isinstance(excinfo.value, QueryNotPendingError)
        # nothing was mutated by the failed cancel
        assert kramer.status is QueryStatus.ANSWERED
        assert kramer.answer is not None
        assert set(kramer.group_query_ids) == {kramer.query_id, jerry.query_id}
        assert system.statistics()["queries_cancelled"] == 0
        assert len(system.answers("Reservation")) == 2

    def test_wait_on_cancelled_query_raises(self, system):
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        system.cancel(kramer.query_id)
        with pytest.raises(EntanglementError):
            system.wait(kramer.query_id, timeout=0.01)

    def test_done_callback_may_reenter_the_coordinator(self, system):
        """A callback runs on the answering thread, after the whole group left
        the pool: it can inspect, submit and cancel without deadlocking."""
        observed: dict[str, object] = {}
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")

        def callback(request):
            observed["pending"] = system.coordinator.pending_count()
            observed["follow_up"] = system.submit_entangled(
                KRAMER_SQL.replace("'Jerry'", "'Elaine'"), owner="Kramer"
            )
            try:
                system.cancel(request.query_id)
            except QueryAlreadyAnsweredError:
                observed["cancel"] = "typed"

        system.coordinator.add_done_callback(kramer.query_id, callback)
        system.submit_entangled(JERRY_SQL, owner="Jerry")
        assert observed["pending"] == 0
        assert observed["cancel"] == "typed"
        assert observed["follow_up"].status is QueryStatus.PENDING
        assert system.coordinator.pending_count() == 1


class TestRetry:
    def test_retry_after_data_change(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
        system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        jerry = system.submit_entangled(JERRY_SQL, owner="Jerry")
        # no Paris flights yet: both wait
        assert kramer.status is QueryStatus.PENDING and jerry.status is QueryStatus.PENDING
        system.execute("INSERT INTO Flights VALUES (122, 'Paris')")
        answered = system.retry_pending()
        assert answered == 2
        assert kramer.status is QueryStatus.ANSWERED and jerry.status is QueryStatus.ANSWERED

    def test_auto_retry_on_data_change(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0, auto_retry_on_data_change=True))
        system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
        system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        jerry = system.submit_entangled(JERRY_SQL, owner="Jerry")
        assert jerry.status is QueryStatus.PENDING
        system.execute("INSERT INTO Flights VALUES (122, 'Paris')")
        # the retry happens on the next submission (arrival-driven, as in the paper)
        noise = system.submit_entangled(
            "SELECT 'Elaine', fno INTO ANSWER Reservation "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Nowhere') "
            "AND ('George', fno) IN ANSWER Reservation",
            owner="Elaine",
        )
        assert noise.status is QueryStatus.PENDING
        assert kramer.status is QueryStatus.ANSWERED
        assert jerry.status is QueryStatus.ANSWERED


class TestEventsAndStatistics:
    def test_lifecycle_events_emitted(self, system):
        events = []
        system.subscribe(lambda event: events.append(event.type))
        kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
        system.submit_entangled(JERRY_SQL, owner="Jerry")
        system.cancel_safe = None  # noqa: B010 - just to keep lints quiet about unused var
        assert EventType.QUERY_REGISTERED in events
        assert EventType.MATCH_ATTEMPTED in events
        assert EventType.GROUP_MATCHED in events
        assert EventType.QUERY_ANSWERED in events
        answered_events = system.events.history(EventType.QUERY_ANSWERED)
        assert {event.payload["owner"] for event in answered_events} == {"Kramer", "Jerry"}
        assert kramer.query_id in {event.query_id for event in answered_events}

    def test_statistics_track_matches(self, system):
        system.submit_entangled(KRAMER_SQL, owner="Kramer")
        system.submit_entangled(JERRY_SQL, owner="Jerry")
        stats = system.statistics()
        assert stats["queries_registered"] == 2
        assert stats["queries_answered"] == 2
        assert stats["groups_matched"] == 1
        assert stats["match_attempts"] == 2
        assert stats["failed_match_attempts"] == 1
        assert stats["transactions_committed"] == 1

    def test_requests_listing(self, system):
        system.submit_entangled(KRAMER_SQL, owner="Kramer")
        requests = system.coordinator.requests()
        assert len(requests) == 1 and requests[0].owner == "Kramer"
        assert system.coordinator.provider_index_size() == 1
