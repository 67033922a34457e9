"""The matcher's domain-result cache: reuse only while the tables are unchanged.

The matcher keeps each domain subquery's rows across attempts, stamped with
the write stamps of the tables the subquery reads.  Every scenario here
answers one pair so the ``'Oslo'`` domain is cached, changes Flights through
one write path, and submits a second pair that can only be grounded (or only
stays pending) on the *new* rows.  A write path that forgot to bump its
table's stamp would leave the second pair grounded on the cached old rows.

The hypothesis differential holds the production matcher to the interpreted
reference of ``tests/matching_reference.py``, which executes every domain
afresh on every attempt.
"""

from __future__ import annotations

import random
import sys
import threading
from typing import Any, Callable

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from matching_reference import InterpretedMatcher

from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem
from repro.sqlparser import ast
from repro.sqlparser.pretty import format_statement

FLIGHTS_DDL = "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)"
FLIGHTS_ROWS = "INSERT INTO Flights VALUES (1, 'Oslo'), (2, 'Rome'), (3, 'Rome')"


def build_system(seed: int = 3) -> YoutopiaSystem:
    system = YoutopiaSystem(config=SystemConfig(seed=seed))
    system.execute(FLIGHTS_DDL)
    system.execute(FLIGHTS_ROWS)
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


def booking(user: str, partner: str, dest: str = "Oslo", extra: str = "") -> str:
    condition = f" AND {extra}" if extra else ""
    return (
        f"SELECT '{user}', fno INTO ANSWER Reservation "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}'){condition} "
        f"AND ('{partner}', fno) IN ANSWER Reservation CHOOSE 1"
    )


def submit_pair(
    system: YoutopiaSystem, left: str, right: str, dest: str = "Oslo", extra: str = ""
) -> tuple[Any, Any]:
    first = system.submit_entangled(booking(left, right, dest, extra))
    second = system.submit_entangled(booking(right, left, dest, extra))
    return first, second


def booked_flights(system: YoutopiaSystem, *users: str) -> set[int]:
    return {fno for traveler, fno in system.answers("Reservation") if traveler in users}


def record_selects(system: YoutopiaSystem, monkeypatch: pytest.MonkeyPatch) -> list[str]:
    """Every SELECT the system's engine runs from now on, as printed text.

    The coordinator's ``domain_queries`` counter only adds up the work of
    successful attempts, so the tests count executions at the engine.
    """
    runs: list[str] = []
    execute = system.engine.execute

    def counting(statement: Any) -> Any:
        if isinstance(statement, ast.Select):
            runs.append(format_statement(statement))
        return execute(statement)

    monkeypatch.setattr(system.engine, "execute", counting)
    return runs


# ---------------------------------------------------------------------------
# One scenario per write path
# ---------------------------------------------------------------------------


def _sql(*statements: str) -> Callable[[YoutopiaSystem], None]:
    def change(system: YoutopiaSystem) -> None:
        for statement in statements:
            system.execute(statement)

    return change


def _truncate(system: YoutopiaSystem) -> None:
    system.database.truncate("Flights")


def _rollback_by_failing_hook(system: YoutopiaSystem) -> None:
    """A hook moves flights 2 and 3 to Oslo, grounds a pending pair on that state
    from inside the transaction, then fails: the rollback restores Flights."""
    system.submit_entangled(booking("c", "d", extra="fno > 100"))
    system.submit_entangled(booking("d", "c"))
    fired: list[bool] = []

    def failing_hook(relation: str, values: tuple, engine: Any) -> None:
        if fired:
            return
        fired.append(True)
        # flight 3 leaves Rome too, so retrying g/h below cannot ground
        engine.execute("UPDATE Flights SET dest = 'Oslo' WHERE fno >= 2")
        # grounds the pending c/d pair (its predicate fails) on Oslo = {1, 2, 3}
        system.retry_pending()
        raise RuntimeError("side effect failed")

    system.register_side_effect(failing_hook, "Trip")
    system.declare_answer_relation("Trip", ["traveler", "fno"], ["TEXT", "INTEGER"])
    system.submit_entangled(
        "SELECT 'g', fno INTO ANSWER Trip WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest = 'Rome' AND fno = 3) "
        "AND ('h', fno) IN ANSWER Trip CHOOSE 1"
    )
    h = system.submit_entangled(
        "SELECT 'h', fno INTO ANSWER Trip WHERE fno IN "
        "(SELECT fno FROM Flights WHERE dest = 'Rome' AND fno = 3) "
        "AND ('g', fno) IN ANSWER Trip CHOOSE 1"
    )
    assert fired and h.status is QueryStatus.PENDING
    assert system.query("SELECT fno FROM Flights WHERE dest = 'Oslo'").rows == [(1,)]


def _drop_and_create(system: YoutopiaSystem) -> None:
    # the new table sees as many writes as the old one did, so a stamp
    # counted per table (or derived from the table object) would repeat
    system.execute("DROP TABLE Flights")
    system.execute(FLIGHTS_DDL)
    system.execute("INSERT INTO Flights VALUES (4, 'Oslo'), (2, 'Rome'), (3, 'Rome')")


#: ``(write path, change, the second pair's extra condition, flights it may book)``;
#: an empty set means the second pair must stay pending.
WRITE_PATHS: list[tuple[str, Callable[[YoutopiaSystem], None], str, set[int]]] = [
    ("insert", _sql("INSERT INTO Flights VALUES (4, 'Oslo')"), "fno <> 1", {4}),
    (
        "insert-multi-row",
        _sql("INSERT INTO Flights VALUES (4, 'Oslo'), (5, 'Oslo')"),
        "fno <> 1",
        {4, 5},
    ),
    ("update-keyed", _sql("UPDATE Flights SET dest = 'Oslo' WHERE fno = 2"), "fno <> 1", {2}),
    (
        "update-scanning",
        _sql("UPDATE Flights SET dest = 'Oslo' WHERE dest = 'Rome'"),
        "fno <> 1",
        {2, 3},
    ),
    ("delete-keyed", _sql("DELETE FROM Flights WHERE fno = 1"), "", set()),
    ("delete-scanning", _sql("DELETE FROM Flights WHERE dest = 'Oslo'"), "", set()),
    ("truncate", _truncate, "", set()),
    ("rollback-by-failing-hook", _rollback_by_failing_hook, "fno <> 1", set()),
    ("drop-and-create", _drop_and_create, "fno <> 1", {4}),
]


@pytest.mark.parametrize(
    "change, extra, expected",
    [case[1:] for case in WRITE_PATHS],
    ids=[case[0] for case in WRITE_PATHS],
)
def test_a_write_path_invalidates_the_cached_domain(change, extra, expected):
    system = build_system()
    try:
        first, second = submit_pair(system, "a", "b")
        assert first.status is QueryStatus.ANSWERED
        assert booked_flights(system, "a", "b") == {1}

        change(system)
        left, right = submit_pair(system, "x", "y", extra=extra)
        if expected:
            assert left.status is QueryStatus.ANSWERED and right.status is QueryStatus.ANSWERED
            (booked,) = booked_flights(system, "x", "y")
            assert booked in expected
        else:
            assert left.status is QueryStatus.PENDING and right.status is QueryStatus.PENDING
    finally:
        system.close()


def test_an_unchanged_domain_is_not_executed_again(monkeypatch):
    system = build_system()
    runs = record_selects(system, monkeypatch)
    try:
        submit_pair(system, "a", "b")
        assert runs == ["SELECT fno FROM Flights WHERE (dest = 'Oslo')"]
        system.execute("CREATE TABLE Hotels (name TEXT, city TEXT)")
        system.execute("INSERT INTO Hotels VALUES ('Grand', 'Oslo')")  # another table
        system.execute("UPDATE Flights SET dest = 'Rome' WHERE fno = 99")  # no row changes
        for index in range(5):
            left, right = submit_pair(system, f"p{index}", f"q{index}")
            assert right.status is QueryStatus.ANSWERED
        assert len(runs) == 1
        system.execute("INSERT INTO Flights VALUES (7, 'Paris')")
        submit_pair(system, "r", "s")
        assert len(runs) == 2
    finally:
        system.close()


def test_a_domain_over_the_pending_view_is_executed_on_every_attempt(monkeypatch):
    """``_pending_queries`` is a view: it has no stamp and is never cached."""
    system = build_system()
    runs = record_selects(system, monkeypatch)
    system.declare_answer_relation("Watch", ["watcher", "who"], ["TEXT", "TEXT"])

    def watcher(user: str, partner: str, extra: str = "") -> str:
        condition = f" AND {extra}" if extra else ""
        return (
            f"SELECT '{user}', who INTO ANSWER Watch "
            f"WHERE who IN (SELECT owner FROM _pending_queries){condition} "
            f"AND ('{partner}', who) IN ANSWER Watch CHOOSE 1"
        )

    try:
        x = system.submit_entangled(watcher("x", "y", "who = 'zed'"), owner="x")
        y = system.submit_entangled(watcher("y", "x"), owner="y")
        assert y.status is QueryStatus.PENDING  # no pending owner is 'zed' yet
        assert len(runs) == 1
        system.retry_pending()
        assert len(runs) == 3  # once per attempt, x then y
        system.submit_entangled(booking("zed", "nobody"), owner="zed")
        assert system.retry_pending() == 2
        assert x.status is QueryStatus.ANSWERED
        assert sorted(system.answers("Watch")) == [("x", "zed"), ("y", "zed")]
    finally:
        system.close()


def test_a_rollback_keeps_the_cached_domains_of_tables_it_did_not_write(monkeypatch):
    """A failed side-effect hook wrote Flights only: the rollback restores
    Flights but leaves Hotels, its stamp and its cached domain alone."""
    system = build_system()
    system.execute("CREATE TABLE Hotels (hid INT PRIMARY KEY, city TEXT)")
    system.execute("INSERT INTO Hotels VALUES (7, 'Oslo')")
    system.declare_answer_relation("Stay", ["traveler", "hid"], ["TEXT", "INTEGER"])
    system.declare_answer_relation("Trip", ["traveler", "fno"], ["TEXT", "INTEGER"])

    def stay(user: str, partner: str) -> str:
        return (
            f"SELECT '{user}', hid INTO ANSWER Stay "
            "WHERE hid IN (SELECT hid FROM Hotels WHERE city = 'Oslo') "
            f"AND ('{partner}', hid) IN ANSWER Stay CHOOSE 1"
        )

    def trip(user: str, partner: str) -> str:
        return booking(user, partner).replace("Reservation", "Trip")

    def failing_hook(relation: str, values: tuple, engine: Any) -> None:
        engine.execute("UPDATE Flights SET dest = 'Oslo' WHERE fno = 2")
        raise RuntimeError("side effect failed")

    runs = record_selects(system, monkeypatch)
    try:
        system.submit_entangled(stay("a", "b"))
        assert system.submit_entangled(stay("b", "a")).status is QueryStatus.ANSWERED
        hotel_runs = [run for run in runs if "Hotels" in run]
        assert len(hotel_runs) == 1
        hotels_stamp = system.database.stamps(["hotels"])

        system.register_side_effect(failing_hook, "Trip")
        system.submit_entangled(trip("g", "h"))
        assert system.submit_entangled(trip("h", "g")).status is QueryStatus.PENDING
        assert system.statistics()["transactions_rolled_back"] >= 1
        assert system.query("SELECT fno FROM Flights WHERE dest = 'Oslo'").rows == [(1,)]
        assert system.database.stamps(["hotels"]) == hotels_stamp

        assert system.submit_entangled(stay("c", "d")).status is QueryStatus.PENDING
        assert system.submit_entangled(stay("d", "c")).status is QueryStatus.ANSWERED
        assert [run for run in runs if "Hotels" in run] == hotel_runs
    finally:
        system.close()


# ---------------------------------------------------------------------------
# Differential: DML interleaved with submits, against the fresh-domain oracle
# ---------------------------------------------------------------------------

DESTINATIONS = ("Oslo", "Rome")

write = st.one_of(
    st.tuples(st.just("insert"), st.integers(7, 14), st.sampled_from(DESTINATIONS)),
    st.tuples(st.just("update"), st.integers(1, 14), st.sampled_from(DESTINATIONS)),
    st.tuples(st.just("delete"), st.integers(1, 14), st.just("")),
)
pair = st.tuples(st.just("pair"), st.integers(0, 5), st.sampled_from(DESTINATIONS))
coordinate = st.one_of(
    pair,
    pair,
    st.tuples(st.just("half"), st.just(0), st.sampled_from(DESTINATIONS)),
    st.tuples(st.just("retry"), st.just(0), st.just("")),
)
#: every write sits between groundings, so a stale cached domain gets used
steps = st.lists(st.tuples(write, coordinate), min_size=1, max_size=15).map(
    lambda pairs: [op for step in pairs for op in step]
)


def _apply(system: YoutopiaSystem, step: int, op: tuple[str, int, str]) -> None:
    kind, number, dest = op
    if kind == "insert":
        if system.query(f"SELECT fno FROM Flights WHERE fno = {number}").rows:
            return
        system.execute(f"INSERT INTO Flights VALUES ({number}, '{dest}')")
    elif kind == "update":
        system.execute(f"UPDATE Flights SET dest = '{dest}' WHERE fno = {number}")
    elif kind == "delete":
        system.execute(f"DELETE FROM Flights WHERE fno = {number}")
    elif kind == "pair":
        extra = f"fno > {number}"
        submit_pair(system, f"l{step}", f"r{step}", dest, extra)
    elif kind == "half":
        # an extra right side for the pair, if any, two operations later
        system.submit_entangled(booking(f"r{step + 2}", f"l{step + 2}", dest))
    else:
        system.retry_pending()


def _outcome(system: YoutopiaSystem) -> tuple[Any, ...]:
    # query ids are process-wide, so the two systems' ids differ
    statuses = [request.status.value for request in system.coordinator.requests()]
    return (statuses, system.answers("Reservation"))


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(steps, st.integers(0, 2**16))
def test_cached_grounding_matches_fresh_grounding(ops, seed):
    production = build_system(seed)
    reference = build_system(seed)
    for system in (production, reference):
        system.execute("INSERT INTO Flights VALUES (4, 'Oslo'), (5, 'Rome'), (6, 'Oslo')")
    reference.coordinator._matcher = InterpretedMatcher(
        reference.engine,
        rng=reference.coordinator._matcher.rng,
        max_group_size=reference.coordinator._matcher.max_group_size,
    )
    try:
        for step, op in enumerate(ops):
            _apply(production, step, op)
            _apply(reference, step, op)
            assert _outcome(production) == _outcome(reference), f"diverged at step {step}: {op}"
    finally:
        production.close()
        reference.close()


# ---------------------------------------------------------------------------
# A writer thread racing the groundings
# ---------------------------------------------------------------------------


def test_grounding_after_a_racing_writer_sees_its_final_rows():
    """Pairs are grounded while another thread keeps updating Flights; once the
    writer is joined, the next grounding must see the rows it left.

    A cache that read the stamps *after* executing could store rows read
    before a racing write under the stamp that write set, and reuse them.
    """
    flights = 200
    system = YoutopiaSystem(config=SystemConfig(seed=11))
    system.execute(FLIGHTS_DDL)
    system.execute(
        "INSERT INTO Flights VALUES "
        + ", ".join(f"({fno}, '{'Oslo' if fno % 4 == 0 else 'Rome'}')" for fno in range(1, flights + 1))
    )
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for round_number in range(20):
            final = 1 + (7 * round_number) % flights
            rng = random.Random(round_number)

            def writer() -> None:
                for _ in range(40):
                    fno = rng.randint(1, flights)
                    dest = rng.choice(("Oslo", "Rome"))
                    system.execute(f"UPDATE Flights SET dest = '{dest}' WHERE fno = {fno}")
                system.execute("UPDATE Flights SET dest = 'Rome'")
                system.execute(f"UPDATE Flights SET dest = 'Oslo' WHERE fno = {final}")

            thread = threading.Thread(target=writer)
            thread.start()
            index = 0
            while thread.is_alive():
                submit_pair(system, f"w{round_number}-{index}", f"v{round_number}-{index}")
                index += 1
            thread.join(timeout=60)
            assert not thread.is_alive(), f"round {round_number}: the writer did not finish"

            check, mate = f"check{round_number}", f"mate{round_number}"
            _, answered = submit_pair(system, check, mate)
            assert answered.status is QueryStatus.ANSWERED, f"round {round_number}"
            assert booked_flights(system, check, mate) == {final}, f"round {round_number}"
            system.execute(f"UPDATE Flights SET dest = 'Oslo' WHERE fno % 4 = 0")
    finally:
        sys.setswitchinterval(interval)
        system.close()
