"""Transport-agnostic conformance scenarios for the coordination service.

Every class here is a scenario suite written purely against the
``CoordinationService`` / ``IntrospectionService`` protocol surface — no
reaching into ``service.system``, no concrete handle classes.  Two test
modules instantiate them against different transports:

* ``tests/unit/service/test_service_api.py`` — ``InProcessService``;
* ``tests/integration/test_remote_conformance.py`` — ``RemoteService``
  against a live ``AsyncCoordinationServer`` on localhost.

A transport passes the suite iff callers cannot tell it apart from the
in-process implementation: same typed errors, same handle semantics, same
coordination outcomes, same statistics.  Each module provides a ``service``
fixture yielding a fresh service with the Flights table loaded and the
``Reservation`` answer relation declared (see :data:`SETUP`).

Completion-callback scenarios use :func:`wait_until` instead of asserting
immediately: in-process callbacks fire synchronously inside the completing
``submit``, while a network transport delivers them asynchronously via
server push — both are conformant, so the scenarios accept either timing.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Callable

import pytest

from repro.core.compiler import compile_entangled
from repro.core.coordinator import QueryStatus
from repro.errors import (
    CoordinationTimeoutError,
    EntanglementError,
    PlanError,
    QueryNotPendingError,
)
from repro.service import AnswerEnvelope, SubmitRequest

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

_owner_counter = itertools.count(1)


def fresh_owner(prefix: str = "user") -> str:
    """A process-unique owner name (scenarios share one answer relation)."""
    return f"{prefix}{next(_owner_counter):04d}"


def pair_sql(owner: str, partner: str) -> str:
    """An entangled booking for ``owner`` that coordinates with ``partner``."""
    return (
        f"SELECT '{owner}', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{partner}', fno) IN ANSWER Reservation CHOOSE 1"
    )


def unmatchable_sql(owner: str) -> str:
    """A booking whose partner never submits — stays pending forever."""
    return pair_sql(owner, f"ghost-{owner}")


def wait_until(predicate: Callable[[], bool], timeout: float = 5.0) -> bool:
    """Poll ``predicate`` until true or the deadline passes (returns it)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.005)
    return predicate()


# ---------------------------------------------------------------------------
# Single-query submission and the future-style handle surface
# ---------------------------------------------------------------------------


class SubmissionConformance:
    def test_submit_returns_future_style_handle(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer", tag="k"))
        for attribute in ("result", "done", "exception", "add_done_callback", "cancel"):
            assert callable(getattr(kramer, attribute))
        assert kramer.owner == "Kramer" and kramer.tag == "k"
        assert not kramer.done()
        jerry = service.submit(JERRY_SQL, owner="Jerry")
        assert jerry.done()
        assert wait_until(kramer.done)
        assert kramer.is_answered and jerry.is_answered

    def test_result_returns_answer_envelope(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        envelope = kramer.result(timeout=5.0)
        assert isinstance(envelope, AnswerEnvelope)
        assert envelope.owner == "Kramer"
        assert kramer.query_id in envelope.group and len(envelope.group) == 2
        (relation, values), *_ = envelope.all_tuples()
        assert relation == "Reservation" and values[0] == "Kramer"

    def test_result_timeout_raises(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        with pytest.raises(CoordinationTimeoutError):
            kramer.result(timeout=0.01)

    def test_wait_with_zero_timeout_returns_an_answered_query(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        jerry = service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        assert wait_until(kramer.done) and jerry.is_answered
        assert service.wait(kramer.query_id, timeout=0).owner == "Kramer"
        envelopes = service.wait_many([kramer.query_id, jerry.query_id], timeout=0)
        assert [envelope.owner for envelope in envelopes] == ["Kramer", "Jerry"]
        assert service.stats()["queries_timed_out"] == 0

    def test_exception_surfaces_cancellation(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        kramer.cancel()
        assert wait_until(kramer.cancelled)
        error = kramer.exception()
        assert isinstance(error, EntanglementError)
        with pytest.raises(EntanglementError):
            kramer.result(timeout=0.1)

    def test_done_callback_fires_on_answer(self, service):
        fired: list[str] = []
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        kramer.add_done_callback(lambda handle: fired.append(handle.query_id))
        assert fired == []
        service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        assert wait_until(lambda: fired == [kramer.query_id])

    def test_done_callback_fires_immediately_when_terminal(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        kramer.result(timeout=5.0)
        fired: list[str] = []
        kramer.add_done_callback(lambda handle: fired.append(handle.query_id))
        assert fired == [kramer.query_id]

    def test_broken_callback_does_not_poison_coordination(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        kramer.add_done_callback(lambda _handle: 1 / 0)
        jerry = service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        assert jerry.is_answered
        assert wait_until(lambda: kramer.is_answered)

    def test_callback_sees_whole_group_in_final_state(self, service):
        """Done callbacks observe every group member already terminal."""
        observed: dict[str, object] = {}
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))

        def observe(handle) -> None:
            partner_id = next(
                qid for qid in handle.group_query_ids if qid != handle.query_id
            )
            partner = service.request(partner_id)
            observed["partner_status"] = partner.status
            observed["partner_result"] = partner.result(timeout=5.0)

        kramer.add_done_callback(observe)
        service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        assert wait_until(lambda: "partner_result" in observed)
        assert observed["partner_status"] is QueryStatus.ANSWERED
        assert observed["partner_result"].owner == "Jerry"

    def test_handle_equality_is_by_query_id(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        assert kramer == service.request(kramer.query_id)
        assert kramer in {service.request(kramer.query_id)}


# ---------------------------------------------------------------------------
# Batch submission
# ---------------------------------------------------------------------------


class BatchConformance:
    def test_submit_many_answers_cross_referencing_pair(self, service):
        kramer, jerry = service.submit_many(
            [
                SubmitRequest(sql=KRAMER_SQL, owner="Kramer", tag="left"),
                SubmitRequest(sql=JERRY_SQL, owner="Jerry", tag="right"),
            ]
        )
        assert kramer.is_answered and jerry.is_answered
        assert (kramer.tag, jerry.tag) == ("left", "right")
        stats = service.stats()
        assert stats["match_attempts"] == 1
        assert stats["groups_matched"] == 1
        assert stats["failed_match_attempts"] == 0

    def test_submit_many_rejected_item_does_not_abort_batch(self, service):
        unsafe = (
            "SELECT 'Loner', fno INTO ANSWER Reservation "
            "WHERE ('Ghost', fno) IN ANSWER Reservation"
        )
        handles = service.submit_many(
            [
                SubmitRequest(sql=KRAMER_SQL, owner="Kramer"),
                SubmitRequest(sql=unsafe, owner="Loner"),
                SubmitRequest(sql=JERRY_SQL, owner="Jerry"),
            ]
        )
        assert handles[0].is_answered and handles[2].is_answered
        assert handles[1].status is QueryStatus.REJECTED
        assert handles[1].error
        assert handles[1].exception() is not None

    def test_submit_many_default_owner_applies(self, service):
        (handle,) = service.submit_many([KRAMER_SQL], owner="Kramer")
        assert handle.owner == "Kramer"

    def test_duplicate_batch_handle_is_terminal_and_self_contained(self, service):
        """A batch-rejected duplicate shares its id with the original; its
        handle must resolve against its own record, not the registered one."""
        query = compile_entangled(KRAMER_SQL, owner="Kramer")
        original, duplicate = service.submit_many([query, query])
        assert original.status is QueryStatus.PENDING
        assert duplicate.status is QueryStatus.REJECTED
        with pytest.raises(EntanglementError):
            duplicate.result(timeout=1.0)
        fired: list[str] = []
        duplicate.add_done_callback(lambda handle: fired.append(handle.status.value))
        assert fired == ["rejected"]
        # the original registration is untouched by the duplicate's handle
        assert original.status is QueryStatus.PENDING

    def test_wait_many_returns_envelope_per_query(self, service):
        handles = service.submit_many(
            [
                SubmitRequest(sql=KRAMER_SQL, owner="Kramer"),
                SubmitRequest(sql=JERRY_SQL, owner="Jerry"),
            ]
        )
        envelopes = service.wait_many([handle.query_id for handle in handles], timeout=5.0)
        assert [envelope.owner for envelope in envelopes] == ["Kramer", "Jerry"]


# ---------------------------------------------------------------------------
# Plain SQL through the service
# ---------------------------------------------------------------------------


class PlainQueryConformance:
    def test_relation_result_scalar_and_iteration(self, service):
        result = service.query("SELECT COUNT(*) FROM Flights")
        assert result.scalar() == 3
        rows = service.query("SELECT fno FROM Flights ORDER BY fno")
        assert len(rows) == 3
        assert list(rows) == [(122,), (123,), (136,)]
        with pytest.raises(ValueError):
            rows.scalar()

    def test_query_rejects_entangled_sql(self, service):
        with pytest.raises(PlanError):
            service.query(KRAMER_SQL)

    def test_answers_reflect_coordination(self, service):
        service.submit_many(
            [
                SubmitRequest(sql=KRAMER_SQL, owner="Kramer"),
                SubmitRequest(sql=JERRY_SQL, owner="Jerry"),
            ]
        )
        booked = dict(service.answers("Reservation"))
        assert set(booked) == {"Kramer", "Jerry"}
        assert booked["Kramer"] == booked["Jerry"]


# ---------------------------------------------------------------------------
# Introspection extensions
# ---------------------------------------------------------------------------


class IntrospectionConformance:
    def test_requests_pending_and_retry(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        assert [query.query_id for query in service.pending_queries()] == [kramer.query_id]
        assert service.requests() == [kramer]
        assert service.retry_pending() == 0
        stats = service.stats()
        assert stats.pending == 1
        assert stats["queries_registered"] == 1

    def test_pending_query_carries_owner_and_constraints(self, service):
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        (pending,) = service.pending_queries()
        assert pending.query_id == kramer.query_id
        assert pending.owner == "Kramer"
        assert pending.answer_relations() == {"Reservation"}

    def test_stats_includes_transaction_counters(self, service):
        counters = service.stats().as_dict()
        assert "transactions_committed" in counters
        assert "transactions_rolled_back" in counters


# ---------------------------------------------------------------------------
# Match policies: priority submissions and the matching statistics block
# ---------------------------------------------------------------------------


class PolicyConformance:
    """Match-policy surface through the protocol: ``SubmitRequest.priority``
    must round-trip to the pending pool on every transport, prioritised
    submissions must coordinate exactly like plain ones, and ``stats()``
    must expose the policy decision counters."""

    def test_priority_round_trips_to_pending_pool(self, service):
        owner = fresh_owner("pr")
        handle = service.submit(
            SubmitRequest(sql=unmatchable_sql(owner), owner=owner, priority=7.5)
        )
        pending = {query.query_id: query for query in service.pending_queries()}
        assert pending[handle.query_id].priority == 7.5

    def test_priority_defaults_to_absent(self, service):
        owner = fresh_owner("pd")
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(owner), owner=owner))
        pending = {query.query_id: query for query in service.pending_queries()}
        assert pending[handle.query_id].priority is None

    def test_prioritised_pair_coordinates_like_plain_pair(self, service):
        left, right = fresh_owner("pl"), fresh_owner("pm")
        first = service.submit(
            SubmitRequest(sql=pair_sql(left, right), owner=left, priority=2.0)
        )
        second = service.submit(SubmitRequest(sql=pair_sql(right, left), owner=right))
        envelope = first.result(timeout=5.0)
        assert set(envelope.group) == {first.query_id, second.query_id}
        assert second.result(timeout=5.0).owner == right

    def test_stats_expose_matching_policy_and_decisions(self, service):
        matching = dict(service.stats().matching)
        assert matching["policy"] in {"first_match", "priority", "fairness", "min_cost"}
        assert matching["candidate_limit"] >= 1
        before = matching["decisions"]
        left, right = fresh_owner("ps"), fresh_owner("pt")
        service.submit(SubmitRequest(sql=pair_sql(left, right), owner=left))
        handle = service.submit(SubmitRequest(sql=pair_sql(right, left), owner=right))
        handle.result(timeout=5.0)
        after = dict(service.stats().matching)
        assert after["decisions"] >= before + 1
        assert after["groups_enumerated"] >= after["decisions"]


# ---------------------------------------------------------------------------
# Concurrency: many client threads against one service
# ---------------------------------------------------------------------------


class ConcurrencyConformance:
    """Threaded submit/wait/cancel races through the protocol surface only."""

    def test_pairs_submitted_from_many_threads_all_coordinate(self, service):
        pairs = [(fresh_owner("ca"), fresh_owner("cb")) for _ in range(8)]
        items = [
            (owner, pair_sql(owner, partner))
            for left, right in pairs
            for owner, partner in ((left, right), (right, left))
        ]
        handles = []
        handles_lock = threading.Lock()

        def submit(owner: str, sql: str) -> None:
            handle = service.submit(SubmitRequest(sql=sql, owner=owner))
            with handles_lock:
                handles.append(handle)

        threads = [threading.Thread(target=submit, args=item) for item in items]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)

        assert len(handles) == 16
        for handle in handles:
            handle.result(timeout=10.0)
        booked = dict(service.answers("Reservation"))
        for left, right in pairs:
            assert booked[left] == booked[right]

    def test_cancel_races_with_waiters(self, service):
        """Waiters blocked on a query are released when another thread cancels."""
        handles = [
            service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("cw"))))
            for _ in range(6)
        ]
        outcomes: dict[str, str] = {}
        outcomes_lock = threading.Lock()

        def waiter(query_id: str) -> None:
            try:
                service.wait(query_id, timeout=10.0)
                outcome = "answered"
            except CoordinationTimeoutError:
                outcome = "timeout"
            except EntanglementError:
                outcome = "cancelled"
            with outcomes_lock:
                outcomes[query_id] = outcome

        waiters = [
            threading.Thread(target=waiter, args=(handle.query_id,)) for handle in handles
        ]
        for thread in waiters:
            thread.start()
        cancellers = [
            threading.Thread(target=service.cancel, args=(handle.query_id,))
            for handle in handles
        ]
        for thread in cancellers:
            thread.start()
        for thread in cancellers + waiters:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in waiters)
        assert all(outcome == "cancelled" for outcome in outcomes.values())
        assert service.stats().pending == 0

    def test_concurrent_cancel_of_same_query_cancels_exactly_once(self, service):
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("cc"))))
        errors: list[Exception] = []
        errors_lock = threading.Lock()

        def cancel() -> None:
            try:
                service.cancel(handle.query_id)
            except QueryNotPendingError as exc:
                with errors_lock:
                    errors.append(exc)

        threads = [threading.Thread(target=cancel) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        # exactly one cancel wins; the others observe the query as gone
        assert len(errors) == 5
        assert wait_until(handle.cancelled)
        assert service.stats()["queries_cancelled"] == 1

    def test_waiters_are_woken_by_other_threads(self, service):
        left, right = fresh_owner("ww"), fresh_owner("ww")
        early = service.submit(SubmitRequest(sql=pair_sql(left, right), owner=left))
        answers: dict[str, AnswerEnvelope] = {}

        def wait_for_early() -> None:
            answers["envelope"] = service.wait(early.query_id, timeout=10.0)

        waiting = threading.Thread(target=wait_for_early)
        waiting.start()
        service.submit(SubmitRequest(sql=pair_sql(right, left), owner=right))
        waiting.join(timeout=10.0)
        assert not waiting.is_alive()
        assert "Reservation" in answers["envelope"].tuples

    def test_concurrent_batches_from_many_threads(self, service):
        batches = []
        for _ in range(4):
            batch = []
            for _ in range(3):
                left, right = fresh_owner("ba"), fresh_owner("bb")
                batch.append(SubmitRequest(sql=pair_sql(left, right), owner=left))
                batch.append(SubmitRequest(sql=pair_sql(right, left), owner=right))
            batches.append(batch)

        all_handles = []
        handles_lock = threading.Lock()

        def submit_batch(batch) -> None:
            handles = service.submit_many(batch)
            with handles_lock:
                all_handles.extend(handles)

        threads = [threading.Thread(target=submit_batch, args=(batch,)) for batch in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)

        assert len(all_handles) == 24
        for handle in all_handles:
            handle.result(timeout=10.0)
        assert service.stats().pending == 0
