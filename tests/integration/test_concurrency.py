"""Integration tests for concurrent submission of entangled queries.

The demo shows "multiple users ... concurrently trying to coordinate flight
and hotel reservations together"; the coordinator serialises match attempts
internally, so submissions from many threads must still produce consistent,
pairwise-coordinated answers and consistent inventory.
"""

from __future__ import annotations

import threading

import pytest

from repro.apps.travel.service import TravelService
from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem
from repro.errors import (
    CoordinationTimeoutError,
    EntanglementError,
    QueryNotPendingError,
)
from repro.workloads import WorkloadConfig, WorkloadGenerator, build_loaded_system


class TestConcurrentSubmission:
    def test_pairs_submitted_from_many_threads_all_coordinate(self):
        system, service, _friends = build_loaded_system(
            num_flights=40, num_hotels=10, num_users=64, seed=6
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=6))
        items = generator.pair_items(16)

        requests = []
        requests_lock = threading.Lock()

        def submit(item):
            request = system.submit_entangled(item.query, owner=item.owner)
            with requests_lock:
                requests.append(request)

        threads = [threading.Thread(target=submit, args=(item,)) for item in items]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert len(requests) == 32
        assert all(request.status is QueryStatus.ANSWERED for request in requests)
        reservations = system.answers("Reservation")
        assert len(reservations) == 32

        # every traveller flies on exactly the flight their partner flies on
        booked = dict(reservations)
        for item in items:
            partner = item.expected_group[0] if item.expected_group[0] != item.owner else item.expected_group[1]
            assert booked[item.owner] == booked[partner]

    def test_inventory_consistent_under_concurrent_bookings(self):
        system, service, _friends = build_loaded_system(
            num_flights=10, num_hotels=5, num_users=32, seed=7
        )
        seats_before = {
            fno: seats for fno, seats in system.query("SELECT fno, seats FROM Flights").rows
        }
        generator = WorkloadGenerator(service, WorkloadConfig(seed=7))
        items = generator.pair_items(10)

        threads = [
            threading.Thread(target=system.submit_entangled, args=(item.query, item.owner))
            for item in items
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        seats_after = {
            fno: seats for fno, seats in system.query("SELECT fno, seats FROM Flights").rows
        }
        booked_per_flight: dict[int, int] = {}
        for _traveler, fno in system.answers("Reservation"):
            booked_per_flight[fno] = booked_per_flight.get(fno, 0) + 1
        # seat decrements exactly mirror the reservations that were made
        for fno, before in seats_before.items():
            assert seats_after[fno] == before - booked_per_flight.get(fno, 0)

    def test_waiters_are_woken_by_other_threads(self):
        system, service, _friends = build_loaded_system(
            num_flights=12, num_hotels=4, num_users=8, seed=8
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=8))
        first, second = generator.pair_items(1)

        early = system.submit_entangled(first.query, owner=first.owner)
        answers = {}

        def waiter():
            answers["result"] = system.wait(early.query_id, timeout=5.0)

        waiting_thread = threading.Thread(target=waiter)
        waiting_thread.start()
        system.submit_entangled(second.query, owner=second.owner)
        waiting_thread.join(timeout=5.0)
        assert not waiting_thread.is_alive()
        assert "Reservation" in answers["result"].tuples


class TestSubmitWaitCancelRaces:
    """Threaded submit/wait/cancel races on one coordinator."""

    def test_cancel_races_with_waiters(self):
        """Waiters blocked on a query must be released when another thread cancels it."""
        system, service, _friends = build_loaded_system(
            num_flights=12, num_hotels=4, num_users=16, seed=20
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=20))
        items = generator.unmatchable_items(8)
        requests = [system.submit_entangled(item.query, owner=item.owner) for item in items]

        outcomes: dict[str, str] = {}
        outcomes_lock = threading.Lock()

        def waiter(query_id: str) -> None:
            try:
                system.wait(query_id, timeout=5.0)
                outcome = "answered"
            except CoordinationTimeoutError:
                outcome = "timeout"
            except EntanglementError:
                outcome = "cancelled"
            with outcomes_lock:
                outcomes[query_id] = outcome

        waiters = [
            threading.Thread(target=waiter, args=(request.query_id,)) for request in requests
        ]
        for thread in waiters:
            thread.start()

        cancellers = [
            threading.Thread(target=system.cancel, args=(request.query_id,))
            for request in requests
        ]
        for thread in cancellers:
            thread.start()
        for thread in cancellers:
            thread.join(timeout=5.0)
        for thread in waiters:
            thread.join(timeout=5.0)
        assert not any(thread.is_alive() for thread in waiters)
        assert all(outcome == "cancelled" for outcome in outcomes.values())
        assert system.coordinator.pending_count() == 0

    def test_concurrent_cancel_of_same_query_cancels_exactly_once(self):
        system, service, _friends = build_loaded_system(
            num_flights=12, num_hotels=4, num_users=4, seed=21
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=21))
        (item,) = generator.unmatchable_items(1)
        request = system.submit_entangled(item.query, owner=item.owner)

        errors: list[Exception] = []
        errors_lock = threading.Lock()

        def cancel() -> None:
            try:
                system.cancel(request.query_id)
            except QueryNotPendingError as exc:
                with errors_lock:
                    errors.append(exc)

        threads = [threading.Thread(target=cancel) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=5.0)
        # exactly one cancel wins; the others observe the query as gone
        assert len(errors) == 7
        assert request.status is QueryStatus.CANCELLED
        assert system.statistics()["queries_cancelled"] == 1

    def test_mixed_submit_wait_cancel_storm_stays_consistent(self):
        """Pairs coordinate, noise is cancelled, waiters finish — all under contention."""
        system, service, _friends = build_loaded_system(
            num_flights=40, num_hotels=10, num_users=64, seed=22
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=22))
        pairs = generator.pair_items(8)
        noise = generator.unmatchable_items(8)
        noise_requests = [
            system.submit_entangled(item.query, owner=item.owner) for item in noise
        ]

        pair_requests = []
        pair_lock = threading.Lock()
        wait_results: list[str] = []

        def submit_pair_member(item) -> None:
            request = system.submit_entangled(item.query, owner=item.owner)
            with pair_lock:
                pair_requests.append(request)

        def wait_for_noise(query_id: str) -> None:
            try:
                system.wait(query_id, timeout=5.0)
                wait_results.append("answered")
            except EntanglementError:
                wait_results.append("gone")

        submitters = [
            threading.Thread(target=submit_pair_member, args=(item,)) for item in pairs
        ]
        waiters = [
            threading.Thread(target=wait_for_noise, args=(request.query_id,))
            for request in noise_requests
        ]
        cancellers = [
            threading.Thread(target=system.cancel, args=(request.query_id,))
            for request in noise_requests
        ]
        threads = submitters + waiters + cancellers
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert not any(thread.is_alive() for thread in threads)

        assert all(request.status is QueryStatus.ANSWERED for request in pair_requests)
        assert all(request.status is QueryStatus.CANCELLED for request in noise_requests)
        assert len(wait_results) == len(noise_requests)
        assert system.coordinator.pending_count() == 0


class TestBatchSubmission:
    """`submit_many` under cross-referencing and concurrent batches."""

    def test_batch_answers_cross_referencing_pairs_in_one_pass(self):
        system, service, _friends = build_loaded_system(
            num_flights=40, num_hotels=10, num_users=64, seed=23
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=23))
        items = generator.pair_items(16)

        requests = system.submit_many([item.query for item in items])
        assert len(requests) == 32
        assert all(request.status is QueryStatus.ANSWERED for request in requests)

        stats = system.statistics()
        # one match pass per answered group, no failed passes: the whole pool
        # was registered before the single deferred pass ran
        assert stats["groups_matched"] == 16
        assert stats["match_attempts"] == 16
        assert stats["failed_match_attempts"] == 0

        # every traveller flies on exactly the flight their partner flies on
        booked = dict(system.answers("Reservation"))
        for item in items:
            partner = (
                item.expected_group[0]
                if item.expected_group[0] != item.owner
                else item.expected_group[1]
            )
            assert booked[item.owner] == booked[partner]

    def test_concurrent_batches_from_many_threads(self):
        system, service, _friends = build_loaded_system(
            num_flights=40, num_hotels=10, num_users=64, seed=24
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=24))
        batches = [
            [item.query for item in generator.pair_items(4)] for _ in range(4)
        ]

        all_requests = []
        requests_lock = threading.Lock()

        def submit_batch(queries) -> None:
            requests = system.submit_many(queries)
            with requests_lock:
                all_requests.extend(requests)

        threads = [threading.Thread(target=submit_batch, args=(batch,)) for batch in batches]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)

        assert len(all_requests) == 32
        assert all(request.status is QueryStatus.ANSWERED for request in all_requests)
        assert system.coordinator.pending_count() == 0


def pair_sql(relation: str, traveler: str, companion: str) -> str:
    return (
        f"SELECT '{traveler}', fno INTO ANSWER {relation} "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{companion}', fno) IN ANSWER {relation} CHOOSE 1"
    )


class TestRollbackRace:
    """A joint execution that fails rolls the database back to the snapshot
    taken when its transaction began; work other threads did meanwhile must
    survive that rollback."""

    @staticmethod
    def blocked_failing_execution(system):
        """Start a pair whose side-effect hook blocks, then fails.

        Returns once the hook is blocking (the transaction is open): call
        the returned function to let the execution fail and wait it out."""
        entered, release = threading.Event(), threading.Event()

        def hook(_relation, _values, _engine):
            entered.set()
            release.wait(timeout=10.0)
            raise RuntimeError("side effect failed")

        system.execute_script(
            "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);"
            "INSERT INTO Flights VALUES (122, 'Paris'), (136, 'Rome')"
        )
        system.register_side_effect(hook, relation="Reservation")
        # an inline coordinator executes on the submitting thread
        submitter = threading.Thread(
            target=system.submit_many,
            args=([pair_sql("Reservation", "K", "J"), pair_sql("Reservation", "J", "K")],),
            daemon=True,
        )
        submitter.start()
        assert entered.wait(timeout=10.0)

        def fail_and_settle() -> None:
            release.set()
            submitter.join(timeout=10.0)
            assert not submitter.is_alive()

        return fail_and_settle

    def test_registrations_during_a_failing_execution_stay_visible(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        try:
            # Parked first: the submitting thread holds the coordinator lock
            # for the whole blocked execution, so nobody can register during it.
            parked = [
                system.submit_entangled(pair_sql("Booking", f"t{i}", f"ghost{i}"))
                for i in range(4)
            ]
            fail_and_settle = self.blocked_failing_execution(system)
            fail_and_settle()
            listed = {row[0] for row in system.query("SELECT query_id FROM _pending_queries").rows}
            assert {request.query_id for request in parked} <= listed
            assert all(request.status is QueryStatus.PENDING for request in parked)
            assert system.statistics()["executions_failed"] >= 1
        finally:
            system.close()

    @pytest.mark.xfail(
        strict=True,
        reason="the rollback restores a whole-database snapshot, erasing DML other "
        "threads committed while the failing transaction was open",
    )
    def test_dml_acknowledged_during_a_failing_execution_survives(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        try:
            fail_and_settle = self.blocked_failing_execution(system)
            system.execute("INSERT INTO Flights VALUES (140, 'Oslo')")
            fail_and_settle()
            assert system.query("SELECT dest FROM Flights WHERE fno = 140").rows == [("Oslo",)]
        finally:
            system.close()
