"""Concurrency stress: 8 threads hammering one coordinator.

Mixed ``submit`` / ``submit_many`` / ``cancel`` / ``retry_pending`` / ``wait``
traffic against one system, then global invariants:

* **no lost answers** — every pair whose members were not cancelled is
  answered, and each member's group is exactly its pair;
* **no double execution** — every answered query contributed exactly one
  answer tuple, and every query id appears in at most one answered group;
* **cancel/match races stay consistent** — a pair is never half answered and
  half cancelled: cancellation either wins while pending or raises the typed
  :class:`~repro.errors.QueryAlreadyAnsweredError` after the match.
"""

from __future__ import annotations

import random
import threading
import time

from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem
from repro.errors import (
    CoordinationTimeoutError,
    EntanglementError,
    QueryAlreadyAnsweredError,
    QueryNotPendingError,
)

RELATIONS = ("ResA", "ResB", "ResC", "ResD")
NUM_PAIRS = 24
NUM_NOISE = 16
CANCEL_TARGET_PAIRS = 4


def build_system() -> YoutopiaSystem:
    config = SystemConfig(seed=3)
    system = YoutopiaSystem(config=config)
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    system.execute(
        "INSERT INTO Flights VALUES "
        + ", ".join(f"({fno}, 'Paris')" for fno in range(1, 41))
    )
    for relation in RELATIONS:
        system.declare_answer_relation(relation, ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


def entangled(user: str, partner: str, relation: str, dest: str = "Paris") -> str:
    return (
        f"SELECT '{user}', fno INTO ANSWER {relation} "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') "
        f"AND ('{partner}', fno) IN ANSWER {relation} CHOOSE 1"
    )


def test_eight_thread_mixed_storm_keeps_invariants():
    system = build_system()
    try:
        rng = random.Random(17)

        pairs: list[tuple[str, str, str]] = []
        for index in range(NUM_PAIRS):
            relation = RELATIONS[index % len(RELATIONS)]
            pairs.append((f"p{index}a", f"p{index}b", relation))

        pair_queries = []
        for left, right, relation in pairs:
            pair_queries.append(system.compile(entangled(left, right, relation)))
            pair_queries.append(system.compile(entangled(right, left, relation)))
        pair_ids = {query.query_id: index // 2 for index, query in enumerate(pair_queries)}

        # noise submitted up-front so the canceller has real ids to chase
        noise_requests = [
            system.submit_entangled(
                entangled(f"n{index}", f"ghost-n{index}", rng.choice(RELATIONS))
            )
            for index in range(NUM_NOISE)
        ]

        shuffled = list(pair_queries)
        rng.shuffle(shuffled)
        # 3 single submitters + 2 batch submitters share the pair workload
        chunks = [shuffled[offset::5] for offset in range(5)]
        errors: list[Exception] = []
        errors_lock = threading.Lock()
        start_gate = threading.Event()

        def record_error(exc: Exception) -> None:
            with errors_lock:
                errors.append(exc)

        def single_submitter(queries) -> None:
            start_gate.wait()
            for query in queries:
                try:
                    system.submit_entangled(query)
                except Exception as exc:  # noqa: BLE001
                    record_error(exc)

        def batch_submitter(queries) -> None:
            start_gate.wait()
            for offset in range(0, len(queries), 3):
                try:
                    system.submit_many(queries[offset : offset + 3])
                except Exception as exc:  # noqa: BLE001
                    record_error(exc)

        cancel_outcomes: dict[str, str] = {}

        def canceller() -> None:
            start_gate.wait()
            targets = [request.query_id for request in noise_requests]
            targets += [
                query.query_id
                for query in pair_queries
                if pair_ids[query.query_id] < CANCEL_TARGET_PAIRS
            ]
            rng_local = random.Random(5)
            rng_local.shuffle(targets)
            for query_id in targets:
                try:
                    system.cancel(query_id)
                    cancel_outcomes[query_id] = "cancelled"
                except QueryAlreadyAnsweredError:
                    cancel_outcomes[query_id] = "answered"
                except QueryNotPendingError:
                    cancel_outcomes[query_id] = "gone"
                except Exception as exc:  # noqa: BLE001
                    record_error(exc)
                time.sleep(0.001)

        def retryer() -> None:
            start_gate.wait()
            for _ in range(10):
                try:
                    system.retry_pending()
                except Exception as exc:  # noqa: BLE001
                    record_error(exc)
                time.sleep(0.002)

        wait_results: dict[str, str] = {}
        wait_lock = threading.Lock()

        def waiter() -> None:
            start_gate.wait()
            safe_ids = [
                query.query_id
                for query in pair_queries
                if pair_ids[query.query_id] >= CANCEL_TARGET_PAIRS
            ][:12]
            for query_id in safe_ids:
                deadline = time.monotonic() + 20.0
                outcome = "timeout"
                while time.monotonic() < deadline:
                    try:
                        system.wait(query_id, timeout=deadline - time.monotonic())
                        outcome = "answered"
                        break
                    except QueryNotPendingError:
                        # racing the submitter threads: not registered yet
                        time.sleep(0.002)
                    except CoordinationTimeoutError:
                        outcome = "timeout"
                        break
                    except EntanglementError:
                        outcome = "failed"
                        break
                    except Exception as exc:  # noqa: BLE001
                        record_error(exc)
                        outcome = "error"
                        break
                with wait_lock:
                    wait_results[query_id] = outcome

        threads = (
            [threading.Thread(target=single_submitter, args=(chunks[i],)) for i in range(3)]
            + [threading.Thread(target=batch_submitter, args=(chunks[i],)) for i in (3, 4)]
            + [
                threading.Thread(target=canceller),
                threading.Thread(target=retryer),
                threading.Thread(target=waiter),
            ]
        )
        assert len(threads) == 8
        for thread in threads:
            thread.start()
        start_gate.set()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        system.retry_pending()  # settle anything the storm left matchable

        assert not errors, errors

        requests = {request.query_id: request for request in system.coordinator.requests()}

        # pair-level invariants
        by_pair: dict[int, list] = {}
        for query in pair_queries:
            by_pair.setdefault(pair_ids[query.query_id], []).append(
                requests[query.query_id]
            )
        for pair_index, members in by_pair.items():
            statuses = {member.status for member in members}
            if pair_index >= CANCEL_TARGET_PAIRS:
                # untouched by the canceller: must coordinate — no lost answers
                assert statuses == {QueryStatus.ANSWERED}, (
                    f"pair {pair_index}: {statuses}"
                )
            if statuses == {QueryStatus.ANSWERED}:
                expected_group = frozenset(member.query_id for member in members)
                for member in members:
                    assert frozenset(member.group_query_ids) == expected_group
            else:
                # a cancelled member can never coexist with an answered partner
                assert QueryStatus.ANSWERED not in statuses, (
                    f"pair {pair_index} half-answered: {statuses}"
                )

        # no double execution: one tuple per answered query, globally
        answered = [
            request
            for request in requests.values()
            if request.status is QueryStatus.ANSWERED
        ]
        total_tuples = sum(len(system.answers(relation)) for relation in RELATIONS)
        assert total_tuples == len(answered)
        seen_in_groups: set[str] = set()
        for request in answered:
            assert request.query_id not in seen_in_groups
        for group in {frozenset(request.group_query_ids) for request in answered}:
            assert not (group & seen_in_groups)
            seen_in_groups |= group

        # noise: cancelled by the canceller or still pending; never answered
        for request in noise_requests:
            assert request.status in (QueryStatus.CANCELLED, QueryStatus.PENDING)

        # waiters on uncancelled pairs all observed the answer
        assert wait_results and all(
            outcome == "answered" for outcome in wait_results.values()
        ), wait_results

        # statistics agree with the request records
        stats = system.statistics()
        assert stats["queries_answered"] == len(answered)
        assert stats["queries_cancelled"] == sum(
            1
            for outcome in cancel_outcomes.values()
            if outcome == "cancelled"
        )
    finally:
        system.close()
