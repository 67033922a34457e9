"""Unit tests for relation-signature sharding and the match worker pool."""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.config import SystemConfig
from repro.core.coordinator import Coordinator, QueryStatus
from repro.core.sharding import (
    MatchWorkerPool,
    QueryShard,
    ShardedCoordinator,
    relation_signature,
    route_signature,
    shard_for_relation,
)
from repro.core.system import YoutopiaSystem
from repro.errors import (
    EntanglementError,
    QueryAlreadyAnsweredError,
    QueryNotPendingError,
)

PAIR_SQL = (
    "SELECT '{user}', fno INTO ANSWER {relation} "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('{partner}', fno) IN ANSWER {relation} CHOOSE 1"
)


def make_system(**config_overrides) -> YoutopiaSystem:
    config = SystemConfig(seed=0, match_workers=2, shard_count=2).replace(**config_overrides)
    system = YoutopiaSystem(config=config)
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    system.execute(
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome')"
    )
    for relation in ("ResA", "ResB", "ResC", "ResD"):
        system.declare_answer_relation(relation, ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


def pair_sql(user: str, partner: str, relation: str) -> str:
    return PAIR_SQL.format(user=user, partner=partner, relation=relation)


class TestRouting:
    def test_shard_for_relation_stable_and_case_insensitive(self):
        assert shard_for_relation("Reservation", 4) == shard_for_relation("reservation", 4)
        assert shard_for_relation("Reservation", 4) == shard_for_relation("Reservation", 4)
        assert 0 <= shard_for_relation("Reservation", 4) < 4

    def test_route_signature_single_vs_cross_shard(self):
        # find two relations that land on different shards so the union is split
        base = shard_for_relation("R0", 8)
        other = next(
            name
            for name in (f"R{i}" for i in range(1, 64))
            if shard_for_relation(name, 8) != base
        )
        assert route_signature(frozenset(["r0"]), 8) == base
        assert route_signature(frozenset(["r0", other.lower()]), 8) is None
        assert route_signature(frozenset(), 8) == 0

    def test_relation_signature_covers_heads_and_constraints(self, tmp_path):
        system = make_system()
        try:
            query = system.compile(
                "SELECT 'a', fno INTO ANSWER ResA "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
                "AND ('b', fno) IN ANSWER ResB CHOOSE 1"
            )
            assert relation_signature(query) == frozenset({"resa", "resb"})
        finally:
            system.close()

    def test_everything_single_sharded_when_one_shard(self):
        assert route_signature(frozenset({"resa", "resb", "resc"}), 1) == 0


class TestMatchWorkerPool:
    def test_events_processed_per_shard_in_order(self):
        shards = [QueryShard(0), QueryShard(1)]
        processed: list[tuple[int, str]] = []
        lock = threading.Lock()

        def process(shard, batch):
            with lock:
                processed.extend((shard.shard_id, qid) for qid in batch)

        pool = MatchWorkerPool(shards, process, num_workers=2)
        try:
            for index in range(10):
                pool.enqueue(shards[index % 2], f"q{index}")
            assert pool.drain(timeout=5.0)
        finally:
            pool.shutdown()
        for shard_id in (0, 1):
            ids = [qid for sid, qid in processed if sid == shard_id]
            assert ids == sorted(ids, key=lambda q: int(q[1:]))
        assert not pool.errors

    def test_worker_errors_are_captured_not_fatal(self):
        shard = QueryShard(0)
        calls: list[str] = []

        def process(_shard, batch):
            calls.extend(batch)
            if "boom" in batch:
                raise RuntimeError("boom")

        pool = MatchWorkerPool([shard], process, num_workers=1)
        try:
            pool.enqueue(shard, "boom")
            assert pool.drain(timeout=5.0)
            pool.enqueue(shard, "fine")
            assert pool.drain(timeout=5.0)
        finally:
            pool.shutdown()
        assert "fine" in calls
        assert len(pool.errors) == 1

    def test_shutdown_is_idempotent_and_stops_workers(self):
        shard = QueryShard(0)
        pool = MatchWorkerPool([shard], lambda s, b: None, num_workers=2)
        pool.shutdown()
        pool.shutdown()
        assert not pool.running
        time.sleep(0.01)
        assert all(not thread.is_alive() for thread in pool._threads)

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            MatchWorkerPool([QueryShard(0)], lambda s, b: None, num_workers=0)


class TestShardedCoordinator:
    def test_system_picks_sharded_coordinator(self):
        system = make_system()
        try:
            assert isinstance(system.coordinator, ShardedCoordinator)
            assert system.coordinator.worker_pool.worker_count == 2
        finally:
            system.close()

    def test_inline_system_keeps_plain_coordinator(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        assert type(system.coordinator) is Coordinator
        assert system.drain(0.1) is True
        stats = system.coordinator.shard_stats()
        assert len(stats) == 1 and stats[0]["shard"] == 0
        system.close()

    def test_submit_is_async_and_wait_observes_answer(self):
        system = make_system()
        try:
            left = system.submit_entangled(pair_sql("a", "b", "ResA"), owner="a")
            assert left.status is QueryStatus.PENDING
            right = system.submit_entangled(pair_sql("b", "a", "ResA"), owner="b")
            answer = system.wait(left.query_id, timeout=5.0)
            assert answer.tuples["ResA"][0][0] == "a"
            assert system.drain(5.0)
            assert right.status is QueryStatus.ANSWERED
        finally:
            system.close()

    def test_cross_shard_query_matches_via_global_pass(self):
        # force distinct shards for the two relations by picking names that
        # hash apart under the configured shard count
        system = make_system(shard_count=2)
        try:
            relations = ["ResA", "ResB", "ResC", "ResD"]
            by_shard: dict[int, str] = {}
            for relation in relations:
                by_shard.setdefault(shard_for_relation(relation, 2), relation)
            assert len(by_shard) == 2, "expected the four names to span both shards"
            rel_one, rel_two = by_shard[0], by_shard[1]
            bridge = system.submit_entangled(
                f"SELECT 'a', fno INTO ANSWER {rel_one} "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
                f"AND ('b', fno) IN ANSWER {rel_two} CHOOSE 1",
                owner="a",
            )
            # the bridge query lives in the global residence
            coordinator = system.coordinator
            assert coordinator.shard_of(bridge.query) is coordinator._global_shard
            partner = system.submit_entangled(
                f"SELECT 'b', fno INTO ANSWER {rel_two} "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
                f"AND ('a', fno) IN ANSWER {rel_one} CHOOSE 1",
                owner="b",
            )
            system.wait_many([bridge.query_id, partner.query_id], timeout=5.0)
            assert system.statistics()["cross_shard_passes"] >= 1
            assert len(system.answers(rel_one)) == 1
            assert len(system.answers(rel_two)) == 1
        finally:
            system.close()

    def test_cancel_pending_and_typed_error_after_answer(self):
        system = make_system()
        try:
            lonely = system.submit_entangled(pair_sql("x", "ghost", "ResB"), owner="x")
            assert system.drain(5.0)
            system.cancel(lonely.query_id)
            assert lonely.status is QueryStatus.CANCELLED
            with pytest.raises(QueryNotPendingError):
                system.cancel(lonely.query_id)

            left = system.submit_entangled(pair_sql("a", "b", "ResA"), owner="a")
            system.submit_entangled(pair_sql("b", "a", "ResA"), owner="b")
            system.wait(left.query_id, timeout=5.0)
            with pytest.raises(QueryAlreadyAnsweredError):
                system.cancel(left.query_id)
            assert left.status is QueryStatus.ANSWERED
        finally:
            system.close()

    def test_duplicate_submission_raises(self):
        system = make_system()
        try:
            query = system.compile(pair_sql("a", "ghost", "ResA"), owner="a")
            system.submit_entangled(query)
            with pytest.raises(EntanglementError):
                system.submit_entangled(query)
        finally:
            system.close()

    def test_submit_many_per_item_rejections(self):
        system = make_system()
        try:
            good = pair_sql("a", "b", "ResA")
            partner = pair_sql("b", "a", "ResA")
            unsafe = (
                "SELECT 'K', fno INTO ANSWER ResA WHERE ('J', fno) IN ANSWER ResA"
            )
            requests = system.submit_many([good, unsafe, partner])
            assert system.drain(5.0)
            assert requests[1].status is QueryStatus.REJECTED
            system.wait_many(
                [requests[0].query_id, requests[2].query_id], timeout=5.0
            )
        finally:
            system.close()

    def test_retry_pending_after_data_change(self):
        system = make_system(shard_count=4, match_workers=2)
        try:
            left = system.submit_entangled(pair_sql("a", "b", "ResC"), owner="a")
            right = system.submit_entangled(pair_sql("b", "a", "ResC"), owner="b")
            assert system.drain(5.0)
            # no Paris flights left for this pair? they matched already—use a
            # genuinely unmatchable pair instead: partner constraints over Rome
            assert left.status is QueryStatus.ANSWERED
            assert right.status is QueryStatus.ANSWERED

            stuck = system.submit_entangled(
                "SELECT 'c', fno INTO ANSWER ResD "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Sydney') "
                "AND ('d', fno) IN ANSWER ResD CHOOSE 1",
                owner="c",
            )
            partner = system.submit_entangled(
                "SELECT 'd', fno INTO ANSWER ResD "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Sydney') "
                "AND ('c', fno) IN ANSWER ResD CHOOSE 1",
                owner="d",
            )
            assert system.drain(5.0)
            assert stuck.status is QueryStatus.PENDING
            system.execute("INSERT INTO Flights VALUES (999, 'Sydney')")
            answered = system.retry_pending()
            assert answered == 2
            assert stuck.status is QueryStatus.ANSWERED
            assert partner.status is QueryStatus.ANSWERED
        finally:
            system.close()

    def test_dirty_shards_swept_on_next_event(self):
        system = make_system(auto_retry_on_data_change=True)
        try:
            stuck = system.submit_entangled(
                "SELECT 'c', fno INTO ANSWER ResD "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Sydney') "
                "AND ('d', fno) IN ANSWER ResD CHOOSE 1",
                owner="c",
            )
            partner = system.submit_entangled(
                "SELECT 'd', fno INTO ANSWER ResD "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Sydney') "
                "AND ('c', fno) IN ANSWER ResD CHOOSE 1",
                owner="d",
            )
            assert system.drain(5.0)
            assert stuck.status is QueryStatus.PENDING
            system.execute("INSERT INTO Flights VALUES (999, 'Sydney')")
            # the next arrival anywhere sweeps its shard; submit into ResD's pool
            system.submit_entangled(pair_sql("x", "ghost", "ResD"), owner="x")
            assert system.drain(5.0)
            assert stuck.status is QueryStatus.ANSWERED
            assert partner.status is QueryStatus.ANSWERED
            assert system.statistics()["retry_sweeps"] >= 1
        finally:
            system.close()

    def test_idle_sweep_backstop_revives_trafficless_shard(self):
        """A data change must retry a shard even if no arrival ever hits it."""
        system = make_system(
            auto_retry_on_data_change=True, idle_sweep_interval=0.05, shard_count=4
        )
        try:
            stuck = system.submit_entangled(
                "SELECT 'c', fno INTO ANSWER ResD "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Sydney') "
                "AND ('d', fno) IN ANSWER ResD CHOOSE 1",
                owner="c",
            )
            system.submit_entangled(
                "SELECT 'd', fno INTO ANSWER ResD "
                "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Sydney') "
                "AND ('c', fno) IN ANSWER ResD CHOOSE 1",
                owner="d",
            )
            assert system.drain(5.0)
            assert stuck.status is QueryStatus.PENDING
            # the flight appears; NO further submission or retry call happens
            system.execute("INSERT INTO Flights VALUES (999, 'Sydney')")
            system.wait(stuck.query_id, timeout=5.0)
            assert stuck.status is QueryStatus.ANSWERED
        finally:
            system.close()

    def test_done_callbacks_may_reenter_the_coordinator(self):
        """Callbacks fire after the worker released every lock, so they can
        submit/cancel/inspect without deadlocking (regression for the
        lock-order inversion found in review)."""
        system = make_system(shard_count=4)
        try:
            observed: dict[str, object] = {}
            done = threading.Event()

            left = system.submit_entangled(pair_sql("a", "b", "ResA"), owner="a")

            def callback(request):
                # re-enter from the completing worker thread: read aggregate
                # state (takes every shard lock) and submit a follow-up
                observed["pending"] = system.coordinator.pending_count()
                observed["follow_up"] = system.submit_entangled(
                    pair_sql("z", "ghost-z", "ResB"), owner="z"
                )
                try:
                    system.cancel(request.query_id)
                except QueryAlreadyAnsweredError:
                    observed["cancel"] = "typed"
                done.set()

            system.coordinator.add_done_callback(left.query_id, callback)
            system.submit_entangled(pair_sql("b", "a", "ResA"), owner="b")
            assert done.wait(timeout=5.0), "callback deadlocked or never fired"
            assert system.drain(5.0)
            assert observed["cancel"] == "typed"
            assert observed["follow_up"].status is QueryStatus.PENDING
            assert not system.coordinator.worker_pool.errors
        finally:
            system.close()

    def test_poisoned_event_does_not_abandon_batch(self):
        """One failing attempt must not swallow the rest of a shard batch."""
        system = make_system(shard_count=1, match_workers=1)
        try:
            coordinator = system.coordinator
            original = coordinator._attempt_for
            poisoned: set[str] = set()

            def flaky(shard, query_id):
                if query_id in poisoned:
                    poisoned.discard(query_id)
                    raise RuntimeError("poisoned event")
                return original(shard, query_id)

            coordinator._attempt_for = flaky
            bad = system.compile(pair_sql("bad", "ghost-bad", "ResA"))
            poisoned.add(bad.query_id)
            left = system.compile(pair_sql("a", "b", "ResA"))
            right = system.compile(pair_sql("b", "a", "ResA"))
            # one batch: the poisoned event first, the matchable pair after
            system.submit_many([bad, left, right])
            assert system.drain(5.0)
            assert len(coordinator.worker_pool.errors) == 1
            # the pair behind the poisoned event still coordinated
            assert coordinator.request(left.query_id).status is QueryStatus.ANSWERED
            assert coordinator.request(right.query_id).status is QueryStatus.ANSWERED
        finally:
            system.close()

    def test_shard_stats_and_service_stats_shape(self):
        system = make_system(shard_count=3)
        try:
            system.submit_entangled(pair_sql("a", "ghost", "ResA"), owner="a")
            assert system.drain(5.0)
            stats = system.shard_stats()
            assert len(stats) == 4  # 3 shards + the global residence
            assert stats[-1]["cross_shard"] == 1
            assert sum(entry["pending"] for entry in stats) == 1
            service_stats = system.service().stats()
            assert len(service_stats.shards) == 4
            assert service_stats.pending == 1
            assert service_stats["match_events"] >= 1
        finally:
            system.close()

    def test_close_is_idempotent_and_stops_workers(self):
        system = make_system()
        coordinator = system.coordinator
        system.close()
        system.close()
        assert not coordinator.worker_pool.running

    def test_config_round_trip(self):
        config = SystemConfig(match_workers=4)
        assert config.resolved_shard_count == 4
        assert config.replace(shard_count=16).resolved_shard_count == 16
        assert SystemConfig().resolved_shard_count == 1
        as_dict = config.as_dict()
        assert as_dict["match_workers"] == 4
        assert as_dict["shard_count"] == 4
