"""Unit tests for the tiered pending pool (hot/cold split + page-in)."""

from __future__ import annotations

import pytest

from repro.core.compiler import compile_entangled, entangled_to_sql
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.core.tiering import (
    TieredPool,
    TieringManager,
    make_stub,
    recompile_stub,
)
from repro.errors import StorageError
from repro.storage.backends import MemoryPendingStore


def parked_sql(index: int) -> str:
    """An unmatchable single: waits on a ghost partner that never arrives."""
    return (
        f"SELECT 'U{index}', fno INTO ANSWER Reservation "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('G{index}', fno) IN ANSWER Reservation CHOOSE 1"
    )


def compile_parked(index: int):
    return compile_entangled(parked_sql(index), owner=f"U{index}")


@pytest.fixture
def manager():
    manager = TieringManager(MemoryPendingStore(), memory_limit=3)
    yield manager
    manager.close()


@pytest.fixture
def pool(manager):
    return manager.pool


class TestStub:
    def test_stub_keeps_heads_and_drops_bodies(self):
        query = compile_parked(0)
        stub = make_stub(query)
        assert stub.query_id == query.query_id
        assert stub.heads == query.heads
        assert stub.answer_atoms == query.answer_atoms
        assert stub.owner == query.owner
        assert stub.domains == ()
        assert stub.predicates == ()
        assert stub.sql == entangled_to_sql(query)

    def test_recompile_stub_restores_structure(self):
        query = compile_parked(1)
        rebuilt = recompile_stub(
            query.query_id, entangled_to_sql(query), query.owner, query.priority
        )
        assert rebuilt.query_id == query.query_id
        assert rebuilt.heads == query.heads
        assert rebuilt.owner == query.owner
        assert len(rebuilt.domains) == len(query.domains)
        assert len(rebuilt.predicates) == len(query.predicates)

    def test_recompile_stub_wraps_compile_failures(self):
        with pytest.raises(StorageError, match="recompile"):
            recompile_stub("q1", "NOT EVEN SQL", None, None)


class TestTieredPool:
    def test_hot_set_is_bounded(self, manager, pool):
        queries = [compile_parked(index) for index in range(8)]
        for query in queries:
            pool[query.query_id] = query
        assert pool.hot_count() == 3
        assert pool.cold_count() == 5
        assert len(pool) == 8
        assert pool.evictions == 5
        assert len(manager.backend) == 5

    def test_iteration_order_matches_untiered_dict(self, pool):
        queries = [compile_parked(index) for index in range(8)]
        untiered: dict[str, object] = {}
        for query in queries:
            pool[query.query_id] = query
            untiered[query.query_id] = query
        # LRU touches must not perturb the id sweep order either
        pool.get(queries[5].query_id)
        pool.get(queries[0].query_id)
        assert list(pool) == list(untiered)
        assert pool.keys() == list(untiered.keys())
        assert [qid for qid, _ in pool.items()] == list(untiered.keys())

    def test_get_pages_cold_query_in(self, pool):
        queries = [compile_parked(index) for index in range(5)]
        for query in queries:
            pool[query.query_id] = query
        victim = queries[0]
        assert pool.is_cold(victim.query_id)
        paged = pool.get(victim.query_id)
        assert paged is not None
        assert not pool.is_cold(victim.query_id)
        assert paged.heads == victim.heads
        assert len(paged.domains) == len(victim.domains)
        assert pool.page_ins == 1
        assert pool.page_in_seconds >= 0.0

    def test_page_in_keeps_backend_payload(self, manager, pool):
        queries = [compile_parked(index) for index in range(5)]
        for query in queries:
            pool[query.query_id] = query
        victim_id = queries[0].query_id
        pool.get(victim_id)  # page in
        # the payload must stay: a snapshot cut earlier may reference it
        assert manager.backend.get(victim_id) is not None

    def test_pop_cold_returns_stub_and_deletes_payload(self, manager, pool):
        queries = [compile_parked(index) for index in range(5)]
        for query in queries:
            pool[query.query_id] = query
        victim = queries[0]
        assert pool.is_cold(victim.query_id)
        stub = pool.pop(victim.query_id)
        assert stub.heads == victim.heads
        assert stub.domains == ()
        assert victim.query_id not in pool
        assert manager.backend.get(victim.query_id) is None
        assert len(pool) == 4

    def test_pop_hot_returns_full_query(self, manager, pool):
        query = compile_parked(0)
        pool[query.query_id] = query
        assert pool.pop(query.query_id) is query
        assert len(pool) == 0
        assert not pool

    def test_pop_missing(self, pool):
        with pytest.raises(KeyError):
            pool.pop("nope")
        assert pool.pop("nope", None) is None

    def test_getitem_missing_raises(self, pool):
        with pytest.raises(KeyError):
            pool["nope"]

    def test_values_peek_without_page_in(self, pool):
        queries = [compile_parked(index) for index in range(5)]
        for query in queries:
            pool[query.query_id] = query
        values = pool.values()
        assert len(values) == 5
        assert pool.page_ins == 0  # introspection must not thrash the tiers
        cold_values = [value for value in values if value.domains == ()]
        assert len(cold_values) == pool.cold_count()

    def test_lru_touch_changes_victim(self):
        manager = TieringManager(MemoryPendingStore(), memory_limit=2)
        pool = manager.pool
        first, second, third = (compile_parked(index) for index in range(3))
        pool[first.query_id] = first
        pool[second.query_id] = second
        pool.get(first.query_id)  # touch: second becomes least-recently-used
        pool[third.query_id] = third
        assert pool.is_cold(second.query_id)
        assert not pool.is_cold(first.query_id)
        manager.close()

    def test_lost_payload_fails_loudly(self, manager, pool):
        queries = [compile_parked(index) for index in range(5)]
        for query in queries:
            pool[query.query_id] = query
        victim_id = queries[0].query_id
        manager.backend.delete(victim_id)
        with pytest.raises(StorageError, match="lost the payload"):
            pool.get(victim_id)


class TestTieringManager:
    def test_validates_limit_and_policy(self):
        with pytest.raises(ValueError, match="pending_memory_limit"):
            TieringManager(MemoryPendingStore(), memory_limit=0)
        # one eviction order (least recently probed spills first): no knob
        with pytest.raises(TypeError, match="eviction_policy"):
            TieringManager(MemoryPendingStore(), memory_limit=4, eviction_policy="fifo")
        with pytest.raises(TypeError, match="eviction_policy"):
            SystemConfig(eviction_policy="fifo")

    def test_capacity_floor_is_one(self):
        # the smallest legal budget still keeps the query being matched hot
        manager = TieringManager(MemoryPendingStore(), memory_limit=1)
        pool = manager.pool
        first, second = compile_parked(0), compile_parked(1)
        pool[first.query_id] = first
        pool[second.query_id] = second
        assert pool.hot_count() == 1
        assert pool.get(first.query_id) is not None
        assert not pool.is_cold(first.query_id) and pool.is_cold(second.query_id)
        manager.close()

    def test_statistics_shape(self, manager, pool):
        for index in range(5):
            query = compile_parked(index)
            pool[query.query_id] = query
        pool.get(pool.cold_ids()[0])
        stats = manager.statistics()
        assert stats["enabled"] is True
        assert stats["memory_limit"] == 3
        assert stats["backend"] == "memory"
        assert stats["hot"] + stats["cold"] == 5
        assert stats["hot"] <= 3
        assert stats["peak_hot"] >= stats["hot"]
        assert stats["evictions"] >= stats["cold"]
        assert stats["page_ins"] == 1
        assert stats["page_in_seconds"] >= 0.0

    def test_close_is_idempotent(self):
        manager = TieringManager(MemoryPendingStore(), memory_limit=4)
        manager.close()
        manager.close()


SCHEMA = [
    "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)",
    "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris')",
]


def build_system(**config_kwargs) -> YoutopiaSystem:
    system = YoutopiaSystem(
        config=SystemConfig(seed=0, cold_store="memory", **config_kwargs)
    )
    for statement in SCHEMA:
        system.execute(statement)
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


def partner_sql(index: int) -> str:
    return (
        f"SELECT 'G{index}', fno INTO ANSWER Reservation "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('U{index}', fno) IN ANSWER Reservation CHOOSE 1"
    )


class TestCoordinatorIntegration:
    def test_inline_coordinator_bounds_hot_set(self):
        system = build_system(pending_memory_limit=4)
        try:
            for index in range(12):
                system.submit_entangled(parked_sql(index), owner=f"U{index}")
            stats = system.coordinator.tiering_statistics()
            assert stats["enabled"]
            assert stats["hot"] <= 4
            # eviction runs right after the insert that overflows, so the
            # hot set peaks one above the limit and never further
            assert stats["peak_hot"] <= 4 + 1
            assert stats["evictions"] >= 12 - 4
            assert stats["hot"] + stats["cold"] == 12
            assert system.coordinator.pending_count() == 12
        finally:
            system.close()

    def test_tiering_disabled_without_limit(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        try:
            assert system.coordinator.tiering_statistics() == {"enabled": False}
        finally:
            system.close()

    def test_cold_query_answers_via_page_in(self):
        system = build_system(pending_memory_limit=2)
        try:
            requests = [
                system.submit_entangled(parked_sql(index), owner=f"U{index}")
                for index in range(8)
            ]
            cold_before = system.coordinator.tiering_statistics()["cold"]
            assert cold_before > 0
            partner = system.submit_entangled(partner_sql(0), owner="G0")
            assert partner.is_answered
            assert requests[0].is_answered
            assert system.coordinator.tiering_statistics()["page_ins"] >= 1
            assert system.coordinator.pending_count() == 7
        finally:
            system.close()

    def test_batch_larger_than_the_hot_tier_answers_every_pair(self):
        """A batch stays hot through its match pass: its members are matched
        with their constraints, never as stubs, and the overflow spills after."""
        system = build_system(pending_memory_limit=2)
        try:
            batch = []
            for index in range(3):
                batch.append(compile_entangled(parked_sql(index), owner=f"U{index}"))
                batch.append(compile_entangled(partner_sql(index), owner=f"G{index}"))
            batch += [compile_entangled(parked_sql(index), owner=f"U{index}") for index in (7, 8, 9)]
            records = system.coordinator.submit_many(batch)
            assert [record.status.value for record in records] == ["answered"] * 6 + ["pending"] * 3
            stats = system.coordinator.tiering_statistics()
            assert stats["peak_hot"] == 9
            assert (stats["hot"], stats["cold"]) == (2, 1)
        finally:
            system.close()

    def test_eviction_swaps_request_record_to_stub(self):
        system = build_system(pending_memory_limit=1)
        try:
            first = system.submit_entangled(parked_sql(0), owner="U0")
            system.submit_entangled(parked_sql(1), owner="U1")
            # first has been evicted; its request record now carries the stub
            record = system.coordinator.request(first.query_id)
            assert record.query.domains == ()
            assert record.query.sql  # materialized for journaling
            # paging it back in restores the full query on the record
            partner = system.submit_entangled(partner_sql(0), owner="G0")
            assert partner.is_answered
        finally:
            system.close()

    def test_cancel_of_cold_query(self):
        system = build_system(pending_memory_limit=1)
        try:
            first = system.submit_entangled(parked_sql(0), owner="U0")
            system.submit_entangled(parked_sql(1), owner="U1")
            assert system.coordinator.tiering_statistics()["cold"] >= 1
            system.coordinator.cancel(first.query_id)
            assert system.coordinator.pending_count() == 1
            stats = system.coordinator.tiering_statistics()
            assert stats["hot"] + stats["cold"] == 1
        finally:
            system.close()

    def test_checkpoint_and_recovery_rebuild_placement(self, tmp_path):
        config = dict(
            data_dir=str(tmp_path),
            fsync_policy="always",
            snapshot_interval=5,
            pending_memory_limit=3,
            cold_store="sqlite",
        )

        def build(**extra):
            system = YoutopiaSystem(config=SystemConfig(seed=0, **config, **extra))
            return system

        system = build()
        for statement in SCHEMA:
            system.execute(statement)
        system.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        parked_ids = [
            system.submit_entangled(parked_sql(index), owner=f"U{index}").query_id
            for index in range(10)
        ]
        assert system.coordinator.tiering_statistics()["cold"] > 0
        system.checkpoint()
        # crash: skip close() so no final checkpoint or cleanup runs
        system.durability.close()
        system.coordinator._tiering.close()

        recovered = build()
        try:
            assert recovered.coordinator.pending_count() == 10
            stats = recovered.coordinator.tiering_statistics()
            assert stats["hot"] <= 3
            assert stats["hot"] + stats["cold"] == 10
            # a query that was cold at snapshot time still answers
            partner = recovered.submit_entangled(partner_sql(0), owner="G0")
            assert partner.is_answered
            assert recovered.coordinator.request(parked_ids[0]).is_answered
        finally:
            recovered.close()
