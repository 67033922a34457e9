"""Sharded, event-driven coordination: partitioned pools and a worker pool.

The inline :class:`~repro.core.coordinator.Coordinator` funnels every submit,
data-change retry and match pass through one global lock — fine for a demo,
but a wall for the "millions of users" north star.  This module partitions the
pending pool by *relation signature*: two entangled queries can only ever
coordinate if an answer-constraint atom of one unifies with a head atom of the
other, which requires the **same answer relation**.  Queries whose entangled
atoms all hash to the same shard therefore form an independent matching
universe with its own :class:`~repro.core.matchplan.GridProviderIndex`, lock and
pending set.

Matching becomes *event-driven*: ``submit`` / ``submit_many`` only register
the query and enqueue a match event on its shard; a
:class:`MatchWorkerPool` of background threads drains the per-shard queues.
Callers observe answers through ``wait`` / handles / done-callbacks, exactly
as over a network transport.

Three consequences of the partitioning:

* **Scoped retries.**  A data change marks every shard dirty, but a shard
  only sweeps *its own* pending set when its next event is processed — the
  sweep that used to rescan the whole pool now touches ``pending / shards``
  queries.  Shards that receive no arrival traffic are covered by the
  idle-sweep backstop (``SystemConfig.idle_sweep_interval``): an idle worker
  sweeps any shard whose dirty flag outlives the interval.
* **Cross-shard fallback.**  A query whose entangled relations hash to
  different shards cannot be pinned to one universe; it lives in a dedicated
  *global residence* and always matches via a short global pass over every
  shard (all shard locks, taken in a fixed order).  A shard-local attempt
  that fails while global residents exist escalates to the same global pass,
  because a coordination chain can only leave a shard through a cross-shard
  query.  This preserves the paper's matching semantics exactly — see
  ``tests/integration/test_sharded_fuzz.py`` for the equivalence harness.
* **Non-blocking submission.**  Registration takes only the target shard's
  lock plus the cheap request-state lock; a long match pass on one shard no
  longer delays arrivals on another.

Lock ordering (to keep the whole thing deadlock-free):
``_db_lock`` → shard locks (ascending ``shard_id``, global residence last) →
request-state lock (``self._lock``).  The scheduling state (event queues,
busy flags) lives under the worker pool's own condition variable and is never
held while taking any other lock.  Match passes themselves serialise on
``_db_lock`` — grounding reads the database and must not interleave with a
transactional joint execution — so worker threads buy responsiveness and
scan scoping, not parallel matching compute.  Done-callbacks are deferred
until every lock is released before being invoked; event-bus *subscribers*
are still called synchronously under coordinator locks (as on the inline
path) and must not call back into the coordinator from another lock order.
"""

from __future__ import annotations

import threading
import time
import zlib
from collections import deque
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Any, Callable, Iterator, MutableMapping, Optional, Sequence, Union

from repro.core import ir
from repro.core.coordinator import CoordinationRequest, Coordinator, QueryStatus
from repro.core.events import EventType
from repro.core.executor import ExecutionOutcome
from repro.core.matching import MatchedGroup, Provider
from repro.core.matchplan import CompiledAtom, GridProviderIndex
from repro.errors import (
    EntanglementError,
    QueryAlreadyAnsweredError,
    QueryNotPendingError,
)
from repro.sqlparser import ast


# ---------------------------------------------------------------------------
# Relation-signature routing
# ---------------------------------------------------------------------------


def relation_signature(query: ir.EntangledQuery) -> frozenset[str]:
    """The set of answer relations a query's entangled atoms reference.

    Heads and answer constraints both count: a head *provides* tuples of a
    relation, an answer constraint *requires* them, and matching pairs the
    two — so any potential partner shares at least one of these relations.
    """
    return frozenset(relation.lower() for relation in query.answer_relations())


def shard_for_relation(relation: str, shard_count: int) -> int:
    """Stable shard assignment for one relation (CRC32, not the salted hash)."""
    return zlib.crc32(relation.lower().encode("utf-8")) % shard_count


def route_signature(signature: frozenset[str], shard_count: int) -> Optional[int]:
    """The single shard owning a signature, or ``None`` for cross-shard.

    The union of the signature's relations must agree on one shard; a query
    whose relations hash to different shards bridges matching universes and
    must be matched by the global pass.
    """
    if not signature:
        return 0
    shards = {shard_for_relation(relation, shard_count) for relation in signature}
    if len(shards) == 1:
        return shards.pop()
    return None


def node_for_relation(
    relation: str, node_count: int, shard_count: Optional[int] = None
) -> int:
    """Stable cluster-node assignment for one relation.

    Derived from :func:`shard_for_relation` so signature→node routing *agrees*
    with signature→shard routing: with ``shard_count`` a multiple of
    ``node_count`` (the cluster default is ``shard_count == node_count``), two
    relations on the same shard always land on the same node — a query that is
    single-shard inside one process is single-node across the cluster.
    """
    return shard_for_relation(relation, shard_count or node_count) % node_count


def route_signature_to_node(
    signature: frozenset[str], node_count: int, shard_count: Optional[int] = None
) -> Optional[int]:
    """The single cluster node owning a signature, or ``None`` for cross-node.

    The node-level twin of :func:`route_signature`: an empty signature pins to
    node 0, a signature whose relations agree on one node routes there, and a
    signature spanning nodes returns ``None`` — the router's cross-node
    residence pass (the cluster analogue of the in-process global residence)
    must own it.
    """
    if not signature:
        return 0
    nodes = {node_for_relation(relation, node_count, shard_count) for relation in signature}
    if len(nodes) == 1:
        return nodes.pop()
    return None


# ---------------------------------------------------------------------------
# Shards
# ---------------------------------------------------------------------------


class QueryShard:
    """One independent matching universe: pending set, provider index, lock.

    ``pool`` / ``index`` / ``dirty`` are guarded by ``lock``; the scheduling
    fields ``events`` / ``busy`` belong to the :class:`MatchWorkerPool` and
    are guarded by its condition variable instead.
    """

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.lock = threading.RLock()
        # A plain dict, or a TieredPool when the coordinator has a
        # pending_memory_limit — same mapping surface either way.
        self.pool: MutableMapping[str, ir.EntangledQuery] = {}
        self.index = GridProviderIndex()
        self.dirty = False
        self.dirty_since = 0.0
        # Scheduling state, owned by the worker pool.
        self.events: deque[str] = deque()
        self.busy = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"QueryShard(id={self.shard_id}, pending={len(self.pool)})"


class _CompositePool:
    """A read-only union view over several shards' pending pools.

    Implements exactly the mapping surface the matcher probes (``in``,
    ``get``, ``len``); query ids are globally unique so the union is disjoint.
    """

    def __init__(self, shards: Sequence[QueryShard]) -> None:
        self._shards = shards

    def get(
        self, query_id: str, default: Optional[ir.EntangledQuery] = None
    ) -> Optional[ir.EntangledQuery]:
        for shard in self._shards:
            query = shard.pool.get(query_id)
            if query is not None:
                return query
        return default

    def __contains__(self, query_id: object) -> bool:
        return self.get(query_id) is not None  # type: ignore[arg-type]

    def __len__(self) -> int:
        return sum(len(shard.pool) for shard in self._shards)


class _CompositeIndex:
    """Probe-side union of several shards' provider indexes.

    Candidates are concatenated in shard order (each shard's list is already
    deterministic), so the global pass is as reproducible as the local one.
    """

    def __init__(self, indexes: Sequence[GridProviderIndex]) -> None:
        self._indexes = indexes

    def candidates_compiled(self, probe: CompiledAtom) -> list[Provider]:
        found: list[Provider] = []
        for index in self._indexes:
            found.extend(index.candidates_compiled(probe))
        return found


# ---------------------------------------------------------------------------
# The worker pool
# ---------------------------------------------------------------------------


class MatchWorkerPool:
    """N background threads draining per-shard match-event queues.

    Events are query ids awaiting a match attempt on their shard.  A worker
    claims a shard (marking it busy so per-shard processing stays FIFO and
    single-threaded), drains *all* queued events for it in one batch — which
    coalesces the dirty-retry sweep across the batch — and processes them via
    the callback supplied by the coordinator.  Distinct shards are *claimed*
    by distinct workers; note that the match passes themselves serialise on
    the coordinator's database lock (grounding reads must not interleave with
    transactional writes), so the payoff of multiple workers is per-shard
    FIFO queues, scoped retry sweeps and non-blocking submission — not
    parallel matching compute.

    With ``idle_sweep_interval > 0`` an otherwise-idle worker also claims any
    shard whose dirty flag (set by data changes) has been pending longer than
    the interval and has residents to retry — the liveness backstop for
    shards that receive no arrival traffic of their own.
    """

    def __init__(
        self,
        shards: Sequence[QueryShard],
        process: Callable[[QueryShard, list[str]], None],
        num_workers: int,
        thread_name: str = "match-worker",
        idle_sweep_interval: float = 0.0,
    ) -> None:
        if num_workers < 1:
            raise ValueError("MatchWorkerPool needs at least one worker")
        self._shards = list(shards)
        self._process = process
        self._cond = threading.Condition()
        self._running = True
        self._in_flight = 0
        self._next_shard = 0
        self._idle_sweep_interval = max(0.0, idle_sweep_interval)
        self.errors: list[Exception] = []
        self._threads = [
            threading.Thread(target=self._loop, name=f"{thread_name}-{i}", daemon=True)
            for i in range(num_workers)
        ]
        for thread in self._threads:
            thread.start()

    # -- producer side -----------------------------------------------------------------

    @property
    def running(self) -> bool:
        with self._cond:
            return self._running

    @property
    def worker_count(self) -> int:
        return len(self._threads)

    def enqueue(self, shard: QueryShard, query_id: str) -> None:
        with self._cond:
            shard.events.append(query_id)
            self._in_flight += 1
            self._cond.notify()

    def enqueue_many(self, items: Sequence[tuple[QueryShard, str]]) -> None:
        if not items:
            return
        with self._cond:
            for shard, query_id in items:
                shard.events.append(query_id)
            self._in_flight += len(items)
            self._cond.notify_all()

    def queued(self, shard: QueryShard) -> int:
        with self._cond:
            return len(shard.events)

    def record_error(self, exc: Exception) -> None:
        """Keep a processing failure observable without killing the worker."""
        with self._cond:
            self.errors.append(exc)

    def kick(self) -> None:
        """Wake idle workers (e.g. after dirty flags changed)."""
        with self._cond:
            self._cond.notify_all()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every queued event has been processed.

        Returns ``False`` on timeout or if the pool was shut down with events
        still queued.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._in_flight > 0:
                if not self._running:
                    return False
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._cond.wait(remaining)
            return True

    def shutdown(self, timeout: float = 5.0) -> None:
        """Stop the workers; in-progress batches finish, queued events do not."""
        with self._cond:
            if not self._running:
                return
            self._running = False
            self._cond.notify_all()
        for thread in self._threads:
            thread.join(timeout)

    # -- worker side -----------------------------------------------------------------

    def _pick_locked(self) -> Optional[QueryShard]:
        """Round-robin over shards with queued events that nobody is processing."""
        count = len(self._shards)
        for offset in range(count):
            shard = self._shards[(self._next_shard + offset) % count]
            if shard.events and not shard.busy:
                self._next_shard = (self._next_shard + offset + 1) % count
                return shard
        return None

    def _pick_idle_sweep_locked(self) -> Optional[QueryShard]:
        """A shard whose dirty flag outlived the idle interval, if any.

        ``dirty``/``pool`` are peeked without the shard lock — a benign race,
        since the sweep re-checks both under the lock before doing work.
        """
        if self._idle_sweep_interval <= 0:
            return None
        now = time.monotonic()
        for shard in self._shards:
            if (
                not shard.busy
                and not shard.events
                and shard.dirty
                and shard.pool
                and now - shard.dirty_since >= self._idle_sweep_interval
            ):
                return shard
        return None

    def _loop(self) -> None:
        while True:
            batch: list[str] = []
            with self._cond:
                while True:
                    if not self._running:
                        return
                    shard = self._pick_locked()
                    if shard is not None:
                        batch = list(shard.events)
                        shard.events.clear()
                        break
                    shard = self._pick_idle_sweep_locked()
                    if shard is not None:
                        break  # empty batch: dirty sweep only
                    self._cond.wait(
                        self._idle_sweep_interval if self._idle_sweep_interval > 0 else None
                    )
                shard.busy = True
            try:
                self._process(shard, batch)
            except Exception as exc:  # noqa: BLE001 - a poisoned event must not kill the worker
                self.record_error(exc)
            finally:
                with self._cond:
                    shard.busy = False
                    self._in_flight -= len(batch)
                    self._cond.notify_all()


# ---------------------------------------------------------------------------
# The sharded coordinator
# ---------------------------------------------------------------------------


class ShardedCoordinator(Coordinator):
    """Event-driven coordination over relation-signature shards.

    Public surface is identical to :class:`~repro.core.coordinator.Coordinator`
    with one semantic difference: ``submit`` / ``submit_many`` return
    ``PENDING`` requests and the match attempt happens on a background worker
    — use :meth:`wait`, handles, done-callbacks, or :meth:`drain` to observe
    completion.  Constructed by :class:`~repro.core.system.YoutopiaSystem`
    whenever ``SystemConfig.match_workers >= 1``.
    """

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        if self.config.match_workers < 1:
            raise ValueError("ShardedCoordinator requires config.match_workers >= 1")
        self._shard_count = self.config.resolved_shard_count
        self._shards = [QueryShard(i) for i in range(self._shard_count)]
        # Cross-shard queries live here; ordered last so the global pass can
        # take every lock in ascending shard_id order.
        self._global_shard = QueryShard(self._shard_count)
        self._all_shards = self._shards + [self._global_shard]
        if self._tiering is not None:
            # Re-budget the hot set over the pools that will actually hold
            # queries: the base class's inline pool is vestigial here, and
            # swapping shard pools is safe because the worker pool (below)
            # has not started yet.
            self._tiering.drop_pool(self._pool)
            self._pool = {}
            for shard in self._all_shards:
                shard.pool = self._tiering.new_pool()
        self._db_lock = threading.RLock()
        # Done-callbacks must not run while worker/shard locks are held (a
        # callback re-entering the coordinator from another thread's lock
        # ordering could deadlock); paths that complete requests defer them
        # to this thread-local queue and flush after releasing every lock.
        self._deferred_callbacks = threading.local()
        self._workers = MatchWorkerPool(
            self._all_shards,
            self._process_events,
            self.config.match_workers,
            idle_sweep_interval=self.config.idle_sweep_interval,
        )

    # -- routing -----------------------------------------------------------------------

    def shard_of(self, query: ir.EntangledQuery) -> QueryShard:
        """The shard a query resides in (the global residence if cross-shard)."""
        index = route_signature(relation_signature(query), self._shard_count)
        if index is None:
            return self._global_shard
        return self._shards[index]

    # -- submission --------------------------------------------------------------------

    def submit(
        self,
        query: Union[ir.EntangledQuery, ast.EntangledSelect, str],
        owner: Optional[str] = None,
    ) -> CoordinationRequest:
        """Register a query and enqueue its match event; returns immediately.

        The returned request is ``PENDING`` (unless rejected); the match
        attempt runs on a background worker.
        """
        query = self._coerce_query(query, owner)
        request = CoordinationRequest(query=query)
        rejection = self._run_static_checks(request)
        if rejection is not None:
            with self._lock:
                self._requests[query.query_id] = request
                self.statistics.queries_rejected += 1
            self.events.publish(
                EventType.QUERY_REJECTED,
                query_id=query.query_id,
                owner=owner,
                reason=str(rejection),
            )
            raise rejection

        shard = self.shard_of(query)
        with shard.lock, self._lock:
            if query.query_id in self._requests:
                raise EntanglementError(
                    f"a query with id {query.query_id!r} is already registered"
                )
            self._register_locked(request)
        self._workers.enqueue(shard, query.query_id)
        self._maybe_checkpoint()
        return request

    def submit_many(
        self,
        queries: Sequence[Union[ir.EntangledQuery, ast.EntangledSelect, str]],
        owner: Optional[str] = None,
    ) -> list[CoordinationRequest]:
        """Register a batch and enqueue its match events in arrival order.

        Per-item rejection semantics match the inline coordinator; the match
        events are enqueued together, so a worker draining a shard processes
        the whole sub-batch in one pass (the sharded analogue of the single
        deferred match pass).
        """
        compiled = [self._coerce_query(query, owner) for query in queries]
        batch: list[CoordinationRequest] = []
        to_enqueue: list[tuple[QueryShard, str]] = []
        # One group-commit scope per batch (one fsync under the "batch"
        # fsync policy, however many shards the submissions land on).
        journal_scope = self.journal.group_commit() if self.journal is not None else nullcontext()
        with journal_scope:
            self._register_batch(compiled, batch, to_enqueue)
        self._workers.enqueue_many(to_enqueue)
        self._maybe_checkpoint()
        return batch

    def _register_batch(
        self,
        compiled: Sequence[ir.EntangledQuery],
        batch: list[CoordinationRequest],
        to_enqueue: list[tuple[QueryShard, str]],
    ) -> None:
        for query in compiled:
            request = CoordinationRequest(query=query)
            batch.append(request)
            rejection = self._run_static_checks(request)
            if rejection is not None:
                with self._lock:
                    self._requests.setdefault(query.query_id, request)
                    self.statistics.queries_rejected += 1
                self.events.publish(
                    EventType.QUERY_REJECTED,
                    query_id=query.query_id,
                    owner=query.owner,
                    reason=str(rejection),
                )
                continue
            shard = self.shard_of(query)
            with shard.lock, self._lock:
                if query.query_id in self._requests:
                    request.status = QueryStatus.REJECTED
                    request.error = (
                        f"a query with id {query.query_id!r} is already registered"
                    )
                    self.statistics.queries_rejected += 1
                    self.events.publish(
                        EventType.QUERY_REJECTED,
                        query_id=query.query_id,
                        owner=query.owner,
                        reason=request.error,
                    )
                    continue
                self._register_locked(request)
            to_enqueue.append((shard, query.query_id))

    # -- pending bookkeeping hooks ------------------------------------------------------

    def _add_pending(self, query: ir.EntangledQuery) -> None:
        shard = self.shard_of(query)
        shard.pool[query.query_id] = query
        shard.index.add_query(query)

    def _remove_pending(self, query_id: str) -> None:
        shard = self.shard_of(self._requests[query_id].query)
        query = shard.pool.pop(query_id)
        shard.index.remove_query(query)
        self._evict_match_plan(query_id)

    # -- deferred completion callbacks ---------------------------------------------------

    @contextmanager
    def _callbacks_after_locks(self):
        """Collect done-callbacks fired inside and invoke them lock-free after."""
        if getattr(self._deferred_callbacks, "queue", None) is not None:
            yield  # nested scope: the outermost one flushes
            return
        queue: list[tuple[Callable[[CoordinationRequest], None], CoordinationRequest]] = []
        self._deferred_callbacks.queue = queue
        try:
            yield
        finally:
            self._deferred_callbacks.queue = None
            for fn, request in queue:
                self._invoke_done_callback(fn, request)

    def _fire_done_callbacks_locked(self, request: CoordinationRequest) -> None:
        queue = getattr(self._deferred_callbacks, "queue", None)
        if queue is None:
            super()._fire_done_callbacks_locked(request)
            return
        queue.extend(
            (fn, request) for fn in self._done_callbacks.pop(request.query_id, ())
        )

    # -- event processing (worker side) -------------------------------------------------

    def _process_events(self, shard: QueryShard, triggers: list[str]) -> None:
        """Drain one shard's event batch: dirty sweep first, then each trigger.

        Each attempt is exception-isolated: one poisoned event must not
        abandon the rest of the batch (the failure is recorded on the worker
        pool either way).
        """
        with self._callbacks_after_locks():
            with self._db_lock:
                self.statistics.increment(match_events=len(triggers))
                trigger_set = set(triggers)
                with shard.lock:
                    dirty = shard.dirty
                    shard.dirty = False
                    sweep = (
                        [qid for qid in shard.pool if qid not in trigger_set]
                        if dirty
                        else []
                    )
                if dirty:
                    self.statistics.increment(retry_sweeps=1)
                seen: set[str] = set()
                for query_id in sweep + triggers:
                    if query_id in seen:
                        continue
                    seen.add(query_id)
                    try:
                        self._attempt_for(shard, query_id)
                    except Exception as exc:  # noqa: BLE001 - isolate poisoned events
                        self._workers.record_error(exc)
        # Workers are a natural checkpoint safe point: no locks held here.
        self._maybe_checkpoint()

    def _attempt_for(self, shard: QueryShard, query_id: str) -> Optional[ExecutionOutcome]:
        """One match attempt for a (possibly already gone) resident of ``shard``.

        Requires ``self._db_lock``.  Shard-local first; a failed local attempt
        escalates to the global pass whenever cross-shard residents exist,
        because a coordination chain can only reach another shard through one
        of them.
        """
        if shard is self._global_shard:
            return self._global_attempt(query_id)
        with shard.lock:
            trigger = shard.pool.get(query_id)
            if trigger is None:
                return None
            group = self._select_group(trigger, shard.pool, shard.index)
            self._note_match_attempt(trigger, group, pool_size=len(shard.pool))
            if group is not None:
                return self._execute_group_sharded(group)
        if len(self._global_shard.pool) > 0:
            return self._global_attempt(query_id)
        return None

    def _global_attempt(self, query_id: str) -> Optional[ExecutionOutcome]:
        """A match pass over the union of every shard (all locks, fixed order)."""
        with ExitStack() as stack:
            for candidate in self._all_shards:
                stack.enter_context(candidate.lock)
            pool = _CompositePool(self._all_shards)
            trigger = pool.get(query_id)
            if trigger is None:
                return None
            self.statistics.increment(cross_shard_passes=1)
            index = _CompositeIndex([candidate.index for candidate in self._all_shards])
            group = self._select_group(trigger, pool, index)
            self._note_match_attempt(trigger, group, pool_size=len(pool))
            if group is not None:
                return self._execute_group_sharded(group)
        return None

    def _execute_group_sharded(self, group: MatchedGroup) -> Optional[ExecutionOutcome]:
        """Execute and finalize; caller holds the db lock and the members' shards."""
        outcome = self._run_executor(group)
        if outcome is None:
            return None
        with self._lock:
            return self._finalize_outcome_locked(outcome)

    # -- retries -----------------------------------------------------------------------

    def _on_data_change(self, table_name: str, kind: str) -> None:
        if getattr(self._executing, "active", False):
            return
        if self._is_coordination_table(table_name):
            return
        if kind in ("insert", "update", "delete", "truncate"):
            now = time.monotonic()
            for shard in self._all_shards:
                with shard.lock:
                    if not shard.dirty:
                        shard.dirty = True
                        shard.dirty_since = now
            # wake idle workers so the idle-sweep backstop can notice
            self._workers.kick()

    def retry_pending(self) -> int:
        """Synchronously re-attempt every pending query across all shards."""
        with self._lock:
            answered_before = self.statistics.queries_answered
        with self._callbacks_after_locks():
            with self._db_lock:
                for shard in self._all_shards:
                    with shard.lock:
                        resident_ids = list(shard.pool.keys())
                    for query_id in resident_ids:
                        self._attempt_for(shard, query_id)
        self._maybe_checkpoint()
        with self._lock:
            return self.statistics.queries_answered - answered_before

    # -- cancellation ------------------------------------------------------------------

    def cancel(self, query_id: str) -> None:
        with self._lock:
            request = self._requests.get(query_id)
        if request is None:
            raise QueryNotPendingError(query_id)
        shard = self.shard_of(request.query)
        # Taking the shard lock first serialises against an in-flight match
        # attempt: after we hold it the query is either answered (typed
        # error) or safely removable.
        with self._callbacks_after_locks():
            with shard.lock, self._lock:
                if request.status is QueryStatus.ANSWERED:
                    raise QueryAlreadyAnsweredError(query_id)
                if request.status is not QueryStatus.PENDING or query_id not in shard.pool:
                    raise QueryNotPendingError(query_id)
                # journal before the pool mutation (see the base cancel())
                if self.journal is not None:
                    self.journal.log_cancel(query_id)
                query = shard.pool.pop(query_id)
                shard.index.remove_query(query)
                self._evict_match_plan(query_id)
                self._cancel_registered_locked(request)
        self._maybe_checkpoint()

    # -- durability overrides ----------------------------------------------------------

    @contextmanager
    def _all_coordination_locks(self) -> Iterator[None]:
        """db lock → every shard lock (ascending, global last) → request lock.

        The full lock set freezes every state transition: submissions (shard
        + request locks), match passes (db lock), cancellations and waits.
        Used for checkpoints and for replaying recovery records onto a system
        whose worker pool is already running.
        """
        with ExitStack() as stack:
            stack.enter_context(self._db_lock)
            for shard in self._all_shards:
                stack.enter_context(shard.lock)
            stack.enter_context(self._lock)
            yield

    _checkpoint_locks = _all_coordination_locks
    _recovery_commit_locks = _all_coordination_locks

    @contextmanager
    def _registration_scope(self, query: ir.EntangledQuery) -> Iterator[None]:
        shard = self.shard_of(query)
        with shard.lock, self._lock:
            yield

    def _discard_pending(self, query_id: str) -> None:
        request = self._requests.get(query_id)
        if request is None:
            return
        shard = self.shard_of(request.query)
        query = shard.pool.pop(query_id, None)
        if query is not None:
            shard.index.remove_query(query)
            self._evict_match_plan(query_id)

    def mark_all_dirty(self) -> None:
        """Arm retry sweeps on every populated shard (end of recovery).

        The idle-sweep backstop then re-attempts recovered pending queries in
        the background, which is how a group whose crash fell between its
        match and its commit record gets re-matched.
        """
        now = time.monotonic()
        any_pending = False
        for shard in self._all_shards:
            with shard.lock:
                if shard.pool:
                    shard.dirty = True
                    shard.dirty_since = now
                    any_pending = True
        if any_pending:
            self._workers.kick()

    # -- inspection --------------------------------------------------------------------

    def pending_queries(self) -> list[ir.EntangledQuery]:
        pending: list[ir.EntangledQuery] = []
        for shard in self._all_shards:
            with shard.lock:
                pending.extend(shard.pool.values())
        return pending

    def pending_count(self) -> int:
        return sum(self._shard_pending(shard) for shard in self._all_shards)

    def _shard_pending(self, shard: QueryShard) -> int:
        with shard.lock:
            return len(shard.pool)

    def provider_index_size(self) -> int:
        total = 0
        for shard in self._all_shards:
            with shard.lock:
                total += len(shard.index)
        return total

    def shard_stats(self) -> list[dict[str, int]]:
        stats: list[dict[str, int]] = []
        for shard in self._all_shards:
            with shard.lock:
                entry = {
                    "shard": shard.shard_id,
                    "pending": len(shard.pool),
                    "index_size": len(shard.index),
                    "dirty": int(shard.dirty),
                    "cross_shard": int(shard is self._global_shard),
                }
            entry["queued_events"] = self._workers.queued(shard)
            stats.append(entry)
        return stats

    @property
    def worker_pool(self) -> MatchWorkerPool:
        return self._workers

    # -- lifecycle ---------------------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Block until every enqueued match event has been processed."""
        return self._workers.drain(timeout)

    def shutdown(self) -> None:
        """Stop the worker pool (idempotent; queued events are abandoned)."""
        self._workers.shutdown()
        super().shutdown()
