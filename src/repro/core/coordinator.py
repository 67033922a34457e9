"""The coordination component: pending-query management and joint answering.

"The coordination component runs whenever an entangled query arrives in the
system.  The coordination logic accesses regular database tables as well as
other internal tables that store the list of pending queries" (demo paper,
Section 2.2).

The :class:`Coordinator` owns the pool of pending entangled queries, a
provider index over their head atoms, the matcher, and the joint executor.
When a query is submitted it is statically checked (safety / uniqueness),
registered, and a match attempt is triggered.  A query whose constraints
cannot yet be satisfied "is not rejected but waits for an opportunity to
retry": it stays in the pool and is reconsidered whenever a new query arrives,
whenever the base data changes (optional), or when :meth:`retry_pending` is
called explicitly.

That internal table is ``_pending_queries``: a read-only view computed from
the coordinator's request records at read time (never a stored copy), so the
administrative interface and plain SQL inspect the pool exactly as the paper
describes.
"""

from __future__ import annotations

import dataclasses
import enum
import random
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    MutableMapping,
    Optional,
    Sequence,
    Union,
)

from repro.core import ir
from repro.core.answer import AnswerRelationRegistry
from repro.core.compiler import compile_entangled
from repro.core.config import SystemConfig
from repro.core.events import EventBus, EventType
from repro.core.executor import ExecutionOutcome, JointExecutor
from repro.core.matching import MatchedGroup, Matcher
from repro.core.matchplan import GridProviderIndex
from repro.core.policy import (
    FirstMatchPolicy,
    PolicyContext,
    PolicyStatistics,
    get_policy,
    select as select_by_policy,
)
from repro.core.safety import AnalysisReport, check
from repro.core.stats import CoordinationStatistics
from repro.core.tiering import TieringManager
from repro.errors import (
    CoordinationTimeoutError,
    EntanglementError,
    ExecutionError,
    QueryAlreadyAnsweredError,
    QueryNotPendingError,
    StorageError,
    YoutopiaError,
)
from repro.relalg.engine import QueryEngine
from repro.sqlparser import ast
from repro.storage.database import Database
from repro.storage.schema import make_schema

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.durability import DurabilityManager

PENDING_TABLE = "_pending_queries"


class QueryStatus(enum.Enum):
    """Lifecycle states of a registered entangled query."""

    PENDING = "pending"
    ANSWERED = "answered"
    CANCELLED = "cancelled"
    REJECTED = "rejected"


@dataclass
class CoordinationRequest:
    """The handle returned to applications for one submitted entangled query."""

    query: ir.EntangledQuery
    status: QueryStatus = QueryStatus.PENDING
    analysis: Optional[AnalysisReport] = None
    answer: Optional[ir.GroundAnswer] = None
    group_query_ids: tuple[str, ...] = ()
    error: Optional[str] = None
    registered_at: float = field(default_factory=time.time)
    answered_at: Optional[float] = None

    @property
    def query_id(self) -> str:
        return self.query.query_id

    @property
    def owner(self) -> Optional[str]:
        return self.query.owner

    @property
    def is_answered(self) -> bool:
        return self.status is QueryStatus.ANSWERED


class Coordinator:
    """Registers entangled queries and answers matchable groups jointly."""

    def __init__(
        self,
        database: Database,
        engine: QueryEngine,
        registry: AnswerRelationRegistry,
        executor: JointExecutor,
        event_bus: Optional[EventBus] = None,
        rng: Optional[random.Random] = None,
        *,
        config: SystemConfig,
    ) -> None:
        self.config = config
        self.database = database
        self.engine = engine
        self.registry = registry
        self.executor = executor
        self.events = event_bus or EventBus()
        self.statistics = CoordinationStatistics()
        self.rng = rng or random.Random()

        self._matcher = Matcher(engine, rng=self.rng, max_group_size=config.max_group_size)
        self._index = GridProviderIndex()

        # Match-selection policy (validated here so a bad name fails at
        # construction, not on the first match attempt).
        self._policy = get_policy(config.match_policy)
        self.policy_statistics = PolicyStatistics(
            config.match_policy, config.policy_candidate_limit
        )

        #: Durability journal (attached by the system after recovery); every
        #: accepted submission, answered group and cancellation is logged
        #: through it while the relevant locks are still held.
        self.journal: Optional["DurabilityManager"] = None

        self._pool: MutableMapping[str, ir.EntangledQuery] = {}
        self._requests: dict[str, CoordinationRequest] = {}
        self._done_callbacks: dict[str, list[Callable[[CoordinationRequest], None]]] = {}
        self._lock = threading.RLock()
        self._answered = threading.Condition(self._lock)
        # Thread-local so a joint execution does not suppress data-change
        # notifications caused by DML on *other* threads meanwhile.
        self._executing = threading.local()
        self._data_dirty = False

        # Tiered pending pool: with a memory limit, cold queries spill to a
        # pluggable backend and page back in on candidate hits.  The backend
        # opens here — before the system attaches durability and replays the
        # journal — so recovery can resolve snapshot references into it.
        self._tiering: Optional[TieringManager] = None
        if config.pending_memory_limit is not None:
            from repro.storage.backends import create_backend

            backend = create_backend(
                config.cold_store, config.data_dir, config.fsync_policy
            )
            self._tiering = TieringManager(
                backend,
                config.pending_memory_limit,
                on_evict=self._tiering_evicted,
                on_page_in=self._tiering_paged_in,
            )
            self._pool = self._tiering.pool

        self.database.create_view(
            make_schema(
                PENDING_TABLE,
                [
                    ("query_id", "TEXT", False),
                    ("owner", "TEXT"),
                    ("status", "TEXT", False),
                    ("sql", "TEXT"),
                    ("registered_at", "REAL"),
                ],
                primary_key=("query_id",),
            ),
            self._pending_table_rows,
        )
        if config.auto_retry_on_data_change:
            self.database.add_listener(self._on_data_change)

    # -- the internal pending-query table -------------------------------------------------

    def _pending_table_rows(self) -> list[tuple[Any, ...]]:
        """Rows of the ``_pending_queries`` view, in registration order.

        Computed from the request records at read time, so the table can
        never drift from them.  ``self._lock`` comes last in every lock
        order, so a read from inside a hook or a grounding query is safe.
        Rejected requests never entered the pool and have no row.
        """
        with self._lock:
            requests = list(self._requests.values())
        return [
            (
                request.query_id,
                request.owner,
                request.status.value,
                request.query.sql or request.query.describe(),
                request.registered_at,
            )
            for request in requests
            if request.status is not QueryStatus.REJECTED
        ]

    # -- data-change retries ----------------------------------------------------------------

    def _is_coordination_table(self, table_name: str) -> bool:
        """Tables whose changes are coordination side effects, not base data."""
        return table_name in self.registry.names()

    def _on_data_change(self, table_name: str, kind: str) -> None:
        if getattr(self._executing, "active", False):
            return
        if self._is_coordination_table(table_name):
            return
        if kind in ("insert", "update", "delete", "truncate"):
            self._data_dirty = True

    # -- submission ---------------------------------------------------------------------------

    def submit(
        self,
        query: Union[ir.EntangledQuery, ast.EntangledSelect, str],
        owner: Optional[str] = None,
    ) -> CoordinationRequest:
        """Register an entangled query and immediately attempt coordination.

        Returns a :class:`CoordinationRequest` handle.  If the query could be
        coordinated right away its status is already ``ANSWERED``; otherwise it
        remains ``PENDING`` and the caller can :meth:`wait` on it.
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

        with self._lock:
            if query.query_id in self._pool or query.query_id in self._requests:
                raise EntanglementError(
                    f"a query with id {query.query_id!r} is already registered"
                )
            self._register_locked(request)

            if self._data_dirty:
                self._data_dirty = False
                self._retry_pending_locked(exclude=query.query_id)

            self._attempt_match_locked(query)
        self._maybe_checkpoint()
        return request

    def submit_many(
        self,
        queries: Sequence[Union[ir.EntangledQuery, ast.EntangledSelect, str]],
        owner: Optional[str] = None,
    ) -> list[CoordinationRequest]:
        """Register a batch of entangled queries under one lock acquisition.

        Unlike a loop of :meth:`submit` — which runs a full match pass inline
        for every arrival — the whole batch is registered first and a *single*
        deferred match pass runs afterwards.  Queries answered as part of an
        earlier arrival's group have already left the pool when their turn
        comes, so the pass performs at most one match attempt per answered
        group plus one attempt per query that remains pending (the final retry
        sweep).  On coordination-heavy workloads this roughly halves the number
        of match passes.

        Batch semantics are per-item: a query that fails the static safety /
        uniqueness checks (or reuses an already-registered id) is recorded as
        ``REJECTED`` with its error message instead of raising, and the rest of
        the batch proceeds.  The returned list is parallel to ``queries``.
        """
        compiled = [self._coerce_query(query, owner) for query in queries]

        batch: list[CoordinationRequest] = []
        # A tiered pool keeps the batch hot until its match pass is done: a
        # member spilled by the batch's own registrations would be matched
        # as its stub, without its constraints.
        pinned = (
            self._tiering.pool.pinned(query.query_id for query in compiled)
            if self._tiering is not None
            else nullcontext()
        )
        with self._lock, pinned:
            # One group-commit scope around *registration only*: the batch's
            # submit records share a single fsync, but the scope must close
            # before the deferred match pass — a commit record appended
            # inside the scope would defer its fsync past the point where
            # answers become observable (wait(), done callbacks, pushes).
            journal_scope = (
                self.journal.group_commit() if self.journal is not None else nullcontext()
            )
            with journal_scope:
                self._register_compiled_batch_locked(compiled, batch)

            if self._data_dirty:
                self._data_dirty = False
                self._retry_pending_locked()

            # The single deferred match pass, in arrival order.  Members of a
            # group answered by an earlier trigger are no longer in the pool
            # and are skipped without a match attempt.
            for request in batch:
                if request.status is QueryStatus.PENDING and request.query_id in self._pool:
                    self._attempt_match_locked(request.query)
        self._maybe_checkpoint()
        return batch

    def _register_compiled_batch_locked(
        self,
        compiled: Sequence[ir.EntangledQuery],
        batch: list[CoordinationRequest],
    ) -> None:
        """Per-item checked registration for :meth:`submit_many` (lock held)."""
        for query in compiled:
            request = CoordinationRequest(query=query)
            batch.append(request)
            rejection = self._run_static_checks(request)
            if rejection is not None:
                self._requests.setdefault(query.query_id, request)
                self.statistics.queries_rejected += 1
                self.events.publish(
                    EventType.QUERY_REJECTED,
                    query_id=query.query_id,
                    owner=query.owner,
                    reason=str(rejection),
                )
                continue
            if query.query_id in self._pool or query.query_id in self._requests:
                request.status = QueryStatus.REJECTED
                request.error = f"a query with id {query.query_id!r} is already registered"
                self.statistics.queries_rejected += 1
                self.events.publish(
                    EventType.QUERY_REJECTED,
                    query_id=query.query_id,
                    owner=query.owner,
                    reason=request.error,
                )
                continue
            self._register_locked(request)

    @staticmethod
    def _coerce_query(
        query: Union[ir.EntangledQuery, ast.EntangledSelect, str],
        owner: Optional[str],
    ) -> ir.EntangledQuery:
        if not isinstance(query, ir.EntangledQuery):
            return compile_entangled(query, owner=owner)
        if owner is not None and query.owner is None:
            return query.replace_owner(owner)
        return query

    @staticmethod
    def _run_static_checks(request: CoordinationRequest) -> Optional[EntanglementError]:
        """Safety / uniqueness analysis; marks the request REJECTED on failure."""
        try:
            request.analysis = check(request.query)
            return None
        except EntanglementError as exc:
            request.status = QueryStatus.REJECTED
            request.error = str(exc)
            return exc

    def _add_pending(self, query: ir.EntangledQuery) -> None:
        """Insert a query into pending bookkeeping (lock held)."""
        self._pool[query.query_id] = query
        self._index.add_query(query)

    def _register_locked(self, request: CoordinationRequest) -> None:
        """Add a checked request to the pool and index (lock held, no matching)."""
        query = request.query
        # Journal first, while the registration locks are held: the log order
        # equals the registration order, the submission is durable before the
        # caller's submit() returns (acknowledge-after-append), and an append
        # failure propagates *before* any in-memory mutation — a registered
        # but unjournaled query would silently vanish on crash while staying
        # matchable in this process.
        if self.journal is not None:
            self.journal.log_submit(request)
        for atom in list(query.heads) + list(query.answer_atoms):
            self.registry.ensure(atom.relation, atom.arity)
        self._add_pending(query)
        self._requests[query.query_id] = request
        self.statistics.queries_registered += 1
        self.events.publish(
            EventType.QUERY_REGISTERED,
            query_id=query.query_id,
            owner=query.owner,
            sql=query.sql or query.describe(),
        )

    # -- matching ----------------------------------------------------------------------------------

    def _attempt_match_locked(self, trigger: ir.EntangledQuery) -> Optional[ExecutionOutcome]:
        """Try to coordinate ``trigger`` with the current pool (lock held)."""
        if trigger.query_id not in self._pool:
            return None
        group = self._select_group(trigger)
        self._note_match_attempt(trigger, group, pool_size=len(self._pool))
        if group is None:
            return None
        return self._execute_group_locked(group)

    def _select_group(self, trigger: ir.EntangledQuery) -> Optional[MatchedGroup]:
        """Choose one match group for ``trigger`` under the configured policy.

        ``first_match`` short-circuits to the single-group search — the
        classic path at the classic cost.  Other policies enumerate up to
        ``policy_candidate_limit`` candidate groups and pick deterministically.
        """
        matcher = self._matcher
        if isinstance(self._policy, FirstMatchPolicy):
            group = matcher.find_group(trigger, self._pool, self._index)
            if group is not None:
                self.policy_statistics.record_first_match()
            return group
        limit = max(1, self.config.policy_candidate_limit)
        candidates = list(
            matcher.enumerate_groups(trigger, self._pool, self._index, limit=limit)
        )
        if not candidates:
            return None
        decision = select_by_policy(
            self._policy, candidates, self._policy_context(trigger, candidates)
        )
        self.policy_statistics.record(decision, truncated=len(candidates) >= limit)
        return decision.group

    def _policy_context(
        self, trigger: ir.EntangledQuery, candidates: Sequence[MatchedGroup]
    ) -> PolicyContext:
        """Assemble the per-attempt context the policies score against."""
        priorities: dict[str, float] = {}
        registered_at: dict[str, float] = {}
        for group in candidates:
            for query in group.queries:
                if query.query_id in priorities or query.query_id in registered_at:
                    continue
                request = self._requests.get(query.query_id)
                if request is not None:
                    registered_at[query.query_id] = request.registered_at
                if query.priority is not None:
                    priorities[query.query_id] = float(query.priority)
        return PolicyContext(
            trigger_id=trigger.query_id,
            now=time.time(),
            priorities=priorities,
            registered_at=registered_at,
            cost_attribute=self.config.policy_cost_attribute,
        )

    def _note_match_attempt(
        self, trigger: ir.EntangledQuery, group: Optional[MatchedGroup], pool_size: int
    ) -> None:
        """Record statistics and the MATCH_ATTEMPTED event for one attempt."""
        if group is not None:
            self.statistics.record_match_attempt(True, group.statistics)
        else:
            from repro.core.matching import MatchStatistics

            self.statistics.record_match_attempt(False, MatchStatistics())
        self.events.publish(
            EventType.MATCH_ATTEMPTED,
            query_id=trigger.query_id,
            succeeded=group is not None,
            pool_size=pool_size,
        )

    def _run_executor(self, group: MatchedGroup) -> Optional[ExecutionOutcome]:
        """Joint execution with failure bookkeeping; ``None`` on rollback."""
        self._executing.active = True
        try:
            outcome = self.executor.execute(group)
        except ExecutionError as exc:
            self.statistics.executions_failed += 1
            self.events.publish(
                EventType.EXECUTION_FAILED,
                query_ids=group.query_ids,
                reason=str(exc),
            )
            return None
        finally:
            self._executing.active = False
        return outcome

    def _remove_pending(self, query_id: str) -> None:
        """Drop an answered query from pending bookkeeping (lock held)."""
        query = self._pool.pop(query_id)
        self._index.remove_query(query)
        self._evict_match_plan(query_id)

    # -- tiering hooks -----------------------------------------------------------------

    def _tiering_evicted(self, query_id: str, stub: ir.EntangledQuery) -> None:
        """A pool spilled ``query_id``: release its materialized state.

        Called by the :class:`~repro.core.tiering.TieredPool` under the
        coordinator lock.  The request record swaps to the structural stub —
        heads, owner, priority and the exact SQL survive, so routing,
        journaling and wire encoding stay correct — and the compiled match
        plan is dropped with the IR it indexed.
        """
        self._evict_match_plan(query_id)
        with self._lock:
            request = self._requests.get(query_id)
            if request is not None and request.status is QueryStatus.PENDING:
                request.query = stub

    def _tiering_paged_in(self, query_id: str, query: ir.EntangledQuery) -> None:
        """A pool restored ``query_id``: re-point its request at the full IR."""
        with self._lock:
            request = self._requests.get(query_id)
            if request is not None and request.status is QueryStatus.PENDING:
                request.query = query

    # -- match-plan cache lifecycle ----------------------------------------------------

    def _evict_match_plan(self, query_id: str) -> None:
        """Free a departed query's compiled plan (derived state, never journaled)."""
        self._matcher.plan_cache.evict(query_id)

    def invalidate_match_plans(self) -> None:
        """Drop every compiled plan (answer-relation declarations call this).

        Plans are rebuilt lazily on the next match attempt, so invalidation
        is cheap and guarantees no plan outlives the relation metadata it was
        compiled against.
        """
        with self._lock:
            self._matcher.plan_cache.invalidate_all()

    def _finalize_outcome_locked(self, outcome: ExecutionOutcome) -> ExecutionOutcome:
        """Mark every group member answered and notify observers (lock held)."""
        group = outcome.group
        group_ids = tuple(group.query_ids)
        answered_at = time.time()
        # Write-ahead: the commit record is appended before any request flips
        # to ANSWERED, while this thread still holds the coordinator lock.
        # A crash before the append leaves the whole group pending in the
        # log and recovery re-matches it; a crash after
        # replays the identical answers.  A *non-fatal* append failure (disk
        # full on a live system) must NOT abort the finalize: the joint
        # execution already committed its tuples, and leaving the group
        # pending would re-match it later and insert them twice.  The
        # durability degradation is recorded on the journal instead.
        if self.journal is not None:
            try:
                self.journal.log_commit(group_ids, outcome.answers, answered_at)
            except Exception as exc:  # noqa: BLE001 - divergence is worse than a gap
                self.journal.note_append_failure(exc)
        self.statistics.groups_matched += 1
        self.events.publish(
            EventType.GROUP_MATCHED,
            query_ids=list(group_ids),
            relations=sorted(outcome.inserted),
        )
        answered_requests: list[CoordinationRequest] = []
        for answer in outcome.answers:
            request = self._requests[answer.query_id]
            # status flips last: it is the commit point for lock-free readers
            # (the remote server snapshots records without taking this lock),
            # so a record seen as ANSWERED always carries its answer.
            request.answer = answer
            request.group_query_ids = group_ids
            request.answered_at = answered_at
            request.status = QueryStatus.ANSWERED
            self.statistics.queries_answered += 1
            self._remove_pending(answer.query_id)
            self.events.publish(
                EventType.QUERY_ANSWERED,
                query_id=answer.query_id,
                owner=request.owner,
                tuples={relation: list(values) for relation, values in answer.tuples.items()},
                group=list(group_ids),
            )
            answered_requests.append(request)
        self._answered.notify_all()
        # Callbacks fire only after every group member is marked answered and
        # removed from the pool, so an observer reading a partner's handle
        # (or waiting on it) sees the whole group in its final state.
        for request in answered_requests:
            self._fire_done_callbacks_locked(request)
        return outcome

    def _execute_group_locked(self, group: MatchedGroup) -> Optional[ExecutionOutcome]:
        outcome = self._run_executor(group)
        if outcome is None:
            return None
        return self._finalize_outcome_locked(outcome)

    def retry_pending(self) -> int:
        """Re-attempt coordination for every pending query.

        Useful after base data changed (new flights inserted) without any new
        entangled query arriving.  Returns the number of queries answered.
        """
        with self._lock:
            answered = self._retry_pending_locked()
        self._maybe_checkpoint()
        return answered

    def _retry_pending_locked(self, exclude: Optional[str] = None) -> int:
        answered_before = self.statistics.queries_answered
        for query_id in list(self._pool.keys()):
            if query_id == exclude or query_id not in self._pool:
                continue
            self._attempt_match_locked(self._pool[query_id])
        return self.statistics.queries_answered - answered_before

    # -- waiting / cancellation -------------------------------------------------------------------------

    def wait(self, query_id: str, timeout: Optional[float] = None) -> ir.GroundAnswer:
        """Block until ``query_id`` is answered; raise on timeout or cancellation."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while True:
                request = self._requests.get(query_id)
                if request is None:
                    raise QueryNotPendingError(query_id)
                if request.status is QueryStatus.ANSWERED:
                    assert request.answer is not None
                    return request.answer
                if request.status in (QueryStatus.CANCELLED, QueryStatus.REJECTED):
                    raise EntanglementError(
                        f"query {query_id!r} is {request.status.value}: {request.error or ''}"
                    )
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        self.record_wait_timeout(query_id)
                        # deadline is only set for a non-None timeout: report
                        # the caller's actual value, 0 included.
                        raise CoordinationTimeoutError(query_id, timeout)
                self._answered.wait(remaining)

    def record_wait_timeout(self, query_id: str) -> None:
        """Count one timed-out wait on ``query_id`` and publish it.

        Shared by :meth:`wait` and the network server's callback-driven
        ``wait``, so both report timeouts identically.
        """
        with self._lock:
            self.statistics.queries_timed_out += 1
            self.events.publish(EventType.QUERY_TIMED_OUT, query_id=query_id)

    def wait_many(
        self, query_ids: Iterable[str], timeout: Optional[float] = None
    ) -> dict[str, ir.GroundAnswer]:
        """Block until every query in ``query_ids`` is answered.

        ``timeout`` bounds the *total* wait, not each query's.  Returns a
        ``query_id -> GroundAnswer`` mapping; raises like :meth:`wait` for the
        first query that times out, was cancelled or rejected.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        answers: dict[str, ir.GroundAnswer] = {}
        for query_id in query_ids:
            remaining = None if deadline is None else max(deadline - time.monotonic(), 0.0)
            answers[query_id] = self.wait(query_id, timeout=remaining)
        return answers

    # -- completion callbacks ---------------------------------------------------------------------------

    def add_done_callback(
        self, query_id: str, fn: Callable[[CoordinationRequest], None]
    ) -> None:
        """Invoke ``fn(request)`` once ``query_id`` reaches a terminal state.

        If the query is already answered, cancelled or rejected the callback
        fires immediately (in the calling thread); otherwise it fires in the
        thread whose submission answers the group, or in the cancelling
        thread.  Exceptions raised by callbacks are swallowed — a broken
        observer must not abort coordination for the rest of the group.
        """
        with self._lock:
            request = self._requests.get(query_id)
            if request is None:
                raise QueryNotPendingError(query_id)
            if request.status is QueryStatus.PENDING:
                self._done_callbacks.setdefault(query_id, []).append(fn)
                return
        self._invoke_done_callback(fn, request)

    def _fire_done_callbacks_locked(self, request: CoordinationRequest) -> None:
        for fn in self._done_callbacks.pop(request.query_id, ()):
            self._invoke_done_callback(fn, request)

    @staticmethod
    def _invoke_done_callback(
        fn: Callable[[CoordinationRequest], None], request: CoordinationRequest
    ) -> None:
        try:
            fn(request)
        except Exception:  # noqa: BLE001 - observer failures must not poison the pool
            pass

    def cancel(self, query_id: str) -> None:
        """Withdraw a pending query from the pool.

        Raises :class:`~repro.errors.QueryAlreadyAnsweredError` when the query
        was already matched — its group's effects are durable and the request
        record must not be mutated — and the plain
        :class:`~repro.errors.QueryNotPendingError` for unknown, cancelled or
        rejected queries.
        """
        with self._lock:
            request = self._requests.get(query_id)
            if request is None:
                raise QueryNotPendingError(query_id)
            if request.status is QueryStatus.ANSWERED:
                raise QueryAlreadyAnsweredError(query_id)
            if query_id not in self._pool:
                raise QueryNotPendingError(query_id)
            # journal before the pool mutation: an append failure must leave
            # the query cleanly pending (still cancellable), not popped from
            # the pool with a PENDING status nobody can resolve
            if self.journal is not None:
                self.journal.log_cancel(query_id)
            self._remove_pending(query_id)
            self._cancel_registered_locked(request)
        self._maybe_checkpoint()

    def _cancel_registered_locked(self, request: CoordinationRequest) -> None:
        """Shared cancellation bookkeeping once the query left its pool.

        The caller journals the cancel record *before* removing the query
        from its pool (see :meth:`cancel`), so an append failure cannot
        strand a popped-but-still-PENDING zombie.
        """
        request.status = QueryStatus.CANCELLED
        self.statistics.queries_cancelled += 1
        self.events.publish(
            EventType.QUERY_CANCELLED, query_id=request.query_id, owner=request.owner
        )
        self._fire_done_callbacks_locked(request)
        self._answered.notify_all()

    # -- durability: checkpointing ----------------------------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        """Cut a snapshot when enough WAL records accumulated (safe point).

        Called only from points where this thread holds no coordinator locks;
        the checkpoint itself re-acquires everything it needs.  Failures are
        recorded on the journal instead of raised: the triggering operation
        (submit/cancel/...) already succeeded durably, and surfacing a
        snapshot-write error as *its* failure would make remote clients
        retry an accepted submission.
        """
        journal = self.journal
        if journal is not None and journal.snapshot_due():
            try:
                self.checkpoint(only_if_due=True)
            except Exception as exc:  # noqa: BLE001 - background maintenance
                journal.note_checkpoint_failure(exc)

    def checkpoint(self, only_if_due: bool = False) -> bool:
        """Snapshot the full recoverable state and truncate the WAL.

        Returns ``False`` when no journal is attached.  The capture and the
        log truncation happen under every lock a state transition would need
        (checkpoint lock first, then the coordinator lock), so the snapshot
        is a consistent cut: no record can land between the captured state
        and the truncation.  ``only_if_due`` re-checks the snapshot trigger
        *inside* the locks — concurrent ``_maybe_checkpoint`` callers that
        all saw the interval crossed would otherwise each cut a redundant
        full snapshot back to back.
        """
        journal = self.journal
        if journal is None or journal.closed:
            return False
        with journal.checkpoint_scope():
            with self._lock:
                if only_if_due and not journal.snapshot_due():
                    return False
                state = self._capture_state_locked()
                last_lsn = journal.install_checkpoint(state)
                pending = len(self._pool)
        self.events.publish(EventType.SNAPSHOT_TAKEN, last_lsn=last_lsn, pending=pending)
        return True

    def _capture_state_locked(self) -> dict[str, Any]:
        """The snapshot payload: tables, declarations, requests, counters."""
        from repro.core.durability import SNAPSHOT_VERSION, encode_request

        tables: list[dict[str, Any]] = []
        for table in self.database.tables():
            schema = table.schema
            tables.append(
                {
                    "name": schema.name,
                    "columns": [
                        {"name": c.name, "type": c.type.value, "nullable": c.nullable}
                        for c in schema.columns
                    ],
                    "primary_key": list(schema.primary_key),
                    "rows": [list(row) for row in table.rows()],
                    "indexes": [
                        {
                            "name": index.name,
                            "columns": [
                                schema.columns[position].name
                                for position in index.column_positions
                            ],
                            "unique": index.unique,
                        }
                        for index in table.indexes().values()
                        if index.name != "__pk__"
                    ],
                }
            )
        requests_state: list[dict[str, Any]] = []
        for request in self._requests.values():
            entry = encode_request(request)
            if (
                self._tiering is not None
                and request.status is QueryStatus.PENDING
                and self._tiering.pool.is_cold(request.query_id)
            ):
                # The spill store *is* checkpointed state: reference the
                # cold entry instead of re-serializing it.  recover_request
                # resolves the reference from the backend; sync() below
                # makes every referenced payload durable before the
                # snapshot file itself is written.
                entry["sql"] = None
                entry["residence"] = "cold"
            requests_state.append(entry)
        if self._tiering is not None:
            self._tiering.sync()
        return {
            "version": SNAPSHOT_VERSION,
            "tables": tables,
            "answer_relations": self.registry.names(),
            "requests": requests_state,
            "counters": self.statistics.as_dict(),
        }

    # -- durability: recovery application ---------------------------------------------------------------

    def recover_request(self, state: dict[str, Any]) -> bool:
        """Rebuild one request from its journaled/snapshotted state.

        Pending requests re-enter the pool and provider index (the indexes
        are derived state and are rebuilt rather than deserialized); terminal
        ones only restore their record and bookkeeping row.  Idempotent by
        query id; returns whether anything was applied.  Never journals —
        recovery runs before the journal is attached.
        """
        query_id = str(state["query_id"])
        with self._lock:
            if query_id in self._requests:
                return False
        owner = state.get("owner")
        sql = state.get("sql")
        priority = state.get("priority")
        if not sql and state.get("residence") == "cold" and self._tiering is not None:
            # The snapshot referenced this query's cold-store payload rather
            # than re-serializing it.  Resolve the reference: the query
            # re-enters the pool hot, and natural eviction re-spills past
            # the memory budget — which is how hot/cold placement is
            # rebuilt after a crash.
            payload = self._tiering.backend.get(query_id)
            if payload is not None:
                from repro.storage.backends import decode_payload

                try:
                    decoded = decode_payload(payload)
                except StorageError:
                    decoded = None
                if decoded is not None:
                    sql = decoded.get("sql")
                    owner = decoded.get("owner") or owner
                    if decoded.get("priority") is not None:
                        priority = decoded["priority"]
        query: Optional[ir.EntangledQuery] = None
        if sql:
            try:
                query = dataclasses.replace(
                    compile_entangled(str(sql), owner=owner), query_id=query_id
                )
                if priority is not None:
                    query = dataclasses.replace(query, priority=float(priority))
            except YoutopiaError:
                query = None
        if query is None:
            # No (usable) SQL was recorded; keep the identity so terminal
            # history survives, but the query cannot re-enter the pool.
            query = ir.EntangledQuery(query_id=query_id, heads=(), owner=owner)
        request = CoordinationRequest(query=query)
        if state.get("registered_at"):
            request.registered_at = float(state["registered_at"])
        status = QueryStatus(str(state.get("status", "pending")))

        if status is QueryStatus.PENDING and query.heads:
            rejection = self._run_static_checks(request)
            if rejection is None:
                with self._lock:
                    for atom in list(query.heads) + list(query.answer_atoms):
                        self.registry.ensure(atom.relation, atom.arity)
                    self._add_pending(query)
                    self._requests[query_id] = request
                    self.statistics.queries_registered += 1
                return True
            status = QueryStatus.REJECTED
        elif status is QueryStatus.PENDING:
            # The journaled SQL could not be recompiled: a pending request
            # that cannot re-enter the pool must not recover as a phantom
            # (wait() would hang forever and cancel() would raise); surface
            # it as rejected with a diagnosable error instead.
            status = QueryStatus.REJECTED
            request.error = (
                f"recovery could not recompile query {query_id!r} from its "
                f"journaled SQL or cold-store payload; the request cannot "
                f"re-enter the pending pool"
            )

        request.status = status
        request.error = state.get("error") or request.error
        request.group_query_ids = tuple(state.get("group") or ())
        if state.get("answered_at"):
            request.answered_at = float(state["answered_at"])
        answer = state.get("answer")
        if answer is not None:
            from repro.service.remote import codec

            request.answer = codec.decode_answer(query_id, answer)
        with self._lock:
            self._requests[query_id] = request
        return True

    def apply_recovered_commit(
        self,
        group_ids: tuple[str, ...],
        answers: Sequence[ir.GroundAnswer],
        answered_at: float,
    ) -> int:
        """Replay one commit record: re-insert answer tuples, flip statuses.

        Skips members that are already answered (replay idempotence) or
        unknown (a snapshot always contains every request, so this only
        happens for damaged logs).  Returns the number of requests applied.
        """
        applied = 0
        with self._lock:
            for answer in answers:
                request = self._requests.get(answer.query_id)
                if request is None or request.status is QueryStatus.ANSWERED:
                    continue
                for relation, relation_tuples in answer.tuples.items():
                    for values in relation_tuples:
                        self.registry.ensure(relation, len(values))
                        self.registry.insert(relation, values)
                request.answer = answer
                request.group_query_ids = tuple(group_ids)
                request.answered_at = answered_at or time.time()
                request.status = QueryStatus.ANSWERED
                self.statistics.queries_answered += 1
                self._discard_pending(answer.query_id)
                applied += 1
            if applied:
                self.statistics.groups_matched += 1
                self._answered.notify_all()
        return applied

    def apply_recovered_cancel(self, query_id: str) -> bool:
        """Replay one cancel record (idempotent)."""
        with self._lock:
            request = self._requests.get(query_id)
            if request is None or request.status is not QueryStatus.PENDING:
                return False
            request.status = QueryStatus.CANCELLED
            self.statistics.queries_cancelled += 1
            self._discard_pending(query_id)
            self._answered.notify_all()
        return True

    def _discard_pending(self, query_id: str) -> None:
        """Drop a query from pending bookkeeping if (still) resident."""
        if query_id in self._pool:
            self._remove_pending(query_id)

    def mark_all_dirty(self) -> None:
        """Arm a retry sweep for the whole pool (end of recovery).

        A crash between a match's execution and its commit record leaves the
        group pending again; marking everything dirty makes the next arrival
        (or an explicit retry) re-attempt it.
        """
        with self._lock:
            if self._pool:
                self._data_dirty = True

    # -- inspection ------------------------------------------------------------------------------------------

    def request(self, query_id: str) -> CoordinationRequest:
        with self._lock:
            request = self._requests.get(query_id)
            if request is None:
                raise QueryNotPendingError(query_id)
            return request

    def status(self, query_id: str) -> QueryStatus:
        return self.request(query_id).status

    def pending_queries(self) -> list[ir.EntangledQuery]:
        with self._lock:
            return list(self._pool.values())

    def pending_count(self) -> int:
        with self._lock:
            return len(self._pool)

    def requests(self) -> list[CoordinationRequest]:
        with self._lock:
            return list(self._requests.values())

    def answers(self, relation: str) -> list[tuple[Any, ...]]:
        """The current contents of an answer relation."""
        return self.registry.tuples(relation)

    def provider_index_size(self) -> int:
        with self._lock:
            return len(self._index)

    def matching_statistics(self) -> dict[str, Any]:
        """The match-policy stats block plus the plan-cache counters, the
        provider-index size and whether a data change awaits a retry."""
        stats = self.policy_statistics.as_dict()
        stats.update(self._matcher.plan_cache.statistics())
        with self._lock:
            stats.update(index_size=len(self._index), dirty=self._data_dirty)
        return stats

    def tiering_statistics(self) -> dict[str, Any]:
        """The ``ServiceStats.tiering`` block.

        ``{"enabled": False}`` without a memory limit; otherwise hot/cold
        residency, eviction/page-in counters and total page-in time.  Counter
        reads are lock-free — they are monotonic ints mutated under pool
        locks, and a slightly stale stats block is fine.
        """
        if self._tiering is None:
            return {"enabled": False}
        return self._tiering.statistics()

    # -- lifecycle ---------------------------------------------------------------------------------------

    def shutdown(self) -> None:
        """Close the cold store.

        Runs after the system's final checkpoint, so every payload a
        snapshot references has already been synced.
        """
        if self._tiering is not None:
            self._tiering.close()
