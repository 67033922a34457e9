"""The Youtopia system facade.

This assembles the architecture of Figure 2 of the demo paper into one object:

* the **database** (storage catalog) with its regular tables,
* the **execution engine** (relational query engine) for plain SQL,
* the **query compiler** for entangled SQL,
* the **coordination component** (pending pool + matcher + joint executor),
* answer relations, transactions, events and statistics.

Applications — the travel web site's middle tier, the SQL command line and the
admin interface — talk to this facade (usually through a per-user
:class:`~repro.core.session.YoutopiaSession`).
"""

from __future__ import annotations

import random
from typing import Any, Optional, Sequence, Union

from repro.core import ir
from repro.core.answer import AnswerRelationRegistry
from repro.core.compiler import compile_entangled
from repro.core.config import SystemConfig
from repro.core.coordinator import CoordinationRequest, Coordinator, QueryStatus
from repro.core.durability import DurabilityManager, RecoveryReport
from repro.core.events import EventBus, EventType
from repro.core.executor import JointExecutor, SideEffectHook
from repro.core.transactions import TransactionManager
from repro.errors import PlanError, ScriptError, YoutopiaError
from repro.relalg.engine import QueryEngine, QueryResult
from repro.sqlparser import ast, parse_script, parse_statement
from repro.sqlparser.pretty import format_statement
from repro.storage.database import Database


class YoutopiaSystem:
    """A complete in-process Youtopia instance.

    Every knob lives in a :class:`~repro.core.config.SystemConfig`
    (``YoutopiaSystem(config=SystemConfig(seed=0))``); ``None`` means
    ``SystemConfig()``.  Application code should usually talk to the instance
    through the transport-agnostic service layer — see :meth:`service` and
    :mod:`repro.service`.
    """

    def __init__(
        self, database: Optional[Database] = None, *, config: Optional[SystemConfig] = None
    ) -> None:
        config = config or SystemConfig()
        self.config = config
        self.database = database or Database()
        self.engine = QueryEngine(self.database)
        self.transactions = TransactionManager(self.database)
        self.answer_relations = AnswerRelationRegistry(self.database)
        self.events = EventBus()
        self.rng = random.Random(config.seed)
        self.executor = JointExecutor(self.engine, self.answer_relations, self.transactions)
        self.coordinator = Coordinator(
            database=self.database,
            engine=self.engine,
            registry=self.answer_relations,
            executor=self.executor,
            event_bus=self.events,
            rng=self.rng,
            config=config,
        )
        #: Durability subsystem (write-ahead log + snapshots).  Recovery runs
        #: *before* the journal is attached so replayed transitions are not
        #: re-journaled.
        self.durability: Optional[DurabilityManager] = None
        self.recovery: Optional[RecoveryReport] = None
        if config.data_dir is not None:
            self.durability = DurabilityManager(
                config.data_dir,
                fsync_policy=config.fsync_policy,
                snapshot_interval=config.snapshot_interval,
            )
            self.recovery = self.durability.recover(self)
            self.coordinator.journal = self.durability
            if self.recovery.has_state:
                # Re-arm matching for recovered pending queries: a crash that
                # fell between a match and its commit record left the group
                # pending, and the dirty sweep re-attempts it.
                self.coordinator.mark_all_dirty()
                self.events.publish(
                    EventType.RECOVERY_COMPLETED, **self.recovery.as_dict()
                )
                # A post-recovery checkpoint makes the next restart replay
                # from a fresh snapshot instead of the whole log again.
                self.coordinator.checkpoint()

    # -- lifecycle -------------------------------------------------------------------------

    def close(self) -> None:
        if self.durability is not None:
            # A clean-shutdown checkpoint: restart replays nothing.  A
            # failure here (disk full) must not abort the close — the WAL
            # already holds everything the snapshot would have captured.
            try:
                self.coordinator.checkpoint()
            except Exception as exc:  # noqa: BLE001 - close must complete
                self.durability.note_checkpoint_failure(exc)
        self.coordinator.shutdown()
        if self.durability is not None:
            self.durability.close()

    @property
    def recovered(self) -> bool:
        """Whether this instance was rebuilt from prior durable state."""
        return self.recovery is not None and self.recovery.has_state

    def checkpoint(self) -> bool:
        """Snapshot the recoverable state and truncate the WAL (if durable)."""
        return self.coordinator.checkpoint()

    def durability_stats(self) -> dict[str, Any]:
        """A JSON-safe durability summary (``{"enabled": False}`` when off)."""
        if self.durability is None:
            return {"enabled": False}
        return self.durability.stats()

    def __enter__(self) -> "YoutopiaSystem":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- statement routing -------------------------------------------------------------------

    def execute(
        self, sql: Union[str, ast.Statement], owner: Optional[str] = None
    ) -> Union[QueryResult, CoordinationRequest]:
        """Execute one statement, routing it to the right component.

        Plain SQL (DDL, DML, SELECT) goes to the execution engine and returns a
        :class:`~repro.relalg.engine.QueryResult`.  Entangled queries go to the
        coordination component and return a
        :class:`~repro.core.coordinator.CoordinationRequest`.
        """
        statement = parse_statement(sql) if isinstance(sql, str) else sql
        if isinstance(statement, ast.EntangledSelect):
            return self.coordinator.submit(statement, owner=owner)
        if self.durability is not None and not isinstance(statement, ast.Select):
            # DDL/DML is journaled (apply, then record, atomically vs.
            # checkpoints) so base-data changes replay in order on recovery;
            # failing statements are never journaled.
            result = self.durability.journaled_data(
                format_statement(statement), lambda: self.engine.execute(statement)
            )
            self.coordinator._maybe_checkpoint()
            return result
        return self.engine.execute(statement)

    def execute_script(
        self, sql: str, owner: Optional[str] = None
    ) -> list[Union[QueryResult, CoordinationRequest]]:
        """Execute a ``;``-separated script through :meth:`execute`.

        A failure mid-script is re-raised as :class:`~repro.errors.ScriptError`
        carrying the failing statement's index and SQL text (the original
        error stays available as ``__cause__``).
        """
        results: list[Union[QueryResult, CoordinationRequest]] = []
        for index, statement in enumerate(parse_script(sql)):
            try:
                results.append(self.execute(statement, owner=owner))
            except YoutopiaError as exc:
                raise ScriptError(index, format_statement(statement), exc) from exc
        return results

    def query(self, sql: str) -> QueryResult:
        """Run a plain SELECT and return its result."""
        result = self.execute(sql)
        if not isinstance(result, QueryResult):
            raise PlanError("expected a plain SELECT, got an entangled query")
        return result

    # -- entangled queries ---------------------------------------------------------------------

    def submit_entangled(
        self,
        query: Union[str, ast.EntangledSelect, ir.EntangledQuery],
        owner: Optional[str] = None,
    ) -> CoordinationRequest:
        """Submit an entangled query (SQL text, AST or compiled IR)."""
        return self.coordinator.submit(query, owner=owner)

    def compile(self, sql: str, owner: Optional[str] = None) -> ir.EntangledQuery:
        """Compile entangled SQL to the IR without registering it."""
        return compile_entangled(sql, owner=owner)

    def submit_many(
        self,
        queries: Sequence[Union[str, ast.EntangledSelect, ir.EntangledQuery]],
        owner: Optional[str] = None,
    ) -> list[CoordinationRequest]:
        """Submit a batch of entangled queries in one coordination pass.

        See :meth:`~repro.core.coordinator.Coordinator.submit_many` for the
        batch semantics (single lock acquisition, one deferred match pass).
        """
        return self.coordinator.submit_many(queries, owner=owner)

    def wait(self, query_id: str, timeout: Optional[float] = None) -> ir.GroundAnswer:
        return self.coordinator.wait(query_id, timeout=timeout)

    def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> dict[str, ir.GroundAnswer]:
        return self.coordinator.wait_many(query_ids, timeout=timeout)

    def cancel(self, query_id: str) -> None:
        self.coordinator.cancel(query_id)

    def status(self, query_id: str) -> QueryStatus:
        return self.coordinator.status(query_id)

    def retry_pending(self) -> int:
        return self.coordinator.retry_pending()

    # -- answer relations -------------------------------------------------------------------------

    def declare_answer_relation(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        def apply() -> None:
            self.answer_relations.declare(name, columns=columns, types=types, arity=arity)
            # Compiled match plans may embed assumptions about the relation's
            # metadata; a (re)declaration drops them all (rebuilt lazily).
            self.coordinator.invalidate_match_plans()

        if self.durability is not None:
            self.durability.journaled_declare(name, columns, types, arity, apply)
        else:
            apply()

    def answers(self, relation: str) -> list[tuple[Any, ...]]:
        return self.answer_relations.tuples(relation)

    def register_side_effect(self, hook: SideEffectHook, relation: str | None = None) -> None:
        """Register a side-effect hook run during joint execution."""
        self.executor.register_hook(hook, relation)

    # -- sessions and the service layer ----------------------------------------------------------------

    def session(self, user: str) -> "YoutopiaSession":
        """Open a per-user session (the unit the demo's web tier works with)."""
        from repro.core.session import YoutopiaSession

        return YoutopiaSession(self, user)

    def service(self) -> "InProcessService":  # noqa: F821
        """The transport-agnostic service view of this instance.

        Returns an :class:`~repro.service.InProcessService` bound to this
        system.  New application code should prefer talking through it (and
        the :class:`~repro.service.CoordinationService` protocol) rather than
        reaching into the facade or the coordinator directly.
        """
        from repro.service.inprocess import InProcessService

        return InProcessService(system=self)

    def handle(self, query_id: str) -> "RequestHandle":  # noqa: F821
        """A future-style handle for an already-registered entangled query."""
        from repro.service.handles import RequestHandle

        return RequestHandle(self.coordinator, self.coordinator.request(query_id))

    # -- introspection (used by the admin interface) ---------------------------------------------------

    def pending_queries(self) -> list[ir.EntangledQuery]:
        return self.coordinator.pending_queries()

    def statistics(self) -> dict[str, int]:
        merged = dict(self.coordinator.statistics.as_dict())
        merged["transactions_committed"] = self.transactions.commits
        merged["transactions_rolled_back"] = self.transactions.rollbacks
        return merged

    def subscribe(self, subscriber, event_type: Optional[EventType] = None) -> None:
        self.events.subscribe(subscriber, event_type)
