"""The in-process implementation of the coordination service protocol.

:class:`InProcessService` adapts a :class:`~repro.core.system.YoutopiaSystem`
to the :class:`~repro.service.api.CoordinationService` contract: typed DTOs
in, future-style :class:`~repro.service.handles.RequestHandle` objects out.
It is the implementation every current client uses; a network transport would
implement the same protocol against a remote system.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Optional, Sequence, Union

from repro.core import ir
from repro.core.config import SystemConfig
from repro.core.coordinator import CoordinationRequest, Coordinator
from repro.core.events import EventType
from repro.core.executor import SideEffectHook
from repro.core.system import YoutopiaSystem
from repro.relalg.engine import QueryResult
from repro.service.api import (
    AnswerEnvelope,
    RelationResult,
    ServiceStats,
    Submittable,
    SubmitRequest,
)
from repro.service.handles import RequestHandle
from repro.sqlparser import ast
from repro.storage.database import Database


class InProcessService:
    """A :class:`CoordinationService` running against an in-process system."""

    def __init__(
        self,
        system: Optional[YoutopiaSystem] = None,
        config: Optional[SystemConfig] = None,
        database: Optional[Database] = None,
    ) -> None:
        if system is None:
            system = YoutopiaSystem(database=database, config=config or SystemConfig())
        self.system = system
        #: Cluster-role description folded into :meth:`stats` (``cluster``
        #: block).  A plain mapping for a static role (a ``--cluster-node``
        #: member's index/placement), or a zero-argument callable for live
        #: values (a standby's applied LSN).  Empty for single-node systems.
        self.cluster_info: Any = {}

    @property
    def coordinator(self) -> Coordinator:
        return self.system.coordinator

    # -- lifecycle --------------------------------------------------------------------------

    def close(self) -> None:
        self.system.close()

    def __enter__(self) -> "InProcessService":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- submission -------------------------------------------------------------------------

    def submit(self, request: Submittable, owner: Optional[str] = None) -> RequestHandle:
        """Submit one entangled query and return its future-style handle."""
        query, owner, tag, priority = self._normalize(request, owner)
        if priority is not None:
            query = self._apply_priority(
                Coordinator._coerce_query(query, owner), priority
            )
        record = self.coordinator.submit(query, owner=owner)
        return RequestHandle(self.coordinator, record, tag=tag)

    def submit_many(
        self, requests: Sequence[Submittable], owner: Optional[str] = None
    ) -> list[RequestHandle]:
        """Submit a whole batch in one lock acquisition and one match pass.

        Per-item owners from :class:`SubmitRequest` are honoured; ``owner`` is
        the default for items that carry none.  Items rejected by the static
        checks come back as terminal handles (``status == REJECTED``) instead
        of aborting the rest of the batch.
        """
        compiled: list[ir.EntangledQuery] = []
        tags: list[Optional[str]] = []
        for request in requests:
            query, item_owner, tag, priority = self._normalize(request, owner)
            item = Coordinator._coerce_query(query, item_owner)
            if priority is not None:
                item = self._apply_priority(item, priority)
            compiled.append(item)
            tags.append(tag)
        records = self.coordinator.submit_many(compiled)
        return [
            RequestHandle(self.coordinator, record, tag=tag)
            for record, tag in zip(records, tags)
        ]

    @staticmethod
    def _normalize(
        request: Submittable, owner: Optional[str]
    ) -> tuple[
        Union[str, ast.EntangledSelect, ir.EntangledQuery],
        Optional[str],
        Optional[str],
        Optional[float],
    ]:
        if isinstance(request, SubmitRequest):
            return request.payload(), request.owner or owner, request.tag, request.priority
        return request, owner, None, None

    @staticmethod
    def _apply_priority(query: ir.EntangledQuery, priority: float) -> ir.EntangledQuery:
        return dataclasses.replace(query, priority=float(priority))

    # -- waiting / cancellation --------------------------------------------------------------

    def wait(self, query_id: str, timeout: Optional[float] = None) -> AnswerEnvelope:
        self.coordinator.wait(query_id, timeout=timeout)
        return AnswerEnvelope.from_request(self.coordinator.request(query_id))

    def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> list[AnswerEnvelope]:
        self.coordinator.wait_many(query_ids, timeout=timeout)
        return [
            AnswerEnvelope.from_request(self.coordinator.request(query_id))
            for query_id in query_ids
        ]

    def cancel(self, query_id: str) -> None:
        self.coordinator.cancel(query_id)

    # -- plain SQL ----------------------------------------------------------------------------

    def query(self, sql: str) -> RelationResult:
        return RelationResult.from_query_result(self.system.query(sql))

    def execute(
        self, sql: Union[str, ast.Statement], owner: Optional[str] = None
    ) -> Union[RelationResult, RequestHandle]:
        """Route one statement: plain SQL → rows, entangled SQL → handle."""
        result = self.system.execute(sql, owner=owner)
        return self._wrap_result(result)

    def execute_script(
        self, sql: str, owner: Optional[str] = None
    ) -> list[Union[RelationResult, RequestHandle]]:
        return [
            self._wrap_result(result)
            for result in self.system.execute_script(sql, owner=owner)
        ]

    def _wrap_result(
        self, result: Union[QueryResult, CoordinationRequest]
    ) -> Union[RelationResult, RequestHandle]:
        if isinstance(result, CoordinationRequest):
            return RequestHandle(self.coordinator, result)
        return RelationResult.from_query_result(result)

    # -- answers and statistics ------------------------------------------------------------------

    def answers(self, relation: str) -> list[tuple[Any, ...]]:
        return self.system.answers(relation)

    def stats(self) -> ServiceStats:
        cluster = self.cluster_info() if callable(self.cluster_info) else self.cluster_info
        return ServiceStats(
            counters=self.system.statistics(),
            pending=self.coordinator.pending_count(),
            durability=self.system.durability_stats(),
            cluster=dict(cluster or {}),
            matching=self.coordinator.matching_statistics(),
            tiering=self.coordinator.tiering_statistics(),
        )

    # -- introspection extensions (IntrospectionService) ------------------------------------------

    def request(self, query_id: str) -> RequestHandle:
        return RequestHandle(self.coordinator, self.coordinator.request(query_id))

    def requests(self) -> list[RequestHandle]:
        return [
            RequestHandle(self.coordinator, record)
            for record in self.coordinator.requests()
        ]

    def pending_queries(self) -> list[ir.EntangledQuery]:
        return self.coordinator.pending_queries()

    def retry_pending(self) -> int:
        return self.coordinator.retry_pending()

    # -- in-process conveniences -------------------------------------------------------------------

    def declare_answer_relation(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        self.system.declare_answer_relation(name, columns=columns, types=types, arity=arity)

    def register_side_effect(self, hook: SideEffectHook, relation: Optional[str] = None) -> None:
        self.system.register_side_effect(hook, relation)

    def subscribe(self, subscriber: Any, event_type: Optional[EventType] = None) -> None:
        self.system.subscribe(subscriber, event_type)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InProcessService(pending={self.coordinator.pending_count()})"
