"""Transport-agnostic coordination service API: DTOs and protocols.

This module is the *contract* every Youtopia client programs against.  It
deliberately contains no coordination logic: only plain, transport-friendly
request/response dataclasses plus two :class:`typing.Protocol` definitions.

* :class:`CoordinationService` — the eight-method surface every deployment
  (in-process, and later network transports) must offer: ``submit``,
  ``submit_many``, ``wait``, ``wait_many``, ``cancel``, ``query``,
  ``answers`` and ``stats``.
* :class:`IntrospectionService` — optional extensions used by the admin
  tooling (raw request records, the pending pool, explicit retries).

The paper frames Youtopia's coordination component as the backend of a travel
web site's middle tier; this layer is the request/response seam that framing
implies.  Applications receive :class:`~repro.service.handles.RequestHandle`
objects — future-style handles with ``result(timeout)`` / ``done()`` /
``add_done_callback`` — instead of poll-waiting on query ids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING,
    Any,
    Mapping,
    Optional,
    Protocol,
    Sequence,
    Union,
    runtime_checkable,
)

from repro.core import ir
from repro.core.coordinator import CoordinationRequest
from repro.sqlparser import ast

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.relalg.engine import QueryResult
    from repro.service.handles import RequestHandle


# ---------------------------------------------------------------------------
# Request DTOs
# ---------------------------------------------------------------------------

#: Anything acceptable as one entangled submission: raw SQL text, a parsed
#: statement, compiled IR, or a fully-specified :class:`SubmitRequest`.
Submittable = Union["SubmitRequest", str, ast.EntangledSelect, ir.EntangledQuery]


@dataclass(frozen=True)
class SubmitRequest:
    """One entangled-query submission.

    Exactly one of ``sql`` (transportable) or ``query`` (pre-compiled IR,
    in-process fast path) must be provided.  ``tag`` is an opaque client-side
    correlation label echoed back on the returned handle.  ``priority`` is an
    optional per-query weight consumed by the ``priority`` match policy
    (larger wins); it is carried on the wire as an extra JSON key, so older
    servers ignore it and absent means "no preference".
    """

    sql: Optional[str] = None
    query: Optional[ir.EntangledQuery] = None
    owner: Optional[str] = None
    tag: Optional[str] = None
    priority: Optional[float] = None

    def __post_init__(self) -> None:
        if (self.sql is None) == (self.query is None):
            raise ValueError("SubmitRequest needs exactly one of 'sql' or 'query'")

    def payload(self) -> Union[str, ir.EntangledQuery]:
        return self.query if self.query is not None else self.sql  # type: ignore[return-value]


# ---------------------------------------------------------------------------
# Response DTOs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationResult:
    """The transportable result of one plain SQL statement."""

    command: str
    columns: tuple[str, ...] = ()
    rows: tuple[tuple[Any, ...], ...] = ()
    affected: int = 0

    @classmethod
    def from_query_result(cls, result: "QueryResult") -> "RelationResult":
        return cls(
            command=result.command,
            columns=tuple(result.columns),
            rows=tuple(tuple(row) for row in result.rows),
            affected=result.affected,
        )

    def scalar(self) -> Any:
        """The single value of a one-row, one-column result."""
        if len(self.rows) != 1 or len(self.rows[0]) != 1:
            raise ValueError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} row(s)"
            )
        return self.rows[0][0]

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


@dataclass(frozen=True)
class AnswerEnvelope:
    """One query's share of a coordinated answer, as a transportable value.

    Mirrors :class:`~repro.core.ir.GroundAnswer` (``tuples`` / ``binding`` /
    ``all_tuples``) and adds the answering group and timing.
    """

    query_id: str
    owner: Optional[str]
    tuples: Mapping[str, tuple[tuple[Any, ...], ...]]
    binding: Mapping[str, Any] = field(default_factory=dict)
    group: tuple[str, ...] = ()
    answered_at: Optional[float] = None

    @classmethod
    def from_request(cls, record: CoordinationRequest) -> "AnswerEnvelope":
        if record.answer is None:
            raise ValueError(f"request {record.query_id!r} has no answer yet")
        return cls(
            query_id=record.query_id,
            owner=record.owner,
            tuples=dict(record.answer.tuples),
            binding=dict(record.answer.binding),
            group=record.group_query_ids,
            answered_at=record.answered_at,
        )

    def all_tuples(self) -> list[tuple[str, tuple[Any, ...]]]:
        pairs: list[tuple[str, tuple[Any, ...]]] = []
        for relation, relation_tuples in sorted(self.tuples.items()):
            for values in relation_tuples:
                pairs.append((relation, values))
        return pairs


@dataclass(frozen=True)
class ServiceStats:
    """A point-in-time snapshot of coordination statistics.

    Every field is a plain JSON-safe block, so the wire codec, the cluster
    router's merge and the admin renderer handle them all alike (see
    :mod:`repro.service.metrics`).  ``counters`` carries the monotonic
    counters of :class:`~repro.core.stats.CoordinationStatistics` (plus
    transaction counts); ``pending`` is the current pending-pool size.
    ``durability`` reports the write-ahead log (``{"enabled": False}`` for a
    memory-only system — see
    :meth:`~repro.core.durability.DurabilityManager.stats`).  ``transport``
    holds a server's request-plane counters
    (:class:`~repro.service.metrics.TransportMetrics`; empty in-process).
    ``cluster`` describes a multi-node deployment (the node's role and
    placement, or a :class:`~repro.cluster.router.ClusterRouter`'s topology,
    per-node load and standby lag; empty for a single node).  ``matching``
    holds the match policy, its decision counters
    (:class:`~repro.core.policy.PolicyStatistics`), the plan-cache counters,
    the provider-index size and the pool's ``dirty`` flag.  ``tiering``
    describes the tiered pending pool (``{"enabled": False}`` without a
    ``pending_memory_limit`` — see :class:`~repro.core.tiering.TieringManager`).
    """

    counters: Mapping[str, int]
    pending: int = 0
    durability: Mapping[str, Any] = field(default_factory=lambda: {"enabled": False})
    transport: Mapping[str, int] = field(default_factory=dict)
    cluster: Mapping[str, Any] = field(default_factory=dict)
    matching: Mapping[str, Any] = field(default_factory=dict)
    tiering: Mapping[str, Any] = field(default_factory=lambda: {"enabled": False})

    def __getitem__(self, key: str) -> int:
        return self.counters[key]

    def as_dict(self) -> dict[str, int]:
        return dict(self.counters)


# ---------------------------------------------------------------------------
# Protocols
# ---------------------------------------------------------------------------


@runtime_checkable
class CoordinationService(Protocol):
    """The transport-agnostic coordination API.

    Every client — the travel middle tier, the CLI, the admin screens, the
    benchmarks, a future network server — talks through this interface.  An
    implementation may run in-process (:class:`~repro.service.InProcessService`)
    or proxy a remote system; callers cannot tell the difference.
    """

    def submit(self, request: Submittable, owner: Optional[str] = None) -> "RequestHandle":
        """Submit one entangled query; returns a future-style handle."""
        ...

    def submit_many(
        self, requests: Sequence[Submittable], owner: Optional[str] = None
    ) -> list["RequestHandle"]:
        """Submit a batch in one coordination pass; one handle per request."""
        ...

    def wait(self, query_id: str, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Block until a query is answered; raises on timeout/cancel/reject."""
        ...

    def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> list[AnswerEnvelope]:
        """Block until every listed query is answered (shared deadline)."""
        ...

    def cancel(self, query_id: str) -> None:
        """Withdraw a pending query from the pool."""
        ...

    def query(self, sql: str) -> RelationResult:
        """Run a plain SELECT and return its rows."""
        ...

    def answers(self, relation: str) -> list[tuple[Any, ...]]:
        """The current contents of an answer relation."""
        ...

    def stats(self) -> ServiceStats:
        """Coordination statistics plus the pending-pool size."""
        ...


@runtime_checkable
class IntrospectionService(Protocol):
    """Optional admin-grade extensions on top of :class:`CoordinationService`."""

    def request(self, query_id: str) -> "RequestHandle":
        """A handle for an already-registered query."""
        ...

    def requests(self) -> list["RequestHandle"]:
        """Handles for every request ever registered."""
        ...

    def pending_queries(self) -> list[ir.EntangledQuery]:
        """The current pending pool."""
        ...

    def retry_pending(self) -> int:
        """Re-attempt coordination for the whole pool; returns newly answered."""
        ...
