"""Async protocols of the coordination service: the awaitable contract.

This module mirrors :mod:`repro.service.api` for asyncio callers.  The DTOs
(:class:`~repro.service.api.SubmitRequest`,
:class:`~repro.service.api.AnswerEnvelope`,
:class:`~repro.service.api.RelationResult`,
:class:`~repro.service.api.ServiceStats`) are shared unchanged — only the
call surface changes: every method is a coroutine, and ``submit`` /
``submit_many`` return **awaitable handles** (``await handle`` yields the
:class:`~repro.service.api.AnswerEnvelope`) instead of thread-blocking ones.

The implementation is :class:`~repro.service.aio.client.AsyncRemoteService`:
one multiplexed TCP connection to a coordination server (or the cluster
router), speaking the wire codec of :mod:`repro.service.remote.codec`.  The
server, :class:`~repro.service.aio.server.AsyncCoordinationServer`, runs the
blocking work of an in-process service on its own thread pool and bridges
the coordinator's completion callbacks onto its loop, so thousands of
pending queries cost zero threads while they wait.
"""

from __future__ import annotations

from typing import (
    TYPE_CHECKING,
    Any,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from repro.core import ir
from repro.service.api import (
    AnswerEnvelope,
    RelationResult,
    ServiceStats,
    Submittable,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.service.aio.client import AsyncRemoteHandle


@runtime_checkable
class AsyncCoordinationService(Protocol):
    """The asyncio-native coordination API (awaitable twin of
    :class:`~repro.service.api.CoordinationService`)."""

    async def submit(
        self, request: Submittable, owner: Optional[str] = None
    ) -> "AsyncRemoteHandle":
        """Submit one entangled query; returns an awaitable handle."""
        ...

    async def submit_many(
        self, requests: Sequence[Submittable], owner: Optional[str] = None
    ) -> list["AsyncRemoteHandle"]:
        """Submit a batch in one coordination pass; one handle per request."""
        ...

    async def wait(self, query_id: str, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Suspend (without blocking a thread) until a query is answered."""
        ...

    async def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> list[AnswerEnvelope]:
        """Suspend until every listed query is answered (shared deadline)."""
        ...

    async def cancel(self, query_id: str) -> None:
        """Withdraw a pending query from the pool."""
        ...

    async def query(self, sql: str) -> RelationResult:
        """Run a plain SELECT and return its rows."""
        ...

    async def answers(self, relation: str) -> list[tuple[Any, ...]]:
        """The current contents of an answer relation."""
        ...

    async def stats(self) -> ServiceStats:
        """Coordination statistics plus the pending-pool size."""
        ...


@runtime_checkable
class AsyncIntrospectionService(Protocol):
    """Admin-grade extensions, awaitable flavour."""

    async def request(self, query_id: str) -> "AsyncRemoteHandle":
        """A handle for an already-registered query."""
        ...

    async def requests(self) -> list["AsyncRemoteHandle"]:
        """Handles for every request ever registered."""
        ...

    async def pending_queries(self) -> list[ir.EntangledQuery]:
        """The current pending pool."""
        ...

    async def retry_pending(self) -> int:
        """Re-attempt coordination for the whole pool; returns newly answered."""
        ...
