"""The asyncio adapter over the in-process coordination service.

:class:`AsyncInProcessService` implements
:class:`~repro.service.aio.api.AsyncCoordinationService` /
:class:`~repro.service.aio.api.AsyncIntrospectionService` by wrapping a
synchronous :class:`~repro.service.InProcessService`.  The division of labour:

* **blocking compute** — matching passes, SQL execution, WAL fsyncs —
  is dispatched to a private thread pool via
  ``loop.run_in_executor``; the event loop never runs coordination work;
* **waiting** is *not* dispatched: a pending query costs no thread.  ``wait``
  and awaited handles are resolved by the coordinator's thread-side
  completion callbacks, bridged onto the loop with
  ``loop.call_soon_threadsafe`` (see
  :class:`~repro.service.aio.handles.AsyncRequestHandle`), so thousands of
  idle pending queries multiplex over one loop and a handful of pool threads.
"""

from __future__ import annotations

import asyncio
import functools
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence, TypeVar, Union

from repro.core import ir
from repro.core.config import SystemConfig
from repro.core.events import EventType
from repro.core.system import YoutopiaSystem
from repro.errors import CoordinationTimeoutError
from repro.service.api import (
    AnswerEnvelope,
    RelationResult,
    ServiceStats,
    Submittable,
)
from repro.service.aio.handles import AsyncRequestHandle
from repro.service.handles import RequestHandle
from repro.service.inprocess import InProcessService
from repro.sqlparser import ast
from repro.storage.database import Database

_T = TypeVar("_T")

#: Default size of the blocking-work pool.  Sized for compute dispatch, not
#: for waiting — waits are callback-driven and hold no thread.
DEFAULT_EXECUTOR_WORKERS = 8


class AsyncInProcessService:
    """An :class:`AsyncCoordinationService` over an in-process system."""

    def __init__(
        self,
        service: Optional[InProcessService] = None,
        system: Optional[YoutopiaSystem] = None,
        config: Optional[SystemConfig] = None,
        database: Optional[Database] = None,
        executor_workers: int = DEFAULT_EXECUTOR_WORKERS,
    ) -> None:
        if service is None:
            service = InProcessService(system=system, config=config, database=database)
        self._sync = service
        self._executor = ThreadPoolExecutor(
            max_workers=executor_workers, thread_name_prefix="youtopia-aio"
        )
        self._closed = False
        #: One shared awaitable handle per query being waited on, so a
        #: retry loop of timed-out ``wait`` calls registers a single
        #: coordinator callback instead of leaking one per attempt.
        #: Entries evict themselves on resolution (loop thread only).
        self._wait_handles: dict[str, AsyncRequestHandle] = {}

    # -- plumbing ---------------------------------------------------------------------------

    @property
    def sync_service(self) -> InProcessService:
        """The wrapped synchronous service (thread-world escape hatch)."""
        return self._sync

    @property
    def system(self) -> YoutopiaSystem:
        return self._sync.system

    async def _run(self, fn: Callable[..., _T], *args: Any, **kwargs: Any) -> _T:
        """Run blocking service work on the pool, never on the loop."""
        loop = asyncio.get_running_loop()
        if kwargs:
            fn = functools.partial(fn, *args, **kwargs)
            return await loop.run_in_executor(self._executor, fn)
        return await loop.run_in_executor(self._executor, fn, *args)

    def _wrap(self, handle: RequestHandle) -> AsyncRequestHandle:
        return AsyncRequestHandle(handle, asyncio.get_running_loop(), canceller=self.cancel)

    # -- lifecycle --------------------------------------------------------------------------

    async def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        await self._run(self._sync.close)
        self._executor.shutdown(wait=False)

    def shutdown_executor(self) -> None:
        """Release the dispatch pool without closing the wrapped service.

        For owners of the *adapter* but not the service — e.g. a server
        wrapping a caller-provided ``InProcessService`` shuts its own
        executor down on stop while leaving the service running.
        """
        self._closed = True
        self._executor.shutdown(wait=False)

    async def __aenter__(self) -> "AsyncInProcessService":
        return self

    async def __aexit__(self, *_exc: object) -> None:
        await self.close()

    # -- submission -------------------------------------------------------------------------

    async def submit(
        self, request: Submittable, owner: Optional[str] = None
    ) -> AsyncRequestHandle:
        """Submit one entangled query; returns an awaitable handle."""
        handle = await self._run(self._sync.submit, request, owner)
        return self._wrap(handle)

    async def submit_many(
        self, requests: Sequence[Submittable], owner: Optional[str] = None
    ) -> list[AsyncRequestHandle]:
        """Submit a whole batch in one executor hop and one match pass."""
        handles = await self._run(self._sync.submit_many, requests, owner)
        return [self._wrap(handle) for handle in handles]

    # -- waiting / cancellation --------------------------------------------------------------

    async def wait(self, query_id: str, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Suspend until answered — callback-driven, no thread parked.

        Raises exactly like the synchronous service: typed
        :class:`~repro.errors.QueryNotPendingError` for unknown ids,
        :class:`~repro.errors.EntanglementError` for cancelled/rejected
        queries, :class:`~repro.errors.CoordinationTimeoutError` on deadline.
        """
        handle = self._wait_handles.get(query_id)
        if handle is None:
            handle = self._wrap(await self._run(self._sync.request, query_id))
            if not handle.done():
                self._wait_handles[query_id] = handle
                handle.add_done_callback(
                    lambda _handle: self._wait_handles.pop(query_id, None)
                )
        try:
            return await handle.result(timeout=timeout)
        except CoordinationTimeoutError:
            # mirror the synchronous Coordinator.wait bookkeeping so the
            # stats/events surface is transport-indistinguishable; event
            # subscribers run off-loop, like any other blocking work
            await self._run(self._record_wait_timeout, query_id)
            raise

    def _record_wait_timeout(self, query_id: str) -> None:
        coordinator = self._sync.coordinator
        coordinator.statistics.queries_timed_out += 1
        coordinator.events.publish(EventType.QUERY_TIMED_OUT, query_id=query_id)

    async def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> list[AnswerEnvelope]:
        """Suspend until every query is answered (one shared deadline)."""
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        envelopes: list[AnswerEnvelope] = []
        for query_id in query_ids:
            remaining = None if deadline is None else max(deadline - loop.time(), 0.0)
            envelopes.append(await self.wait(query_id, timeout=remaining))
        return envelopes

    async def cancel(self, query_id: str) -> None:
        """Withdraw a pending query (cancellation may journal: off-loop)."""
        await self._run(self._sync.cancel, query_id)

    # -- plain SQL ----------------------------------------------------------------------------

    async def query(self, sql: str) -> RelationResult:
        return await self._run(self._sync.query, sql)

    async def execute(
        self, sql: Union[str, ast.Statement], owner: Optional[str] = None
    ) -> Union[RelationResult, AsyncRequestHandle]:
        """Route one statement: plain SQL → rows, entangled SQL → handle."""
        result = await self._run(self._sync.execute, sql, owner)
        if isinstance(result, RequestHandle):
            return self._wrap(result)
        return result

    async def execute_script(
        self, sql: str, owner: Optional[str] = None
    ) -> list[Union[RelationResult, AsyncRequestHandle]]:
        results = await self._run(self._sync.execute_script, sql, owner)
        return [
            self._wrap(result) if isinstance(result, RequestHandle) else result
            for result in results
        ]

    # -- answers / statistics ------------------------------------------------------------------

    async def answers(self, relation: str) -> list[tuple[Any, ...]]:
        return await self._run(self._sync.answers, relation)

    async def stats(self) -> ServiceStats:
        return await self._run(self._sync.stats)

    async def declare_answer_relation(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        await self._run(
            self._sync.declare_answer_relation,
            name,
            columns=columns,
            types=types,
            arity=arity,
        )

    # -- introspection extensions --------------------------------------------------------------

    async def request(self, query_id: str) -> AsyncRequestHandle:
        return self._wrap(await self._run(self._sync.request, query_id))

    async def requests(self) -> list[AsyncRequestHandle]:
        return [self._wrap(handle) for handle in await self._run(self._sync.requests)]

    async def pending_queries(self) -> list[ir.EntangledQuery]:
        return await self._run(self._sync.pending_queries)

    async def retry_pending(self) -> int:
        return await self._run(self._sync.retry_pending)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncInProcessService({self._sync!r})"
