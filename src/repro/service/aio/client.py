"""The asyncio client of the remote coordination service.

:class:`AsyncRemoteService` speaks the :mod:`repro.service.remote.codec`
protocol over one TCP connection to an
:class:`~repro.service.aio.server.AsyncCoordinationServer` (or the cluster
router, which serves the same protocol) and implements the
:class:`~repro.service.aio.api.AsyncCoordinationService` /
:class:`~repro.service.aio.api.AsyncIntrospectionService` protocols.
Synchronous code drives it through :class:`~repro.service.remote.RemoteService`,
the :class:`~repro.service.aio.bridge.BridgedService` facade.

Concurrency model (one connection, zero extra threads):

* any number of **tasks** issue RPCs concurrently; frames carry a
  correlation id, so calls multiplex freely over the single socket;
* one **reader task** demultiplexes response frames to awaiting callers and
  applies ``done`` push notifications to the local
  :class:`AsyncRemoteHandle` registry;
* ``await handle`` and ``add_done_callback`` are push-driven: no polling
  RPCs are issued while a query is pending.

If the connection dies — server shutdown, network failure, or
:meth:`AsyncRemoteService.close` — every RPC in flight and every
non-terminal handle fails fast with
:class:`~repro.errors.ServiceUnavailableError`; nothing hangs.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
from typing import Any, Callable, Generator, Optional, Sequence, Union

from repro.core import ir
from repro.core.compiler import compile_entangled
from repro.core.coordinator import QueryStatus
from repro.errors import (
    CoordinationTimeoutError,
    EntanglementError,
    ProtocolError,
    ServiceUnavailableError,
)
from repro.service.api import (
    AnswerEnvelope,
    RelationResult,
    ServiceStats,
    Submittable,
    SubmitRequest,
)
from repro.service.remote import codec
from repro.sqlparser import ast
from repro.sqlparser.pretty import format_statement

_TERMINAL = (QueryStatus.ANSWERED, QueryStatus.CANCELLED, QueryStatus.REJECTED)


def _mark_retrieved(future: "asyncio.Future[Any]") -> None:
    """Read a failed future's exception so GC never logs it as unretrieved.

    A handle may legitimately never be awaited (a fire-and-forget submission
    observed through callbacks); its failure must not turn into an
    'exception was never retrieved' warning at collection time.
    """
    if not future.cancelled():
        future.exception()


class AsyncRemoteHandle:
    """An awaitable, push-driven handle for one remotely submitted query.

    ``await handle`` suspends the coroutine until the query is answered and
    yields the :class:`~repro.service.api.AnswerEnvelope`.  State
    transitions arrive as server pushes that resolve the handle's future on
    the event loop; a lost connection fails the handle with
    :class:`~repro.errors.ServiceUnavailableError` instead of hanging.
    """

    def __init__(
        self,
        service: "AsyncRemoteService",
        state: dict[str, Any],
        tag: Optional[str] = None,
    ) -> None:
        self._service = service
        self.tag = tag
        self._future: "asyncio.Future[AnswerEnvelope]" = (
            asyncio.get_running_loop().create_future()
        )
        self._future.add_done_callback(_mark_retrieved)
        self._query_id = str(state["query_id"])
        self._owner = state.get("owner")
        self._sql = state.get("sql")
        self._description = state.get("description") or ""
        self._registered_at = float(state.get("registered_at") or 0.0)
        self._status = QueryStatus.PENDING
        self._error: Optional[str] = None
        self._group: tuple[str, ...] = ()
        self._answer: Optional[ir.GroundAnswer] = None
        self._answered_at: Optional[float] = None
        self._apply_state(state)

    # -- state ingestion (reader task / constructor, loop thread only) ----------------------

    def _apply_state(self, state: dict[str, Any]) -> None:
        """Fold a pushed snapshot in; resolves the future when terminal.

        The status is published last, so a thread that sees ``done()`` also
        sees the resolved future (:meth:`settled_result` relies on that).
        """
        status = QueryStatus(state.get("status", "pending"))
        self._error = state.get("error")
        self._group = tuple(state.get("group") or ())
        self._answered_at = state.get("answered_at")
        answer = state.get("answer")
        if answer is not None:
            self._answer = codec.decode_answer(self._query_id, answer)
        if status in _TERMINAL and not self._future.done():
            self._resolve(status)
        self._status = status

    def _resolve(self, status: QueryStatus) -> None:
        if status is not QueryStatus.ANSWERED:
            self._future.set_exception(
                EntanglementError(
                    f"query {self._query_id!r} is {status.value}: {self._error or ''}"
                )
            )
        elif self._answer is None:
            # the server degraded the push because the answer payload
            # could not cross the wire (see codec.encode_done_push)
            self._future.set_exception(
                ProtocolError(
                    self._error
                    or f"query {self._query_id!r} answered, but the answer "
                    "could not be delivered"
                )
            )
        else:
            self._future.set_result(
                AnswerEnvelope(
                    query_id=self._query_id,
                    owner=self._owner,
                    tuples=dict(self._answer.tuples),
                    binding=dict(self._answer.binding),
                    group=self._group,
                    answered_at=self._answered_at,
                )
            )

    def _fail(self, exc: Exception) -> None:
        """Connection lost while pending: release awaiters with the failure."""
        if not self._future.done():
            self._future.set_exception(exc)

    # -- live state -------------------------------------------------------------------------

    @property
    def query_id(self) -> str:
        return self._query_id

    @property
    def owner(self) -> Optional[str]:
        return self._owner

    @property
    def sql(self) -> Optional[str]:
        return self._sql

    @property
    def status(self) -> QueryStatus:
        return self._status

    @property
    def error(self) -> Optional[str]:
        return self._error

    @property
    def answer(self) -> Optional[ir.GroundAnswer]:
        return self._answer

    @property
    def group_query_ids(self) -> tuple[str, ...]:
        return self._group

    @property
    def is_answered(self) -> bool:
        return self._status is QueryStatus.ANSWERED

    @property
    def registered_at(self) -> float:
        return self._registered_at

    @property
    def answered_at(self) -> Optional[float]:
        return self._answered_at

    # -- the awaitable surface ---------------------------------------------------------------

    def __await__(self) -> Generator[Any, None, AnswerEnvelope]:
        return self.result().__await__()

    async def result(self, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Suspend until answered and return the envelope (never blocks a thread).

        Raises :class:`~repro.errors.CoordinationTimeoutError` on timeout and
        :class:`~repro.errors.EntanglementError` if the query was cancelled
        or rejected — the same contract as the synchronous handles'
        ``result``.  A timeout abandons only *this* wait: the shared future
        stays live for other awaiters and callbacks.
        """
        try:
            return await asyncio.wait_for(asyncio.shield(self._future), timeout)
        except asyncio.TimeoutError:
            raise CoordinationTimeoutError(self._query_id, timeout) from None

    async def exception(self, timeout: Optional[float] = None) -> Optional[EntanglementError]:
        """The terminal error, or ``None`` if answered (suspends like result)."""
        try:
            await self.result(timeout=timeout)
        except CoordinationTimeoutError:
            raise
        except EntanglementError as exc:
            return exc
        return None

    def add_done_callback(self, fn: Callable[["AsyncRemoteHandle"], Any]) -> None:
        """Run ``fn(handle)`` on the event loop once the request is terminal.

        Unlike the thread-world handles, the callback *always* runs on the
        loop (via ``call_soon``), even when the request is already terminal —
        asyncio callers never see a callback fire re-entrantly inside
        ``add_done_callback``.  Callback exceptions are swallowed, mirroring
        the synchronous callback guard.
        """

        def runner(_future: "asyncio.Future[AnswerEnvelope]") -> None:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - observer failures stay contained
                pass

        self._future.add_done_callback(runner)

    def done(self) -> bool:
        """Whether the request reached a terminal state (any outcome)."""
        return self._status in _TERMINAL

    def cancelled(self) -> bool:
        return self._status is QueryStatus.CANCELLED

    def settled_result(self) -> AnswerEnvelope:
        """A terminal handle's outcome, read without the event loop.

        Returns the envelope or raises what :meth:`result` would.  Only
        valid once ``done()`` is true; it works after the loop has closed.
        """
        return self._future.result()

    async def cancel(self) -> None:
        """Withdraw this query from the pending pool (server round trip)."""
        await self._service.cancel(self._query_id)

    def __eq__(self, other: object) -> bool:
        other_id = getattr(other, "query_id", None)
        if other_id is None:
            return NotImplemented
        return self._query_id == other_id

    def __hash__(self) -> int:
        return hash(self._query_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncRemoteHandle({self._query_id!r}, owner={self._owner!r}, "
            f"status={self._status.value!r})"
        )


class AsyncRemoteService:
    """An :class:`AsyncCoordinationService` proxy over one multiplexed socket."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        host: str,
        port: int,
    ) -> None:
        """Internal: use :meth:`connect` (the reader task must be started)."""
        self.host = host
        self.port = port
        self._reader = reader
        self._writer = writer
        self._write_lock = asyncio.Lock()
        self._frame_ids = itertools.count(1)
        self._calls: dict[int, "asyncio.Future[Any]"] = {}
        self._handles: dict[str, AsyncRemoteHandle] = {}
        self._unclaimed_done: dict[str, dict[str, Any]] = {}
        self._failure: Optional[Exception] = None
        self._closing = False
        self._reader_task: Optional["asyncio.Task[None]"] = None
        self.server_info: dict[str, Any] = {}
        #: Frames written to the socket (the transport tests and the remote
        #: transport benchmark prove batching with this: one submit_many =
        #: one frame).
        self.frames_sent = 0

    @classmethod
    async def connect(
        cls,
        host: str = "127.0.0.1",
        port: int = 7399,
        connect_timeout: Optional[float] = 5.0,
    ) -> "AsyncRemoteService":
        """Open a connection and complete the hello handshake."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), connect_timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ServiceUnavailableError(f"cannot connect to {host}:{port}: {exc}") from exc
        service = cls(reader, writer, host, port)
        service._reader_task = asyncio.get_running_loop().create_task(
            service._reader_loop()
        )
        try:
            hello = await service._call("hello")
            if not isinstance(hello, dict) or hello.get("server") != "youtopia":
                raise ProtocolError(
                    f"peer at {host}:{port} is not a coordination server: {hello!r}"
                )
        except BaseException:
            # a failed handshake (bad peer, protocol garbage, cancellation)
            # must not leak the socket and reader task until GC
            await service.close()
            raise
        service.server_info = hello
        return service

    # -- lifecycle ---------------------------------------------------------------------------

    async def close(self) -> None:
        """Drop the connection; in-flight calls and pending handles fail fast."""
        self._closing = True
        self._fail(ServiceUnavailableError("connection closed by this client"))
        if self._reader_task is not None:
            self._reader_task.cancel()
        try:
            self._writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass

    async def __aenter__(self) -> "AsyncRemoteService":
        return self

    async def __aexit__(self, *_exc: object) -> None:
        await self.close()

    # -- transport plumbing -------------------------------------------------------------------

    async def _send(self, payload: dict[str, Any]) -> None:
        frame = codec.encode_frame(payload)
        async with self._write_lock:
            try:
                self._writer.write(frame)
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                raise ServiceUnavailableError(f"send failed: {exc}") from exc
            self.frames_sent += 1

    async def _call(self, op: str, **args: Any) -> Any:
        if self._failure is not None:
            raise self._failure
        frame_id = next(self._frame_ids)
        future: "asyncio.Future[Any]" = asyncio.get_running_loop().create_future()
        self._calls[frame_id] = future
        try:
            await self._send(codec.request_frame(frame_id, op, args))
        except ServiceUnavailableError:
            self._calls.pop(frame_id, None)
            raise
        return await future

    async def _reader_loop(self) -> None:
        try:
            while True:
                frame = await codec.read_frame_async(self._reader)
                if frame is None:
                    raise ServiceUnavailableError("server closed the connection")
                if frame.get("push") is not None:
                    self._on_push(frame)
                else:
                    self._on_response(frame)
        except asyncio.CancelledError:
            raise
        except ConnectionError:
            self._fail(ServiceUnavailableError("server closed the connection"))
        except (ProtocolError, ServiceUnavailableError) as exc:
            self._fail(exc)
        except OSError as exc:
            self._fail(ServiceUnavailableError(f"connection lost: {exc}"))

    def _on_response(self, frame: dict[str, Any]) -> None:
        frame_id = frame.get("id")
        future = self._calls.pop(frame_id, None) if isinstance(frame_id, int) else None
        if future is None or future.done():
            return
        if frame.get("ok"):
            future.set_result(frame.get("result"))
        else:
            future.set_exception(codec.decode_error(frame.get("error") or {}))

    def _on_push(self, frame: dict[str, Any]) -> None:
        if frame.get("push") != "done":
            return
        state = frame.get("data") or {}
        query_id = str(state.get("query_id"))
        handle = self._handles.get(query_id)
        if handle is None:
            # The push for a submit can overtake the submit response; park
            # the state until the handle is created.
            self._unclaimed_done[query_id] = state
            return
        handle._apply_state(state)
        if handle.done():
            # One push per watch: drop the registry entry so a long-lived
            # connection does not accumulate one per query.
            self._handles.pop(query_id, None)

    def _fail(self, exc: Exception) -> None:
        if self._failure is not None:
            return
        if self._closing:
            exc = ServiceUnavailableError("connection closed by this client")
        self._failure = exc
        calls, self._calls = self._calls, {}
        for future in calls.values():
            if not future.done():
                future.set_exception(exc)
        handles, self._handles = self._handles, {}
        for handle in handles.values():
            handle._fail(exc)

    # -- handle management ---------------------------------------------------------------------

    def _handle_from_state(
        self, state: dict[str, Any], tag: Optional[str] = None
    ) -> AsyncRemoteHandle:
        """Build (or reuse) the handle for one request-state snapshot.

        Only *pending* handles enter the push registry — a terminal snapshot can never change again, and
        batch-rejected duplicates share their id with the originally
        registered query, whose live handle must not be clobbered.
        """
        query_id = str(state["query_id"])
        if QueryStatus(state.get("status", "pending")) in _TERMINAL:
            return AsyncRemoteHandle(self, state, tag=tag)
        existing = self._handles.get(query_id)
        if existing is not None:
            return existing
        handle = AsyncRemoteHandle(self, state, tag=tag)
        self._handles[query_id] = handle
        parked = self._unclaimed_done.pop(query_id, None)
        if parked is not None:  # pragma: no cover - push-overtakes-response window
            handle._apply_state(parked)
            if handle.done():
                self._handles.pop(query_id, None)
        if self._failure is not None:
            handle._fail(self._failure)
        return handle

    # -- submission ------------------------------------------------------------------------------

    @staticmethod
    def _wire_item(request: Submittable, owner: Optional[str]) -> tuple[dict[str, Any], Optional[str]]:
        """``Submittable -> ({"sql", "owner", "query_id"?, "priority"?}, tag)``.

        SQL text travels as-is (the server compiles and assigns the id).  A
        pre-compiled :class:`~repro.core.ir.EntangledQuery` travels as its
        recorded SQL plus its client-side query id, which the server grafts
        back on, preserving id-based semantics (duplicate detection,
        introspection) across the wire.  ``priority`` travels as an extra JSON
        key only when set — older servers simply ignore it.
        """
        tag: Optional[str] = None
        priority: Optional[float] = None
        if isinstance(request, SubmitRequest):
            tag = request.tag
            owner = request.owner or owner
            priority = request.priority
            request = request.payload()
        item: dict[str, Any]
        if isinstance(request, str):
            item = {"sql": request, "owner": owner}
        elif isinstance(request, ast.EntangledSelect):
            item = {"sql": format_statement(request), "owner": owner}
        elif isinstance(request, ir.EntangledQuery):
            if not request.sql:
                raise ProtocolError(
                    f"entangled query {request.query_id!r} was built programmatically and "
                    "records no SQL text; only SQL-backed queries can be submitted remotely"
                )
            if priority is None:
                priority = request.priority
            item = {
                "sql": request.sql,
                "owner": request.owner or owner,
                "query_id": request.query_id,
            }
        else:
            raise ProtocolError(f"cannot submit a {type(request).__name__} over the wire")
        if priority is not None:
            item["priority"] = float(priority)
        return item, tag

    async def submit(
        self, request: Submittable, owner: Optional[str] = None
    ) -> AsyncRemoteHandle:
        """Submit one entangled query; returns a push-driven awaitable handle."""
        item, tag = self._wire_item(request, owner)
        state = await self._call("submit", item=item)
        return self._handle_from_state(state, tag=tag)

    async def submit_many(
        self, requests: Sequence[Submittable], owner: Optional[str] = None
    ) -> list[AsyncRemoteHandle]:
        """Submit a whole batch in **one request frame** and one server pass."""
        items: list[dict[str, Any]] = []
        tags: list[Optional[str]] = []
        for request in requests:
            item, tag = self._wire_item(request, owner)
            items.append(item)
            tags.append(tag)
        states = await self._call("submit_many", items=items)
        return [
            self._handle_from_state(state, tag=tag) for state, tag in zip(states, tags)
        ]

    # -- waiting / cancellation --------------------------------------------------------------------

    async def wait(self, query_id: str, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Wait server-side until answered; raises like the in-process wait."""
        state = await self._call("wait", query_id=query_id, timeout=timeout)
        return self._envelope_from_state(state)

    async def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> list[AnswerEnvelope]:
        states = await self._call("wait_many", query_ids=list(query_ids), timeout=timeout)
        return [self._envelope_from_state(state) for state in states]

    @staticmethod
    def _envelope_from_state(state: dict[str, Any]) -> AnswerEnvelope:
        query_id = str(state["query_id"])
        answer = codec.decode_answer(query_id, state.get("answer") or {})
        return AnswerEnvelope(
            query_id=query_id,
            owner=state.get("owner"),
            tuples=dict(answer.tuples),
            binding=dict(answer.binding),
            group=tuple(state.get("group") or ()),
            answered_at=state.get("answered_at"),
        )

    async def cancel(self, query_id: str) -> None:
        await self._call("cancel", query_id=query_id)

    # -- plain SQL -----------------------------------------------------------------------------------

    async def query(self, sql: str) -> RelationResult:
        return codec.decode_relation_result(await self._call("query", sql=sql))

    def _untag_result(
        self, tagged: dict[str, Any]
    ) -> Union[RelationResult, AsyncRemoteHandle]:
        if tagged.get("kind") == "handle":
            return self._handle_from_state(tagged["state"])
        return codec.decode_relation_result(tagged.get("result") or {})

    async def execute(
        self, sql: str, owner: Optional[str] = None
    ) -> Union[RelationResult, AsyncRemoteHandle]:
        """Route one statement: plain SQL → rows, entangled SQL → handle."""
        return self._untag_result(await self._call("execute", sql=sql, owner=owner))

    async def execute_script(
        self, sql: str, owner: Optional[str] = None
    ) -> list[Union[RelationResult, AsyncRemoteHandle]]:
        return [
            self._untag_result(tagged)
            for tagged in await self._call("execute_script", sql=sql, owner=owner)
        ]

    # -- answers / statistics -------------------------------------------------------------------------

    async def answers(self, relation: str) -> list[tuple[Any, ...]]:
        return [tuple(values) for values in await self._call("answers", relation=relation)]

    async def stats(self) -> ServiceStats:
        return codec.decode_stats(await self._call("stats"))

    async def declare_answer_relation(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        await self._call(
            "declare_answer_relation",
            name=name,
            columns=None if columns is None else list(columns),
            types=None if types is None else list(types),
            arity=arity,
        )

    # -- introspection extensions (AsyncIntrospectionService) -----------------------------------------

    async def request(self, query_id: str) -> AsyncRemoteHandle:
        return self._handle_from_state(await self._call("request", query_id=query_id))

    async def requests(self) -> list[AsyncRemoteHandle]:
        return [self._handle_from_state(state) for state in await self._call("requests")]

    async def pending_queries(self) -> list[ir.EntangledQuery]:
        """The server's pending pool, re-compiled client-side from SQL text."""
        pending: list[ir.EntangledQuery] = []
        for item in await self._call("pending_queries"):
            query_id = str(item["query_id"])
            owner = item.get("owner")
            if item.get("sql"):
                query = compile_entangled(item["sql"], owner=owner)
                query = dataclasses.replace(query, query_id=query_id)
            else:  # programmatically built server-side; carry the identity only
                query = ir.EntangledQuery(query_id=query_id, heads=(), owner=owner)
            if item.get("priority") is not None:
                query = dataclasses.replace(query, priority=float(item["priority"]))
            pending.append(query)
        return pending

    async def retry_pending(self) -> int:
        return int(await self._call("retry_pending"))

    async def shutdown_server(self) -> None:
        """Ask the server to stop (it answers, then closes every connection)."""
        await self._call("shutdown")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AsyncRemoteService({self.host}:{self.port})"
