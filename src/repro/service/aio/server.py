"""The network request plane: one event loop instead of a thread per socket.

:class:`AsyncCoordinationServer` puts an in-process coordination service
(and therefore the coordinator behind it) behind a TCP socket speaking the
:mod:`repro.service.remote.codec` wire protocol:

* one event loop owns every connection — no reader thread per socket, no
  handler thread per request;
* each decoded request becomes a task, so a blocking operation (``wait``)
  on one connection never stalls other requests on the same connection — a
  client may wait in one thread and cancel from another, exactly as against
  the in-process service;
* **bounded in-flight concurrency**: a connection may have at most
  ``max_in_flight`` requests being handled; requests beyond the budget are
  *rejected* with a typed
  :class:`~repro.errors.ServiceUnavailableError` (and counted in
  ``transport.rejected_backpressure``) instead of queueing without bound;
* writes flow through a per-connection outbox task, so ``writer.drain()``
  exerts TCP backpressure without interleaving frames;
* blocking compute (matching, SQL, durability) runs on the server's own
  thread pool (:data:`EXECUTOR_WORKERS` threads named ``youtopia-aio``),
  one hop per operation, against the hosted
  :class:`~repro.service.inprocess.InProcessService`; cheap introspection
  reads (``stats``, ``answers``, ``hello``) are served inline on the loop;
* for every handle a client holds, the server registers a coordinator
  done-callback that **pushes** the final request state to that client the
  moment the query is answered, cancelled or rejected, and ``wait`` is
  served by one such callback per waited query, bridged onto the loop —
  ten thousand clients awaiting pending queries hold ten thousand futures,
  zero server threads;
* ``wal_subscribe`` turns a connection into a standby's log stream (see
  :class:`_WalShipper`).

Entangled submissions travel as SQL text and are compiled server-side; a
client that pre-compiled IR sends the IR's SQL together with its query id,
which the server grafts back onto the compiled query so id-based semantics
(duplicate detection, introspection) are preserved end-to-end.

:class:`BackgroundAsyncServer` runs the whole thing on a dedicated
event-loop thread behind a synchronous ``start`` / ``stop`` /
``wait_stopped`` surface, for the CLI, tests and benchmarks.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Optional, Sequence, TypeVar

from repro.core.compiler import compile_entangled
from repro.core.config import SystemConfig
from repro.core.coordinator import CoordinationRequest, QueryStatus
from repro.errors import (
    CoordinationTimeoutError,
    EntanglementError,
    ProtocolError,
    ServiceUnavailableError,
)
from repro.service.handles import RequestHandle
from repro.service.inprocess import InProcessService
from repro.service.metrics import TransportMetrics
from repro.service.remote import codec

#: Default per-connection in-flight request budget.  Far above what a
#: well-behaved client pipelines, far below what an unbounded queue would
#: let one connection park on the server.
DEFAULT_MAX_IN_FLIGHT = 128

#: Threads in the server's blocking-work pool.  Sized for compute dispatch,
#: not for waiting: waits are callback-driven and hold no thread.
EXECUTOR_WORKERS = 8

_T = TypeVar("_T")


class _AsyncConnection:
    """One accepted client: framed reader state plus a serialised outbox."""

    def __init__(
        self,
        server: "AsyncServerBase",
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        self.server = server
        self.reader = reader
        self.writer = writer
        self.in_flight = 0
        self.closed = False
        #: Query ids this connection already watches (one push per query).
        #: Guarded by a lock: watches are claimed from the loop (fast-path
        #: snapshots) and from executor threads (bulk introspection ops).
        self.watched: set[str] = set()
        self._watch_lock = threading.Lock()
        self._outbox: "asyncio.Queue[Optional[bytes]]" = asyncio.Queue()
        self._writer_task: Optional[asyncio.Task[None]] = None
        self._tasks: set[asyncio.Task[None]] = set()

    def start_writer(self) -> None:
        self._writer_task = asyncio.get_running_loop().create_task(self._write_loop())

    async def _write_loop(self) -> None:
        """Drain the outbox onto the socket; one writer, frames never interleave."""
        while True:
            frame = await self._outbox.get()
            if frame is None:
                break
            try:
                self.writer.write(frame)
                await self.writer.drain()
            except (ConnectionError, OSError):
                self.closed = True
                break
            self.server.metrics.add_bytes_out(len(frame))

    def claim_watch(self, query_id: str) -> bool:
        """True exactly once per query id (any thread)."""
        with self._watch_lock:
            if query_id in self.watched:
                return False
            self.watched.add(query_id)
            return True

    def send(self, payload: dict[str, Any]) -> None:
        """Enqueue one frame (loop thread); silently dropped once closed."""
        if self.closed:
            return
        try:
            frame = codec.encode_frame(payload)
        except ProtocolError as exc:
            # An unencodable result (oversized answers, non-JSON value) must
            # not leave the client's RPC waiting forever: marshal the
            # encoding failure back under the same correlation id.  The
            # error frame itself is small and always serialisable.
            frame_id = payload.get("id")
            frame = codec.encode_frame(
                codec.error_frame(frame_id if isinstance(frame_id, int) else -1, exc)
            )
        self._outbox.put_nowait(frame)

    def send_encoded_threadsafe(self, frame: bytes) -> None:
        """Enqueue an already-encoded frame from a non-loop thread."""
        if not self.closed:
            self._outbox.put_nowait(frame)

    def track(self, task: "asyncio.Task[None]") -> None:
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def close(self) -> None:
        if self.closed:
            return
        self.closed = True
        self._outbox.put_nowait(None)
        if self._writer_task is not None:
            try:
                await asyncio.wait_for(self._writer_task, timeout=1.0)
            except (asyncio.TimeoutError, asyncio.CancelledError):
                self._writer_task.cancel()
        for task in list(self._tasks):
            task.cancel()
        try:
            self.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover - teardown race
            pass


class AsyncServerBase:
    """The transport half of the asyncio request plane, service-agnostic.

    Owns the listener, the connection set, framed reading, the per-request
    dispatch (fast-path ``_fastop_*`` inline, regular ``_op_*`` as tasks under
    the in-flight budget) and the stop/teardown protocol.  Subclasses provide
    the operations — :class:`AsyncCoordinationServer` serves a local
    coordination service; the cluster gateway
    (:class:`repro.cluster.router.ClusterRouter`) serves the same wire
    protocol by fanning requests out to member nodes — and release their
    resources in :meth:`_close_resources`.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    ) -> None:
        self._host = host
        self._port = port
        self.max_in_flight = max_in_flight
        self.metrics = TransportMetrics()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._connections: set[_AsyncConnection] = set()
        self._stopping = False
        self._stopped: Optional[asyncio.Event] = None
        self._stop_task: Optional["asyncio.Task[None]"] = None

    # -- lifecycle --------------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; only meaningful after :meth:`start`."""
        return (self._host, self._port)

    async def start(self) -> tuple[str, int]:
        """Bind, listen and start accepting; returns the bound address."""
        if self._server is not None:
            return self.address
        self._loop = asyncio.get_running_loop()
        self._stopped = asyncio.Event()
        await self._open_resources()
        self._server = await asyncio.start_server(
            self._handle_connection, self._host, self._port, backlog=1024
        )
        sockets = self._server.sockets or []
        if sockets:
            self._host, self._port = sockets[0].getsockname()[:2]
        return self.address

    async def _open_resources(self) -> None:
        """Subclass hook run on the loop before the listener binds."""

    async def _close_resources(self) -> None:
        """Subclass hook: release owned services/clients during :meth:`stop`."""

    async def wait_stopped(self) -> None:
        """Suspend until :meth:`stop` completed (the ``serve`` loop's anchor)."""
        assert self._stopped is not None, "server was never started"
        await self._stopped.wait()

    async def stop(self) -> None:
        """Close the listener and every connection; clients fail fast (idempotent)."""
        if self._stopping:
            if self._stopped is not None:
                await self._stopped.wait()
            return
        self._stopping = True
        try:
            if self._server is not None:
                self._server.close()
                await self._server.wait_closed()
            for connection in list(self._connections):
                await connection.close()
            self._connections.clear()
            await self._close_resources()
        finally:
            # always release wait_stopped(), even when closing resources failed
            if self._stopped is not None:
                self._stopped.set()

    async def __aenter__(self) -> "AsyncServerBase":
        await self.start()
        return self

    async def __aexit__(self, *_exc: object) -> None:
        await self.stop()

    # -- connection handling ----------------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._stopping:
            writer.close()
            return
        connection = _AsyncConnection(self, reader, writer)
        connection.start_writer()
        self._connections.add(connection)
        self.metrics.connection_opened()
        try:
            await self._read_loop(connection)
        finally:
            await connection.close()
            self.metrics.connection_closed()
            self._connections.discard(connection)

    async def _read_loop(self, connection: _AsyncConnection) -> None:
        reader = connection.reader
        while not self._stopping:
            try:
                frame = await codec.read_frame_async(
                    reader, on_bytes=self.metrics.add_bytes_in
                )
            except ProtocolError as exc:
                # A malformed frame poisons the stream: report and drop.
                connection.send(codec.error_frame(-1, exc))
                return
            except (ConnectionError, OSError):
                return
            if frame is None:
                return  # clean end-of-stream: drop the connection
            self._dispatch(connection, frame)

    def _dispatch(self, connection: _AsyncConnection, frame: dict[str, Any]) -> None:
        """Turn one request frame into a handled task, or reject it.

        Cheap read-only operations (``stats``, ``answers``, ``hello``,
        request snapshots) take a synchronous fast path: handled inline in
        the read loop with no task allocation, and exempt from the
        in-flight budget — they complete before the next frame is read, so
        they can never accumulate.
        """
        op = frame.get("op")
        fast = getattr(self, f"_fastop_{op}", None) if isinstance(op, str) else None
        if fast is not None:
            self._handle_fast_request(connection, frame, fast)
            return
        if connection.in_flight >= self.max_in_flight:
            self.metrics.request_rejected()
            frame_id = frame.get("id")
            connection.send(
                codec.error_frame(
                    frame_id if isinstance(frame_id, int) else -1,
                    ServiceUnavailableError(
                        f"connection exceeded its in-flight budget of "
                        f"{self.max_in_flight} requests (backpressure)"
                    ),
                )
            )
            return
        connection.in_flight += 1
        task = asyncio.get_running_loop().create_task(
            self._handle_request(connection, frame)
        )
        connection.track(task)

    def _handle_fast_request(
        self,
        connection: _AsyncConnection,
        frame: dict[str, Any],
        handler: Any,
    ) -> None:
        """One synchronous op, start to finish, inline in the read loop."""
        frame_id = frame.get("id")
        self.metrics.request_started()
        try:
            if not isinstance(frame_id, int):
                raise ProtocolError(f"request frame without integer id: {frame!r}")
            args = frame.get("args") or {}
            if not isinstance(args, dict):
                raise ProtocolError(f"operation {frame.get('op')!r} arguments must be an object")
            result = handler(connection, **args)
        except Exception as exc:  # noqa: BLE001 - every failure is marshalled back
            connection.send(
                codec.error_frame(frame_id if isinstance(frame_id, int) else -1, exc)
            )
            return
        finally:
            self.metrics.request_finished()
        connection.send(codec.response_frame(frame_id, result))

    async def _handle_request(
        self, connection: _AsyncConnection, frame: dict[str, Any]
    ) -> None:
        frame_id = frame.get("id")
        op = frame.get("op")
        self.metrics.request_started()
        try:
            if not isinstance(frame_id, int):
                raise ProtocolError(f"request frame without integer id: {frame!r}")
            handler = getattr(self, f"_op_{op}", None)
            if handler is None or not isinstance(op, str):
                raise ProtocolError(f"unsupported operation {op!r}")
            args = frame.get("args") or {}
            if not isinstance(args, dict):
                raise ProtocolError(f"operation {op!r} arguments must be an object")
            result = await handler(connection, **args)
        except asyncio.CancelledError:  # server teardown: nothing to answer
            return
        except Exception as exc:  # noqa: BLE001 - every failure is marshalled back
            connection.send(
                codec.error_frame(frame_id if isinstance(frame_id, int) else -1, exc)
            )
            return
        finally:
            self.metrics.request_finished()
            connection.in_flight -= 1
        connection.send(codec.response_frame(frame_id, result))
        if op == "shutdown":
            assert self._loop is not None
            # keep a strong reference: the loop holds tasks only weakly, and
            # a GC'd stop() task would strand wait_stopped() forever
            self._stop_task = self._loop.create_task(self.stop())


class AsyncCoordinationServer(AsyncServerBase):
    """Hosts a coordination service on asyncio streams (same wire protocol).

    ``port=0`` binds an ephemeral port; :meth:`start` returns the bound
    address.  A server that built its own service closes it on :meth:`stop`;
    a caller-provided service is left running unless ``close_service=True``.
    """

    def __init__(
        self,
        service: Optional[InProcessService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[SystemConfig] = None,
        close_service: Optional[bool] = None,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
    ) -> None:
        super().__init__(host=host, port=port, max_in_flight=max_in_flight)
        owns_service = service is None
        self.service = service or InProcessService(config=config)
        self._close_service = owns_service if close_service is None else close_service
        self._executor = ThreadPoolExecutor(
            max_workers=EXECUTOR_WORKERS, thread_name_prefix="youtopia-aio"
        )
        #: One (registration, terminal) future pair per query some ``wait``
        #: is suspended on; the terminal future is resolved by a single
        #: coordinator callback, so a client retrying a timed-out wait adds
        #: no callback.  Entries leave on resolution.
        self._waits: dict[
            str, tuple["asyncio.Future[None]", "asyncio.Future[CoordinationRequest]"]
        ] = {}

    async def _run(self, fn: Callable[..., _T], *args: Any) -> _T:
        """Run blocking service work on the server's pool, never on the loop."""
        return await asyncio.get_running_loop().run_in_executor(self._executor, fn, *args)

    async def _close_resources(self) -> None:
        try:
            if self._close_service:
                # the shutdown checkpoint can fsync: keep it off the loop
                await self._run(self.service.close)
        finally:
            # a caller-provided service keeps running, but the pool is ours
            self._executor.shutdown(wait=False)

    # -- push notifications -----------------------------------------------------------------

    def _state_and_watch(
        self, connection: _AsyncConnection, handle: RequestHandle
    ) -> dict[str, Any]:
        """Snapshot a request and arrange a push once it turns terminal.

        The watch decision is made on the *snapshot*, not the live record: a
        query that completes between the snapshot and the callback
        registration still gets its push (``add_done_callback`` fires
        immediately for terminal queries), while a snapshot that is already
        terminal needs no watch — the client resolves it locally.  One watch
        per (connection, query).  The coordinator callback fires in a
        completing thread; the encoded push frame hops onto the loop
        thread-safely and leaves through the outbox.
        """
        state = codec.encode_request_state(handle)
        if state["status"] == "pending" and connection.claim_watch(handle.query_id):
            loop = self._loop
            assert loop is not None

            def push(record: Any) -> None:
                # encode_done_push degrades an unencodable answer to a
                # correlated error state rather than dropping the push
                frame = codec.encode_done_push(record)
                try:
                    loop.call_soon_threadsafe(connection.send_encoded_threadsafe, frame)
                except RuntimeError:  # loop already torn down
                    pass

            self.service.coordinator.add_done_callback(handle.query_id, push)
        return state

    # -- operations --------------------------------------------------------------------------

    def _fastop_hello(self, _connection: _AsyncConnection) -> dict[str, Any]:
        return {
            "server": "youtopia",
            "protocol": codec.PROTOCOL_VERSION,
            "config": self.service.system.config.as_dict(),
            "transport": "asyncio",
        }

    async def _op_submit(
        self, connection: _AsyncConnection, item: Any = None
    ) -> dict[str, Any]:
        handle = await self._run(self._compile_and_submit_one, item)
        return self._state_and_watch(connection, handle)

    @staticmethod
    def _compile_item(item: Any) -> Any:
        """One wire submission ``{"sql", "owner", "query_id"?, "priority"?}`` → IR."""
        if not isinstance(item, dict):
            raise ProtocolError(f"submission items must be objects, got {type(item).__name__}")
        sql = item.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("submission item carries no SQL text")
        query = compile_entangled(sql, owner=item.get("owner"))
        query_id = item.get("query_id")
        if query_id:
            query = dataclasses.replace(query, query_id=str(query_id))
        priority = item.get("priority")
        if priority is not None:
            try:
                query = dataclasses.replace(query, priority=float(priority))
            except (TypeError, ValueError):
                raise ProtocolError(f"submission priority must be numeric, got {priority!r}")
        return query

    def _compile_and_submit_one(self, item: Any) -> RequestHandle:
        return self.service.submit(self._compile_item(item))

    async def _op_submit_many(
        self, connection: _AsyncConnection, items: Any = None
    ) -> list[dict[str, Any]]:
        if not isinstance(items, list):
            raise ProtocolError("submit_many expects a list of submission items")
        handles = await self._run(self._compile_and_submit_batch, items)
        return [self._state_and_watch(connection, handle) for handle in handles]

    def _compile_and_submit_batch(self, items: list[Any]) -> list[RequestHandle]:
        queries = [self._compile_item(item) for item in items]
        return self.service.submit_many(queries)

    async def _wait(self, query_id: str, timeout: Optional[float]) -> None:
        """Suspend until ``query_id`` is answered; no server thread parks.

        Raises like :meth:`~repro.core.coordinator.Coordinator.wait`:
        :class:`~repro.errors.QueryNotPendingError` for an unknown id,
        :class:`~repro.errors.EntanglementError` for a cancelled or rejected
        query, :class:`~repro.errors.CoordinationTimeoutError` (counted by
        the coordinator) on deadline.  A timeout abandons only this wait:
        the shared future stays live for the other waiters.  The deadline
        starts once the coordinator watches the id, so a query that is
        already terminal is reported even under ``timeout=0``.
        """
        entry = self._waits.get(query_id)
        if entry is None:
            entry = self._waits[query_id] = self._watch_terminal(query_id)
        registration, future = entry
        if not registration.done():
            await asyncio.wait((registration,))
        try:
            request = await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            await self._run(self.service.coordinator.record_wait_timeout, query_id)
            raise CoordinationTimeoutError(query_id, timeout) from None
        if request.status is not QueryStatus.ANSWERED:
            raise EntanglementError(
                f"query {query_id!r} is {request.status.value}: {request.error or ''}"
            )

    def _watch_terminal(
        self, query_id: str
    ) -> tuple["asyncio.Future[None]", "asyncio.Future[CoordinationRequest]"]:
        """A loop future resolved by one coordinator callback, registered off-loop.

        The callback fires in the completing thread (or at once on the
        executor for a terminal query) and hops onto the loop.  A failed
        registration, such as an unknown id, fails the future instead.
        Returns the registration hop's future with the terminal one: a
        terminal query's future is resolved before its registration is.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[CoordinationRequest]" = loop.create_future()

        def forget(done: "asyncio.Future[CoordinationRequest]") -> None:
            self._waits.pop(query_id, None)
            if not done.cancelled():
                done.exception()  # retrieved: a failure nobody awaits is not logged

        future.add_done_callback(forget)

        def settle(request: CoordinationRequest) -> None:
            if not future.done():
                future.set_result(request)

        def resolve(request: CoordinationRequest) -> None:
            try:
                loop.call_soon_threadsafe(settle, request)
            except RuntimeError:  # loop already torn down
                pass

        def registered(done: "asyncio.Future[None]") -> None:
            failure = done.exception()
            if failure is not None and not future.done():
                future.set_exception(failure)

        registration = loop.run_in_executor(
            self._executor, self.service.coordinator.add_done_callback, query_id, resolve
        )
        registration.add_done_callback(registered)
        return registration, future

    async def _op_wait(
        self, _connection: _AsyncConnection, query_id: str, timeout: Optional[float] = None
    ) -> dict[str, Any]:
        await self._wait(query_id, timeout)
        return codec.encode_request_state(self.service.request(query_id))

    async def _op_wait_many(
        self,
        _connection: _AsyncConnection,
        query_ids: Sequence[str],
        timeout: Optional[float] = None,
    ) -> list[dict[str, Any]]:
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        for query_id in query_ids:
            remaining = None if deadline is None else max(deadline - loop.time(), 0.0)
            await self._wait(query_id, remaining)
        return [
            codec.encode_request_state(self.service.request(query_id))
            for query_id in query_ids
        ]

    async def _op_cancel(self, _connection: _AsyncConnection, query_id: str) -> None:
        await self._run(self.service.cancel, query_id)

    async def _op_query(self, _connection: _AsyncConnection, sql: str) -> dict[str, Any]:
        return codec.encode_relation_result(await self._run(self.service.query, sql))

    def _tagged_result(self, connection: _AsyncConnection, result: Any) -> dict[str, Any]:
        if isinstance(result, RequestHandle):
            return {"kind": "handle", "state": self._state_and_watch(connection, result)}
        return {"kind": "relation", "result": codec.encode_relation_result(result)}

    async def _op_execute(
        self, connection: _AsyncConnection, sql: str, owner: Optional[str] = None
    ) -> dict[str, Any]:
        result = await self._run(self.service.execute, sql, owner)
        return self._tagged_result(connection, result)

    async def _op_execute_script(
        self, connection: _AsyncConnection, sql: str, owner: Optional[str] = None
    ) -> list[dict[str, Any]]:
        results = await self._run(self.service.execute_script, sql, owner)
        return [self._tagged_result(connection, result) for result in results]

    def _fastop_answers(
        self, _connection: _AsyncConnection, relation: str
    ) -> list[list[Any]]:
        # Cheap catalog read: served inline on the loop.
        return [list(values) for values in self.service.answers(relation)]

    def _fastop_stats(self, _connection: _AsyncConnection) -> dict[str, Any]:
        # Counter snapshots take locks only briefly: served inline on the
        # loop, so a fleet of monitoring clients costs no executor hops.
        return codec.encode_stats(self.service.stats(), self.metrics.snapshot())

    async def _op_declare_answer_relation(
        self,
        _connection: _AsyncConnection,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        await self._run(self.service.declare_answer_relation, name, columns, types, arity)

    def _fastop_request(
        self, connection: _AsyncConnection, query_id: str
    ) -> dict[str, Any]:
        return self._state_and_watch(connection, self.service.request(query_id))

    async def _op_requests(self, connection: _AsyncConnection) -> list[dict[str, Any]]:
        # O(every request ever): far beyond the fast-path bargain, so the
        # serialization runs on the executor like any other heavy op.
        return await self._run(
            lambda: [
                self._state_and_watch(connection, handle)
                for handle in self.service.requests()
            ]
        )

    async def _op_pending_queries(
        self, _connection: _AsyncConnection
    ) -> list[dict[str, Any]]:
        # O(pool) with per-query describe() rendering: executor, not loop.
        return await self._run(
            lambda: [
                {
                    "query_id": query.query_id,
                    "owner": query.owner,
                    "sql": query.sql,
                    "priority": query.priority,
                    "description": query.describe(),
                }
                for query in self.service.pending_queries()
            ]
        )

    async def _op_retry_pending(self, _connection: _AsyncConnection) -> int:
        return await self._run(self.service.retry_pending)

    async def _op_wal_subscribe(self, connection: _AsyncConnection) -> dict[str, Any]:
        """Hand a joining standby a consistent snapshot and stream the log.

        The snapshot capture and the subscription happen atomically under
        every coordination lock (see
        :meth:`~repro.core.durability.DurabilityManager.subscribe_with_snapshot`),
        so no record falls in the gap.  From then on the connection belongs
        to the stream: every frame on it — this response included — is
        written by a :class:`_WalShipper`.  Records appended *after* the cut
        may reach the socket before this response does; the standby's
        :class:`~repro.cluster.shipping.WalStream` parks those early pushes
        until the response arrives and its LSN guard makes the order
        harmless.
        """
        durability = self.service.system.durability
        if durability is None:
            raise ServiceUnavailableError(
                "this server has no write-ahead log to ship (start it with --data-dir)"
            )
        shipper = await _WalShipper.take_over(connection, self._run)
        state = await self._run(
            durability.subscribe_with_snapshot, self.service.system, shipper.ship
        )
        return {"state": state, "last_lsn": int(state.get("last_lsn", 0))}

    async def _op_shutdown(self, _connection: _AsyncConnection) -> bool:
        # The response is written first; _handle_request then schedules stop().
        return True


class _WalShipper:
    """A standby's log stream: blocking writes on a duplicate of its socket.

    The WAL calls :meth:`ship` inside ``append``, on the appending thread
    and under the log and coordinator locks, and the record must be handed
    to the kernel before ``append`` returns (**ship-before-ack**, see
    :meth:`~repro.core.durability.WriteAheadLog.add_subscriber`).  The ship
    therefore cannot wait on the event loop: the loop serves ``stats`` and
    request snapshots inline, and those take the very locks the appending
    thread holds, so a ship queued behind such a read would never run.
    Instead the shipper owns a duplicate of the connection's socket and
    writes each record with a blocking ``sendall``, serialised by its own
    lock.

    It also replaces the connection's stream writer, so the frames the
    connection still sends through its outbox (the subscription response)
    leave through the same lock on an executor thread and never interleave
    with a record.  A standby that absorbs no :data:`SHIP_CHUNK` bytes
    within :data:`SHIP_TIMEOUT_S`, or any send failure, closes the stream:
    the ship returns ``False``, which unsubscribes it, and the primary keeps
    acknowledging without the standby.
    """

    #: Longest the standby may take to absorb one chunk of a frame.
    SHIP_TIMEOUT_S = 10.0
    #: A large frame (the bootstrap snapshot) goes out in chunks of this
    #: size, so the timeout bounds a stall, not the whole transfer.
    SHIP_CHUNK = 1 << 20

    def __init__(self, writer: asyncio.StreamWriter, run: Any, metrics: TransportMetrics) -> None:
        self._writer = writer
        self._run = run
        self._metrics = metrics
        self._loop_thread = threading.get_ident()  # built on the loop (take_over)
        self._sock = socket.socket(fileno=os.dup(writer.get_extra_info("socket").fileno()))
        # a timeout keeps the shared descriptor non-blocking for the loop
        self._sock.settimeout(self.SHIP_TIMEOUT_S)
        self._lock = threading.Lock()
        self._closed = False
        self._queued: list[bytes] = []

    @classmethod
    async def take_over(cls, connection: _AsyncConnection, run: Any) -> "_WalShipper":
        """Flush what the connection already wrote, then route it through a shipper."""
        writer = connection.writer
        writer.transport.set_write_buffer_limits(high=0)
        await writer.drain()  # with a zero high-water mark: until the buffer is empty
        shipper = cls(writer, run, connection.server.metrics)
        connection.writer = shipper  # type: ignore[assignment]
        return shipper

    def ship(self, record: dict[str, Any]) -> bool:
        """The WAL subscriber: ``False`` once the stream is gone.

        Every WAL append runs on an executor or caller thread (the loop's
        inline ops are read-only).  An append on the loop thread would stall
        every connection behind this socket; the assertion ends the stream
        instead (the log drops a subscriber that raises).
        """
        assert threading.get_ident() != self._loop_thread, "WAL append on the event loop"
        frame = codec.encode_frame(codec.push_frame("wal", record))
        if not self._send(frame):
            return False
        self._metrics.add_bytes_out(len(frame))
        return True

    def _send(self, frame: bytes) -> bool:
        with self._lock:
            if self._closed:
                return False
            try:
                for start in range(0, len(frame), self.SHIP_CHUNK):
                    self._sock.sendall(frame[start : start + self.SHIP_CHUNK])
                return True
            except OSError:
                # a timed-out send may have left half a frame behind: end
                # the stream rather than let the standby read garbage
                self._closed = True
                self._shutdown()
                return False

    # -- the StreamWriter surface the connection's outbox uses ------------------------------

    def write(self, frame: bytes) -> None:
        self._queued.append(frame)

    async def drain(self) -> None:
        frames, self._queued = self._queued, []
        for frame in frames:
            if not await self._run(self._send, frame):
                raise ConnectionError("the standby's log stream is closed")

    def close(self) -> None:
        self._closed = True
        self._shutdown()  # wakes a ship blocked in sendall ...
        with self._lock:  # ... so this waits for at most one failing send
            self._sock.close()
        self._writer.close()

    def _shutdown(self) -> None:
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass


class BackgroundAsyncServer:
    """An :class:`AsyncCoordinationServer` on its own event-loop thread.

    A synchronous surface (``start`` → address, ``stop``, ``wait_stopped``,
    ``address``, ``service``, ``metrics``, context manager) for callers that
    are not coroutines themselves.  The loop thread is created on
    :meth:`start` and joined on :meth:`stop`.
    """

    def __init__(self, server_factory: Any = None, **kwargs: Any) -> None:
        # ``server_factory`` picks the inner server class (any AsyncServerBase
        # subclass constructible from **kwargs); the default is the plain
        # coordination server.  The cluster router rides the same runner.
        self._server_factory = server_factory or AsyncCoordinationServer
        self._kwargs = kwargs
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self.server: Optional[AsyncServerBase] = None
        self._stopped = threading.Event()
        self._started = False
        self._torn_down = False

    @property
    def address(self) -> tuple[str, int]:
        assert self.server is not None, "server was never started"
        return self.server.address

    @property
    def service(self) -> InProcessService:
        service = getattr(self.server, "service", None)
        assert service is not None, "server was never started (or hosts no local service)"
        return service

    @property
    def metrics(self) -> TransportMetrics:
        assert self.server is not None, "server was never started"
        return self.server.metrics

    def start(self) -> tuple[str, int]:
        if self._started:
            return self.address
        self._started = True
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="youtopia-aio-server", daemon=True
        )
        self._thread.start()
        self.server = self._server_factory(**self._kwargs)
        try:
            address = asyncio.run_coroutine_threadsafe(
                self.server.start(), self._loop
            ).result(timeout=30.0)
        except BaseException:
            # a failed bind must not strand the loop thread; reset so a
            # caller may retry start() with a fresh loop
            loop, thread = self._loop, self._thread
            self._loop = self._thread = self.server = None
            self._started = False
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            raise
        # A remote 'shutdown' op stops the inner server on the loop; bridge
        # that to the threading-world event so wait_stopped() observes it.
        asyncio.run_coroutine_threadsafe(self._watch_inner_stop(), self._loop)
        return address

    async def _watch_inner_stop(self) -> None:
        assert self.server is not None
        await self.server.wait_stopped()
        self._stopped.set()

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until the server stopped — via :meth:`stop` or a remote shutdown."""
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Stop the server and tear the loop thread down (idempotent)."""
        loop, thread, server = self._loop, self._thread, self.server
        if loop is None or thread is None or server is None or self._torn_down:
            self._stopped.set()
            return
        self._torn_down = True
        try:
            asyncio.run_coroutine_threadsafe(server.stop(), loop).result(timeout=30.0)
        finally:
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10.0)
            loop.close()
            self._stopped.set()

    close = stop

    def __enter__(self) -> "BackgroundAsyncServer":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()
