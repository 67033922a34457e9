"""The client side of the remote coordination service.

:class:`RemoteService` speaks the :mod:`repro.service.remote.codec` protocol
against a :class:`~repro.service.remote.server.CoordinationServer` and
implements the full :class:`~repro.service.api.CoordinationService` and
:class:`~repro.service.api.IntrospectionService` protocols — application code
written against the in-process service runs against a remote one unchanged.

Concurrency model (one TCP connection, three kinds of thread):

* any number of **caller threads** issue RPCs; frames carry a correlation id,
  so calls from many threads are in flight simultaneously;
* one **reader thread** demultiplexes response frames to the waiting callers
  and applies ``done`` push notifications to the local
  :class:`RemoteHandle` registry;
* one **callback dispatcher thread** runs user ``add_done_callback``
  functions, so a callback may freely call back into the service (an RPC
  from the reader thread itself would deadlock).

``RemoteHandle.result()`` and ``add_done_callback`` are therefore push-driven
futures: no polling RPCs are issued while waiting.  If the connection dies —
server shutdown, network failure, or :meth:`RemoteService.close` — every RPC
in flight and every non-terminal handle fails fast with
:class:`~repro.errors.ServiceUnavailableError`; nothing hangs.
"""

from __future__ import annotations

import itertools
import queue
import socket
import threading
from typing import Any, Callable, Optional, Sequence, Union

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


class _PendingCall:
    """One RPC awaiting its response frame."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result: Any = None
        self.error: Optional[Exception] = None


class RemoteHandle:
    """A future-style handle for one entangled query submitted over the wire.

    Mirrors :class:`~repro.service.handles.RequestHandle`: ``result(timeout)``
    / ``done()`` / ``exception()`` / ``add_done_callback`` / ``cancel()``,
    equality by query id.  State transitions arrive as server pushes; when the
    connection is lost while the query is still pending, the handle fails
    with :class:`~repro.errors.ServiceUnavailableError` instead of hanging.
    """

    def __init__(self, service: "RemoteService", state: dict[str, Any], tag: Optional[str] = None) -> None:
        self._service = service
        self.tag = tag
        self._lock = threading.Lock()
        self._terminal_event = threading.Event()
        self._callbacks: list[Callable[["RemoteHandle"], Any]] = []
        self._failure: Optional[Exception] = None
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

    # -- state ingestion (reader thread / constructor) -----------------------------------------

    def _apply_state(self, state: dict[str, Any]) -> list[Callable[["RemoteHandle"], Any]]:
        """Fold a pushed snapshot in; returns callbacks to fire if now terminal."""
        with self._lock:
            self._status = QueryStatus(state.get("status", "pending"))
            self._error = state.get("error")
            self._group = tuple(state.get("group") or ())
            self._answered_at = state.get("answered_at")
            answer = state.get("answer")
            if answer is not None:
                self._answer = codec.decode_answer(self._query_id, answer)
            if self._status not in _TERMINAL:
                return []
            callbacks, self._callbacks = self._callbacks, []
            self._terminal_event.set()
            return callbacks

    def _fail(self, exc: Exception) -> list[Callable[["RemoteHandle"], Any]]:
        """Connection lost: release waiters; returns callbacks to fire."""
        with self._lock:
            if self._terminal_event.is_set():
                return []
            self._failure = exc
            callbacks, self._callbacks = self._callbacks, []
            self._terminal_event.set()
            return callbacks

    # -- live state -----------------------------------------------------------------------------

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

    # -- the future-style surface -----------------------------------------------------------------

    def done(self) -> bool:
        """Whether the request reached a terminal state (any outcome)."""
        return self._status in _TERMINAL

    def cancelled(self) -> bool:
        return self._status is QueryStatus.CANCELLED

    def result(self, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Block (push-driven, no polling) until answered; envelope or raise."""
        if not self._terminal_event.wait(timeout):
            # wait() only returns False with a finite timeout, so the error
            # reports the actual configured deadline (``timeout or 0.0``
            # would misrender an explicit 0 and hide the real value).
            raise CoordinationTimeoutError(
                self._query_id, timeout if timeout is not None else 0.0
            )
        with self._lock:
            if self._status is QueryStatus.ANSWERED:
                if self._answer is None:
                    # the server degraded the push because the answer payload
                    # could not cross the wire (see codec.encode_done_push)
                    raise ProtocolError(
                        self._error
                        or f"query {self._query_id!r} answered, but the answer "
                        "could not be delivered"
                    )
                return AnswerEnvelope(
                    query_id=self._query_id,
                    owner=self._owner,
                    tuples=dict(self._answer.tuples),
                    binding=dict(self._answer.binding),
                    group=self._group,
                    answered_at=self._answered_at,
                )
            if self._status in (QueryStatus.CANCELLED, QueryStatus.REJECTED):
                raise EntanglementError(
                    f"query {self._query_id!r} is {self._status.value}: {self._error or ''}"
                )
            assert self._failure is not None
            raise self._failure

    def exception(self, timeout: Optional[float] = None) -> Optional[EntanglementError]:
        """The terminal error, or ``None`` if answered (blocks like result)."""
        try:
            self.result(timeout=timeout)
        except CoordinationTimeoutError:
            raise
        except EntanglementError as exc:
            return exc
        return None

    def add_done_callback(self, fn: Callable[["RemoteHandle"], Any]) -> None:
        """Run ``fn(handle)`` on completion (or connection failure).

        Fires immediately in the calling thread if already terminal;
        otherwise fires on the client's callback dispatcher thread when the
        server pushes the final state — so ``fn`` may safely call back into
        the service.
        """
        with self._lock:
            if not self._terminal_event.is_set():
                self._callbacks.append(fn)
                return
        try:
            fn(self)
        except Exception:  # noqa: BLE001 - mirror the in-process callback guard
            pass

    def cancel(self) -> None:
        """Withdraw this query from the pending pool (server round trip)."""
        self._service.cancel(self._query_id)

    # -- identity ---------------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other_id = getattr(other, "query_id", None)
        if other_id is None:
            return NotImplemented
        return self._query_id == other_id

    def __hash__(self) -> int:
        return hash(self._query_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RemoteHandle({self._query_id!r}, owner={self._owner!r}, "
            f"status={self._status.value!r})"
        )


class RemoteService:
    """A :class:`CoordinationService` proxy over one TCP connection."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7399,
        connect_timeout: Optional[float] = 5.0,
    ) -> None:
        self.host = host
        self.port = port
        try:
            sock = socket.create_connection((host, port), timeout=connect_timeout)
        except OSError as exc:
            raise ServiceUnavailableError(f"cannot connect to {host}:{port}: {exc}") from exc
        sock.settimeout(None)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._send_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._frame_ids = itertools.count(1)
        self._calls: dict[int, _PendingCall] = {}
        self._handles: dict[str, RemoteHandle] = {}
        self._unclaimed_done: dict[str, dict[str, Any]] = {}
        self._failure: Optional[Exception] = None
        self._closing = False
        #: Frames written to the socket (read by the transport tests and the
        #: benchmark to prove batching: one submit_many = one frame).
        self.frames_sent = 0

        self._callback_queue: "queue.Queue[Optional[tuple[Callable[[RemoteHandle], Any], RemoteHandle]]]" = queue.Queue()
        self._dispatcher = threading.Thread(
            target=self._dispatch_callbacks, name="youtopia-client-callbacks", daemon=True
        )
        self._dispatcher.start()
        self._reader = threading.Thread(
            target=self._reader_loop, name="youtopia-client-reader", daemon=True
        )
        self._reader.start()

        hello = self._call("hello")
        if not isinstance(hello, dict) or hello.get("server") != "youtopia":
            self.close()
            raise ProtocolError(f"peer at {host}:{port} is not a coordination server: {hello!r}")
        self.server_info = hello

    @classmethod
    def connect(
        cls, host: str = "127.0.0.1", port: int = 7399, connect_timeout: Optional[float] = 5.0
    ) -> "RemoteService":
        return cls(host=host, port=port, connect_timeout=connect_timeout)

    # -- lifecycle --------------------------------------------------------------------------------

    def close(self) -> None:
        """Drop the connection; in-flight calls and pending handles fail fast."""
        with self._state_lock:
            self._closing = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass
        self._fail(ServiceUnavailableError("connection closed by this client"))

    def __enter__(self) -> "RemoteService":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- transport plumbing -----------------------------------------------------------------------

    def _send(self, payload: dict[str, Any]) -> None:
        frame = codec.encode_frame(payload)
        with self._send_lock:
            try:
                self._sock.sendall(frame)
            except OSError as exc:
                raise ServiceUnavailableError(f"send failed: {exc}") from exc
            self.frames_sent += 1

    def _call(self, op: str, **args: Any) -> Any:
        call = _PendingCall()
        with self._state_lock:
            if self._failure is not None:
                raise self._failure
            frame_id = next(self._frame_ids)
            self._calls[frame_id] = call
        try:
            self._send(codec.request_frame(frame_id, op, args))
        except ServiceUnavailableError:
            with self._state_lock:
                self._calls.pop(frame_id, None)
            raise
        call.event.wait()
        if call.error is not None:
            raise call.error
        return call.result

    def _reader_loop(self) -> None:
        try:
            while True:
                frame = codec.read_frame(self._sock)
                if frame is None:
                    raise ServiceUnavailableError("server closed the connection")
                if frame.get("push") is not None:
                    self._on_push(frame)
                else:
                    self._on_response(frame)
        except (ProtocolError, ServiceUnavailableError) as exc:
            self._fail(exc)
        except OSError as exc:
            self._fail(ServiceUnavailableError(f"connection lost: {exc}"))

    def _on_response(self, frame: dict[str, Any]) -> None:
        frame_id = frame.get("id")
        with self._state_lock:
            call = self._calls.pop(frame_id, None) if isinstance(frame_id, int) else None
        if call is None:
            return
        if frame.get("ok"):
            call.result = frame.get("result")
        else:
            call.error = codec.decode_error(frame.get("error") or {})
        call.event.set()

    def _on_push(self, frame: dict[str, Any]) -> None:
        if frame.get("push") != "done":
            return
        state = frame.get("data") or {}
        query_id = str(state.get("query_id"))
        with self._state_lock:
            handle = self._handles.get(query_id)
            if handle is None:
                # The push for a submit can overtake the submit response; park
                # the state until the handle is created.
                self._unclaimed_done[query_id] = state
                return
        callbacks = handle._apply_state(state)
        if handle.done():
            # Terminal handles receive no further pushes (the server sends
            # exactly one per watch); drop the registry entry so a
            # long-lived connection does not accumulate one per query.
            with self._state_lock:
                self._handles.pop(query_id, None)
        for fn in callbacks:
            self._callback_queue.put((fn, handle))

    def _dispatch_callbacks(self) -> None:
        while True:
            item = self._callback_queue.get()
            if item is None:
                return
            fn, handle = item
            try:
                fn(handle)
            except Exception:  # noqa: BLE001 - observer failures stay contained
                pass

    def _fail(self, exc: Exception) -> None:
        with self._state_lock:
            if self._failure is not None:
                return
            if self._closing:
                exc = ServiceUnavailableError("connection closed by this client")
            self._failure = exc
            calls, self._calls = self._calls, {}
            handles = [h for h in self._handles.values() if not h.done()]
        for call in calls.values():
            call.error = exc
            call.event.set()
        for handle in handles:
            for fn in handle._fail(exc):
                self._callback_queue.put((fn, handle))
        self._callback_queue.put(None)

    # -- handle management --------------------------------------------------------------------------

    def _handle_from_state(self, state: dict[str, Any], tag: Optional[str] = None) -> RemoteHandle:
        """Build (or reuse) the handle for one request-state snapshot.

        Only *pending* handles enter the push registry: a terminal snapshot
        can never change again, and batch-rejected duplicates share their id
        with the originally registered query, whose live handle must not be
        clobbered.
        """
        query_id = str(state["query_id"])
        if QueryStatus(state.get("status", "pending")) in _TERMINAL:
            return RemoteHandle(self, state, tag=tag)
        with self._state_lock:
            existing = self._handles.get(query_id)
            if existing is not None:
                return existing
            handle = RemoteHandle(self, state, tag=tag)
            self._handles[query_id] = handle
            parked = self._unclaimed_done.pop(query_id, None)
            failure = self._failure
        if parked is not None:  # pragma: no cover - tiny push-overtakes-response window
            callbacks = handle._apply_state(parked)
            if handle.done():
                with self._state_lock:
                    self._handles.pop(query_id, None)
            for fn in callbacks:
                self._callback_queue.put((fn, handle))
        if failure is not None:
            for fn in handle._fail(failure):
                self._callback_queue.put((fn, handle))
        return handle

    # -- submission -----------------------------------------------------------------------------------

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

    def submit(self, request: Submittable, owner: Optional[str] = None) -> RemoteHandle:
        """Submit one entangled query; returns a push-driven future handle."""
        item, tag = self._wire_item(request, owner)
        state = self._call("submit", item=item)
        return self._handle_from_state(state, tag=tag)

    def submit_many(
        self, requests: Sequence[Submittable], owner: Optional[str] = None
    ) -> list[RemoteHandle]:
        """Submit a whole batch in **one request frame** and one server pass."""
        items: list[dict[str, Any]] = []
        tags: list[Optional[str]] = []
        for request in requests:
            item, tag = self._wire_item(request, owner)
            items.append(item)
            tags.append(tag)
        states = self._call("submit_many", items=items)
        return [
            self._handle_from_state(state, tag=tag) for state, tag in zip(states, tags)
        ]

    # -- waiting / cancellation --------------------------------------------------------------------

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

    def wait(self, query_id: str, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Block server-side until answered; raises like the in-process wait."""
        return self._envelope_from_state(self._call("wait", query_id=query_id, timeout=timeout))

    def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> list[AnswerEnvelope]:
        states = self._call("wait_many", query_ids=list(query_ids), timeout=timeout)
        return [self._envelope_from_state(state) for state in states]

    def cancel(self, query_id: str) -> None:
        self._call("cancel", query_id=query_id)

    # -- plain SQL -----------------------------------------------------------------------------------

    def query(self, sql: str) -> RelationResult:
        return codec.decode_relation_result(self._call("query", sql=sql))

    def _untag_result(self, tagged: dict[str, Any]) -> Union[RelationResult, RemoteHandle]:
        if tagged.get("kind") == "handle":
            return self._handle_from_state(tagged["state"])
        return codec.decode_relation_result(tagged.get("result") or {})

    def execute(
        self, sql: str, owner: Optional[str] = None
    ) -> Union[RelationResult, RemoteHandle]:
        """Route one statement: plain SQL → rows, entangled SQL → handle."""
        return self._untag_result(self._call("execute", sql=sql, owner=owner))

    def execute_script(
        self, sql: str, owner: Optional[str] = None
    ) -> list[Union[RelationResult, RemoteHandle]]:
        return [
            self._untag_result(tagged)
            for tagged in self._call("execute_script", sql=sql, owner=owner)
        ]

    # -- answers / statistics -------------------------------------------------------------------------

    def answers(self, relation: str) -> list[tuple[Any, ...]]:
        return [tuple(values) for values in self._call("answers", relation=relation)]

    def stats(self) -> ServiceStats:
        return codec.decode_stats(self._call("stats"))

    def declare_answer_relation(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        self._call(
            "declare_answer_relation",
            name=name,
            columns=None if columns is None else list(columns),
            types=None if types is None else list(types),
            arity=arity,
        )

    # -- introspection extensions (IntrospectionService) ------------------------------------------------

    def request(self, query_id: str) -> RemoteHandle:
        return self._handle_from_state(self._call("request", query_id=query_id))

    def requests(self) -> list[RemoteHandle]:
        return [self._handle_from_state(state) for state in self._call("requests")]

    def pending_queries(self) -> list[ir.EntangledQuery]:
        """The server's pending pool, re-compiled client-side from SQL text."""
        import dataclasses

        pending: list[ir.EntangledQuery] = []
        for item in self._call("pending_queries"):
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

    def retry_pending(self) -> int:
        return int(self._call("retry_pending"))

    def shutdown_server(self) -> None:
        """Ask the server to stop (it answers, then closes every connection)."""
        self._call("shutdown")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RemoteService({self.host}:{self.port})"


def connect(
    host: str = "127.0.0.1", port: int = 7399, connect_timeout: Optional[float] = 5.0
) -> RemoteService:
    """Connect to a :class:`~repro.service.remote.server.CoordinationServer`."""
    return RemoteService.connect(host=host, port=port, connect_timeout=connect_timeout)
