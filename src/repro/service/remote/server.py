"""The network server hosting one in-process coordination service.

:class:`CoordinationServer` puts a :class:`~repro.service.InProcessService`
(and therefore the coordinator behind it) behind a TCP socket speaking the
:mod:`repro.service.remote.codec` wire protocol:

* an **accept loop** thread hands each connection to a per-connection
  **reader thread**;
* every decoded request is dispatched on its own short-lived handler thread,
  so a blocking operation (``wait``) on one connection never
  stalls other requests on the *same* connection — a client may wait in one
  thread and cancel from another, exactly as against the in-process service;
* for every handle a client holds, the server registers a coordinator
  done-callback that **pushes** the final request state to that client the
  moment the query is answered, cancelled or rejected — remote
  ``RequestHandle.result()`` / ``add_done_callback`` stay future-style
  instead of poll-based.

Entangled submissions travel as SQL text and are compiled server-side; a
client that pre-compiled IR sends the IR's SQL together with its query id,
which the server grafts back onto the compiled query so id-based semantics
(duplicate detection, introspection) are preserved end-to-end.
"""

from __future__ import annotations

import dataclasses
import socket
import threading
from typing import Any, Optional, Sequence, Union

from repro.core.compiler import compile_entangled
from repro.core.config import SystemConfig
from repro.errors import ProtocolError, ServiceUnavailableError
from repro.service.api import RelationResult
from repro.service.handles import RequestHandle
from repro.service.inprocess import InProcessService
from repro.service.metrics import TransportMetrics
from repro.service.remote import codec


class _ClientConnection:
    """One accepted client socket plus its serialised writer."""

    def __init__(self, server: "CoordinationServer", sock: socket.socket, peer: Any) -> None:
        self.server = server
        self.sock = sock
        self.peer = peer
        self._write_lock = threading.Lock()
        self._closed = False
        # Query ids this connection already watches: at most one push
        # callback per (connection, query), however often the client asks.
        self._watch_lock = threading.Lock()
        self._watched: set[str] = set()

    def claim_watch(self, query_id: str) -> bool:
        """True exactly once per query id (the caller registers the watch)."""
        with self._watch_lock:
            if query_id in self._watched:
                return False
            self._watched.add(query_id)
            return True

    def send(self, payload: dict[str, Any]) -> bool:
        """Write one frame; ``False`` (never raises) once the peer is gone."""
        try:
            frame = codec.encode_frame(payload)
        except ProtocolError as exc:
            # An unencodable result must not leave the client's RPC hanging:
            # marshal the encoding failure back under the correlation id.
            frame_id = payload.get("id")
            frame = codec.encode_frame(
                codec.error_frame(frame_id if isinstance(frame_id, int) else -1, exc)
            )
        return self.send_encoded(frame)

    def send_encoded(self, frame: bytes) -> bool:
        """Write pre-encoded bytes; ``False`` (never raises) once the peer is gone."""
        with self._write_lock:
            if self._closed:
                return False
            try:
                self.sock.sendall(frame)
                self.server.metrics.add_bytes_out(len(frame))
                return True
            except OSError:
                self._closed = True
                return False

    def close(self) -> None:
        with self._write_lock:
            self._closed = True
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass


class CoordinationServer:
    """Hosts a coordination service behind a length-prefixed JSON/TCP socket.

    ``port=0`` (the default) binds an ephemeral port; :meth:`start` returns
    the bound ``(host, port)`` address.  When the server *built* its own
    service it also closes it on :meth:`stop`; a service passed in by the
    caller is left running unless ``close_service=True``.
    """

    def __init__(
        self,
        service: Optional[InProcessService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        config: Optional[SystemConfig] = None,
        close_service: Optional[bool] = None,
    ) -> None:
        owns_service = service is None
        self.service = service or InProcessService(config=config)
        self._close_service = owns_service if close_service is None else close_service
        self._host = host
        self._port = port
        self._listener: Optional[socket.socket] = None
        self._accept_thread: Optional[threading.Thread] = None
        self.metrics = TransportMetrics()
        self._connections: set[_ClientConnection] = set()
        self._lock = threading.Lock()
        self._started = False
        self._stopping = False
        self._stopped = threading.Event()

    # -- lifecycle --------------------------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)``; only meaningful after :meth:`start`."""
        return (self._host, self._port)

    def start(self) -> tuple[str, int]:
        """Bind, listen and start the accept loop; returns the address."""
        with self._lock:
            if self._started:
                return self.address
            listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            listener.bind((self._host, self._port))
            listener.listen(64)
            self._host, self._port = listener.getsockname()
            self._listener = listener
            self._started = True
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="youtopia-server-accept", daemon=True
        )
        self._accept_thread.start()
        return self.address

    def wait_stopped(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`stop` *completed* (the ``serve`` entry point's loop).

        The event fires only after the owned service is closed, so a durable
        system's clean-shutdown checkpoint is on disk before the ``serve``
        process is allowed to exit.
        """
        return self._stopped.wait(timeout)

    def stop(self) -> None:
        """Close the listener and every client connection (idempotent).

        Clients see end-of-stream and fail their in-flight calls and pending
        handles fast with :class:`~repro.errors.ServiceUnavailableError`.
        """
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            listener, self._listener = self._listener, None
            connections = list(self._connections)
            self._connections.clear()
        try:
            if listener is not None:
                try:
                    listener.close()
                except OSError:
                    pass
            for connection in connections:
                connection.close()
            if self._close_service:
                self.service.close()
        finally:
            # always release wait_stopped(), even when closing the service
            # failed (e.g. a disk-full error from the shutdown checkpoint)
            self._stopped.set()

    close = stop

    def __enter__(self) -> "CoordinationServer":
        self.start()
        return self

    def __exit__(self, *_exc: object) -> None:
        self.stop()

    # -- accept / read loops ----------------------------------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        while listener is not None and not self._stopping:
            try:
                sock, peer = listener.accept()
            except OSError:
                break
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            connection = _ClientConnection(self, sock, peer)
            with self._lock:
                if self._stopping:
                    connection.close()
                    break
                self._connections.add(connection)
            threading.Thread(
                target=self._connection_loop,
                args=(connection,),
                name=f"youtopia-conn-{peer[1] if isinstance(peer, tuple) else peer}",
                daemon=True,
            ).start()

    def _connection_loop(self, connection: _ClientConnection) -> None:
        self.metrics.connection_opened()
        try:
            while True:
                try:
                    frame = codec.read_frame(connection.sock, on_bytes=self.metrics.add_bytes_in)
                except ProtocolError as exc:
                    # A malformed frame poisons the stream: report and drop.
                    connection.send(codec.error_frame(-1, exc))
                    return
                except OSError:
                    return
                if frame is None:
                    return
                threading.Thread(
                    target=self._handle_request,
                    args=(connection, frame),
                    daemon=True,
                ).start()
        finally:
            connection.close()
            self.metrics.connection_closed()
            with self._lock:
                self._connections.discard(connection)

    def _handle_request(self, connection: _ClientConnection, frame: dict[str, Any]) -> None:
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
            result = handler(connection, **args)
        except Exception as exc:  # noqa: BLE001 - every failure is marshalled back
            connection.send(codec.error_frame(frame_id if isinstance(frame_id, int) else -1, exc))
            return
        finally:
            self.metrics.request_finished()
        connection.send(codec.response_frame(frame_id, result))
        if op == "shutdown":
            self.stop()

    # -- push notifications -----------------------------------------------------------------

    def _state_and_watch(
        self, connection: _ClientConnection, handle: RequestHandle
    ) -> dict[str, Any]:
        """Snapshot a request and arrange a push once it turns terminal.

        The watch decision is made on the *snapshot*, not the live record: a
        query that completes between the snapshot and the callback
        registration still gets its push (``add_done_callback`` fires
        immediately for terminal queries), while a snapshot that is already
        terminal needs no watch — the client resolves it locally and never
        waits for a push.  ``claim_watch`` keeps it to one callback per
        (connection, query) no matter how often the client asks.
        """
        state = codec.encode_request_state(handle)
        if state["status"] == "pending" and connection.claim_watch(handle.query_id):

            def push(record: Any) -> None:
                # encode_done_push degrades an unencodable answer to a
                # correlated error state rather than dropping the push
                connection.send_encoded(codec.encode_done_push(record))

            self.service.coordinator.add_done_callback(handle.query_id, push)
        return state

    # -- submissions ------------------------------------------------------------------------

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

    def _op_hello(self, _connection: _ClientConnection) -> dict[str, Any]:
        return {
            "server": "youtopia",
            "protocol": codec.PROTOCOL_VERSION,
            "config": self.service.system.config.as_dict(),
        }

    def _op_submit(self, connection: _ClientConnection, item: Any = None) -> dict[str, Any]:
        handle = self.service.submit(self._compile_item(item))
        return self._state_and_watch(connection, handle)

    def _op_submit_many(
        self, connection: _ClientConnection, items: Any = None
    ) -> list[dict[str, Any]]:
        if not isinstance(items, list):
            raise ProtocolError("submit_many expects a list of submission items")
        queries = [self._compile_item(item) for item in items]
        handles = self.service.submit_many(queries)
        return [self._state_and_watch(connection, handle) for handle in handles]

    # -- waiting / cancellation --------------------------------------------------------------

    def _op_wait(
        self, _connection: _ClientConnection, query_id: str, timeout: Optional[float] = None
    ) -> dict[str, Any]:
        self.service.wait(query_id, timeout=timeout)
        return codec.encode_request_state(self.service.request(query_id))

    def _op_wait_many(
        self,
        _connection: _ClientConnection,
        query_ids: Sequence[str],
        timeout: Optional[float] = None,
    ) -> list[dict[str, Any]]:
        self.service.wait_many(list(query_ids), timeout=timeout)
        return [
            codec.encode_request_state(self.service.request(query_id))
            for query_id in query_ids
        ]

    def _op_cancel(self, _connection: _ClientConnection, query_id: str) -> None:
        self.service.cancel(query_id)

    # -- plain SQL ----------------------------------------------------------------------------

    def _op_query(self, _connection: _ClientConnection, sql: str) -> dict[str, Any]:
        return codec.encode_relation_result(self.service.query(sql))

    def _tagged_result(
        self, connection: _ClientConnection, result: Union[RelationResult, RequestHandle]
    ) -> dict[str, Any]:
        if isinstance(result, RequestHandle):
            return {"kind": "handle", "state": self._state_and_watch(connection, result)}
        return {"kind": "relation", "result": codec.encode_relation_result(result)}

    def _op_execute(
        self, connection: _ClientConnection, sql: str, owner: Optional[str] = None
    ) -> dict[str, Any]:
        return self._tagged_result(connection, self.service.execute(sql, owner=owner))

    def _op_execute_script(
        self, connection: _ClientConnection, sql: str, owner: Optional[str] = None
    ) -> list[dict[str, Any]]:
        return [
            self._tagged_result(connection, result)
            for result in self.service.execute_script(sql, owner=owner)
        ]

    # -- answers / statistics -----------------------------------------------------------------

    def _op_answers(self, _connection: _ClientConnection, relation: str) -> list[list[Any]]:
        return [list(values) for values in self.service.answers(relation)]

    def _op_stats(self, _connection: _ClientConnection) -> dict[str, Any]:
        return codec.encode_stats(self.service.stats(), self.metrics.snapshot())

    def _op_declare_answer_relation(
        self,
        _connection: _ClientConnection,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        self.service.declare_answer_relation(name, columns=columns, types=types, arity=arity)

    # -- introspection ------------------------------------------------------------------------

    def _op_request(self, connection: _ClientConnection, query_id: str) -> dict[str, Any]:
        return self._state_and_watch(connection, self.service.request(query_id))

    def _op_requests(self, connection: _ClientConnection) -> list[dict[str, Any]]:
        return [self._state_and_watch(connection, handle) for handle in self.service.requests()]

    def _op_pending_queries(self, _connection: _ClientConnection) -> list[dict[str, Any]]:
        return [
            {
                "query_id": query.query_id,
                "owner": query.owner,
                "sql": query.sql,
                "priority": query.priority,
                "description": query.describe(),
            }
            for query in self.service.pending_queries()
        ]

    def _op_retry_pending(self, _connection: _ClientConnection) -> int:
        return self.service.retry_pending()

    # -- log shipping (consumed by repro.cluster standbys) ------------------------------------

    def _op_wal_subscribe(self, connection: _ClientConnection) -> dict[str, Any]:
        """Hand a joining standby a consistent snapshot and stream the log.

        The snapshot capture and the subscription happen atomically under
        every coordination lock (see
        :meth:`~repro.core.durability.DurabilityManager.subscribe_with_snapshot`),
        so no record falls in the gap.  Records appended *after* the cut may
        reach the socket before this response does (the handler returns first,
        then the response frame is written) — the follower buffers ``wal``
        pushes until the response arrives and drains them through its LSN
        guard, which makes the ordering harmless.  A push that fails to send
        unsubscribes the connection.
        """
        durability = self.service.system.durability
        if durability is None:
            raise ServiceUnavailableError(
                "this server has no write-ahead log to ship (start it with --data-dir)"
            )

        def ship(record: dict[str, Any]) -> bool:
            return connection.send_encoded(
                codec.encode_frame(codec.push_frame("wal", record))
            )

        state = durability.subscribe_with_snapshot(self.service.system, ship)
        return {"state": state, "last_lsn": int(state.get("last_lsn", 0))}

    def _op_shutdown(self, _connection: _ClientConnection) -> bool:
        # The response is written first; _handle_request then calls stop().
        return True


def serve(
    service: Optional[InProcessService] = None,
    host: str = "127.0.0.1",
    port: int = 0,
    config: Optional[SystemConfig] = None,
) -> CoordinationServer:
    """Start a :class:`CoordinationServer` and return it (already listening)."""
    server = CoordinationServer(service=service, host=host, port=port, config=config)
    server.start()
    return server
