"""WAL shipping: the log-stream subscription a standby holds on its primary.

The primary side lives in the asyncio server's ``wal_subscribe`` op
(:meth:`~repro.service.aio.server.AsyncCoordinationServer._op_wal_subscribe`):
under the coordinator's checkpoint locks it captures a state snapshot,
registers a subscriber on the :class:`~repro.core.durability.WriteAheadLog`,
and returns the snapshot.  From then on every ``append`` ships the record to
the subscriber *before* ``append`` returns — so any write the primary has
acked is already in the kernel socket buffer bound for the standby, which is
what makes SIGKILL failover lossless for acked queries.

This module is the **wire side** of that contract: :class:`WalStream` owns
the raw socket, sends the subscription request, and demultiplexes the reply
stream.  One subtlety it exists to hide: the snapshot *response* leaves
after the op returns, but WAL *pushes* are written by whatever thread
appends to the log — a push for a record appended between snapshot capture
and response write can arrive **before** the response.  The stream
buffers early pushes and replays them to the caller after the snapshot, in
order; the standby's LSN guard discards any the snapshot already covers.
"""

from __future__ import annotations

import socket
from typing import Any, Iterator, Optional

from repro.errors import ProtocolError
from repro.service.remote import codec


class WalStream:
    """A subscription to a primary's write-ahead log over the wire codec."""

    def __init__(self, host: str, port: int, timeout: Optional[float] = 10.0) -> None:
        self.host = host
        self.port = port
        self._timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._early_pushes: list[dict[str, Any]] = []
        self.snapshot: Optional[dict[str, Any]] = None

    def subscribe(self) -> dict[str, Any]:
        """Connect, subscribe, and return the primary's state snapshot.

        A failed subscription closes the socket it opened — the caller holds
        no reference to retry on, so leaving it dangling would leak the fd
        (and a primary-side connection slot) on every bootstrap attempt.
        """
        sock = socket.create_connection((self.host, self.port), timeout=self._timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            sock.sendall(codec.encode_frame(codec.request_frame(1, "wal_subscribe", {})))
            # The response races with pushes for records appended after the
            # snapshot was captured; park those until the snapshot is delivered.
            while True:
                frame = codec.read_frame(sock)
                if frame is None:
                    raise ProtocolError(
                        "primary closed the connection before acking wal_subscribe"
                    )
                if frame.get("push") == "wal":
                    self._early_pushes.append(frame["data"])
                    continue
                if frame.get("id") == 1:
                    if not frame.get("ok", False):
                        raise codec.decode_error(frame.get("error") or {})
                    result = frame.get("result") or {}
                    self.snapshot = dict(result.get("state") or {})
                    return self.snapshot
                raise ProtocolError(f"unexpected frame while subscribing: {frame!r}")
        except BaseException:
            self._sock = None
            try:
                sock.close()
            except OSError:
                pass
            raise

    def records(self) -> Iterator[dict[str, Any]]:
        """Yield WAL records in shipping order until the stream ends.

        Ends cleanly (``StopIteration``) when the primary closes the socket —
        including when it is SIGKILLed: the kernel delivers everything the
        primary managed to ``sendall`` before the reset surfaces.
        """
        if self._sock is None:
            raise ProtocolError("wal stream is not subscribed")
        while self._early_pushes:
            yield self._early_pushes.pop(0)
        sock = self._sock
        sock.settimeout(None)
        while True:
            try:
                frame = codec.read_frame(sock)
            except (OSError, ProtocolError):
                # Connection reset / truncated frame: the primary died.  Every
                # complete frame before the break was already yielded.
                return
            if frame is None:
                return
            if frame.get("push") == "wal":
                yield frame["data"]
            # Other pushes (done notifications) are irrelevant to replication.

    def close(self) -> None:
        sock, self._sock = self._sock, None
        if sock is not None:
            try:
                # a bare close() neither wakes a reader blocked in recv() on
                # another thread nor sends the FIN while that read is pending
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "WalStream":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
