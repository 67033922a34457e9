"""WAL-shipped standbys: a warm replica that replays the primary's log.

A standby is an ordinary memory-only :class:`~repro.service.InProcessService`
whose state is built exclusively from the primary's shipped write-ahead log:
the bootstrap snapshot from ``wal_subscribe``, then every subsequent record,
applied through the same :func:`~repro.core.durability.apply_wal_record` /
:func:`~repro.core.durability.apply_snapshot_state` primitives crash recovery
uses — replica replay *is* recovery, run continuously.

The standby serves the ordinary asyncio request plane
(:class:`~repro.service.aio.AsyncCoordinationServer`, hosted on its own loop
thread by :class:`~repro.service.aio.BackgroundAsyncServer`), while a
:class:`StandbyFollower` thread reads the primary's log stream.  While
following, the standby is **read-only**: introspection ops (requests,
answers, stats, pending_queries) serve from replicated state, but mutating
ops raise :class:`~repro.errors.ServiceUnavailableError` — accepting a submit
the primary never logged would fork history.  The replica also never matches
spontaneously (its coordinator sees no submissions), so its answer state is
exactly the primary's logged prefix.

On primary failure, ``promote`` turns the replica into a primary: the
follower stream stops, the query-id counter is advanced past every replayed
id, the whole pool is marked dirty and retried (a crash between a match's
execution and its commit record leaves the group pending again — identical
to single-node recovery), and the mutation guard drops.
"""

from __future__ import annotations

import re
import threading
import time
from typing import Any, Optional

from repro.core import ir
from repro.core.durability import (
    RecoveryReport,
    apply_snapshot_state,
    apply_wal_record,
)
from repro.errors import ServiceUnavailableError
from repro.service.aio.server import AsyncCoordinationServer, BackgroundAsyncServer
from repro.service.inprocess import InProcessService
from repro.service.remote import codec

from repro.cluster.shipping import WalStream

_QUERY_ID = re.compile(r"^q(\d+)$")

#: ops a standby refuses while following (everything that would fork history);
#: plain ``query`` (SELECT) stays allowed — reads are the point of a replica
_MUTATING_OPS = frozenset(
    {
        "submit",
        "submit_many",
        "cancel",
        "execute",
        "execute_script",
        "declare_answer_relation",
        "retry_pending",
    }
)


class StandbyFollower(threading.Thread):
    """The replication thread: subscribe, bootstrap, replay until the stream dies."""

    def __init__(
        self,
        service: InProcessService,
        primary_host: str,
        primary_port: int,
        connect_timeout: float = 10.0,
    ) -> None:
        super().__init__(name="youtopia-standby-follower", daemon=True)
        self.service = service
        self.primary_host = primary_host
        self.primary_port = primary_port
        self._stream = WalStream(primary_host, primary_port, timeout=connect_timeout)
        self.report = RecoveryReport()
        self.applied_lsn = 0
        self.records_applied = 0
        self.records_skipped = 0
        self.following = False
        #: set once the bootstrap snapshot is applied (reads are consistent)
        self.caught_up = threading.Event()
        #: set when the stream ends — primary death or deliberate stop
        self.disconnected = threading.Event()
        self.error: Optional[BaseException] = None

    def run(self) -> None:
        system = self.service.system
        coordinator = system.coordinator
        # Replayed transitions must not mark the pool dirty or arm retry
        # sweeps mid-stream (the promoted standby sweeps once, like
        # recovery); the guard is thread-local, so it scopes this thread.
        coordinator._executing.active = True
        try:
            snapshot = self._stream.subscribe()
            self.applied_lsn = int(snapshot.get("last_lsn", 0))
            apply_snapshot_state(system, snapshot, self.report)
            self.following = True
            self.caught_up.set()
            for record in self._stream.records():
                lsn = int(record.get("lsn", 0))
                if lsn <= self.applied_lsn:
                    self.records_skipped += 1
                    continue
                try:
                    apply_wal_record(system, record)
                except Exception as exc:  # noqa: BLE001 - mirror replay(): keep going
                    self.report.replay_errors.append(
                        f"lsn {lsn} ({record.get('type')}): {exc}"
                    )
                self.applied_lsn = lsn
                self.records_applied += 1
        except BaseException as exc:  # noqa: BLE001 - surfaced via self.error
            self.error = exc
        finally:
            coordinator._executing.active = False
            self.following = False
            self.caught_up.set()  # never leave a waiter hanging on a dead stream
            self.disconnected.set()
            self._stream.close()

    def stop(self) -> None:
        """Tear the stream down; the thread exits at its next read."""
        self._stream.close()


class _ReadOnlyUntilPromoted(AsyncCoordinationServer):
    """The standby's request plane: refuses mutations until promoted."""

    def __init__(self, standby: "StandbyServer", **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self._standby = standby

    async def _handle_request(self, connection: Any, frame: dict[str, Any]) -> None:
        if self._standby.promoted or frame.get("op") not in _MUTATING_OPS:
            await super()._handle_request(connection, frame)
            return
        follower = self._standby.follower
        frame_id = frame.get("id")
        self.metrics.request_started()
        try:
            connection.send(
                codec.error_frame(
                    frame_id if isinstance(frame_id, int) else -1,
                    ServiceUnavailableError(
                        "standby is read-only until promoted "
                        f"(following {follower.primary_host}:{follower.primary_port})"
                    ),
                )
            )
        finally:
            self.metrics.request_finished()
            connection.in_flight -= 1

    async def _op_promote(self, _connection: Any) -> dict[str, Any]:
        # promotion waits up to its drain grace: never on the loop
        return await self.aservice._run(self._standby.promote)


class StandbyServer(BackgroundAsyncServer):
    """A read-only replica server that can be promoted to primary.

    Wire-compatible with every client: introspection works while following,
    mutations raise :class:`~repro.errors.ServiceUnavailableError` until a
    ``promote`` op (issued by an operator or the cluster router's failover
    pass) flips the guard.
    """

    def __init__(
        self,
        primary_host: str,
        primary_port: int,
        host: str = "127.0.0.1",
        port: int = 0,
        service: Optional[InProcessService] = None,
    ) -> None:
        owns_service = service is None
        service = service or InProcessService()
        super().__init__(
            server_factory=_ReadOnlyUntilPromoted,
            standby=self,
            service=service,
            host=host,
            port=port,
            close_service=owns_service,
        )
        self.promoted = False
        self.promoted_at: Optional[float] = None
        self.follower = StandbyFollower(service, primary_host, primary_port)
        service.cluster_info = self._cluster_info

    def start(self) -> tuple[str, int]:
        address = super().start()
        if not self.follower.is_alive():
            self.follower.start()
        return address

    def stop(self) -> None:
        self.follower.stop()
        super().stop()

    close = stop

    def wait_caught_up(self, timeout: Optional[float] = None) -> bool:
        """Block until the bootstrap snapshot is applied (or the stream died)."""
        ok = self.follower.caught_up.wait(timeout)
        if ok and self.follower.error is not None:
            raise self.follower.error
        return ok

    # -- promotion ---------------------------------------------------------------------------

    def promote(self, drain_grace: float = 2.0) -> dict[str, Any]:
        """Stop following and take over as primary (idempotent).

        Promotion usually races the primary's death: records the primary
        acked are guaranteed to be *at least* in this replica's socket
        buffer, so closing the stream before the follower has drained to
        EOF would silently discard acked history.  ``drain_grace`` bounds
        how long promotion waits for that natural EOF (a dead primary's
        FIN/RST arrives within milliseconds; a deliberate promote-away
        from a live primary pays the full grace, then forces the close).

        Mirrors the tail of :meth:`~repro.core.durability.DurabilityManager.recover`:
        advance the query-id counter past every replayed id, then arm one
        retry sweep so groups whose match executed on the old primary but
        whose commit record never shipped are re-attempted here.
        """
        if self.promoted:
            return self._promotion_summary()
        self.follower.disconnected.wait(drain_grace)
        self.follower.stop()
        self.follower.disconnected.wait(5.0)
        coordinator = self.service.coordinator
        highest = 0
        for request in coordinator.requests():
            match = _QUERY_ID.match(request.query_id)
            if match:
                highest = max(highest, int(match.group(1)))
        if highest:
            ir.advance_query_counter(highest + 1)
        self.promoted = True
        self.promoted_at = time.time()
        coordinator.mark_all_dirty()
        self.service.retry_pending()
        return self._promotion_summary()

    def _promotion_summary(self) -> dict[str, Any]:
        coordinator = self.service.coordinator
        return {
            "promoted": True,
            "applied_lsn": self.follower.applied_lsn,
            "records_applied": self.follower.records_applied,
            "pending": coordinator.pending_count(),
            "requests": len(coordinator.requests()),
            "replay_errors": list(self.follower.report.replay_errors),
        }

    def _cluster_info(self) -> dict[str, Any]:
        return {
            "role": "primary (promoted standby)" if self.promoted else "standby",
            "following": None
            if self.promoted or not self.follower.following
            else f"{self.follower.primary_host}:{self.follower.primary_port}",
            "applied_lsn": self.follower.applied_lsn,
            "records_applied": self.follower.records_applied,
            "promoted": self.promoted,
        }
