"""Drive an async coordination service from synchronous code.

:class:`BridgedService` owns a private event loop on a daemon thread and
projects an :class:`~repro.service.aio.api.AsyncCoordinationService` /
:class:`~repro.service.aio.api.AsyncIntrospectionService` implementation
back onto the *synchronous* service surface — the inverse adapter of
:class:`~repro.service.aio.inprocess.AsyncInProcessService`.

Its main use is the synchronous network client: :meth:`BridgedService.connect`
(published as :class:`~repro.service.remote.RemoteService`) wraps one
multiplexed :class:`~repro.service.aio.client.AsyncRemoteService`
connection, so application code written against the in-process service —
the CLI shell, the examples, the conformance scenarios — runs against a
remote one unchanged.  ``result()`` and ``add_done_callback`` stay
push-driven, and a lost connection fails every in-flight call and pending
handle fast with :class:`~repro.errors.ServiceUnavailableError`.

Completion callbacks registered through a :class:`BridgedHandle` run on a
dedicated dispatcher thread, so a callback may freely call back into the
bridged service — running it on the loop thread would deadlock the first
nested synchronous call.
"""

from __future__ import annotations

import asyncio
import queue
import threading
from typing import Any, Callable, Coroutine, Optional, Sequence, TypeVar, Union

from repro.core import ir
from repro.errors import ServiceUnavailableError
from repro.service.api import (
    AnswerEnvelope,
    RelationResult,
    ServiceStats,
    Submittable,
)

_T = TypeVar("_T")


class BridgedHandle:
    """A synchronous, future-style view of one awaitable handle."""

    def __init__(self, bridge: "BridgedService", handle: Any, tag: Optional[str] = None) -> None:
        self._bridge = bridge
        self._handle = handle
        self.tag = tag if tag is not None else getattr(handle, "tag", None)

    # -- live state (attribute reads are loop-thread writes, GIL-atomic) ----------------------

    @property
    def query_id(self) -> str:
        return self._handle.query_id

    @property
    def owner(self) -> Optional[str]:
        return self._handle.owner

    @property
    def status(self) -> Any:
        return self._handle.status

    @property
    def error(self) -> Optional[str]:
        return self._handle.error

    @property
    def answer(self) -> Optional[ir.GroundAnswer]:
        return self._handle.answer

    @property
    def group_query_ids(self) -> tuple[str, ...]:
        return self._handle.group_query_ids

    @property
    def is_answered(self) -> bool:
        return self._handle.is_answered

    @property
    def registered_at(self) -> float:
        return self._handle.registered_at

    @property
    def answered_at(self) -> Optional[float]:
        return self._handle.answered_at

    # -- the future-style surface --------------------------------------------------------------

    def done(self) -> bool:
        return self._handle.done()

    def cancelled(self) -> bool:
        return self._handle.cancelled()

    def result(self, timeout: Optional[float] = None) -> AnswerEnvelope:
        """Block the calling thread until answered (the coroutine enforces
        the deadline and raises the typed timeout/cancellation errors)."""
        return self._bridge.run(self._handle.result(timeout=timeout))

    def exception(self, timeout: Optional[float] = None) -> Optional[Exception]:
        return self._bridge.run(self._handle.exception(timeout=timeout))

    def add_done_callback(self, fn: Callable[["BridgedHandle"], Any]) -> None:
        """Run ``fn(handle)`` on completion.

        Fires immediately in the calling thread if already terminal (the
        sync handles' contract); otherwise fires on the bridge's dispatcher
        thread, so ``fn`` may call back into the service.
        """
        if self.done():
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - mirror the sync callback guard
                pass
            return

        def register() -> None:
            # Registration must happen on the loop: the async handles hang
            # their callbacks off a loop-owned asyncio.Future, which is not
            # thread-safe to mutate from here (a completion racing the
            # append could drop the callback, and a done future would
            # call_soon from a foreign thread).  A handle that completed
            # before this runs still fires: the future is done, so the
            # loop-side add_done_callback schedules immediately.
            self._handle.add_done_callback(
                lambda _async_handle: self._bridge._enqueue_callback(fn, self)
            )

        self._bridge.call_on_loop(register)

    def cancel(self) -> None:
        """Withdraw this query from the pending pool."""
        self._bridge.run(self._handle.cancel())

    # -- identity -------------------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        other_id = getattr(other, "query_id", None)
        if other_id is None:
            return NotImplemented
        return self.query_id == other_id

    def __hash__(self) -> int:
        return hash(self.query_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BridgedHandle({self._handle!r})"


class BridgedService:
    """A synchronous :class:`~repro.service.api.CoordinationService` facade
    over any async service, hosted on a private event-loop thread."""

    def __init__(
        self,
        service: Optional[Any] = None,
        service_factory: Optional[Callable[[], Coroutine[Any, Any, Any]]] = None,
    ) -> None:
        """Wrap ``service`` directly, or await ``service_factory()`` on the
        bridge loop (for services whose construction is itself async, e.g.
        :meth:`~repro.service.aio.client.AsyncRemoteService.connect`)."""
        if (service is None) == (service_factory is None):
            raise ValueError("provide exactly one of 'service' or 'service_factory'")
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="youtopia-aio-bridge", daemon=True
        )
        self._thread.start()
        self._callbacks: "queue.Queue[Optional[tuple[Callable[[BridgedHandle], Any], BridgedHandle]]]" = (
            queue.Queue()
        )
        self._dispatcher = threading.Thread(
            target=self._dispatch_callbacks, name="youtopia-bridge-callbacks", daemon=True
        )
        self._dispatcher.start()
        self._closed = False
        try:
            self.aservice = service if service is not None else self.run(service_factory())
        except BaseException:
            self._teardown()
            raise

    @classmethod
    def connect(
        cls, host: str = "127.0.0.1", port: int = 7399, connect_timeout: Optional[float] = 5.0
    ) -> "BridgedService":
        """Open a synchronous client over an :class:`AsyncRemoteService` connection."""
        from repro.service.aio.client import AsyncRemoteService

        return cls(
            service_factory=lambda: AsyncRemoteService.connect(
                host=host, port=port, connect_timeout=connect_timeout
            )
        )

    # -- plumbing -------------------------------------------------------------------------------

    def run(self, coro: Coroutine[Any, Any, _T]) -> _T:
        """Run one coroutine on the bridge loop and block for its result."""
        if self._closed:
            coro.close()
            raise ServiceUnavailableError("the service was closed by this client")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def call_on_loop(self, fn: Callable[[], Any]) -> None:
        """Schedule a plain callable onto the bridge loop (fire and forget)."""
        self._loop.call_soon_threadsafe(fn)

    def _enqueue_callback(self, fn: Callable[[BridgedHandle], Any], handle: BridgedHandle) -> None:
        self._callbacks.put((fn, handle))

    def _dispatch_callbacks(self) -> None:
        while True:
            item = self._callbacks.get()
            if item is None:
                return
            fn, handle = item
            try:
                fn(handle)
            except Exception:  # noqa: BLE001 - observer failures stay contained
                pass

    def _wrap(self, handle: Any, tag: Optional[str] = None) -> BridgedHandle:
        return BridgedHandle(self, handle, tag=tag)

    # -- lifecycle ------------------------------------------------------------------------------

    def close(self) -> None:
        if self._closed:
            return
        try:
            self.run(self.aservice.close())
        finally:
            self._closed = True
            self._teardown()

    def _teardown(self) -> None:
        self._callbacks.put(None)
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=10.0)
        self._loop.close()

    def __enter__(self) -> "BridgedService":
        return self

    def __exit__(self, *_exc: object) -> None:
        self.close()

    # -- the synchronous service surface ---------------------------------------------------------

    def submit(self, request: Submittable, owner: Optional[str] = None) -> BridgedHandle:
        return self._wrap(self.run(self.aservice.submit(request, owner)))

    def submit_many(
        self, requests: Sequence[Submittable], owner: Optional[str] = None
    ) -> list[BridgedHandle]:
        return [
            self._wrap(handle)
            for handle in self.run(self.aservice.submit_many(requests, owner))
        ]

    def wait(self, query_id: str, timeout: Optional[float] = None) -> AnswerEnvelope:
        return self.run(self.aservice.wait(query_id, timeout=timeout))

    def wait_many(
        self, query_ids: Sequence[str], timeout: Optional[float] = None
    ) -> list[AnswerEnvelope]:
        return self.run(self.aservice.wait_many(query_ids, timeout=timeout))

    def cancel(self, query_id: str) -> None:
        self.run(self.aservice.cancel(query_id))

    def query(self, sql: str) -> RelationResult:
        return self.run(self.aservice.query(sql))

    def execute(
        self, sql: str, owner: Optional[str] = None
    ) -> Union[RelationResult, BridgedHandle]:
        result = self.run(self.aservice.execute(sql, owner=owner))
        if isinstance(result, RelationResult):
            return result
        return self._wrap(result)

    def execute_script(
        self, sql: str, owner: Optional[str] = None
    ) -> list[Union[RelationResult, BridgedHandle]]:
        return [
            result if isinstance(result, RelationResult) else self._wrap(result)
            for result in self.run(self.aservice.execute_script(sql, owner=owner))
        ]

    def answers(self, relation: str) -> list[tuple[Any, ...]]:
        return self.run(self.aservice.answers(relation))

    def stats(self) -> ServiceStats:
        return self.run(self.aservice.stats())

    def declare_answer_relation(
        self,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        self.run(
            self.aservice.declare_answer_relation(
                name, columns=columns, types=types, arity=arity
            )
        )

    # -- introspection extensions ------------------------------------------------------------------

    def request(self, query_id: str) -> BridgedHandle:
        return self._wrap(self.run(self.aservice.request(query_id)))

    def requests(self) -> list[BridgedHandle]:
        return [self._wrap(handle) for handle in self.run(self.aservice.requests())]

    def pending_queries(self) -> list[ir.EntangledQuery]:
        return self.run(self.aservice.pending_queries())

    def retry_pending(self) -> int:
        return int(self.run(self.aservice.retry_pending()))

    # -- remote connections only ---------------------------------------------------------------

    @property
    def frames_sent(self) -> int:
        """Request frames the connection wrote (one per ``submit_many`` batch)."""
        return self.aservice.frames_sent

    def shutdown_server(self) -> None:
        """Ask the server to stop (it answers, then closes every connection)."""
        self.run(self.aservice.shutdown_server())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BridgedService({self.aservice!r})"


#: The synchronous network client: ``RemoteService.connect(host, port)``.
RemoteService = BridgedService
