"""Awaitable handles for entangled queries submitted through the async API.

:class:`AsyncRequestHandle` is the asyncio twin of
:class:`~repro.service.handles.RequestHandle`: it wraps the synchronous
in-process handle and exposes it as an awaitable — ``await handle`` suspends
the coroutine until coordination resolves the query and yields the
:class:`~repro.service.api.AnswerEnvelope`.

The bridge between the two worlds is one completion callback: the wrapped
handle's ``add_done_callback`` fires in whatever thread answers, cancels or
rejects the query (a match worker, a cancelling caller, the submitting
thread), and that callback schedules the handle's ``asyncio.Future``
resolution onto the owning event loop via ``loop.call_soon_threadsafe``.  No
thread ever blocks on a pending handle — ten thousand idle awaiting queries
cost ten thousand futures, not ten thousand threads.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Generator, Optional

from repro.core import ir
from repro.core.coordinator import QueryStatus
from repro.errors import CoordinationTimeoutError, EntanglementError
from repro.service.api import AnswerEnvelope
from repro.service.handles import RequestHandle

_TERMINAL = (QueryStatus.ANSWERED, QueryStatus.CANCELLED, QueryStatus.REJECTED)


def _mark_retrieved(future: "asyncio.Future[Any]") -> None:
    """Read a failed future's exception so GC never logs it as unretrieved.

    Awaitable handles may legitimately never be awaited (fire-and-forget
    submissions observed via callbacks); their failure must not turn into an
    'exception was never retrieved' warning at collection time.
    """
    if future.done() and not future.cancelled():
        future.exception()


class AwaitableHandle:
    """The shared awaitable surface of the async handles.

    Both the in-process :class:`AsyncRequestHandle` and the network
    :class:`~repro.service.aio.client.AsyncRemoteHandle` resolve through
    one loop-side ``asyncio.Future``; everything downstream of that future
    — ``await handle``, timeout shielding, the loop-scheduled done
    callbacks, query-id identity — lives here so the two cannot drift.
    Subclasses provide :meth:`_wait_future` (and ``query_id``).
    """

    __slots__ = ()

    @property
    def query_id(self) -> str:  # pragma: no cover - every subclass overrides
        raise NotImplementedError

    def _wait_future(self) -> "asyncio.Future[AnswerEnvelope]":
        """The future the awaitable surface resolves through."""
        raise NotImplementedError  # pragma: no cover - every subclass overrides

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
        future = self._wait_future()
        if timeout is None:
            return await asyncio.shield(future)
        try:
            return await asyncio.wait_for(asyncio.shield(future), timeout)
        except asyncio.TimeoutError:
            raise CoordinationTimeoutError(self.query_id, timeout) from None

    def settled_result(self) -> AnswerEnvelope:
        """A terminal handle's outcome, read without the event loop.

        Returns the envelope or raises what :meth:`result` would.  Only
        valid once ``done()`` is true; it works after the loop has closed.
        """
        raise NotImplementedError  # pragma: no cover - every subclass overrides

    async def exception(self, timeout: Optional[float] = None) -> Optional[EntanglementError]:
        """The terminal error, or ``None`` if answered (suspends like result)."""
        try:
            await self.result(timeout=timeout)
        except CoordinationTimeoutError:
            raise
        except EntanglementError as exc:
            return exc
        return None

    def add_done_callback(self, fn: Callable[[Any], Any]) -> None:
        """Run ``fn(handle)`` on the event loop once the request is terminal.

        Unlike the thread-world handles, the callback *always* runs on the
        loop (via ``call_soon``), even when the request is already terminal —
        asyncio callers never see a callback fire re-entrantly inside
        ``add_done_callback``.  Callback exceptions are swallowed, mirroring
        the synchronous callback guard.
        """
        future = self._wait_future()

        def runner(_future: "asyncio.Future[AnswerEnvelope]") -> None:
            try:
                fn(self)
            except Exception:  # noqa: BLE001 - observer failures stay contained
                pass

        future.add_done_callback(runner)

    def __eq__(self, other: object) -> bool:
        other_id = getattr(other, "query_id", None)
        if other_id is None:
            return NotImplemented
        return self.query_id == other_id

    def __hash__(self) -> int:
        return hash(self.query_id)


class AsyncRequestHandle(AwaitableHandle):
    """An awaitable view of one submitted entangled query."""

    __slots__ = ("_handle", "_loop", "_canceller", "_future")

    def __init__(
        self,
        handle: RequestHandle,
        loop: asyncio.AbstractEventLoop,
        canceller: Optional[Callable[[str], Any]] = None,
    ) -> None:
        self._handle = handle
        self._loop = loop
        #: Coroutine function invoked by :meth:`cancel` (the owning service's
        #: ``cancel``, which routes the blocking work off the loop).
        self._canceller = canceller
        self._future: Optional[asyncio.Future[AnswerEnvelope]] = None

    # -- live state (delegates to the wrapped sync handle) ----------------------------------

    @property
    def sync_handle(self) -> RequestHandle:
        """The wrapped thread-world handle (in-process escape hatch)."""
        return self._handle

    @property
    def query(self) -> ir.EntangledQuery:
        return self._handle.query

    @property
    def query_id(self) -> str:
        return self._handle.query_id

    @property
    def owner(self) -> Optional[str]:
        return self._handle.owner

    @property
    def tag(self) -> Optional[str]:
        return self._handle.tag

    @property
    def status(self) -> QueryStatus:
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

    def done(self) -> bool:
        """Whether the request reached a terminal state (any outcome)."""
        return self._handle.done()

    def cancelled(self) -> bool:
        return self._handle.cancelled()

    def settled_result(self) -> AnswerEnvelope:
        return self._handle.result(timeout=0)

    # -- the future bridge -------------------------------------------------------------------

    def _ensure_future(self) -> "asyncio.Future[AnswerEnvelope]":
        """The handle's loop-side future, creating the thread bridge once."""
        if self._future is None:
            self._future = self._loop.create_future()
            self._future.add_done_callback(_mark_retrieved)

            def bridge(_handle: RequestHandle) -> None:
                # Runs in the completing thread (or inline when already
                # terminal); hop onto the loop.  A loop torn down before the
                # query resolved simply drops the notification.
                try:
                    self._loop.call_soon_threadsafe(self._resolve)
                except RuntimeError:
                    pass

            self._handle.add_done_callback(bridge)
        return self._future

    _wait_future = _ensure_future

    def _resolve(self) -> None:
        """Fold the wrapped handle's terminal state into the future (loop side)."""
        future = self._future
        if future is None or future.done():
            return
        status = self._handle.status
        if status is QueryStatus.ANSWERED:
            future.set_result(AnswerEnvelope.from_request(self._handle.record))
        elif status in (QueryStatus.CANCELLED, QueryStatus.REJECTED):
            future.set_exception(
                EntanglementError(
                    f"query {self.query_id!r} is {status.value}: {self._handle.error or ''}"
                )
            )

    # -- handle-specific operations (the awaitable surface lives on the base) ---------------

    async def cancel(self) -> None:
        """Withdraw this query from the pending pool (off-loop)."""
        if self._canceller is None:
            self._handle.cancel()
            return
        await self._canceller(self.query_id)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AsyncRequestHandle({self.query_id!r}, owner={self.owner!r}, "
            f"status={self.status.value!r})"
        )
