"""The asyncio-native coordination service API (``repro.service.aio``).

The awaitable twin of :mod:`repro.service`: the same DTOs and wire codec,
an async call surface, and a single-event-loop network plane.

* :class:`~repro.service.aio.api.AsyncCoordinationService` /
  :class:`~repro.service.aio.api.AsyncIntrospectionService` — the protocols
* :class:`~repro.service.aio.server.AsyncCoordinationServer` /
  :class:`~repro.service.aio.server.BackgroundAsyncServer` — the network
  server (the only one; it drives an
  :class:`~repro.service.inprocess.InProcessService` on its own thread pool
  and also ships the WAL to standbys)
* :class:`~repro.service.aio.client.AsyncRemoteService` /
  :class:`~repro.service.aio.client.AsyncRemoteHandle` — the multiplexed
  asyncio client and its awaitable handles (``await handle`` →
  :class:`~repro.service.api.AnswerEnvelope`)
* :class:`~repro.service.aio.bridge.BridgedService` — the synchronous
  facade over one such connection; ``BridgedService.connect`` is the
  synchronous network client (:class:`~repro.service.remote.RemoteService`)

See ``docs/API.md`` ("Async quickstart") and ``docs/ARCHITECTURE.md``
("The request plane") for the contract and the backpressure rules.
"""

from repro.service.aio.api import AsyncCoordinationService, AsyncIntrospectionService
from repro.service.aio.bridge import BridgedHandle, BridgedService
from repro.service.aio.client import AsyncRemoteHandle, AsyncRemoteService
from repro.service.aio.server import (
    AsyncCoordinationServer,
    AsyncServerBase,
    BackgroundAsyncServer,
)

__all__ = [
    "AsyncCoordinationServer",
    "AsyncServerBase",
    "AsyncCoordinationService",
    "AsyncIntrospectionService",
    "AsyncRemoteHandle",
    "AsyncRemoteService",
    "BackgroundAsyncServer",
    "BridgedHandle",
    "BridgedService",
]
