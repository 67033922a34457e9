"""The transport-agnostic coordination service layer.

Public surface (also re-exported from the top-level :mod:`repro` package):

* :class:`~repro.service.api.CoordinationService` — the protocol every client
  programs against (``submit``, ``submit_many``, ``wait``, ``wait_many``,
  ``cancel``, ``query``, ``answers``, ``stats``)
* :class:`~repro.service.api.IntrospectionService` — admin-grade extensions
* the DTOs: :class:`~repro.service.api.SubmitRequest`,
  :class:`~repro.service.api.RelationResult`,
  :class:`~repro.service.api.AnswerEnvelope`,
  :class:`~repro.service.api.ServiceStats`
* :class:`~repro.service.handles.RequestHandle` — future-style handles
* :class:`~repro.service.inprocess.InProcessService` — the in-process
  implementation
* the asyncio surface (:mod:`repro.service.aio`):
  :class:`~repro.service.aio.AsyncCoordinationService` protocols, awaitable
  :class:`~repro.service.aio.AsyncRequestHandle` objects,
  :class:`~repro.service.aio.AsyncInProcessService`, and the single-event-loop
  JSON-over-TCP network plane (:class:`~repro.service.aio.AsyncCoordinationServer`
  / :class:`~repro.service.aio.BackgroundAsyncServer` and the multiplexed
  :class:`~repro.service.aio.AsyncRemoteService` client)
* :class:`~repro.service.remote.RemoteService` — the synchronous network
  client (same protocols, remote system), a
  :class:`~repro.service.aio.BridgedService` over one async connection
* :class:`~repro.service.metrics.TransportMetrics` — request-plane counters
  the server publishes through :attr:`~repro.service.api.ServiceStats.transport`
* :class:`~repro.core.config.SystemConfig` — typed system configuration

See ``docs/API.md`` for the full contract, the remote deployment guide and
the migration table from the old :class:`~repro.core.system.YoutopiaSystem`
facade calls; ``docs/ARCHITECTURE.md`` places this layer in the system map.
"""

from repro.core.config import SystemConfig
from repro.service.aio import (
    AsyncCoordinationServer,
    AsyncCoordinationService,
    AsyncInProcessService,
    AsyncIntrospectionService,
    AsyncRemoteHandle,
    AsyncRemoteService,
    AsyncRequestHandle,
    BackgroundAsyncServer,
    BridgedService,
    connect_async,
)
from repro.service.api import (
    AnswerEnvelope,
    CoordinationService,
    IntrospectionService,
    RelationResult,
    ServiceStats,
    Submittable,
    SubmitRequest,
)
from repro.service.handles import RequestHandle
from repro.service.inprocess import InProcessService
from repro.service.metrics import TransportMetrics
from repro.service.remote import RemoteService

__all__ = [
    "AnswerEnvelope",
    "AsyncCoordinationServer",
    "AsyncCoordinationService",
    "AsyncInProcessService",
    "AsyncIntrospectionService",
    "AsyncRemoteHandle",
    "AsyncRemoteService",
    "AsyncRequestHandle",
    "BackgroundAsyncServer",
    "BridgedService",
    "CoordinationService",
    "InProcessService",
    "IntrospectionService",
    "RelationResult",
    "RemoteService",
    "RequestHandle",
    "ServiceStats",
    "Submittable",
    "SubmitRequest",
    "SystemConfig",
    "TransportMetrics",
    "connect_async",
]
