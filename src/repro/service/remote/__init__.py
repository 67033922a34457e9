"""Network transport for the coordination service.

The paper frames Youtopia's coordination component as a *service* behind a
travel web site's middle tier — many client applications, one coordinating
system.  This package redeems the promise made by :mod:`repro.service`: the
same :class:`~repro.service.api.CoordinationService` /
:class:`~repro.service.api.IntrospectionService` protocols, spoken over a
length-prefixed JSON-over-TCP wire protocol, so callers cannot tell a remote
deployment from the in-process one.

* :mod:`repro.service.remote.codec` — the wire format: versioned
  request/response frames and typed error marshalling.
* :class:`RemoteService` — the synchronous client: ``RemoteService.connect(
  host, port)`` returns a :class:`~repro.service.aio.bridge.BridgedService`
  over one multiplexed :class:`~repro.service.aio.AsyncRemoteService`
  connection; handles' ``result()`` / ``add_done_callback`` are driven by
  server push, not polling.

The server is :class:`~repro.service.aio.AsyncCoordinationServer`
(synchronously: :class:`~repro.service.aio.BackgroundAsyncServer`).  See the
"Remote deployment" section of ``docs/API.md`` for the wire format and
failure semantics, and ``examples/remote_travel.py`` for a two-process
walkthrough.
"""

from repro.service.aio.bridge import RemoteService

__all__ = ["RemoteService"]
