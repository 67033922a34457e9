"""Multi-node coordination: placement, the shard-routing gateway, standbys.

The paper's coordination component is a single process; the ROADMAP's north
star is "heavy traffic from millions of users".  This package spreads answer
relations over a **cluster** of coordination servers:

* :mod:`repro.cluster.placement` — a static placement map assigning
  relation shards (CRC32 of the relation name) to member nodes, and the
  signature→node routing built on it;
* :mod:`repro.cluster.router` — an asyncio gateway speaking the unchanged
  wire codec: it fans ``submit_many`` batches out by shard, merges stats and
  answers, forwards ``done`` pushes, and runs the **cross-node residence
  pass** (queries whose relations span nodes are co-located on the residence
  node);
* :mod:`repro.cluster.shipping` / :mod:`repro.cluster.standby` — **WAL
  shipping**: a primary streams its write-ahead log to a standby that replays
  records LSN-idempotently and can be promoted on failure.

Any existing client (:class:`~repro.service.remote.RemoteService`,
:class:`~repro.service.aio.AsyncRemoteService`) connects to the router as if
it were one big coordination server.
"""

from repro.cluster.placement import NodeSpec, PlacementMap, extract_signature
from repro.cluster.residence import QueryRegistry, RoutedQuery
from repro.cluster.router import BackgroundClusterRouter, ClusterRouter
from repro.cluster.shipping import WalStream
from repro.cluster.standby import StandbyFollower, StandbyServer

__all__ = [
    "BackgroundClusterRouter",
    "ClusterRouter",
    "NodeSpec",
    "PlacementMap",
    "QueryRegistry",
    "RoutedQuery",
    "StandbyFollower",
    "StandbyServer",
    "WalStream",
    "extract_signature",
]
