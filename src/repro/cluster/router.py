"""The shard-routing gateway: one wire endpoint in front of N member nodes.

:class:`ClusterRouter` is an :class:`~repro.service.aio.server.AsyncServerBase`
speaking the unchanged :mod:`repro.service.remote.codec` protocol — any
existing client (sync or asyncio) connects to it exactly as it would to a
single coordination server.  Behind the listener it holds one multiplexed
:class:`~repro.service.aio.client.AsyncRemoteService` connection per member
node and:

* **routes** each submission by its relation signature through the
  :class:`~repro.cluster.placement.PlacementMap` — a ``submit_many`` batch is
  fanned out as **one** ``submit_many`` frame per target node, so the
  per-batch framing/locking economics survive the extra hop;
* runs the **cross-node residence pass**: a query whose signature spans
  nodes is co-located on the *residence node of its signature* (a CRC32 hash
  over the sorted signature, so residence load spreads over all members) and
  its relations become *hot* there; pending queries stranded on home nodes
  that touch a hot relation are relocated (cancel there, resubmit at the hot
  node, same query id) so entangled partners always share one matching
  universe;
* **forwards pushes**: nodes push ``done`` states to the router's node
  connection; the router settles its registry entry and re-pushes to every
  client connection watching that query — client handles stay push-driven
  end to end;
* **merges** introspection: stats counters are summed, shard tables are
  concatenated (tagged with their node), answers are gathered, and a
  ``cluster`` block reports placement, routing counters and standby
  replication lag;
* **fails over**: when a node connection dies and the placement map names a
  standby for it, the router connects to the standby, promotes it, and
  re-binds the node index to the promoted server; pending queries on the
  failed node are re-watched there.

The router never compiles SQL for routing (signatures come from
:func:`~repro.cluster.placement.extract_signature`'s keyword scan) and never
holds answers: all coordination state lives on the nodes; the registry holds
only routing facts and terminal snapshots.

Because the registry is *soft* state, the router is restartable: on start it
fans ``requests`` out to every member node, rebuilds the registry from what
the nodes report (owning node, terminal snapshots, hot relations recomputed
from where cross-node residents actually live) and advances the ``r{n}`` id
counter past the maximum id observed anywhere — so after a crash every
previously acked query is waitable/cancelable again and new ids never
collide with pre-crash ones.  The same rebuild underpins ``--reshard``: a
router started over a *changed* node list first recovers, then sweeps every
live query to its placement under the new map.
"""

from __future__ import annotations

import asyncio
import itertools
import re
import time
from typing import Any, Optional, Sequence

from repro.errors import (
    EntanglementError,
    CoordinationTimeoutError,
    ProtocolError,
    QueryAlreadyAnsweredError,
    QueryNotPendingError,
    ScriptError,
    ServiceUnavailableError,
    YoutopiaError,
)
from repro.service.aio.client import AsyncRemoteService
from repro.service.aio.server import (
    DEFAULT_MAX_IN_FLIGHT,
    AsyncServerBase,
    BackgroundAsyncServer,
    _AsyncConnection,
)
from repro.service.remote import codec
from repro.sqlparser import ast, parse_script, parse_statement
from repro.sqlparser.pretty import format_statement

from repro.cluster.placement import PlacementMap, extract_signature
from repro.cluster.residence import (
    PENDING,
    RELOCATING,
    SUBMITTING,
    QueryRegistry,
    RoutedQuery,
)


class _NodeClient(AsyncRemoteService):
    """The router's connection to one member node.

    Differs from a plain client in what it does with frames: ``done`` pushes
    are handed to the router's registry instead of a local handle table, and
    a connection failure triggers the router's node-loss path (failover to
    the node's standby) instead of failing local handles.
    """

    node_index: int = -1
    router: Optional["ClusterRouter"] = None

    def _on_push(self, frame: dict[str, Any]) -> None:
        if frame.get("push") != "done":
            return
        router = self.router
        if router is not None:
            router._on_node_push(self.node_index, dict(frame.get("data") or {}))

    def _fail(self, exc: Exception) -> None:
        first_failure = self._failure is None and not self._closing
        super()._fail(exc)
        router = self.router
        if router is not None and first_failure:
            router._schedule_node_loss(self.node_index)


#: router-assigned query ids, scanned during the restart rebuild
_ROUTER_ID = re.compile(r"^r(\d+)$")

#: rebuild merge priority when one query id shows up on several nodes — a
#: pre-crash relocation leaves a ``cancelled`` ghost on the home node next to
#: the live copy at residence, so the live state must win, and any real
#: outcome beats the relocation ghost
_REBUILD_PRIORITY = {"pending": 0, "answered": 1, "rejected": 2, "cancelled": 3}


def _rejected_state(
    query_id: str, owner: Optional[str], sql: Optional[str], error: str
) -> dict[str, Any]:
    """A terminal wire state the router synthesizes without any node's help."""
    return {
        "query_id": query_id,
        "owner": owner,
        "status": "rejected",
        "error": error,
        "group": [],
        "registered_at": time.time(),
        "answered_at": None,
        "sql": sql,
        "description": "",
        "answer": None,
    }


class ClusterRouter(AsyncServerBase):
    """An asyncio gateway that serves the coordination wire protocol by
    fanning requests out across a :class:`~repro.cluster.placement.PlacementMap`."""

    def __init__(
        self,
        placement: PlacementMap,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        connect_timeout: float = 10.0,
        reshard: bool = False,
    ) -> None:
        super().__init__(host=host, port=port, max_in_flight=max_in_flight)
        self.placement = placement
        self.registry = QueryRegistry()
        self._connect_timeout = connect_timeout
        #: when set, the post-rebuild sweep relocates every live query to its
        #: placement under (a possibly changed) ``placement`` before serving
        self._reshard = reshard
        self._clients: list[Optional[_NodeClient]] = [None] * placement.node_count
        self._standby_stat_clients: dict[int, AsyncRemoteService] = {}
        #: router-assigned query ids (``r1``, ``r2``…) — the router is the id
        #: authority, so two nodes can never hand out the same ``q<n>`` id
        self._router_ids = itertools.count(1)
        self._relocation_lock: Optional[asyncio.Lock] = None
        self._broadcast_lock: Optional[asyncio.Lock] = None
        #: client connections awaiting a ``done`` push, per query id
        self._watchers: dict[str, set[_AsyncConnection]] = {}
        # routing counters (merged into the cluster stats block)
        self.routed_submits = 0
        self.cross_node_submits = 0
        self.relocations = 0
        self.duplicate_rejections = 0
        self.failovers = 0
        self.router_timeouts = 0
        self.recovered_queries = 0
        self.resharded_relocations = 0
        #: nodes that could not be introspected during a fan-out that was
        #: served anyway from the reachable members (stats/answers/rebuild)
        self.introspection_gaps = 0

    # -- lifecycle ---------------------------------------------------------------------------

    async def _open_resources(self) -> None:
        self._relocation_lock = asyncio.Lock()
        self._broadcast_lock = asyncio.Lock()
        for spec in self.placement.nodes:
            client = await _NodeClient.connect(
                spec.host, spec.port, connect_timeout=self._connect_timeout
            )
            client.node_index = spec.index
            client.router = self
            self._clients[spec.index] = client
        # Recover the soft routing state from the nodes before the listener
        # accepts anyone: on a fresh cluster this is one cheap empty fan-out,
        # after a router crash it is the whole point.
        await self._rebuild_registry()
        if self._reshard:
            await self._reshard_sweep()
        if self.registry.hot_nodes:
            await self._relocation_pass()

    async def _rebuild_registry(self) -> None:
        """Reconstruct the registry by introspecting every member node.

        ``requests`` on a node returns every query it knows — pending and
        terminal, with answers — *and* subscribes this connection to ``done``
        pushes for the pending ones, so recovered entries settle the same way
        freshly routed ones do.  When one query id shows up on several nodes
        (a pre-crash relocation leaves a ``cancelled`` ghost on the home
        node), :data:`_REBUILD_PRIORITY` picks the live copy.  Hot relations
        are rebuilt from where cross-node residents are *actually found* —
        after recovery, reality on the nodes beats the placement arithmetic —
        and the ``r{n}`` counter advances past the maximum id observed
        anywhere, so post-restart ids never collide.
        """

        async def requests_of(node: int) -> list[dict[str, Any]]:
            try:
                return await self._client(node)._call("requests")
            except Exception:  # noqa: BLE001 - rebuild from the reachable members
                self.introspection_gaps += 1
                return []

        per_node = await asyncio.gather(
            *(requests_of(node) for node in range(self.placement.node_count))
        )
        best: dict[str, tuple[int, int, dict[str, Any]]] = {}
        highest = 0
        for node, states in enumerate(per_node):
            for state in states:
                query_id = str(state.get("query_id"))
                match = _ROUTER_ID.match(query_id)
                if match:
                    highest = max(highest, int(match.group(1)))
                rank = _REBUILD_PRIORITY.get(str(state.get("status")), 4)
                incumbent = best.get(query_id)
                if incumbent is None or rank < incumbent[0]:
                    best[query_id] = (rank, node, state)
        for query_id, (_rank, node, state) in sorted(best.items()):
            if query_id in self.registry:
                continue
            sql = state.get("sql") or ""
            signature = extract_signature(sql) if sql else frozenset()
            home = self.placement.node_for_signature(signature)
            priority = state.get("priority")
            entry = RoutedQuery(
                query_id=query_id,
                sql=sql,
                owner=state.get("owner"),
                signature=signature,
                node=node,
                status=PENDING,
                registered_at=float(state.get("registered_at") or 0.0),
                priority=None if priority is None else float(priority),
            )
            entry.submitted.set_result(None)
            live = str(state.get("status")) == "pending"
            # A live query found off its single home node was pinned there by
            # the pre-crash residence pass; marking it resident re-heats its
            # relations at that node, so future partners co-locate with it.
            entry.resident = live and bool(signature) and (home is None or home != node)
            self.registry.add(entry)
            if not live:
                self.registry.settle(query_id, state)
            self.recovered_queries += 1
        if highest:
            self._router_ids = itertools.count(highest + 1)

    async def _reshard_sweep(self) -> None:
        """Relocate every live query to its placement under the current map.

        Run once after the rebuild when the router was started with
        ``reshard=True`` over a changed node list (the
        :meth:`~repro.cluster.placement.PlacementMap.split` invariant keeps
        ``shard_count`` fixed, so only the shard→node projection moved).
        Residence pins are recomputed from first principles, hot groups are
        re-hashed over the new member set, and each stranded query is moved
        — single-home queries back to their home node, residence groups to
        their re-hashed node.
        """
        assert self._relocation_lock is not None
        async with self._relocation_lock:
            self.registry.reset_residents(
                lambda signature: self.placement.node_for_signature(signature) is None
            )
            self.registry.rehash_hot(self.placement.residence_node_for)
            for entry in self.registry.live_entries():
                if entry.terminal:
                    continue
                home = self.placement.node_for_signature(entry.signature)
                target = self.registry.hot_target(entry.signature)
                make_resident = target is not None
                if target is None:
                    target = (
                        home
                        if home is not None
                        else self.placement.residence_node_for(entry.signature)
                    )
                if entry.node != target:
                    await self._relocate(entry, target, make_resident=make_resident)
                    self.resharded_relocations += 1

    async def _close_resources(self) -> None:
        clients = [c for c in self._clients if c is not None]
        clients.extend(self._standby_stat_clients.values())
        self._clients = [None] * self.placement.node_count
        self._standby_stat_clients.clear()
        for client in clients:
            client.router = None  # type: ignore[attr-defined]
            await client.close()

    def _client(self, node: int) -> _NodeClient:
        client = self._clients[node]
        if client is None or client._failure is not None:
            spec = self.placement.nodes[node]
            raise ServiceUnavailableError(
                f"cluster node {node} ({spec.address}) is unavailable"
            )
        return client

    # -- push forwarding ---------------------------------------------------------------------

    def _on_node_push(self, node_index: int, state: dict[str, Any]) -> None:
        """A node reported a terminal state; settle and re-push (loop thread)."""
        query_id = str(state.get("query_id"))
        entry = self.registry.get(query_id)
        if entry is None or entry.terminal:
            return
        if entry.node != node_index and entry.relocating_to != node_index:
            return  # stale push from a node the query was relocated away from
        if entry.status == RELOCATING and state.get("status") == "cancelled":
            return  # the router's own relocation cancel, not a client outcome
        self._settle_entry(entry, state)

    def _settle_entry(self, entry: RoutedQuery, state: dict[str, Any]) -> None:
        settled = self.registry.settle(entry.query_id, state)
        if settled is None:
            return
        watchers = self._watchers.pop(entry.query_id, None)
        if watchers:
            payload = codec.push_frame("done", state)
            for connection in watchers:
                connection.send(payload)

    def _state_and_watch(
        self, connection: _AsyncConnection, entry: RoutedQuery, state: dict[str, Any]
    ) -> dict[str, Any]:
        """Return a state snapshot, arranging a client push if it is pending.

        If the entry settled while other node responses were still in flight
        the terminal state wins — the client gets it in the response and
        never waits for a push that already happened.
        """
        if entry.final_state is not None:
            return entry.final_state
        if state.get("status") == "pending" and connection.claim_watch(entry.query_id):
            self._watchers.setdefault(entry.query_id, set()).add(connection)
        return state

    # -- submission routing ------------------------------------------------------------------

    @staticmethod
    def _validate_item(item: Any) -> tuple[str, Optional[str], Optional[str], Optional[float]]:
        if not isinstance(item, dict):
            raise ProtocolError(
                f"submission items must be objects, got {type(item).__name__}"
            )
        sql = item.get("sql")
        if not isinstance(sql, str) or not sql.strip():
            raise ProtocolError("submission item carries no SQL text")
        query_id = item.get("query_id")
        priority = item.get("priority")
        if priority is not None:
            try:
                priority = float(priority)
            except (TypeError, ValueError):
                raise ProtocolError(f"submission priority must be numeric, got {priority!r}")
        return sql, item.get("owner"), None if query_id is None else str(query_id), priority

    def _plan_route(self, signature: frozenset[str]) -> tuple[int, Optional[int], bool]:
        """``(target node, home node, resident?)`` for one signature.

        Precedence: an already-hot relation pins the query to its group's
        node (partners must meet where the group lives); otherwise a
        cross-node signature takes up residence at its hashed node; otherwise
        the query simply goes home.
        """
        home = self.placement.node_for_signature(signature)
        hot = self.registry.hot_target(signature)
        if hot is not None:
            return hot, home, True
        if home is None:
            return self.placement.residence_node_for(signature), home, True
        return home, home, False

    async def _route_and_submit(
        self, connection: _AsyncConnection, items: Sequence[Any], batch: bool
    ) -> list[dict[str, Any]]:
        """The submit path shared by ``submit``, ``submit_many`` and ``execute``."""
        slots: list[Optional[dict[str, Any]]] = [None] * len(items)
        entries_by_index: dict[int, RoutedQuery] = {}
        by_node: dict[int, list[tuple[int, dict[str, Any], RoutedQuery]]] = {}
        relocation_needed = False
        for index, item in enumerate(items):
            sql, owner, query_id, priority = self._validate_item(item)
            if query_id is None:
                query_id = f"r{next(self._router_ids)}"
            if query_id in self.registry:
                # The single-server contract, enforced cluster-wide: one id,
                # one query — whichever node the original landed on.
                self.duplicate_rejections += 1
                error = f"a query with id {query_id!r} is already registered"
                if not batch:
                    raise EntanglementError(error)
                slots[index] = _rejected_state(query_id, owner, sql, error)
                continue
            signature = extract_signature(sql)
            target, home, resident = self._plan_route(signature)
            entry = RoutedQuery(
                query_id=query_id,
                sql=sql,
                owner=owner,
                signature=signature,
                node=target,
                status=SUBMITTING,
                registered_at=time.time(),
                resident=resident,
                priority=priority,
            )
            self.registry.add(entry)
            entries_by_index[index] = entry
            self.routed_submits += 1
            if home is None or target != home:
                self.cross_node_submits += 1
            relocation_needed = relocation_needed or bool(resident and signature)
            wire_item = {"sql": sql, "owner": owner, "query_id": query_id}
            if priority is not None:
                wire_item["priority"] = priority
            by_node.setdefault(target, []).append((index, wire_item, entry))

        async def submit_on(node: int, group: list[tuple[int, dict[str, Any], RoutedQuery]]) -> None:
            try:
                client = self._client(node)
                if len(group) == 1 and not batch:
                    states = [await client._call("submit", item=group[0][1])]
                else:
                    states = await client._call(
                        "submit_many", items=[wire for _, wire, _ in group]
                    )
            except Exception as exc:
                for index, _wire, entry in group:
                    state = _rejected_state(
                        entry.query_id, entry.owner, entry.sql, str(exc)
                    )
                    self._settle_entry(entry, state)
                    if not entry.submitted.done():
                        entry.submitted.set_result(None)
                    slots[index] = state
                if not batch:
                    raise
                return
            for (index, _wire, entry), state in zip(group, states):
                if not entry.terminal:
                    if state.get("status") == "pending":
                        entry.status = PENDING
                    else:
                        self._settle_entry(entry, state)
                if not entry.submitted.done():
                    entry.submitted.set_result(None)
                slots[index] = state

        # one frame per target node, all nodes concurrently
        results = await asyncio.gather(
            *(submit_on(node, group) for node, group in by_node.items()),
            return_exceptions=True,
        )
        for outcome in results:
            if isinstance(outcome, BaseException) and not batch:
                raise outcome
        if relocation_needed:
            # Run the residence pass before answering: once the client holds
            # its handles, every entangled partner is already co-located.
            await self._relocation_pass()
        out: list[dict[str, Any]] = []
        for index in range(len(items)):
            state = slots[index] or {}
            entry = entries_by_index.get(index)
            if entry is None:  # synthesized duplicate rejection: no entry, no watch
                out.append(state)
            else:
                out.append(self._state_and_watch(connection, entry, state))
        return out

    # -- the cross-node residence pass --------------------------------------------------------

    async def _relocation_pass(self) -> None:
        """Move every pending query stranded off its hot group's node there.

        Runs to a fixpoint: relocated queries contribute their own relations
        to the hot set, which can implicate further victims (the transitive
        closure a single matching universe requires).
        """
        assert self._relocation_lock is not None
        async with self._relocation_lock:
            while True:
                plan = self.registry.relocation_plan()
                if not plan:
                    return
                for entry, target in plan:
                    await self._relocate(entry, target)

    async def _relocate(
        self, entry: RoutedQuery, target: int, make_resident: bool = True
    ) -> None:
        """Cancel ``entry`` where it lives and resubmit it (same id) on ``target``.

        ``entry.node`` keeps the old route until the resubmit RPC returns:
        flipping it early would strand ``wait``/``cancel`` on a node that
        never received the query if the resubmit fails.  While the move is in
        flight ``relocating_to`` names the target so a ``done`` push from
        either side of the move is accepted — the target node can match and
        push before the resubmit response is processed here.
        """
        loop = asyncio.get_running_loop()
        while entry.status == SUBMITTING:
            try:
                await asyncio.shield(entry.submitted)
            except Exception:  # noqa: BLE001 - the submit path settled it
                break
        if entry.terminal or entry.node == target:
            return
        old_node = entry.node
        entry.status = RELOCATING
        entry.relocating_to = target
        entry.submitted = loop.create_future()
        try:
            try:
                await self._client(old_node)._call("cancel", query_id=entry.query_id)
            except QueryAlreadyAnsweredError:
                # Matched on the old node before the pass reached it; its
                # ``done`` push settles the entry (entry.node still points
                # there, so the push is accepted).
                if not entry.terminal:
                    entry.status = PENDING
                return
            except QueryNotPendingError:
                if entry.terminal:
                    return
                # The old node does not know it (lost to a failover window):
                # resubmitting on the target below restores it.
            except ServiceUnavailableError:
                if entry.terminal:
                    return
                # Old node is gone; the resubmission below is the rescue.
            try:
                wire_item = {
                    "sql": entry.sql,
                    "owner": entry.owner,
                    "query_id": entry.query_id,
                }
                if entry.priority is not None:
                    wire_item["priority"] = entry.priority
                state = await self._client(target)._call("submit", item=wire_item)
            except Exception as exc:  # noqa: BLE001 - surface as a terminal outcome
                # The route still names the old node (where the query was
                # last known); the outcome is terminal either way.
                self._settle_entry(
                    entry,
                    _rejected_state(
                        entry.query_id,
                        entry.owner,
                        entry.sql,
                        f"relocation to node {target} failed: {exc}",
                    ),
                )
                return
            entry.node = target
            self.relocations += 1
            if make_resident:
                self.registry.mark_resident(entry)
            if not entry.terminal:
                if state.get("status") == "pending":
                    entry.status = PENDING
                else:
                    self._settle_entry(entry, state)
        finally:
            entry.relocating_to = None
            if not entry.submitted.done():
                entry.submitted.set_result(None)

    # -- operations: handshake ----------------------------------------------------------------

    def _fastop_hello(self, _connection: _AsyncConnection) -> dict[str, Any]:
        node0 = self._clients[0]
        config = dict((node0.server_info.get("config") or {}) if node0 else {})
        return {
            "server": "youtopia",
            "protocol": codec.PROTOCOL_VERSION,
            "config": config,
            "transport": "cluster-router",
            "cluster": self.placement.describe(),
        }

    # -- operations: submission ----------------------------------------------------------------

    async def _op_submit(
        self, connection: _AsyncConnection, item: Any = None
    ) -> dict[str, Any]:
        states = await self._route_and_submit(connection, [item], batch=False)
        return states[0]

    async def _op_submit_many(
        self, connection: _AsyncConnection, items: Any = None
    ) -> list[dict[str, Any]]:
        if not isinstance(items, list):
            raise ProtocolError("submit_many expects a list of submission items")
        return await self._route_and_submit(connection, items, batch=True)

    # -- operations: waiting / cancellation ----------------------------------------------------

    async def _wait_one(
        self, query_id: str, timeout: Optional[float]
    ) -> dict[str, Any]:
        entry = self.registry.get(query_id)
        if entry is None:
            raise QueryNotPendingError(query_id)
        if entry.final_state is None:
            try:
                if timeout is None:
                    state = await asyncio.shield(entry.done_future)
                else:
                    state = await asyncio.wait_for(
                        asyncio.shield(entry.done_future), timeout
                    )
            except asyncio.TimeoutError:
                self.router_timeouts += 1
                raise CoordinationTimeoutError(query_id, timeout) from None
        else:
            state = entry.final_state
        status = state.get("status")
        if status != "answered":
            raise EntanglementError(
                f"query {query_id!r} is {status}: {state.get('error') or ''}"
            )
        return state

    async def _op_wait(
        self, _connection: _AsyncConnection, query_id: str, timeout: Optional[float] = None
    ) -> dict[str, Any]:
        return await self._wait_one(query_id, timeout)

    async def _op_wait_many(
        self,
        _connection: _AsyncConnection,
        query_ids: Sequence[str],
        timeout: Optional[float] = None,
    ) -> list[dict[str, Any]]:
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        states = []
        for query_id in query_ids:
            remaining = None if deadline is None else max(deadline - loop.time(), 0.0)
            states.append(await self._wait_one(query_id, remaining))
        return states

    async def _op_cancel(self, _connection: _AsyncConnection, query_id: str) -> None:
        entry = self.registry.get(query_id)
        if entry is None:
            raise QueryNotPendingError(query_id)
        while entry.status in (SUBMITTING, RELOCATING):
            submitted = entry.submitted
            try:
                await asyncio.shield(submitted)
            except Exception:  # noqa: BLE001 - submission failed; node decides below
                break
        # Forward even when the entry looks terminal: the node raises the
        # authoritative typed error (already answered / not pending).
        await self._client(entry.node)._call("cancel", query_id=query_id)

    # -- operations: plain SQL -----------------------------------------------------------------

    def _read_client(self) -> _NodeClient:
        """Any live node can answer a read (base data is broadcast to all)."""
        for node in range(self.placement.node_count):
            client = self._clients[node]
            if client is not None and client._failure is None:
                return client
        return self._client(0)

    async def _op_query(self, _connection: _AsyncConnection, sql: str) -> dict[str, Any]:
        return await self._read_client()._call("query", sql=sql)

    async def _execute_statement(
        self, connection: _AsyncConnection, statement: ast.Statement, owner: Optional[str]
    ) -> Any:
        sql = format_statement(statement)
        if isinstance(statement, ast.EntangledSelect):
            states = await self._route_and_submit(
                connection, [{"sql": sql, "owner": owner}], batch=False
            )
            return {"kind": "handle", "state": states[0]}
        if isinstance(statement, ast.Select):
            result = await self._read_client()._call("query", sql=sql)
            return {"kind": "relation", "result": result}
        # DDL/DML changes base data that matching reads everywhere: broadcast
        # to every node, serialized so concurrent broadcasts cannot interleave
        # half-applied across the cluster.
        assert self._broadcast_lock is not None
        async with self._broadcast_lock:
            results = await asyncio.gather(
                *(
                    self._client(node)._call("execute", sql=sql, owner=owner)
                    for node in range(self.placement.node_count)
                )
            )
        return results[0]

    async def _op_execute(
        self, connection: _AsyncConnection, sql: str, owner: Optional[str] = None
    ) -> dict[str, Any]:
        return await self._execute_statement(connection, parse_statement(sql), owner)

    async def _op_execute_script(
        self, connection: _AsyncConnection, sql: str, owner: Optional[str] = None
    ) -> list[dict[str, Any]]:
        results: list[dict[str, Any]] = []
        for index, statement in enumerate(parse_script(sql)):
            try:
                results.append(
                    await self._execute_statement(connection, statement, owner)
                )
            except YoutopiaError as exc:
                raise ScriptError(index, format_statement(statement), exc) from exc
        return results

    async def _op_declare_answer_relation(
        self,
        _connection: _AsyncConnection,
        name: str,
        columns: Optional[Sequence[str]] = None,
        types: Optional[Sequence[str]] = None,
        arity: Optional[int] = None,
    ) -> None:
        await asyncio.gather(
            *(
                self._client(node)._call(
                    "declare_answer_relation",
                    name=name,
                    columns=columns,
                    types=types,
                    arity=arity,
                )
                for node in range(self.placement.node_count)
            )
        )

    # -- operations: answers / stats ------------------------------------------------------------

    async def _op_answers(
        self, _connection: _AsyncConnection, relation: str
    ) -> list[list[Any]]:
        # Answers land on whichever node matched the group; the union over
        # nodes is the cluster's answer relation.  A relation auto-created at
        # registration exists only on its home node, so nodes that have never
        # seen it contribute nothing — the relation is unknown to the cluster
        # only when *every* node says so.
        async def answers_of(node: int) -> list[list[Any]]:
            return await self._client(node)._call("answers", relation=relation)

        per_node = await asyncio.gather(
            *(answers_of(node) for node in range(self.placement.node_count)),
            return_exceptions=True,
        )
        merged: list[list[Any]] = []
        known = False
        unknown: Optional[BaseException] = None
        gaps = 0
        for rows in per_node:
            if isinstance(rows, BaseException):
                if isinstance(rows, EntanglementError):
                    unknown = unknown or rows
                    continue
                # A node unreachable mid-fan-out is a gap in the union, not a
                # failure of it: the reachable members' answers are still the
                # cluster's answers (stats reports the gap count).
                gaps += 1
                continue
            known = True
            merged.extend(rows)
        self.introspection_gaps += gaps
        if not known:
            if unknown is not None:
                raise unknown
            raise ServiceUnavailableError(
                f"no cluster node is reachable to serve answers for {relation!r}"
            )
        return merged

    async def _op_stats(self, _connection: _AsyncConnection) -> dict[str, Any]:
        async def stats_of(node: int) -> Optional[dict[str, Any]]:
            try:
                return await self._client(node)._call("stats")
            except Exception:  # noqa: BLE001 - a dead node must not break stats
                return None

        per_node = await asyncio.gather(
            *(stats_of(node) for node in range(self.placement.node_count))
        )
        unreachable = [node for node, stats in enumerate(per_node) if stats is None]
        self.introspection_gaps += len(unreachable)
        counters: dict[str, int] = {}
        pending = 0
        shards: list[dict[str, Any]] = []
        node_blocks: list[dict[str, Any]] = []
        matching: dict[str, Any] = {}
        match_policies: set[str] = set()
        tiering: dict[str, Any] = {"enabled": False}
        tiering_policies: set[str] = set()
        tiering_backends: set[str] = set()
        routed_counts = self.registry.counts_by_node(self.placement.node_count)
        for spec, stats in zip(self.placement.nodes, per_node):
            block: dict[str, Any] = {
                "index": spec.index,
                "address": spec.address,
                "shards": list(self.placement.shards_of(spec.index)),
                "routed_pending": routed_counts[spec.index],
                "reachable": stats is not None,
            }
            if stats is not None:
                for key, value in (stats.get("counters") or {}).items():
                    counters[key] = counters.get(key, 0) + int(value)
                pending += int(stats.get("pending", 0))
                for shard in stats.get("shards") or ():
                    shards.append({"node": spec.index, **shard})
                block["pending"] = int(stats.get("pending", 0))
                node_matching = stats.get("matching") or {}
                if node_matching:
                    policy = node_matching.get("policy")
                    if policy:
                        match_policies.add(str(policy))
                        block["match_policy"] = policy
                    for key, value in node_matching.items():
                        if key in ("policy", "candidate_limit"):
                            continue
                        if isinstance(value, bool) or not isinstance(value, (int, float)):
                            continue
                        matching[key] = matching.get(key, 0) + value
                    if "candidate_limit" in node_matching:
                        matching["candidate_limit"] = node_matching["candidate_limit"]
                node_tiering = stats.get("tiering") or {}
                if node_tiering.get("enabled"):
                    # Numeric tiering counters sum across nodes; policy and
                    # backend strings follow the "mixed" convention, and the
                    # derived latency average is recomputed from the sums.
                    tiering["enabled"] = True
                    if node_tiering.get("eviction_policy"):
                        tiering_policies.add(str(node_tiering["eviction_policy"]))
                    if node_tiering.get("backend"):
                        tiering_backends.add(str(node_tiering["backend"]))
                    for key, value in node_tiering.items():
                        if key in ("enabled", "eviction_policy", "backend", "avg_page_in_ms"):
                            continue
                        if isinstance(value, bool) or not isinstance(value, (int, float)):
                            continue
                        tiering[key] = tiering.get(key, 0) + value
                durability = stats.get("durability") or {}
                block["wal_last_lsn"] = durability.get("wal_last_lsn")
                block["wal_subscribers"] = durability.get("wal_subscribers")
            lag = await self._standby_lag(spec, block.get("wal_last_lsn"))
            if lag is not None:
                block["standby"] = lag
            node_blocks.append(block)
        counters["queries_rejected"] = (
            counters.get("queries_rejected", 0) + self.duplicate_rejections
        )
        counters["queries_timed_out"] = (
            counters.get("queries_timed_out", 0) + self.router_timeouts
        )
        cluster = {
            "role": "router",
            "node_count": self.placement.node_count,
            "shard_count": self.placement.shard_count,
            "residence": "per-signature",
            "nodes": node_blocks,
            "unreachable_nodes": unreachable,
            "routed_submits": self.routed_submits,
            "cross_node_submits": self.cross_node_submits,
            "relocations": self.relocations,
            "duplicate_rejections": self.duplicate_rejections,
            "failovers": self.failovers,
            "hot_relations": sorted(self.registry.hot_relations),
            "hot_nodes": {
                relation: self.registry.hot_nodes[relation]
                for relation in sorted(self.registry.hot_nodes)
            },
            "registered_queries": len(self.registry),
            "recovered_queries": self.recovered_queries,
            "resharded_relocations": self.resharded_relocations,
            "introspection_gaps": self.introspection_gaps,
        }
        if match_policies:
            # One policy across the fleet is the expected deployment; report
            # "mixed" (plus per-node blocks above) when nodes disagree.
            matching["policy"] = (
                next(iter(match_policies)) if len(match_policies) == 1 else "mixed"
            )
        if tiering["enabled"]:
            tiering["eviction_policy"] = (
                next(iter(tiering_policies)) if len(tiering_policies) == 1 else "mixed"
            )
            tiering["backend"] = (
                next(iter(tiering_backends)) if len(tiering_backends) == 1 else "mixed"
            )
            page_ins = tiering.get("page_ins") or 0
            tiering["avg_page_in_ms"] = (
                round(1000.0 * tiering.get("page_in_seconds", 0.0) / page_ins, 3)
                if page_ins
                else 0.0
            )
        return {
            "counters": counters,
            "pending": pending,
            "shards": shards,
            "durability": {"enabled": False},
            "transport": self.metrics.snapshot(),
            "cluster": cluster,
            "matching": matching,
            "tiering": tiering,
        }

    async def _standby_lag(
        self, spec: Any, wal_last_lsn: Optional[int]
    ) -> Optional[dict[str, Any]]:
        """Replication lag (in LSNs) of a node's standby, best effort."""
        if spec.standby is None:
            return None
        host, port = spec.standby
        lag: dict[str, Any] = {"address": f"{host}:{port}"}
        try:
            client = self._standby_stat_clients.get(spec.index)
            if client is None or client._failure is not None:
                client = await AsyncRemoteService.connect(host, port, connect_timeout=2.0)
                self._standby_stat_clients[spec.index] = client
            stats = await client._call("stats")
        except Exception:  # noqa: BLE001 - an absent standby is lag "unknown"
            lag["reachable"] = False
            return lag
        cluster = stats.get("cluster") or {}
        applied = cluster.get("applied_lsn")
        lag["reachable"] = True
        lag["applied_lsn"] = applied
        if wal_last_lsn is not None and applied is not None:
            lag["lag_lsns"] = max(int(wal_last_lsn) - int(applied), 0)
        return lag

    # -- operations: introspection ---------------------------------------------------------------

    async def _op_request(
        self, connection: _AsyncConnection, query_id: str
    ) -> dict[str, Any]:
        entry = self.registry.get(query_id)
        if entry is None:
            raise QueryNotPendingError(query_id)
        if entry.final_state is not None:
            return entry.final_state
        state = await self._client(entry.node)._call("request", query_id=query_id)
        return self._state_and_watch(connection, entry, state)

    def _synthesized_pending_state(self, entry: RoutedQuery) -> dict[str, Any]:
        return {
            "query_id": entry.query_id,
            "owner": entry.owner,
            "status": "pending",
            "error": None,
            "group": [],
            "registered_at": entry.registered_at,
            "answered_at": None,
            "sql": entry.sql,
            "description": "",
            "answer": None,
        }

    async def _op_requests(self, connection: _AsyncConnection) -> list[dict[str, Any]]:
        async def requests_of(node: int) -> list[dict[str, Any]]:
            try:
                return await self._client(node)._call("requests")
            except Exception:  # noqa: BLE001 - merged view over reachable nodes
                return []

        per_node = await asyncio.gather(
            *(requests_of(node) for node in range(self.placement.node_count))
        )
        by_location: dict[tuple[int, str], dict[str, Any]] = {}
        for node, states in enumerate(per_node):
            for state in states:
                by_location[(node, str(state.get("query_id")))] = state
        merged: list[dict[str, Any]] = []
        for entry in self.registry.entries():
            if entry.final_state is not None:
                merged.append(entry.final_state)
                continue
            state = by_location.get((entry.node, entry.query_id))
            if state is None:
                # in flight between registries; present the router's view
                state = self._synthesized_pending_state(entry)
            merged.append(self._state_and_watch(connection, entry, state))
        return merged

    async def _op_pending_queries(
        self, _connection: _AsyncConnection
    ) -> list[dict[str, Any]]:
        async def pending_of(node: int) -> list[dict[str, Any]]:
            try:
                return await self._client(node)._call("pending_queries")
            except Exception:  # noqa: BLE001 - merged view over reachable nodes
                return []

        per_node = await asyncio.gather(
            *(pending_of(node) for node in range(self.placement.node_count))
        )
        by_location: dict[tuple[int, str], dict[str, Any]] = {}
        for node, items in enumerate(per_node):
            for item in items:
                by_location[(node, str(item.get("query_id")))] = item
        merged = []
        for entry in self.registry.live_entries():
            item = by_location.get((entry.node, entry.query_id))
            if item is None:
                item = {
                    "query_id": entry.query_id,
                    "owner": entry.owner,
                    "sql": entry.sql,
                    "description": "",
                }
            merged.append(item)
        return merged

    async def _op_retry_pending(self, _connection: _AsyncConnection) -> int:
        retried = await asyncio.gather(
            *(
                self._client(node)._call("retry_pending")
                for node in range(self.placement.node_count)
            )
        )
        return sum(int(count) for count in retried)

    async def _op_shutdown(self, _connection: _AsyncConnection) -> bool:
        # Stops the router only; member nodes keep running (they are owned
        # by their own processes, not by the gateway).
        return True

    # -- failover -------------------------------------------------------------------------------

    def _schedule_node_loss(self, node_index: int) -> None:
        if self._stopping or self._loop is None or node_index < 0:
            return
        self._loop.create_task(self._handle_node_loss(node_index))

    async def _handle_node_loss(self, node_index: int) -> None:
        """A node connection died: promote its standby or fail its queries."""
        if self._stopping:
            return
        spec = self.placement.nodes[node_index]
        affected = self.registry.pending_on_node(node_index)
        if spec.standby is None:
            for entry in affected:
                self._settle_entry(
                    entry,
                    _rejected_state(
                        entry.query_id,
                        entry.owner,
                        entry.sql,
                        f"cluster node {node_index} ({spec.address}) failed "
                        "and has no standby",
                    ),
                )
            return
        host, port = spec.standby
        try:
            client = await _NodeClient.connect(host, port, connect_timeout=self._connect_timeout)
            client.node_index = node_index
            await client._call("promote")
        except Exception as exc:  # noqa: BLE001 - failover itself failed
            for entry in affected:
                self._settle_entry(
                    entry,
                    _rejected_state(
                        entry.query_id,
                        entry.owner,
                        entry.sql,
                        f"cluster node {node_index} ({spec.address}) failed and its "
                        f"standby at {host}:{port} could not take over: {exc}",
                    ),
                )
            return
        client.router = self
        self._clients[node_index] = client
        self._standby_stat_clients.pop(node_index, None)
        self.failovers += 1
        for entry in affected:
            if entry.terminal:
                continue
            try:
                state = await client._call("request", query_id=entry.query_id)
            except Exception as exc:  # noqa: BLE001 - not replayed on the standby
                self._settle_entry(
                    entry,
                    _rejected_state(
                        entry.query_id,
                        entry.owner,
                        entry.sql,
                        f"lost in failover of node {node_index}: {exc}",
                    ),
                )
                continue
            if not entry.submitted.done():
                entry.submitted.set_result(None)
            if entry.terminal:
                # A push settled the entry while the re-request was in
                # flight; re-marking it pending here would resurrect a done
                # query, so the settled outcome stands.
                continue
            entry.status = PENDING
            if state.get("status") != "pending":
                self._settle_entry(entry, state)


class BackgroundClusterRouter(BackgroundAsyncServer):
    """A :class:`ClusterRouter` on its own event-loop thread.

    The synchronous ``start``/``stop``/``wait_stopped`` surface of
    :class:`~repro.service.aio.server.BackgroundAsyncServer`, for the CLI's
    ``router`` subcommand, tests and benchmarks.
    """

    def __init__(
        self,
        placement: PlacementMap,
        host: str = "127.0.0.1",
        port: int = 0,
        max_in_flight: int = DEFAULT_MAX_IN_FLIGHT,
        reshard: bool = False,
    ) -> None:
        super().__init__(
            server_factory=ClusterRouter,
            placement=placement,
            host=host,
            port=port,
            max_in_flight=max_in_flight,
            reshard=reshard,
        )
