"""Router-side query registry and the cross-node residence rule.

Two queries that can coordinate with each other must live on the same node,
because nodes never gossip pending pools.  The rule the router enforces:

* a query whose signature maps to a single node goes to that **home node**;
* a query whose signature spans nodes goes to the **residence node of its
  signature** (:meth:`~repro.cluster.placement.PlacementMap.residence_node_for`,
  a CRC32 hash of the sorted signature — so residence load spreads over all
  members), and every relation it names becomes **hot at that node**;
* any later (or still-pending earlier) query touching a hot relation is also
  placed on the relation's hot node — earlier ones are *relocated* there
  (cancel on the home node, resubmit at residence) so the partners can meet.

Because residence is per-signature, hot relations form **groups**: resident
queries whose signatures overlap must share one node.  The registry keeps a
union-find over the live residents' signatures; each group's node is where
the *majority* of its members currently live (ties to the lowest index), so
a merge of two groups relocates the minority side and nothing else, and the
choice is stable as relocation proceeds.  On a router restart the groups are
rebuilt from where residents are actually found, not from the hash — reality
on the nodes, not the arithmetic, is authoritative after recovery.

All registry state is mutated only on the router's event loop, so the class
needs no locking of its own.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Any, Optional

#: RoutedQuery lifecycle: submitting → pending → (relocating → pending)* → done
SUBMITTING = "submitting"
PENDING = "pending"
RELOCATING = "relocating"
DONE = "done"


@dataclass
class RoutedQuery:
    """One query the router has accepted, wherever it currently lives."""

    query_id: str
    sql: str
    owner: str
    signature: frozenset[str]
    node: int
    status: str = SUBMITTING
    #: resolves once the owning node has acked the (re)submission
    submitted: asyncio.Future = field(default_factory=asyncio.Future)
    #: resolves with the terminal wire-state dict (answered/cancelled/rejected)
    done_future: asyncio.Future = field(default_factory=asyncio.Future)
    final_state: Optional[dict[str, Any]] = None
    registered_at: float = 0.0
    #: set while the query is pinned to residence by the hot-relation rule
    resident: bool = False
    #: optional per-query weight for the ``priority`` match policy; preserved
    #: across relocations (cancel + resubmit re-sends it on the wire)
    priority: Optional[float] = None
    #: the node a relocation is resubmitting to, while the RPC is in flight
    #: (``node`` keeps the old route until the resubmit succeeds, so a failed
    #: relocation never strands wait/cancel on a node that never saw the
    #: query; pushes from either side of the move are accepted meanwhile)
    relocating_to: Optional[int] = None

    @property
    def terminal(self) -> bool:
        return self.status == DONE


class QueryRegistry:
    """Every live and terminal query the router knows, plus the hot map.

    ``hot_nodes`` maps each hot relation to the node its residence group
    lives on: the union of the signatures of all *non-terminal* queries
    pinned to residence by the cross-node rule (``resident=True``), grouped
    by signature overlap.  It is recomputed from scratch on every change —
    registries hold at most the live working set, and correctness beats a
    clever incremental count here.
    """

    def __init__(self) -> None:
        self._entries: dict[str, RoutedQuery] = {}
        self.hot_nodes: dict[str, int] = {}

    @property
    def hot_relations(self) -> frozenset[str]:
        return frozenset(self.hot_nodes)

    def __contains__(self, query_id: str) -> bool:
        return query_id in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query_id: str) -> Optional[RoutedQuery]:
        return self._entries.get(query_id)

    def entries(self) -> list[RoutedQuery]:
        return list(self._entries.values())

    def live_entries(self) -> list[RoutedQuery]:
        return [entry for entry in self._entries.values() if not entry.terminal]

    def add(self, entry: RoutedQuery) -> None:
        if entry.query_id in self._entries:
            raise ValueError(f"query {entry.query_id!r} already registered")
        self._entries[entry.query_id] = entry
        if entry.resident:
            self._recompute_hot()

    def settle(self, query_id: str, state: dict[str, Any]) -> Optional[RoutedQuery]:
        """Record a terminal wire state; returns the entry if it transitioned."""
        entry = self._entries.get(query_id)
        if entry is None or entry.terminal:
            return None
        entry.status = DONE
        entry.final_state = state
        if not entry.done_future.done():
            entry.done_future.set_result(state)
        if entry.resident:
            self._recompute_hot()
        return entry

    def mark_resident(self, entry: RoutedQuery) -> None:
        if not entry.resident:
            entry.resident = True
            self._recompute_hot()

    def hot_target(self, signature: frozenset[str]) -> Optional[int]:
        """The node a signature must co-locate on, or ``None`` if nothing is hot.

        When a signature touches relations of more than one hot group (the
        query that will merge them), the pick is deterministic: the node of
        the lexicographically smallest hot relation.  The relocation pass
        then drags the other group over once this query is resident.
        """
        hits = sorted(relation for relation in signature if relation in self.hot_nodes)
        if not hits:
            return None
        return self.hot_nodes[hits[0]]

    def relocation_plan(self) -> list[tuple[RoutedQuery, int]]:
        """``(victim, target node)`` for every live query stranded off its hot node."""
        plan: list[tuple[RoutedQuery, int]] = []
        for entry in self._entries.values():
            if entry.terminal:
                continue
            target = self.hot_target(entry.signature)
            if target is not None and entry.node != target:
                plan.append((entry, target))
        return plan

    def pending_on_node(self, node: int) -> list[RoutedQuery]:
        return [
            entry
            for entry in self._entries.values()
            if not entry.terminal and entry.node == node
        ]

    def counts_by_node(self, node_count: int) -> list[int]:
        counts = [0] * node_count
        for entry in self._entries.values():
            if not entry.terminal and 0 <= entry.node < node_count:
                counts[entry.node] += 1
        return counts

    def _resident_groups(self) -> list[tuple[set[str], list[RoutedQuery]]]:
        """Union-find the live residents into overlap groups of (relations, members)."""
        residents = [
            entry
            for entry in self._entries.values()
            if entry.resident and not entry.terminal and entry.signature
        ]
        if not residents:
            return []
        parent: dict[str, str] = {}

        def find(relation: str) -> str:
            root = relation
            while parent[root] != root:
                root = parent[root]
            while parent[relation] != root:
                parent[relation], relation = root, parent[relation]
            return root

        for entry in residents:
            relations = sorted(entry.signature)
            for relation in relations:
                parent.setdefault(relation, relation)
            first = find(relations[0])
            for relation in relations[1:]:
                parent[find(relation)] = first
        relations_of: dict[str, set[str]] = {}
        for relation in parent:
            relations_of.setdefault(find(relation), set()).add(relation)
        members_of: dict[str, list[RoutedQuery]] = {}
        for entry in residents:
            members_of.setdefault(find(next(iter(entry.signature))), []).append(entry)
        return [(relations_of[root], members_of[root]) for root in relations_of]

    def _recompute_hot(self) -> None:
        """Rebuild ``hot_nodes`` from the live residents (union-find by overlap).

        Each group of overlapping resident signatures maps to one node.  The
        assignment is **sticky**: a group keeps the node a relation of its
        was already hot at (the lexicographically smallest such relation
        decides a merge of two groups deterministically).  A brand-new group
        gets the node where most of its members currently live (ties to the
        lowest index) — for a freshly routed cross-node signature that is the
        per-signature hashed residence; after a router restart it is wherever
        the residents were actually found.
        """
        new_hot: dict[str, int] = {}
        for relations, members in self._resident_groups():
            assigned = [
                self.hot_nodes[relation]
                for relation in sorted(relations)
                if relation in self.hot_nodes
            ]
            if assigned:
                node = assigned[0]
            else:
                counts: dict[int, int] = {}
                for entry in members:
                    counts[entry.node] = counts.get(entry.node, 0) + 1
                node = min(counts, key=lambda candidate: (-counts[candidate], candidate))
            for relation in relations:
                new_hot[relation] = node
        self.hot_nodes = new_hot

    def reset_residents(self, is_cross_node: Any) -> None:
        """Recompute every live entry's residence pin from first principles.

        ``is_cross_node(signature) -> bool`` decides which signatures are
        inherently cross-node under the *current* placement; residency then
        closes transitively over signature overlap (a single-node query
        entangled with a cross-node one must live with it).  Used by the
        reshard sweep, where a placement change can strand or free pins the
        incremental rule would never revisit.
        """
        live = [entry for entry in self._entries.values() if not entry.terminal]
        hot: set[str] = set()
        for entry in live:
            entry.resident = bool(entry.signature) and bool(is_cross_node(entry.signature))
            if entry.resident:
                hot |= entry.signature
        changed = True
        while changed:
            changed = False
            for entry in live:
                if not entry.resident and entry.signature & hot:
                    entry.resident = True
                    hot |= entry.signature
                    changed = True
        self.hot_nodes = {}
        self._recompute_hot()

    def rehash_hot(self, residence_node_for: Any) -> None:
        """Re-place every hot group at ``residence_node_for(group signature)``.

        The sticky rule then keeps these assignments while the relocation
        sweep drags members over — the reshard path's way of spreading
        residence groups over a changed node set.
        """
        new_hot: dict[str, int] = {}
        for relations, _members in self._resident_groups():
            node = residence_node_for(frozenset(relations))
            for relation in relations:
                new_hot[relation] = node
        self.hot_nodes = new_hot
