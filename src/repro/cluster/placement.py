"""The static placement map: which member node owns which relation shard.

Placement is pure arithmetic — no catalog, no gossip: a relation's node is
:func:`node_for_relation` (CRC32 of the lower-cased name, modulo the shard
count, projected onto the node count), so every router, node and test
computes the same assignment independently, and a restarted router places
every relation exactly where it did before.

The router needs a query's relation signature *before* any node sees the
query.  Fully compiling entangled SQL at the gateway would put the whole
compiler on the hot path of every routed submission, so
:func:`extract_signature` reads the signature straight off the SQL text
(every entangled relation is introduced by the keyword ``ANSWER``), falling
back to the real compiler only when the scan finds nothing.  A conformance
test asserts the scan agrees with :func:`relation_signature` of the compiled
query across the test corpus.
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.core import ir


def relation_signature(query: ir.EntangledQuery) -> frozenset[str]:
    """The set of answer relations a query's entangled atoms reference.

    Heads and answer constraints both count: a head *provides* tuples of a
    relation, an answer constraint *requires* them, and matching pairs the
    two — so any potential partner shares at least one of these relations.
    """
    return frozenset(relation.lower() for relation in query.answer_relations())


def shard_for_relation(relation: str, shard_count: int) -> int:
    """Stable shard assignment for one relation (CRC32, not the salted hash)."""
    return zlib.crc32(relation.lower().encode("utf-8")) % shard_count


def node_for_relation(
    relation: str, node_count: int, shard_count: Optional[int] = None
) -> int:
    """Stable cluster-node assignment for one relation.

    Derived from :func:`shard_for_relation`: with ``shard_count`` a multiple
    of ``node_count`` (the cluster default is ``shard_count == node_count``),
    two relations on the same shard always land on the same node, which is
    what lets a grown cluster move whole shards (:meth:`PlacementMap.split`).
    """
    return shard_for_relation(relation, shard_count or node_count) % node_count


def route_signature_to_node(
    signature: frozenset[str], node_count: int, shard_count: Optional[int] = None
) -> Optional[int]:
    """The single cluster node owning a signature, or ``None`` for cross-node.

    An empty signature pins to node 0, a signature whose relations agree on
    one node routes there, and a signature spanning nodes returns ``None`` —
    the router's cross-node residence pass must own it.
    """
    if not signature:
        return 0
    nodes = {node_for_relation(relation, node_count, shard_count) for relation in signature}
    if len(nodes) == 1:
        return nodes.pop()
    return None


#: SQL string literals (with '' escapes) — stripped before the keyword scan so
#: a literal like 'IN ANSWER Hotel' cannot forge a routing relation.
_STRING_LITERAL = re.compile(r"'(?:[^']|'')*'")

#: Every entangled relation reference: INTO ANSWER R (a head) or IN ANSWER R
#: (an answer constraint).  Matching bare ``ANSWER <ident>`` covers both.
_ANSWER_RELATION = re.compile(r"\bANSWER\s+([A-Za-z_][A-Za-z0-9_]*)", re.IGNORECASE)


def extract_signature(sql: str) -> frozenset[str]:
    """The relation signature of entangled SQL, without compiling it.

    Returns the lower-cased set of relations named by ``ANSWER <relation>``
    clauses.  When the scan finds none (programmatic SQL shapes the regex
    does not anticipate), the real compiler decides; SQL the compiler rejects
    too routes as an empty signature — the target node re-compiles and raises
    the authoritative typed error.
    """
    found = _ANSWER_RELATION.findall(_STRING_LITERAL.sub("''", sql))
    if found:
        return frozenset(name.lower() for name in found)
    try:
        from repro.core.compiler import compile_entangled

        return relation_signature(compile_entangled(sql))
    except Exception:  # noqa: BLE001 - the node owns the authoritative error
        return frozenset()


@dataclass(frozen=True)
class NodeSpec:
    """One cluster member: its placement index, address, optional standby."""

    index: int
    host: str
    port: int
    standby: Optional[tuple[str, int]] = None

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(
        cls, index: int, spec: str, standby: Optional[str] = None
    ) -> "NodeSpec":
        """``"host:port"`` → :class:`NodeSpec` (the CLI's address syntax)."""
        host, _, port = spec.rpartition(":")
        if not host or not port.isdigit():
            raise ValueError(f"node address must be HOST:PORT, got {spec!r}")
        standby_address: Optional[tuple[str, int]] = None
        if standby:
            standby_host, _, standby_port = standby.rpartition(":")
            if not standby_host or not standby_port.isdigit():
                raise ValueError(f"standby address must be HOST:PORT, got {standby!r}")
            standby_address = (standby_host, int(standby_port))
        return cls(index=index, host=host, port=int(port), standby=standby_address)


class PlacementMap:
    """Signature→node routing over a fixed member list.

    ``shard_count`` defaults to the node count, making node routing the
    coarsest consistent view of shard routing; a larger multiple of the node
    count keeps finer shards while still agreeing on node boundaries.

    Cross-node signatures need a **residence node** where every entangled
    partner can meet, because nodes never share pending pools.  Residence is
    *per signature*: the sorted cross-node signature is hashed with the same
    CRC32 arithmetic that places single relations
    (:meth:`residence_node_for`), so residence load spreads over all members
    instead of piling onto node 0.  Two queries that can coordinate share at
    least one answer relation, and the router's hot-relation rule drags later
    arrivals to wherever the first cross-node signature landed —
    per-signature hashing only has to be *deterministic*, not globally
    unique, for partners to meet.
    """

    def __init__(self, nodes: Sequence[NodeSpec], shard_count: Optional[int] = None) -> None:
        if not nodes:
            raise ValueError("a placement map needs at least one node")
        self.nodes: tuple[NodeSpec, ...] = tuple(nodes)
        indices = [node.index for node in self.nodes]
        if indices != list(range(len(self.nodes))):
            raise ValueError(f"node indices must be 0..{len(self.nodes) - 1}, got {indices}")
        self.shard_count = shard_count or len(self.nodes)
        if self.shard_count % len(self.nodes) != 0:
            raise ValueError(
                f"shard_count ({self.shard_count}) must be a multiple of the "
                f"node count ({len(self.nodes)}) so shard and node routing agree"
            )

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    def node_for_relation(self, relation: str) -> int:
        return node_for_relation(relation, self.node_count, self.shard_count)

    def node_for_signature(self, signature: frozenset[str]) -> Optional[int]:
        """The single owning node, or ``None`` for a cross-node signature."""
        return route_signature_to_node(signature, self.node_count, self.shard_count)

    def residence_node_for(self, signature: frozenset[str]) -> int:
        """Where a cross-node (or empty) signature takes up residence.

        CRC32 of the sorted, ``|``-joined lower-cased signature, modulo the
        node count — the same arithmetic family as
        :func:`shard_for_relation`, applied to the whole
        signature so distinct cross-node signatures spread over all members.
        An empty signature (unparseable SQL the target node will reject with
        the authoritative error) pins to node 0.
        """
        if not signature:
            return 0
        key = "|".join(sorted(relation.lower() for relation in signature))
        return zlib.crc32(key.encode("utf-8")) % self.node_count

    def shards_of(self, node_index: int) -> tuple[int, ...]:
        """The relation shards a node owns (for observability/docs)."""
        return tuple(
            shard for shard in range(self.shard_count)
            if shard % self.node_count == node_index
        )

    def split(self, new_nodes: Sequence[NodeSpec]) -> "PlacementMap":
        """A map over more (or fewer) nodes that keeps every relation's shard.

        The resharding invariant: ``shard_count`` never changes, so a
        relation's *shard* is stable across the split and only the
        shard→node projection moves.  Guarded so a reshard can only happen
        when the old and new projections are commensurable — the inherited
        ``shard_count`` must be a multiple of the new node count — which
        bounds the relocation sweep to :meth:`moved_shards` instead of every
        relation in the cluster.
        """
        new_map = PlacementMap(new_nodes, shard_count=self.shard_count)
        return new_map

    def moved_shards(self, new_map: "PlacementMap") -> tuple[int, ...]:
        """Shards whose owning node differs between this map and ``new_map``.

        Only meaningful between maps sharing ``shard_count`` (the
        :meth:`split` invariant); a relation needs relocation after a
        reshard exactly when its shard appears here.
        """
        if new_map.shard_count != self.shard_count:
            raise ValueError(
                f"maps shard differently ({self.shard_count} vs "
                f"{new_map.shard_count}); moved_shards needs a split() pair"
            )
        return tuple(
            shard
            for shard in range(self.shard_count)
            if shard % self.node_count != shard % new_map.node_count
        )

    def describe(self) -> dict[str, Any]:
        """A JSON-safe summary (the ``cluster`` stats block's ``placement``)."""
        return {
            "node_count": self.node_count,
            "shard_count": self.shard_count,
            "residence": "per-signature",
            "nodes": [
                {
                    "index": node.index,
                    "address": node.address,
                    "shards": list(self.shards_of(node.index)),
                    "standby": None if node.standby is None else f"{node.standby[0]}:{node.standby[1]}",
                }
                for node in self.nodes
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlacementMap(nodes={self.node_count}, shards={self.shard_count})"
