"""Unit tests for the cluster placement map and signature extraction."""

from __future__ import annotations

import itertools
import zlib

import pytest

from repro.core.compiler import compile_entangled
from repro.cluster import NodeSpec, PlacementMap, extract_signature
from repro.cluster.placement import (
    node_for_relation,
    relation_signature,
    shard_for_relation,
)

KRAMER_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)

CROSS_SQL = (
    "SELECT 'multi', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('solo', fno) IN ANSWER Hotel CHOOSE 1"
)

#: SQL corpus the fast regex scan must agree with the compiler on.
CORPUS = [
    KRAMER_SQL,
    CROSS_SQL,
    # lower-cased keywords
    KRAMER_SQL.replace("ANSWER", "answer").replace("SELECT", "select"),
    # three distinct relations
    (
        "SELECT 'a', fno INTO ANSWER Cab "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        "AND ('b', fno) IN ANSWER Hotel "
        "AND ('c', fno) IN ANSWER Reservation CHOOSE 1"
    ),
]


class TestRouting:
    def test_shard_for_relation_stable_and_case_insensitive(self):
        assert shard_for_relation("Reservation", 4) == shard_for_relation("reservation", 4)
        assert shard_for_relation("Reservation", 4) == shard_for_relation("Reservation", 4)
        assert 0 <= shard_for_relation("Reservation", 4) < 4

    def test_relation_signature_covers_heads_and_constraints(self):
        query = compile_entangled(
            "SELECT 'a', fno INTO ANSWER ResA "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            "AND ('b', fno) IN ANSWER ResB CHOOSE 1"
        )
        assert relation_signature(query) == frozenset({"resa", "resb"})

    def test_node_placement_is_crc32_of_the_lowercased_name(self) -> None:
        # A restarted router must place every relation where it did before.
        for relation in ("Reservation", "hotel", "CAB", "Booking7"):
            crc = zlib.crc32(relation.lower().encode("utf-8"))
            assert shard_for_relation(relation, 6) == crc % 6
            assert node_for_relation(relation, 3, 6) == (crc % 6) % 3
            assert node_for_relation(relation, 2) == crc % 2


class TestExtractSignature:
    @pytest.mark.parametrize("sql", CORPUS)
    def test_agrees_with_compiled_signature(self, sql: str) -> None:
        assert extract_signature(sql) == relation_signature(compile_entangled(sql))

    def test_string_literals_cannot_forge_relations(self) -> None:
        sql = KRAMER_SQL.replace("'Paris'", "'IN ANSWER Hotel'")
        assert extract_signature(sql) == frozenset({"reservation"})

    def test_doubled_quote_escape_inside_literal(self) -> None:
        sql = KRAMER_SQL.replace("'Paris'", "'O''ANSWER Hotel'")
        assert extract_signature(sql) == frozenset({"reservation"})

    def test_garbage_sql_routes_as_empty_signature(self) -> None:
        assert extract_signature("not sql at all") == frozenset()


class TestNodeSpec:
    def test_parse_host_port(self) -> None:
        spec = NodeSpec.parse(2, "127.0.0.1:7001")
        assert (spec.index, spec.host, spec.port) == (2, "127.0.0.1", 7001)
        assert spec.address == "127.0.0.1:7001"
        assert spec.standby is None

    def test_parse_with_standby(self) -> None:
        spec = NodeSpec.parse(0, "127.0.0.1:7001", standby="127.0.0.1:7101")
        assert spec.standby == ("127.0.0.1", 7101)

    @pytest.mark.parametrize("bad", ["7001", "host:", "::", "host:port"])
    def test_parse_rejects_malformed(self, bad: str) -> None:
        with pytest.raises(ValueError, match="HOST:PORT"):
            NodeSpec.parse(0, bad)

    def test_parse_rejects_malformed_standby(self) -> None:
        with pytest.raises(ValueError, match="standby"):
            NodeSpec.parse(0, "h:1", standby="nope")


def _nodes(count: int) -> list[NodeSpec]:
    return [NodeSpec(i, "127.0.0.1", 7000 + i) for i in range(count)]


class TestPlacementMap:
    def test_requires_contiguous_indices(self) -> None:
        with pytest.raises(ValueError, match="indices"):
            PlacementMap([NodeSpec(1, "h", 1), NodeSpec(0, "h", 2)])

    def test_requires_nodes(self) -> None:
        with pytest.raises(ValueError, match="at least one node"):
            PlacementMap([])

    def test_shard_count_must_divide(self) -> None:
        with pytest.raises(ValueError, match="multiple"):
            PlacementMap(_nodes(3), shard_count=4)

    def test_defaults_shard_count_to_node_count(self) -> None:
        assert PlacementMap(_nodes(3)).shard_count == 3

    def test_node_routing_matches_core_arithmetic(self) -> None:
        placement = PlacementMap(_nodes(4), shard_count=8)
        for relation in ("reservation", "hotel", "cab", "train"):
            assert placement.node_for_relation(relation) == node_for_relation(
                relation, 4, 8
            )

    def test_single_relation_signature_routes_to_home_node(self) -> None:
        placement = PlacementMap(_nodes(3))
        home = placement.node_for_relation("reservation")
        assert placement.node_for_signature(frozenset({"reservation"})) == home

    def test_cross_node_signature_routes_to_none(self) -> None:
        placement = PlacementMap(_nodes(3))
        relations = [f"rel{i}" for i in range(32)]
        first = placement.node_for_relation(relations[0])
        other = next(
            rel for rel in relations if placement.node_for_relation(rel) != first
        )
        signature = frozenset({relations[0], other})
        assert placement.node_for_signature(signature) is None

    def test_empty_signature_routes_to_node_zero(self) -> None:
        placement = PlacementMap(_nodes(3))
        assert placement.node_for_signature(frozenset()) == 0
        assert placement.residence_node_for(frozenset()) == 0

    def test_shards_partition_across_nodes(self) -> None:
        placement = PlacementMap(_nodes(2), shard_count=6)
        owned = [placement.shards_of(i) for i in range(2)]
        assert sorted(owned[0] + owned[1]) == list(range(6))
        assert not set(owned[0]) & set(owned[1])

    def test_residence_hash_matches_crc32_arithmetic(self) -> None:
        # The property the router relies on: residence_node_for IS the CRC32
        # of the sorted, lower-cased, '|'-joined signature, mod node count —
        # any independent party (tests, operators, a future router) computes
        # the same node.
        placement = PlacementMap(_nodes(3))
        for size in (1, 2, 3):
            for combo in itertools.combinations([f"rel{i}" for i in range(8)], size):
                signature = frozenset(combo)
                expected = (
                    zlib.crc32("|".join(sorted(signature)).encode("utf-8")) % 3
                )
                assert placement.residence_node_for(signature) == expected
                assert 0 <= placement.residence_node_for(signature) < 3

    def test_residence_hash_is_order_and_case_insensitive(self) -> None:
        placement = PlacementMap(_nodes(4), shard_count=8)
        assert placement.residence_node_for(
            frozenset({"Hotel", "CAB"})
        ) == placement.residence_node_for(frozenset({"cab", "hotel"}))

    def test_cross_node_signatures_spread_over_multiple_residence_nodes(self) -> None:
        # The point of per-signature residence: distinct cross-node
        # signatures must land on >= 2 distinct nodes, not pile onto node 0.
        placement = PlacementMap(_nodes(3))
        relations = [f"rel{i}" for i in range(64)]
        residences = set()
        for left, right in itertools.combinations(relations[:16], 2):
            signature = frozenset({left, right})
            if placement.node_for_signature(signature) is not None:
                continue  # single-home: the residence hash never applies
            residences.add(placement.residence_node_for(signature))
        assert len(residences) >= 2

    def test_split_keeps_shard_count_and_relation_shards(self) -> None:
        old = PlacementMap(_nodes(2), shard_count=12)
        new = old.split(_nodes(3))
        assert new.shard_count == 12
        assert new.node_count == 3
        # the invariant split() exists for: a relation's shard never moves
        for relation in ("reservation", "hotel", "cab", "train"):
            assert old.node_for_relation(relation) in range(2)
            assert new.node_for_relation(relation) in range(3)

    def test_split_rejects_incommensurable_node_count(self) -> None:
        old = PlacementMap(_nodes(2), shard_count=4)
        with pytest.raises(ValueError, match="multiple"):
            old.split(_nodes(3))  # 4 shards cannot project onto 3 nodes

    def test_moved_shards_are_exactly_the_reprojected_ones(self) -> None:
        old = PlacementMap(_nodes(2), shard_count=12)
        new = old.split(_nodes(3))
        moved = old.moved_shards(new)
        for shard in range(12):
            if shard % 2 != shard % 3:
                assert shard in moved
            else:
                assert shard not in moved
        # growing a cluster moves some shards but never all of them
        assert 0 < len(moved) < 12

    def test_moved_shards_requires_a_split_pair(self) -> None:
        old = PlacementMap(_nodes(2), shard_count=4)
        other = PlacementMap(_nodes(2), shard_count=8)
        with pytest.raises(ValueError, match="split"):
            old.moved_shards(other)

    def test_describe_is_json_shaped(self) -> None:
        placement = PlacementMap(
            [NodeSpec.parse(0, "127.0.0.1:7000", standby="127.0.0.1:7100"),
             NodeSpec.parse(1, "127.0.0.1:7001")]
        )
        summary = placement.describe()
        assert summary["node_count"] == 2
        assert summary["residence"] == "per-signature"
        assert summary["nodes"][0]["standby"] == "127.0.0.1:7100"
        assert summary["nodes"][1]["standby"] is None
        assert summary["nodes"][0]["shards"] == [0]
