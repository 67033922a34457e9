"""Unit tests for the administrative inspection interface."""

from __future__ import annotations

import pytest

from repro.apps.admin import AdminInterface
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem

KRAMER_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)
JERRY_SQL = (
    "SELECT 'Jerry', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
)
ELAINE_SQL = (
    "SELECT 'Elaine', hid INTO ANSWER HotelReservation "
    "WHERE hid IN (SELECT hid FROM Hotels WHERE city = 'Paris') "
    "AND ('George', hid) IN ANSWER HotelReservation CHOOSE 1"
)


@pytest.fixture
def system() -> YoutopiaSystem:
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    system.execute_script(
        """
        CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);
        CREATE TABLE Hotels (hid INT PRIMARY KEY, city TEXT);
        INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris');
        INSERT INTO Hotels VALUES (7, 'Paris');
        """
    )
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    system.declare_answer_relation("HotelReservation", ["traveler", "hid"], ["TEXT", "INTEGER"])
    return system


@pytest.fixture
def admin(system) -> AdminInterface:
    return AdminInterface(system)


class TestPendingInspection:
    def test_describe_query_shows_ir_and_analysis(self, system, admin):
        request = system.execute(KRAMER_SQL, owner="Kramer")
        text = admin.describe_query(request.query_id)
        assert "Reservation('Kramer', fno)" in text
        assert "status       : pending" in text
        assert "safe         : True" in text

    def test_describe_answered_query_includes_group(self, system, admin):
        kramer = system.execute(KRAMER_SQL, owner="Kramer")
        system.execute(JERRY_SQL, owner="Jerry")
        text = admin.describe_query(kramer.query_id)
        assert "status       : answered" in text
        assert "group" in text

    def test_pending_queries_listing(self, system, admin):
        system.execute(KRAMER_SQL, owner="Kramer")
        assert len(admin.pending_queries()) == 1


class TestMatchGraph:
    def test_edge_between_compatible_pending_queries(self, system, admin):
        system.execute(KRAMER_SQL, owner="Kramer")
        system.execute(ELAINE_SQL, owner="Elaine")
        # Kramer (flight) and Elaine (hotel) cannot provide for each other
        assert admin.match_graph() == []
        assert "no potential matches" in admin.match_graph_text()

    def test_edge_for_matching_relations_but_failed_grounding(self, system, admin):
        # Different destinations: structurally compatible, no common flight.
        system.execute(KRAMER_SQL.replace("'Paris'", "'Rome'"), owner="Kramer")
        system.execute(JERRY_SQL, owner="Jerry")
        edges = admin.match_graph()
        assert len(edges) == 1
        assert edges[0].relations == ("Reservation",)
        assert "<->" in admin.match_graph_text()


class TestStateDump:
    def test_render_state_contains_all_sections(self, system, admin):
        system.execute(KRAMER_SQL, owner="Kramer")
        system.execute(JERRY_SQL, owner="Jerry")
        text = admin.render_state()
        assert "== Youtopia system state ==" in text
        assert "Flights: 2 rows" in text
        assert "Reservation: 2 tuples" in text
        assert "queries_answered = 2" in text
        assert "-- transport --" in text
        assert "(no transport: in-process service)" in text

    def test_transport_section_renders_server_counters(self, admin, monkeypatch):
        # a service fronted by a network server reports transport counters
        from repro.service.api import ServiceStats
        from repro.service.metrics import TransportMetrics

        metrics = TransportMetrics()
        metrics.connection_opened()
        metrics.request_started()
        metrics.add_bytes_in(120)
        metrics.add_bytes_out(450)
        metrics.request_rejected()
        base = admin.service.stats()
        monkeypatch.setattr(
            admin.service,
            "stats",
            lambda: ServiceStats(
                counters=base.counters,
                pending=base.pending,
                shards=base.shards,
                durability=base.durability,
                transport=metrics.snapshot(),
            ),
        )
        text = admin.transport_text()
        assert "connections: open=1 total=1" in text
        assert "in_flight=1" in text
        assert "rejected_backpressure=1" in text
        assert "bytes_in=120" in text and "bytes_out=450" in text

    def test_answer_relation_text(self, system, admin):
        system.execute(KRAMER_SQL, owner="Kramer")
        system.execute(JERRY_SQL, owner="Jerry")
        text = admin.answer_relation_text("Reservation")
        assert "traveler" in text and "(2 rows)" in text

    def test_event_log_text(self, system, admin):
        system.execute(KRAMER_SQL, owner="Kramer")
        log = admin.event_log_text()
        assert "query_registered" in log
        assert len(admin.event_log(limit=1)) == 1

    def test_statistics_and_table_statistics(self, system, admin):
        system.execute(KRAMER_SQL, owner="Kramer")
        assert admin.statistics()["queries_registered"] == 1
        assert admin.table_statistics()["Flights"] == 2

    def test_explain_passthrough(self, admin):
        plan = admin.explain("SELECT fno FROM Flights WHERE dest = 'Paris'")
        assert "IndexLookup" in plan or "Filter" in plan


class TestClusterSection:
    def test_single_node_renders_placeholder(self, admin):
        assert admin.cluster_text() == "(no cluster: single-node deployment)"
        assert "-- cluster --" in admin.render_state()

    def test_node_role_renders_key_values(self, admin):
        admin.service.cluster_info = {"role": "node", "node": 1, "node_count": 4}
        text = admin.cluster_text()
        assert "role = node" in text
        assert "node = 1" in text
        assert "node_count = 4" in text

    def test_router_role_renders_topology_and_members(self, admin):
        admin.service.cluster_info = {
            "role": "router",
            "node_count": 2,
            "shard_count": 4,
            "residence": "per-signature",
            "routed_submits": 7,
            "cross_node_submits": 2,
            "relocations": 1,
            "duplicate_rejections": 0,
            "failovers": 1,
            "recovered_queries": 5,
            "resharded_relocations": 0,
            "introspection_gaps": 1,
            "unreachable_nodes": [1],
            "hot_relations": ["hotel", "reservation"],
            "hot_nodes": {"hotel": 1, "reservation": 1},
            "nodes": [
                {
                    "index": 0,
                    "address": "127.0.0.1:7401",
                    "shards": [0, 2],
                    "pending": 3,
                    "routed_pending": 3,
                    "wal_last_lsn": 41,
                    "reachable": True,
                    "standby": {
                        "address": "127.0.0.1:7501",
                        "reachable": True,
                        "lag_lsns": 2,
                    },
                },
                {"index": 1, "address": "127.0.0.1:7402", "reachable": False},
            ],
        }
        text = admin.cluster_text()
        assert "role = router" in text
        assert "topology: nodes=2 shards=4 residence=per-signature" in text
        assert "routed=7 cross_node=2 relocations=1" in text
        assert "recovery: recovered=5 resharded=0 introspection_gaps=1" in text
        assert "hot relations: hotel@1, reservation@1" in text
        assert "unreachable nodes: 1" in text
        assert "node 0 @ 127.0.0.1:7401: shards=[0, 2] pending=3" in text
        assert "standby@127.0.0.1:7501 lag=2 lsns" in text
        assert "node 1 @ 127.0.0.1:7402: UNREACHABLE" in text
