"""Unit tests for the administrative inspection interface."""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps.admin import AdminInterface
from repro.apps.cli import CommandLine
from repro.cluster import BackgroundClusterRouter, NodeSpec, PlacementMap
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.service.aio import BackgroundAsyncServer
from repro.service.remote import RemoteService

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
        assert "counters.queries_answered = 2" in text
        assert "-- service statistics --" in text
        assert "transport = {}" in text  # an in-process service has no request plane

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
                durability=base.durability,
                transport=metrics.snapshot(),
            ),
        )
        lines = admin.render_state().splitlines()
        for line in (
            "transport.connections_open = 1",
            "transport.connections_total = 1",
            "transport.requests_in_flight = 1",
            "transport.rejected_backpressure = 1",
            "transport.bytes_in = 120",
            "transport.bytes_out = 450",
        ):
            assert line in lines

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
        assert "cluster = {}" in admin.render_state().splitlines()

    def test_node_role_renders_key_values(self, admin):
        admin.service.cluster_info = {"role": "node", "node": 1, "node_count": 4}
        lines = admin.render_state().splitlines()
        assert "cluster.role = node" in lines
        assert "cluster.node = 1" in lines
        assert "cluster.node_count = 4" in lines

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
        lines = admin.render_state().splitlines()
        for line in (
            "cluster.role = router",
            "cluster.node_count = 2",
            "cluster.shard_count = 4",
            "cluster.residence = per-signature",
            "cluster.routed_submits = 7",
            "cluster.recovered_queries = 5",
            "cluster.introspection_gaps = 1",
            "cluster.hot_nodes.hotel = 1",
            "cluster.hot_relations.1 = reservation",
            "cluster.unreachable_nodes.0 = 1",
            "cluster.nodes.0.shards.1 = 2",
            "cluster.nodes.0.pending = 3",
            "cluster.nodes.0.standby.address = 127.0.0.1:7501",
            "cluster.nodes.0.standby.lag_lsns = 2",
            "cluster.nodes.1.address = 127.0.0.1:7402",
            "cluster.nodes.1.reachable = False",
        ):
            assert line in lines


# -- nothing lost: every stats key reaches both screens ----------------------------------------


def full_config(data_dir) -> SystemConfig:
    """Durable, tiered and policy-driven: every optional stats block is on."""
    return SystemConfig(
        seed=0,
        data_dir=str(data_dir),
        fsync_policy="always",
        match_policy="priority",
        pending_memory_limit=1,
        cold_store="sqlite",
    )


def park_and_match(service) -> None:
    """Park two unmatchable queries (one spills cold) and answer one pair."""
    service.execute_script(
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT);"
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris');"
    )
    service.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    for ghost in ("Newman", "Puddy"):
        service.submit(KRAMER_SQL.replace("'Jerry'", f"'{ghost}'"), owner="Kramer")
    service.submit(KRAMER_SQL, owner="Kramer")
    service.submit(JERRY_SQL, owner="Jerry").result(timeout=10.0)


def stats_paths(value, prefix: str):
    """Every dotted key inside one stats block, spelled out without the renderer."""
    yield prefix
    if isinstance(value, dict):
        for key, item in value.items():
            yield from stats_paths(item, f"{prefix}.{key}")
    elif isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            yield from stats_paths(item, f"{prefix}.{index}")


@pytest.fixture(params=["in-process", "router"])
def stats_screens(request, tmp_path, monkeypatch):
    """``(stats, admin render_state text, shell .stats text)`` for one deployment."""
    if request.param == "in-process":
        first = YoutopiaSystem(config=full_config(tmp_path))
        park_and_match(first.service())
        first.close()
        system = YoutopiaSystem(config=full_config(tmp_path))  # a recovery block too
        request.addfinalizer(system.close)
        stats = system.service().stats()
        yield stats, AdminInterface(system).render_state(), CommandLine(system).run_line(".stats")
        return
    nodes = [
        BackgroundAsyncServer(config=full_config(tmp_path / f"node{index}")) for index in range(2)
    ]
    for server in nodes:
        server.start()
    router = BackgroundClusterRouter(
        PlacementMap([NodeSpec(index, *server.address) for index, server in enumerate(nodes)])
    )
    router.start()
    client = RemoteService.connect(*router.address)
    try:
        park_and_match(client)
        stats = client.stats()
        admin = AdminInterface(YoutopiaSystem(config=SystemConfig(seed=0)))
        monkeypatch.setattr(admin.service, "stats", lambda: stats)
        yield stats, admin.render_state(), CommandLine(client).run_line(".stats")
    finally:
        client.close()
        router.stop()
        for server in nodes:
            server.stop()


def test_every_stats_key_appears_on_both_screens(stats_screens):
    stats, state, shell = stats_screens
    assert stats.durability["enabled"] and stats.tiering["enabled"]
    assert stats.matching["policy"] == "priority" and stats.tiering["cold"] >= 1
    assert stats.counters["groups_matched"] == 1
    for text in (state, shell):
        lines = text.splitlines()
        for field in dataclasses.fields(stats):
            for path in stats_paths(getattr(stats, field.name), field.name):
                assert any(line.startswith((f"{path} = ", f"{path}.")) for line in lines), path
