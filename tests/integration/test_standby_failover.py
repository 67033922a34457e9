"""WAL-shipped standbys: replication equivalence, SIGKILL failover, promotion.

The acceptance bar mirrors the single-node crash-recovery harness: a primary
serving a live submission stream is SIGKILLed mid-stream, and **every query
it acknowledged** must be answerable on the promoted standby — answered
groups with their exact tuples, unanswered ones as pending that can still
coordinate.  The replication guarantee making this testable is ship-before-ack:
the primary's WAL appends deliver each record to every subscribed standby's
socket before the submit RPC returns.
"""

from __future__ import annotations

import gc
import threading
import time

import pytest

from test_crash_recovery import SCHEMA, ServerProcess, booking_sql
from service_conformance import wait_until
from repro.core.coordinator import QueryStatus
from repro.errors import ServiceUnavailableError
from repro.service import SystemConfig
from repro.service.aio import BackgroundAsyncServer
from repro.service.remote import RemoteService, codec
from repro.cluster import (
    BackgroundClusterRouter,
    NodeSpec,
    PlacementMap,
    StandbyServer,
    WalStream,
)


@pytest.fixture
def schema_file(tmp_path):
    path = tmp_path / "schema.sql"
    path.write_text(SCHEMA, encoding="utf-8")
    return path


def start_primary(tmp_path) -> tuple[BackgroundAsyncServer, RemoteService]:
    """An in-process primary with a WAL (shipping requires durability)."""
    primary = BackgroundAsyncServer(
        config=SystemConfig(seed=0, data_dir=tmp_path / "primary")
    )
    host, port = primary.start()
    client = RemoteService.connect(host, port)
    client.execute_script(SCHEMA)
    client.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return primary, client


class TestStandbyReplication:
    def test_standby_replays_primary_state(self, tmp_path):
        primary, client = start_primary(tmp_path)
        standby = StandbyServer(*primary.address)
        standby_address = standby.start()
        try:
            assert standby.wait_caught_up(10.0)
            client.submit(booking_sql("Elaine", "George"), owner="Elaine")
            client.submit(booking_sql("George", "Elaine"), owner="George")
            pending = client.submit(booking_sql("Kramer", "ghost"), owner="Kramer")

            replica = RemoteService.connect(*standby_address)
            primary_lsn = client.stats().durability["wal_last_lsn"]
            assert wait_until(
                lambda: replica.stats().cluster.get("applied_lsn") == primary_lsn
            )
            # replicated state is the primary's, record for record
            assert dict(replica.answers("Reservation")) == dict(
                client.answers("Reservation")
            )
            states = {handle.query_id: handle.status for handle in replica.requests()}
            assert states[pending.query_id] is QueryStatus.PENDING
            assert (
                sum(1 for status in states.values() if status is QueryStatus.ANSWERED)
                == 2
            )
            cluster = replica.stats().cluster
            assert cluster["role"] == "standby"
            assert cluster["following"] == f"{primary.address[0]}:{primary.address[1]}"
            replica.close()
        finally:
            standby.stop()
            client.close()
            primary.stop()

    def test_standby_is_read_only_until_promoted(self, tmp_path):
        primary, client = start_primary(tmp_path)
        standby = StandbyServer(*primary.address)
        standby_address = standby.start()
        try:
            assert standby.wait_caught_up(10.0)
            replica = RemoteService.connect(*standby_address)
            with pytest.raises(ServiceUnavailableError, match="read-only"):
                replica.submit(booking_sql("X", "Y"), owner="X")
            with pytest.raises(ServiceUnavailableError, match="read-only"):
                replica.execute("DELETE FROM Flights")
            # reads are the point of a replica
            assert replica.query("SELECT COUNT(*) FROM Flights").scalar() == 5
            assert replica.requests() == []
            replica.close()
        finally:
            standby.stop()
            client.close()
            primary.stop()

    def test_wal_subscribe_requires_durability(self):
        primary = BackgroundAsyncServer(config=SystemConfig(seed=0))
        primary.start()
        standby = StandbyServer(*primary.address)
        standby.start()
        try:
            with pytest.raises(ServiceUnavailableError, match="no write-ahead log"):
                standby.wait_caught_up(10.0)
        finally:
            standby.stop()
            primary.stop()


class TestWalShipping:
    def test_acked_record_is_already_on_the_standby_socket(self, tmp_path):
        """Ship-before-ack, deterministically: no read may wait for the record."""
        primary, client = start_primary(tmp_path)
        stream = WalStream(*primary.address)
        entered, release = threading.Event(), threading.Event()

        def hold_the_loop() -> None:
            entered.set()
            release.wait(10.0)

        try:
            stream.subscribe()
            sock = stream._sock
            sock.setblocking(False)
            # The primary's event loop is parked for the whole submit: a
            # record that still needs the loop to reach the socket cannot
            # be there when the submit returns.
            primary._loop.call_soon_threadsafe(hold_the_loop)
            assert entered.wait(5.0)
            try:
                # in-process, from this thread: no loop round trip orders the ack
                handle = primary.service.submit(booking_sql("A", "ghost"), owner="A")
                received = sock.recv(1 << 20)  # non-blocking: raises if nothing arrived
            finally:
                release.set()
            frames = []
            while len(received) >= 4:
                length = codec.decode_frame_length(received[:4])
                frames.append(codec.decode_frame_body(received[4 : 4 + length]))
                received = received[4 + length :]
            shipped = [
                frame["data"] for frame in frames if frame.get("push") == "wal"
            ]
            assert any(
                record["type"] == "submit"
                and record["data"]["query_id"] == handle.query_id
                for record in shipped
            )
        finally:
            stream.close()
            client.close()
            primary.stop()

    def test_disconnected_standby_is_dropped_and_primary_keeps_acking(self, tmp_path):
        primary, client = start_primary(tmp_path)
        standby = StandbyServer(*primary.address)
        standby.start()
        try:
            assert standby.wait_caught_up(10.0)
            assert client.stats().durability["wal_subscribers"] == 1
            standby.stop()  # closes the standby's log stream
            assert wait_until(
                lambda: primary.metrics.snapshot()["connections_open"] == 1
            )  # only this client is left
            handles = [
                client.submit(booking_sql(f"D{index}", "ghost"), owner=f"D{index}")
                for index in range(3)
            ]
            assert all(handle.status is QueryStatus.PENDING for handle in handles)
            assert client.stats().durability["wal_subscribers"] == 0
        finally:
            standby.stop()
            client.close()
            primary.stop()


class TestSigkillFailover:
    def test_promoted_standby_answers_every_acked_query(self, tmp_path, schema_file):
        """SIGKILL the primary mid-stream; the standby must own 100% of acks."""
        data_dir = tmp_path / "data"
        primary = ServerProcess(data_dir, script=schema_file)
        standby = StandbyServer("127.0.0.1", primary.port)
        standby_address = standby.start()
        client = None
        try:
            assert standby.wait_caught_up(30.0)
            client = primary.connect()
            client.declare_answer_relation(
                "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
            # a matched prefix whose tuples must survive byte-for-byte
            matched = {}
            for index in range(4):
                left, right = f"L{index}", f"R{index}"
                first = client.submit(booking_sql(left, right), owner=left)
                second = client.submit(booking_sql(right, left), owner=right)
                assert second.is_answered
                matched[first.query_id] = first.result(timeout=10.0)
                matched[second.query_id] = second.result(timeout=10.0)

            # ...then a live stream of never-matching submissions, killed mid-flow
            acked: list[str] = []
            stop = threading.Event()

            def stream() -> None:
                index = 0
                while not stop.is_set():
                    try:
                        handle = client.submit(
                            booking_sql(f"S{index}", f"ghost{index}"),
                            owner=f"S{index}",
                        )
                    except Exception:
                        return  # the kill landed; nothing after this was acked
                    acked.append(handle.query_id)
                    index += 1

            streamer = threading.Thread(target=stream)
            streamer.start()
            while len(acked) < 20:
                time.sleep(0.005)
            primary.sigkill()
            stop.set()
            streamer.join(timeout=30.0)
            assert not streamer.is_alive()
            assert len(acked) >= 20

            summary = standby.promote()
            assert summary["promoted"]
            assert summary["replay_errors"] == []

            replica = RemoteService.connect(*standby_address)
            states = {handle.query_id: handle for handle in replica.requests()}
            # 100% of acked queries are present with their acknowledged outcome
            for query_id, envelope in matched.items():
                handle = states[query_id]
                assert handle.status is QueryStatus.ANSWERED
                assert handle.result(timeout=5.0).tuples == envelope.tuples
            for query_id in acked:
                assert states[query_id].status is QueryStatus.PENDING

            # recovered pending queries still coordinate on the new primary
            partner = replica.submit(booking_sql("ghost0", "S0"), owner="ghost0")
            assert partner.is_answered
            assert wait_until(
                lambda: replica.request(acked[0]).status is QueryStatus.ANSWERED
            )

            # fresh ids on the promoted standby do not collide with replayed ones
            fresh = replica.submit(booking_sql("new", "nobody"), owner="new")
            assert fresh.query_id not in states
            replica.close()
        finally:
            standby.stop()
            if client is not None:
                client.close()
            primary.terminate()

    def test_promote_is_idempotent(self, tmp_path):
        primary, client = start_primary(tmp_path)
        standby = StandbyServer(*primary.address)
        standby.start()
        try:
            assert standby.wait_caught_up(10.0)
            client.submit(booking_sql("A", "ghost"), owner="A")
            primary.stop()
            first = standby.promote()
            second = standby.promote()
            assert first["promoted"] and second["promoted"]
            assert second["applied_lsn"] == first["applied_lsn"]
        finally:
            standby.stop()
            client.close()
            primary.stop()


class TestRouterFailover:
    def test_router_promotes_standby_and_resumes(self, tmp_path):
        """Node dies -> router promotes its standby and the cluster carries on."""
        primary = BackgroundAsyncServer(
            config=SystemConfig(seed=0, data_dir=tmp_path / "node0")
        )
        primary.start()
        standby = StandbyServer(*primary.address)
        standby_host, standby_port = standby.start()
        promote = standby.promote

        def promote_after_gc(*args, **kwargs):
            # a collection while the router awaits the promote must not
            # reclaim its failover task: the loop holds tasks only weakly
            time.sleep(0.05)  # until the router's failover sits in its await
            gc.collect()
            return promote(*args, **kwargs)

        standby.promote = promote_after_gc  # type: ignore[method-assign]
        placement = PlacementMap(
            [NodeSpec(0, *primary.address, standby=(standby_host, standby_port))]
        )
        router = BackgroundClusterRouter(placement)
        router.start()
        client = RemoteService.connect(*router.address)
        try:
            assert standby.wait_caught_up(10.0)
            client.execute_script(SCHEMA)
            client.declare_answer_relation(
                "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
            survivor = client.submit(booking_sql("A", "B"), owner="A")
            lonely = client.submit(booking_sql("C", "ghost"), owner="C")

            # the standby's lag is observable through the router before failover
            stats = client.stats()
            standby_block = stats.cluster["nodes"][0].get("standby")
            assert standby_block is not None
            assert standby_block["reachable"] is True

            primary.stop()
            assert wait_until(lambda: client.stats().cluster["failovers"] == 1, timeout=15.0)
            assert standby.promoted

            # pending queries survived and still coordinate through the router
            partner = client.submit(booking_sql("B", "A"), owner="B")
            assert partner.is_answered
            survivor.result(timeout=10.0)
            assert client.request(lonely.query_id).status is QueryStatus.PENDING
            assert client.query("SELECT COUNT(*) FROM Flights").scalar() == 5
        finally:
            client.close()
            router.stop()
            standby.stop()
            primary.stop()

    def test_node_loss_without_standby_rejects_its_queries(self):
        node = BackgroundAsyncServer(config=SystemConfig(seed=0))
        node.start()
        placement = PlacementMap([NodeSpec(0, *node.address)])
        router = BackgroundClusterRouter(placement)
        router.start()
        client = RemoteService.connect(*router.address)
        try:
            client.execute_script(SCHEMA)
            client.declare_answer_relation(
                "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
            doomed = client.submit(booking_sql("A", "ghost"), owner="A")
            node.stop()

            def rejected() -> bool:
                # until the loss handler runs, the router still forwards the
                # lookup to the dead node and surfaces its unavailability
                try:
                    return client.request(doomed.query_id).status is QueryStatus.REJECTED
                except ServiceUnavailableError:
                    return False

            assert wait_until(rejected, timeout=15.0)
            assert "no standby" in (client.request(doomed.query_id).error or "")
        finally:
            client.close()
            router.stop()
            node.stop()
