"""Unit tests for the transport metrics block and its wire round trip."""

from __future__ import annotations

import threading

from repro.service.metrics import TransportMetrics


class TestTransportMetrics:
    def test_counters_track_lifecycles(self):
        metrics = TransportMetrics()
        metrics.connection_opened()
        metrics.connection_opened()
        metrics.connection_closed()
        metrics.request_started()
        metrics.request_started()
        metrics.request_finished()
        metrics.request_rejected()
        metrics.add_bytes_in(100)
        metrics.add_bytes_in(50)
        metrics.add_bytes_out(200)
        assert metrics.snapshot() == {
            "connections_open": 1,
            "connections_total": 2,
            "requests_in_flight": 1,
            "requests_total": 2,
            "bytes_in": 150,
            "bytes_out": 200,
            "rejected_backpressure": 1,
        }

    def test_snapshot_is_a_copy(self):
        metrics = TransportMetrics()
        snapshot = metrics.snapshot()
        metrics.connection_opened()
        assert snapshot["connections_open"] == 0

    def test_concurrent_updates_do_not_lose_counts(self):
        metrics = TransportMetrics()
        rounds = 500

        def hammer() -> None:
            for _ in range(rounds):
                metrics.request_started()
                metrics.add_bytes_in(1)
                metrics.request_finished()

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        snapshot = metrics.snapshot()
        assert snapshot["requests_total"] == 8 * rounds
        assert snapshot["bytes_in"] == 8 * rounds
        assert snapshot["requests_in_flight"] == 0


class TestThreadedServerMetrics:
    def test_threaded_server_populates_transport_stats(self):
        from repro.service import RemoteService, SystemConfig
        from repro.service.aio import BackgroundAsyncServer

        server = BackgroundAsyncServer(config=SystemConfig(seed=0))
        host, port = server.start()
        try:
            with RemoteService.connect(host, port) as client:
                client.query("SELECT 1")
                transport = dict(client.stats().transport)
                assert transport["connections_open"] == 1
                assert transport["connections_total"] == 1
                assert transport["requests_total"] >= 2  # hello + query + stats
                assert transport["bytes_in"] > 0 and transport["bytes_out"] > 0
                assert transport["rejected_backpressure"] == 0  # never rejects
        finally:
            server.stop()

    def test_connection_close_decrements_open_count(self):
        from repro.service import RemoteService, SystemConfig
        from repro.service.aio import BackgroundAsyncServer

        server = BackgroundAsyncServer(config=SystemConfig(seed=0))
        host, port = server.start()
        try:
            client = RemoteService.connect(host, port)
            assert server.metrics.snapshot()["connections_open"] == 1
            client.close()
            deadline = 50
            while server.metrics.snapshot()["connections_open"] and deadline:
                import time

                time.sleep(0.01)
                deadline -= 1
            assert server.metrics.snapshot()["connections_open"] == 0
            assert server.metrics.snapshot()["connections_total"] == 1
        finally:
            server.stop()
