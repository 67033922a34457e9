"""Transport-transparency of the asyncio network plane.

Three certifications of :class:`~repro.service.aio.AsyncCoordinationServer`:

* the full conformance suite (``tests/service_conformance.py``) through the
  **async-adapter runner** — an
  :class:`~repro.service.aio.AsyncRemoteService` connection bridged back to
  the synchronous scenario surface by
  :class:`~repro.service.aio.bridge.BridgedService`;
* **the synchronous client** — :class:`~repro.service.remote.RemoteService`
  (``BridgedService.connect``) runs a slice of the conformance scenarios
  against the server;
* **async-transport properties**: the 1-frame-per-batch invariant,
  push-driven (non-polling) awaits, shutdown-mid-await fail-fast, bounded
  in-flight backpressure, and transport metrics across the wire.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from service_conformance import (
    JERRY_SQL,
    KRAMER_SQL,
    SETUP,
    BatchConformance,
    ConcurrencyConformance,
    IntrospectionConformance,
    PlainQueryConformance,
    PolicyConformance,
    SubmissionConformance,
    fresh_owner,
    pair_sql,
    unmatchable_sql,
    wait_until,
)
from repro.errors import (
    CoordinationTimeoutError,
    QueryNotPendingError,
    ServiceUnavailableError,
)
from repro.service import RemoteService, SubmitRequest, SystemConfig
from repro.service.aio import (
    AsyncRemoteHandle,
    AsyncRemoteService,
    BackgroundAsyncServer,
    BridgedService,
)


def start_stack(config: SystemConfig = SystemConfig(seed=0), **server_kwargs):
    """A started asyncio server plus one bridged async client."""
    server = BackgroundAsyncServer(config=config, **server_kwargs)
    host, port = server.start()
    client = RemoteService.connect(host, port)
    return server, client


@pytest.fixture
def server_and_service():
    server, client = start_stack()
    client.execute_script(SETUP)
    client.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    yield server, client
    client.close()
    server.stop()


@pytest.fixture
def service(server_and_service):
    _server, client = server_and_service
    return client


# -- the transport-agnostic suite, asyncio flavour ---------------------------------------------


class TestAsyncRemoteSubmission(SubmissionConformance):
    pass


class TestAsyncRemoteBatchSubmission(BatchConformance):
    pass


class TestAsyncRemotePlainQueries(PlainQueryConformance):
    pass


class TestAsyncRemoteIntrospection(IntrospectionConformance):
    pass


class TestAsyncRemoteConcurrency(ConcurrencyConformance):
    pass


class TestAsyncRemotePolicy(PolicyConformance):
    pass


# -- the synchronous client against the asyncio server ----------------------------------------


@pytest.fixture
def sync_client_stack():
    server = BackgroundAsyncServer(config=SystemConfig(seed=0))
    host, port = server.start()
    client = RemoteService.connect(host, port)
    client.execute_script(SETUP)
    client.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    yield server, client
    client.close()
    server.stop()


class TestSyncClientInterop:
    """The synchronous client, built with ``RemoteService.connect``."""

    @pytest.fixture
    def service(self, sync_client_stack):
        _server, client = sync_client_stack
        return client

    # a representative slice of the conformance behaviours over the sync client
    test_submit = SubmissionConformance.test_submit_returns_future_style_handle
    test_result = SubmissionConformance.test_result_returns_answer_envelope
    test_callback = SubmissionConformance.test_done_callback_fires_on_answer
    test_batch = BatchConformance.test_submit_many_answers_cross_referencing_pair
    test_duplicate = BatchConformance.test_duplicate_batch_handle_is_terminal_and_self_contained
    test_plain = PlainQueryConformance.test_relation_result_scalar_and_iteration
    test_introspection = IntrospectionConformance.test_requests_pending_and_retry
    test_policy_priority = PolicyConformance.test_priority_round_trips_to_pending_pool
    test_policy_stats = PolicyConformance.test_stats_expose_matching_policy_and_decisions

    def test_one_frame_per_batch_from_sync_client(self, sync_client_stack):
        _server, client = sync_client_stack
        requests = []
        for _ in range(10):
            left, right = fresh_owner("ia"), fresh_owner("ib")
            requests.append(SubmitRequest(sql=pair_sql(left, right), owner=left))
            requests.append(SubmitRequest(sql=pair_sql(right, left), owner=right))
        before = client.frames_sent
        handles = client.submit_many(requests)
        assert client.frames_sent == before + 1
        assert all(handle.is_answered for handle in handles)

    def test_typed_errors_cross_the_asyncio_server(self, sync_client_stack):
        _server, client = sync_client_stack
        with pytest.raises(QueryNotPendingError) as excinfo:
            client.cancel("does-not-exist")
        assert excinfo.value.query_id == "does-not-exist"
        handle = client.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("it"))))
        with pytest.raises(CoordinationTimeoutError) as timeout_info:
            client.wait(handle.query_id, timeout=0.05)
        assert timeout_info.value.timeout == pytest.approx(0.05)


# -- async-transport properties ------------------------------------------------------------------


class TestAsyncTransportShape:
    def test_submit_many_uses_one_frame_per_batch(self, server_and_service):
        """The 1-frame-per-batch invariant holds on the asyncio client."""
        _server, bridged = server_and_service
        requests = []
        for _ in range(20):
            left, right = fresh_owner("fa"), fresh_owner("fb")
            requests.append(SubmitRequest(sql=pair_sql(left, right), owner=left))
            requests.append(SubmitRequest(sql=pair_sql(right, left), owner=right))
        client: AsyncRemoteService = bridged.aservice
        before = client.frames_sent
        handles = bridged.submit_many(requests)
        assert client.frames_sent == before + 1
        assert len(handles) == 40
        assert all(handle.is_answered for handle in handles)

    def test_await_is_push_driven_not_polled(self, server_and_service):
        """No frames leave the client while a handle waits for its push."""
        _server, bridged = server_and_service
        client: AsyncRemoteService = bridged.aservice
        kramer = bridged.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))

        def submit_partner() -> None:
            time.sleep(0.05)
            bridged.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))

        partner = threading.Thread(target=submit_partner)
        partner.start()
        before = client.frames_sent
        envelope = kramer.result(timeout=5.0)
        partner.join(timeout=5.0)
        # exactly one frame was written while result() waited: the partner's
        # submit — the result itself arrived as a push notification.
        assert client.frames_sent == before + 1
        assert envelope.owner == "Kramer"

    def test_transport_metrics_cross_the_wire(self, server_and_service):
        server, bridged = server_and_service
        bridged.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("tm"))))
        stats = bridged.stats()
        transport = dict(stats.transport)
        assert transport["connections_open"] == 1
        assert transport["connections_total"] == 1
        assert transport["requests_total"] >= 3  # setup script + declare + submit
        assert transport["bytes_in"] > 0 and transport["bytes_out"] > 0
        assert transport["rejected_backpressure"] == 0
        # the server-side object agrees with the wire snapshot
        assert server.metrics.snapshot()["connections_open"] == 1

    def test_two_async_clients_coordinate_through_one_server(self, server_and_service):
        server, first = server_and_service
        host, port = server.address
        second = RemoteService.connect(host, port)
        try:
            kramer = first.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
            jerry = second.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
            assert jerry.is_answered
            envelope = kramer.result(timeout=5.0)
            assert set(envelope.group) == {kramer.query_id, jerry.query_id}
        finally:
            second.close()

    def test_watches_deduplicate_per_connection(self, server_and_service):
        server, bridged = server_and_service
        handle = bridged.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("wd"))))
        for _ in range(5):
            bridged.request(handle.query_id)
            bridged.requests()
        registered = server.service.coordinator._done_callbacks.get(handle.query_id, [])
        assert len(registered) == 1


class TestBackpressure:
    """Bounded in-flight concurrency: excess requests are rejected, typed."""

    def test_requests_over_the_budget_are_rejected(self):
        server, bridged = start_stack(max_in_flight=2)
        try:
            bridged.execute_script(SETUP)
            bridged.declare_answer_relation(
                "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
            handle = bridged.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("bp"))))
            client: AsyncRemoteService = bridged.aservice

            async def occupy_and_overflow():
                # two server-side waits occupy the whole in-flight budget ...
                waits = [
                    asyncio.ensure_future(client.wait(handle.query_id, timeout=0.6))
                    for _ in range(2)
                ]
                await asyncio.sleep(0.2)  # both waits are now in flight server-side
                # ... so the next budgeted request bounces with a typed
                # rejection (query is executor-dispatched, hence budgeted)
                with pytest.raises(ServiceUnavailableError) as excinfo:
                    await client.query("SELECT COUNT(*) FROM Flights")
                assert "backpressure" in str(excinfo.value)
                # fast-path reads are exempt: monitoring keeps working under
                # overload (they complete inline, they cannot accumulate)
                assert (await client.stats()).pending == 1
                # the budget frees again once the waits expire server-side
                with pytest.raises(CoordinationTimeoutError):
                    await asyncio.gather(*waits)

            bridged.run(occupy_and_overflow())
            assert server.metrics.snapshot()["rejected_backpressure"] >= 1
            # post-rejection the connection is healthy and the counter crossed
            assert wait_until(
                lambda: dict(bridged.stats().transport)["rejected_backpressure"] >= 1
            )
        finally:
            bridged.close()
            server.stop()


class TestFailureSemantics:
    """Server loss mid-await: fail fast, never hang."""

    def test_server_shutdown_fails_awaiting_handle_fast(self, server_and_service):
        server, bridged = server_and_service
        handle = bridged.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("sd"))))
        outcome: dict[str, object] = {}

        def wait_on_handle() -> None:
            try:
                handle.result(timeout=30.0)
                outcome["result"] = "answered"
            except ServiceUnavailableError as exc:
                outcome["result"] = exc

        waiter = threading.Thread(target=wait_on_handle)
        waiter.start()
        time.sleep(0.05)
        server.stop()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive(), "await hung after server shutdown"
        assert isinstance(outcome["result"], ServiceUnavailableError)

    def test_server_shutdown_fails_wait_rpc_fast(self, server_and_service):
        server, bridged = server_and_service
        handle = bridged.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("sw"))))
        outcome: dict[str, object] = {}

        def wait_rpc() -> None:
            try:
                bridged.wait(handle.query_id, timeout=30.0)
                outcome["result"] = "answered"
            except ServiceUnavailableError as exc:
                outcome["result"] = exc

        waiter = threading.Thread(target=wait_rpc)
        waiter.start()
        time.sleep(0.05)
        server.stop()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive(), "wait() hung after server shutdown"
        assert isinstance(outcome["result"], ServiceUnavailableError)

    def test_server_shutdown_fires_done_callbacks_with_failure(self, server_and_service):
        server, bridged = server_and_service
        handle = bridged.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("sc"))))
        fired: list[str] = []
        handle.add_done_callback(lambda h: fired.append(h.query_id))
        server.stop()
        assert wait_until(lambda: fired == [handle.query_id])
        assert not handle.done()  # the query never reached a terminal state

    def test_rpcs_after_shutdown_raise_service_unavailable(self, server_and_service):
        server, bridged = server_and_service
        server.stop()
        wait_until(lambda: bridged.aservice._failure is not None)
        with pytest.raises(ServiceUnavailableError):
            bridged.stats()
        with pytest.raises(ServiceUnavailableError):
            bridged.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))

    def test_client_close_fails_pending_handles(self, server_and_service):
        _server, bridged = server_and_service
        handle = bridged.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("cl"))))
        bridged.run(bridged.aservice.close())
        with pytest.raises(ServiceUnavailableError):
            handle.result(timeout=5.0)

    def test_remote_shutdown_op_stops_the_server(self, server_and_service):
        server, bridged = server_and_service
        bridged.run(bridged.aservice.shutdown_server())
        assert server.wait_stopped(timeout=5.0)
        wait_until(lambda: bridged.aservice._failure is not None)
        with pytest.raises(ServiceUnavailableError):
            bridged.stats()

    def test_connect_to_dead_port_raises_service_unavailable(self):
        probe = BackgroundAsyncServer(config=SystemConfig(seed=0))
        host, port = probe.start()
        probe.stop()
        with pytest.raises(ServiceUnavailableError):
            RemoteService.connect(host, port, connect_timeout=0.5)


class TestHandleRegistry:
    def test_terminal_handles_leave_the_client_registry(self, server_and_service):
        _server, bridged = server_and_service
        client: AsyncRemoteService = bridged.aservice
        kramer = bridged.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        assert kramer.query_id in client._handles
        bridged.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        kramer.result(timeout=5.0)
        assert wait_until(lambda: kramer.query_id not in client._handles)

    def test_execute_script_routes_relations_and_handles(self, server_and_service):
        _server, bridged = server_and_service
        results = bridged.run(
            bridged.aservice.execute_script(
                "SELECT COUNT(*) FROM Flights; " + unmatchable_sql(fresh_owner("xs"))
            )
        )
        assert results[0].scalar() == 3
        assert isinstance(results[1], AsyncRemoteHandle)
        assert not results[1].done()


class TestBridgedService:
    def test_bridge_requires_exactly_one_construction_path(self):
        with pytest.raises(ValueError):
            BridgedService()


class TestServerResourceLifecycle:
    def test_stop_releases_executor_but_not_a_caller_provided_service(self):
        """The dispatch pool is server-owned; the wrapped service is not."""
        from repro.service import InProcessService

        service = InProcessService(config=SystemConfig(seed=0))
        server = BackgroundAsyncServer(service=service)
        host, port = server.start()
        bridged = RemoteService.connect(host, port)
        bridged.execute_script(SETUP)  # forces executor threads to spawn
        bridged.close()
        server.stop()
        # the server's 'youtopia-aio' executor threads wind down ...
        assert wait_until(
            lambda: not any(
                thread.name.startswith("youtopia-aio")
                for thread in threading.enumerate()
                if thread.is_alive()
            )
        )
        # ... while the provided service stays open and usable
        assert service.query("SELECT COUNT(*) FROM Flights").scalar() == 3
        service.close()
