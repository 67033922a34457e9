"""Transport-transparency: the conformance suite against a live server.

Runs every scenario class from ``tests/service_conformance.py`` — the same
classes the in-process service passes in
``tests/unit/service/test_service_api.py`` — against the synchronous
:class:`~repro.service.remote.RemoteService` client talking length-prefixed
JSON over TCP to an :class:`~repro.service.aio.AsyncCoordinationServer` on
localhost.  On top of that it checks the properties only a network
transport has, through the client's own synchronous surface: one frame per
batch, push-driven (non-polling) results, typed errors across the wire, and
fail-fast behaviour when the server goes away mid-wait.
"""

from __future__ import annotations

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
    ParseError,
    QueryAlreadyAnsweredError,
    QueryNotPendingError,
    ScriptError,
    ServiceUnavailableError,
)
from repro.service import (
    CoordinationService,
    InProcessService,
    IntrospectionService,
    RelationResult,
    SubmitRequest,
    SystemConfig,
)
from repro.service.aio import BackgroundAsyncServer, BridgedHandle
from repro.service.remote import RemoteService


def start_stack(config: SystemConfig = SystemConfig(seed=0)):
    """A started server plus one connected client (caller closes both)."""
    server = BackgroundAsyncServer(config=config)
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


# -- the transport-agnostic suite, remote flavour ---------------------------------------------


class TestRemoteSubmission(SubmissionConformance):
    pass


class TestRemoteBatchSubmission(BatchConformance):
    pass


class TestRemotePlainQueries(PlainQueryConformance):
    pass


class TestRemoteIntrospection(IntrospectionConformance):
    pass


class TestRemoteConcurrency(ConcurrencyConformance):
    pass


class TestRemotePolicy(PolicyConformance):
    pass


# -- remote-only properties -------------------------------------------------------------------


class TestTransportShape:
    def test_remote_service_satisfies_both_protocols(self, service):
        assert isinstance(service, CoordinationService)
        assert isinstance(service, IntrospectionService)

    def test_submit_many_uses_one_frame_per_batch(self, service):
        """A 40-query batch crosses the wire as a single request frame."""
        requests = []
        for _ in range(20):
            left, right = fresh_owner("fa"), fresh_owner("fb")
            requests.append(SubmitRequest(sql=pair_sql(left, right), owner=left))
            requests.append(SubmitRequest(sql=pair_sql(right, left), owner=right))
        before = service.frames_sent
        handles = service.submit_many(requests)
        assert service.frames_sent == before + 1
        assert len(handles) == 40
        assert all(handle.is_answered for handle in handles)

    def test_batched_answers_identical_to_in_process(self, service):
        """The same batch through both transports books identical pairs."""
        pairs = [(f"wire-a{i}", f"wire-b{i}") for i in range(10)]
        requests = []
        for left, right in pairs:
            requests.append(SubmitRequest(sql=pair_sql(left, right), owner=left))
            requests.append(SubmitRequest(sql=pair_sql(right, left), owner=right))

        service.submit_many(requests)
        remote_answers = sorted(service.answers("Reservation"))

        inprocess = InProcessService(config=SystemConfig(seed=0))
        inprocess.execute_script(SETUP)
        inprocess.declare_answer_relation(
            "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        inprocess.submit_many(requests)
        assert sorted(inprocess.answers("Reservation")) == remote_answers

    def test_result_is_push_driven_not_polled(self, service):
        """Waiting on a handle sends no frames; the answer is server push."""
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))

        def submit_partner() -> None:
            time.sleep(0.05)
            service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))

        partner = threading.Thread(target=submit_partner)
        partner.start()
        before = service.frames_sent
        envelope = kramer.result(timeout=5.0)
        partner.join(timeout=5.0)
        # exactly one frame was written while result() blocked: the partner's
        # submit — result() itself is woken by the push notification.
        assert service.frames_sent == before + 1
        assert envelope.owner == "Kramer"

    def test_handles_survive_for_other_clients_submissions(self, server_and_service):
        """Two clients of one server coordinate with each other."""
        server, first = server_and_service
        host, port = server.address
        with RemoteService.connect(host, port) as second:
            kramer = first.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
            jerry = second.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
            assert jerry.is_answered
            envelope = kramer.result(timeout=5.0)
            assert set(envelope.group) == {kramer.query_id, jerry.query_id}
            assert sorted(owner for owner, _fno in second.answers("Reservation")) == [
                "Jerry",
                "Kramer",
            ]

    def test_watches_deduplicate_per_connection(self, server_and_service):
        """Polling .requests/request() must not stack push callbacks."""
        server, service = server_and_service
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("wd"))))
        for _ in range(5):
            service.request(handle.query_id)
            service.requests()
        registered = server.service.coordinator._done_callbacks.get(handle.query_id, [])
        assert len(registered) == 1

    def test_terminal_handles_leave_the_client_registry(self, service):
        """One entry per *pending* query, not one per query ever submitted."""
        kramer = service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
        assert kramer.query_id in service.aservice._handles
        service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
        kramer.result(timeout=5.0)
        assert wait_until(lambda: kramer.query_id not in service.aservice._handles)

    def test_execute_script_routes_relations_and_handles(self, service):
        results = service.execute_script(
            "SELECT COUNT(*) FROM Flights; " + unmatchable_sql(fresh_owner("xs"))
        )
        assert isinstance(results[0], RelationResult)
        assert results[0].scalar() == 3
        assert isinstance(results[1], BridgedHandle)
        assert not results[1].done()


class TestTypedErrorsAcrossTheWire:
    def test_unknown_query_id_raises_not_pending(self, service):
        with pytest.raises(QueryNotPendingError) as excinfo:
            service.cancel("does-not-exist")
        assert excinfo.value.query_id == "does-not-exist"

    def test_cancel_of_answered_query_raises_already_answered(self, service):
        kramer, _jerry = service.submit_many(
            [
                SubmitRequest(sql=KRAMER_SQL, owner="Kramer"),
                SubmitRequest(sql=JERRY_SQL, owner="Jerry"),
            ]
        )
        with pytest.raises(QueryAlreadyAnsweredError):
            service.cancel(kramer.query_id)

    def test_wait_timeout_carries_query_id_and_deadline(self, service):
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("te"))))
        with pytest.raises(CoordinationTimeoutError) as excinfo:
            service.wait(handle.query_id, timeout=0.05)
        assert excinfo.value.query_id == handle.query_id
        assert excinfo.value.timeout == pytest.approx(0.05)

    def test_handle_result_timeout_reports_configured_deadline(self, service):
        """The timeout error carries the caller's actual deadline, 0 included."""
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("td"))))
        with pytest.raises(CoordinationTimeoutError) as excinfo:
            handle.result(timeout=0.25)
        assert excinfo.value.query_id == handle.query_id
        assert excinfo.value.timeout == pytest.approx(0.25)
        with pytest.raises(CoordinationTimeoutError) as zero_info:
            handle.result(timeout=0)
        assert zero_info.value.timeout == 0

    def test_parse_error_round_trips_with_location(self, service):
        with pytest.raises(ParseError):
            service.query("SELECT FROM WHERE")

    def test_script_error_reports_failing_statement(self, service):
        with pytest.raises(ScriptError) as excinfo:
            service.execute_script("SELECT COUNT(*) FROM Flights; SELECT * FROM Nowhere")
        assert excinfo.value.statement_index == 1
        assert "Nowhere" in excinfo.value.statement_sql


class TestFailureSemantics:
    """Server loss mid-operation: fail fast, never hang (issue satellite)."""

    def test_server_shutdown_fails_pending_handle_fast(self, server_and_service):
        server, service = server_and_service
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("sd"))))
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
        assert not waiter.is_alive(), "handle.result() hung after server shutdown"
        assert isinstance(outcome["result"], ServiceUnavailableError)

    def test_server_shutdown_fails_blocking_wait_rpc_fast(self, server_and_service):
        server, service = server_and_service
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("sw"))))
        outcome: dict[str, object] = {}

        def wait_rpc() -> None:
            try:
                service.wait(handle.query_id, timeout=30.0)
                outcome["result"] = "answered"
            except ServiceUnavailableError as exc:
                outcome["result"] = exc

        waiter = threading.Thread(target=wait_rpc)
        waiter.start()
        time.sleep(0.05)
        server.stop()
        waiter.join(timeout=5.0)
        assert not waiter.is_alive(), "service.wait() hung after server shutdown"
        assert isinstance(outcome["result"], ServiceUnavailableError)

    def test_server_shutdown_fires_done_callbacks_with_failure(self, server_and_service):
        server, service = server_and_service
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("sc"))))
        fired: list[str] = []
        handle.add_done_callback(lambda h: fired.append(h.query_id))
        server.stop()
        assert wait_until(lambda: fired == [handle.query_id])
        assert not handle.done()  # the query never reached a terminal state

    def test_rpcs_after_shutdown_raise_service_unavailable(self, server_and_service):
        server, service = server_and_service
        server.stop()
        wait_until(lambda: service.aservice._failure is not None)
        with pytest.raises(ServiceUnavailableError):
            service.stats()
        with pytest.raises(ServiceUnavailableError):
            service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))

    def test_client_close_fails_pending_handles(self, server_and_service):
        _server, service = server_and_service
        handle = service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("cl"))))
        service.close()
        with pytest.raises(ServiceUnavailableError):
            handle.result(timeout=5.0)

    def test_remote_shutdown_op_stops_the_server(self, server_and_service):
        server, service = server_and_service
        service.shutdown_server()
        assert server.wait_stopped(timeout=5.0)
        with pytest.raises(ServiceUnavailableError):
            wait_until(lambda: service.aservice._failure is not None)
            service.stats()

    def test_connect_to_dead_port_raises_service_unavailable(self):
        probe = BackgroundAsyncServer(config=SystemConfig(seed=0))
        host, port = probe.start()
        probe.stop()
        with pytest.raises(ServiceUnavailableError):
            RemoteService.connect(host, port, connect_timeout=0.5)
