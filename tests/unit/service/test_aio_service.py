"""The asyncio-native service surface, against a live server.

Two angles on :class:`~repro.service.aio.AsyncCoordinationServer` and its
client :class:`~repro.service.aio.AsyncRemoteService`:

* the **tiered runner** — the transport-agnostic scenario classes from
  ``tests/service_conformance.py`` against a server whose pending pool keeps
  two queries hot and spills the rest, so every answer over the wire may
  need a page-in (the default pool runs in
  ``tests/integration/test_remote_conformance.py``, a durable one in
  ``tests/integration/test_aio_conformance.py``);
* **native asyncio semantics** the sync suite cannot express: ``await
  handle``, loop-side done callbacks, timeout mapping, concurrent awaiters
  multiplexed over one loop, the server's shared wait futures, protocol
  conformance of the async surface.
"""

from __future__ import annotations

import asyncio
import threading
from contextlib import asynccontextmanager
from typing import AsyncIterator

import pytest

from service_conformance import (
    JERRY_SQL,
    KRAMER_SQL,
    SETUP,
    BatchConformance,
    ConcurrencyConformance,
    IntrospectionConformance,
    PlainQueryConformance,
    SubmissionConformance,
    fresh_owner,
    pair_sql,
    unmatchable_sql,
)
from repro.errors import CoordinationTimeoutError, EntanglementError, QueryNotPendingError
from repro.service import RemoteService, SubmitRequest, SystemConfig
from repro.service.aio import (
    AsyncCoordinationServer,
    AsyncCoordinationService,
    AsyncIntrospectionService,
    AsyncRemoteHandle,
    AsyncRemoteService,
    BackgroundAsyncServer,
)

# -- the tiered runner: sync conformance over a spilling server ---------------------------------


@pytest.fixture
def service():
    server = BackgroundAsyncServer(
        config=SystemConfig(seed=0, pending_memory_limit=2, cold_store="memory")
    )
    client = RemoteService.connect(*server.start())
    client.execute_script(SETUP)
    client.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    yield client
    client.close()
    server.stop()


class TestBridgedSubmission(SubmissionConformance):
    pass


class TestBridgedBatchSubmission(BatchConformance):
    pass


class TestBridgedPlainQueries(PlainQueryConformance):
    pass


class TestBridgedIntrospection(IntrospectionConformance):
    pass


class TestBridgedConcurrency(ConcurrencyConformance):
    pass


# -- native asyncio semantics -------------------------------------------------------------------


def run(coro):
    return asyncio.run(coro)


@asynccontextmanager
async def live_client() -> AsyncIterator[tuple[AsyncCoordinationServer, AsyncRemoteService]]:
    """A server on this loop plus one connected, set-up client."""
    async with AsyncCoordinationServer(config=SystemConfig(seed=0)) as server:
        client = await AsyncRemoteService.connect(*server.address)
        try:
            await client.execute_script(SETUP)
            await client.declare_answer_relation(
                "Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"]
            )
            yield server, client
        finally:
            await client.close()


class TestAsyncProtocols:
    def test_async_service_satisfies_both_protocols(self):
        async def scenario():
            async with live_client() as (_server, service):
                assert isinstance(service, AsyncCoordinationService)
                assert isinstance(service, AsyncIntrospectionService)

        run(scenario())

    def test_submit_returns_awaitable_handle(self):
        async def scenario():
            async with live_client() as (_server, service):
                handle = await service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
                assert isinstance(handle, AsyncRemoteHandle)
                assert not handle.done()

        run(scenario())


class TestAwaitableHandles:
    def test_await_handle_yields_answer_envelope(self):
        async def scenario():
            async with live_client() as (_server, service):
                kramer = await service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
                jerry = await service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
                envelope = await kramer
                assert envelope.owner == "Kramer"
                assert kramer.query_id in envelope.group and len(envelope.group) == 2
                assert (await jerry).owner == "Jerry"

        run(scenario())

    def test_many_tasks_await_one_handle(self):
        """One pending query, many concurrent awaiters — all resolve."""

        async def scenario():
            async with live_client() as (_server, service):
                kramer = await service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
                waiters = [asyncio.ensure_future(kramer.result(timeout=5.0)) for _ in range(16)]
                await asyncio.sleep(0)
                await service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
                envelopes = await asyncio.gather(*waiters)
                assert {envelope.owner for envelope in envelopes} == {"Kramer"}

        run(scenario())

    def test_result_timeout_raises_typed_error_with_real_deadline(self):
        async def scenario():
            async with live_client() as (_server, service):
                handle = await service.submit(
                    SubmitRequest(sql=unmatchable_sql(fresh_owner("at")))
                )
                with pytest.raises(CoordinationTimeoutError) as excinfo:
                    await handle.result(timeout=0.05)
                assert excinfo.value.timeout == pytest.approx(0.05)
                # the timeout abandoned the wait without poisoning the handle
                assert not handle.done()

        run(scenario())

    def test_timeout_does_not_kill_other_awaiters(self):
        """wait_for cancellation must not propagate into the shared future."""

        async def scenario():
            async with live_client() as (_server, service):
                kramer = await service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
                with pytest.raises(CoordinationTimeoutError):
                    await kramer.result(timeout=0.01)
                await service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
                assert (await kramer.result(timeout=5.0)).owner == "Kramer"

        run(scenario())

    def test_await_cancelled_query_raises_entanglement_error(self):
        async def scenario():
            async with live_client() as (_server, service):
                handle = await service.submit(
                    SubmitRequest(sql=unmatchable_sql(fresh_owner("ac")))
                )
                await handle.cancel()
                with pytest.raises(EntanglementError):
                    await handle
                assert handle.cancelled()
                assert isinstance(await handle.exception(), EntanglementError)

        run(scenario())

    def test_done_callback_runs_on_the_loop(self):
        async def scenario():
            async with live_client() as (_server, service):
                fired: list[str] = []
                kramer = await service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
                kramer.add_done_callback(lambda handle: fired.append(handle.query_id))
                await service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
                await kramer
                await asyncio.sleep(0)  # callbacks run via call_soon
                assert fired == [kramer.query_id]
                # terminal registration still fires (next loop iteration)
                kramer.add_done_callback(lambda handle: fired.append("again"))
                await asyncio.sleep(0)
                assert fired == [kramer.query_id, "again"]

        run(scenario())

    def test_broken_callback_does_not_poison_the_loop(self):
        async def scenario():
            async with live_client() as (_server, service):
                kramer = await service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
                kramer.add_done_callback(lambda _handle: 1 / 0)
                jerry = await service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
                assert (await jerry).owner == "Jerry"
                assert (await kramer).owner == "Kramer"

        run(scenario())


class TestAsyncServiceSurface:
    def test_wait_is_callback_driven_and_typed(self):
        async def scenario():
            async with live_client() as (_server, service):
                kramer = await service.submit(SubmitRequest(sql=KRAMER_SQL, owner="Kramer"))
                waiter = asyncio.ensure_future(service.wait(kramer.query_id, timeout=5.0))
                await asyncio.sleep(0.05)
                await service.submit(SubmitRequest(sql=JERRY_SQL, owner="Jerry"))
                assert (await waiter).owner == "Kramer"
                with pytest.raises(QueryNotPendingError):
                    await service.wait("no-such-query")
                withdrawn = await service.submit(
                    SubmitRequest(sql=unmatchable_sql(fresh_owner("wc")))
                )
                await withdrawn.cancel()
                with pytest.raises(EntanglementError, match="cancelled"):
                    await service.wait(withdrawn.query_id, timeout=5.0)

        run(scenario())

    def test_repeated_timed_out_waits_share_one_coordinator_callback(self):
        """A timeout-retry polling loop over the wire adds one coordinator
        callback, not one per poll, and counts every timeout."""

        async def scenario():
            async with live_client() as (server, service):
                handle = await service.submit(
                    SubmitRequest(sql=unmatchable_sql(fresh_owner("wl")))
                )
                for _ in range(5):
                    with pytest.raises(CoordinationTimeoutError):
                        await service.wait(handle.query_id, timeout=0.01)
                assert (await service.stats()).counters["queries_timed_out"] == 5
                registered = server.service.coordinator._done_callbacks[handle.query_id]
                # the connection's push watch plus the one shared wait future
                assert len(registered) == 2

        run(scenario())

    def test_wait_many_shares_one_deadline(self):
        async def scenario():
            async with live_client() as (_server, service):
                handles = await service.submit_many(
                    [
                        SubmitRequest(sql=KRAMER_SQL, owner="Kramer"),
                        SubmitRequest(sql=JERRY_SQL, owner="Jerry"),
                    ]
                )
                envelopes = await service.wait_many(
                    [handle.query_id for handle in handles], timeout=5.0
                )
                assert [envelope.owner for envelope in envelopes] == ["Kramer", "Jerry"]
                stuck = [
                    await service.submit(SubmitRequest(sql=unmatchable_sql(fresh_owner("wm"))))
                    for _ in range(3)
                ]
                loop = asyncio.get_running_loop()
                started = loop.time()
                with pytest.raises(CoordinationTimeoutError):
                    await service.wait_many([handle.query_id for handle in stuck], timeout=0.2)
                # one deadline for the batch, not 0.2 s per query
                assert loop.time() - started < 0.5

        run(scenario())

    def test_thousands_of_pending_queries_hold_no_threads(self):
        """The multiplexing claim: N idle pending awaits ≪ N threads."""

        async def scenario():
            before = threading.active_count()
            async with live_client() as (_server, service):
                handles = await service.submit_many(
                    [
                        SubmitRequest(sql=unmatchable_sql(fresh_owner("mp")))
                        for _ in range(200)
                    ]
                )
                waiters = [
                    asyncio.ensure_future(handle.result(timeout=30.0)) for handle in handles
                ]
                server_waits = [
                    asyncio.ensure_future(service.wait(handle.query_id, timeout=30.0))
                    for handle in handles[:100]
                ]
                await asyncio.sleep(0.2)
                # 300 suspended waits must not have spawned 300 threads
                assert threading.active_count() - before < 20
                for waiter in waiters + server_waits:
                    waiter.cancel()
                stats = await service.stats()
                assert stats.pending == 200

        run(scenario())

    def test_stats_transport_is_empty_in_process(self):
        """The hosted service reports no transport; the server adds it."""

        async def scenario():
            async with live_client() as (server, service):
                assert dict(server.service.stats().transport) == {}
                assert dict((await service.stats()).transport)["connections_open"] == 1

        run(scenario())

    def test_pair_of_owners_coordinates_through_gather(self):
        async def scenario():
            async with live_client() as (_server, service):
                left, right = fresh_owner("ga"), fresh_owner("gb")
                first, second = await asyncio.gather(
                    service.submit(SubmitRequest(sql=pair_sql(left, right), owner=left)),
                    service.submit(SubmitRequest(sql=pair_sql(right, left), owner=right)),
                )
                first_env, second_env = await asyncio.gather(
                    first.result(timeout=5.0), second.result(timeout=5.0)
                )
                assert {first_env.owner, second_env.owner} == {left, right}
                booked = dict(await service.answers("Reservation"))
                assert booked[left] == booked[right]

        run(scenario())
