"""The load generator: one asyncio task set over exactly two connections.

Open loop: every op is sent when it is *due*, whatever the server is doing,
and every latency is taken from the due time — a stall therefore charges the
requests queued behind it.  Closed loop (``spill-batch``): each connection
sends its next ``submit_many`` when every group of its previous one is
answered.  The traced replay reuses the same driver sequentially, one op in
flight.

The driver only records; judging the records is :mod:`oracle`'s job.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from time import perf_counter
from typing import Optional, Protocol, Sequence

from repro.errors import ServiceUnavailableError
from repro.service.aio import AsyncRemoteService

from ledger.workloads import ANSWER_RELATION, SETUP_FRAME, Op, Plan

#: How long a sent group may stay unanswered before it counts as timed out.
GRACE_S = 10.0
#: How far ahead of a due time the sender stops sleeping and starts yielding.
TIMER_SLACK_S = 0.002


@dataclass
class GroupState:
    """The generator's own record of one coordination group."""

    size: int
    dest: str
    done: "asyncio.Future[None]"
    measured: bool = False
    #: absolute due time of the request that carried the last member
    due_last: Optional[float] = None
    #: receipt time and flight of every pushed answer, by traveler
    receipts: dict[str, float] = field(default_factory=dict)
    fnos: dict[str, int] = field(default_factory=dict)

    @property
    def coordination_s(self) -> Optional[float]:
        """Last member due → every member's answer received."""
        if len(self.receipts) < self.size or self.due_last is None:
            return None
        return max(self.receipts.values()) - self.due_last


@dataclass
class RunLog:
    """Everything the generator observed in one run."""

    groups: dict[int, GroupState]
    #: ops sent (set-up frames included) and what went wrong with them
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    refused: int = 0
    #: measured samples, seconds; acks are split by whether the submission
    #: completed a group (it then waited for the match) or only parked
    ack_parked_s: list[float] = field(default_factory=list)
    ack_completing_s: list[float] = field(default_factory=list)
    dml_s: list[float] = field(default_factory=list)
    late_s: list[float] = field(default_factory=list)
    #: every answer received, warm-up and set-up members included
    answered: dict[str, int] = field(default_factory=dict)
    cancelled_ids: list[str] = field(default_factory=list)
    acked_inserts: int = 0
    #: due times of the first and the last measured request
    first_due: float = float("inf")
    last_due: float = float("-inf")


class OpObserver(Protocol):
    """What the traced replay hooks into the sequential run."""

    def begin_op(self, index: int) -> None: ...

    def end_op(self, index: int, start: float, end: float) -> None: ...


class Driver:
    """Drives one plan over two :class:`AsyncRemoteService` connections."""

    def __init__(self, plan: Plan, conns: Sequence[AsyncRemoteService]) -> None:
        assert len(conns) == 2, "the ledger drives exactly two connections"
        self.plan = plan
        self.conns = conns
        loop = asyncio.get_running_loop()
        self.log = RunLog(
            groups={
                gid: GroupState(group.size, group.dest, loop.create_future())
                for gid, group in plan.groups.items()
            }
        )

    # -- set-up -------------------------------------------------------------------------

    async def setup(self) -> None:
        """Load the schema and park the set-up pool (noise and first halves)."""
        conn = self.conns[0]
        await conn.execute_script(self.plan.schema_sql)
        await conn.declare_answer_relation(
            ANSWER_RELATION, ["traveler", "fno"], ["TEXT", "INTEGER"]
        )
        pool = self.plan.setup
        for start in range(0, len(pool), SETUP_FRAME):
            frame = pool[start : start + SETUP_FRAME]
            self.log.attempted += 1
            handles = await conn.submit_many([parked.sql for parked in frame])
            for handle, parked in zip(handles, frame):
                if parked.group >= 0:
                    self._watch(handle, parked.group, parked.traveler)

    # -- the three ways to run the timed ops --------------------------------------------

    async def run_open(self) -> None:
        """Send every op at its due time; then collect what is outstanding."""
        log = self.log
        tasks: set[asyncio.Task[None]] = set()
        start = perf_counter() + 0.05
        for op in self.plan.ops:
            due = start + op.due
            # the selector rounds timeouts up to a millisecond: sleep short of
            # the due time, then yield to the loop until it has come
            delay = due - perf_counter() - TIMER_SLACK_S
            if delay > 0:
                await asyncio.sleep(delay)
            while perf_counter() < due:
                await asyncio.sleep(0)
            task = asyncio.create_task(self._send(op, due))
            tasks.add(task)
            task.add_done_callback(tasks.discard)
        if tasks:
            await asyncio.wait(tasks, timeout=GRACE_S)
        for task in tasks:  # replies that never came: the ops count as failed
            task.cancel()
            log.errors.append("no reply within the grace period")
        await self._await_groups([g for g in log.groups.values() if g.due_last is not None])

    async def run_closed(self) -> None:
        """Each connection: warm-up batches, then batches until time is up."""
        started: list[float] = []
        barrier = asyncio.Barrier(len(self.conns))

        async def worker(conn_index: int) -> None:
            mine = [op for op in self.plan.ops if op.conn == conn_index]
            for op in mine:
                if not op.measured:
                    await self._send_and_collect(op)
            await barrier.wait()
            if not started:
                started.append(perf_counter())
            for op in mine:
                if op.measured:
                    if perf_counter() - started[0] >= self.plan.seconds:
                        break
                    await self._send_and_collect(op)

        await asyncio.gather(*(worker(index) for index in range(len(self.conns))))

    async def run_sequential(self, ops: Sequence[Op], observer: OpObserver) -> None:
        """One op in flight, no sleeping: counts repeat exactly run to run."""
        for op in ops:
            observer.begin_op(op.index)
            start = perf_counter()
            await self._send_and_collect(op)
            observer.end_op(op.index, start, perf_counter())

    # -- sending ------------------------------------------------------------------------

    async def _send_and_collect(self, op: Op) -> None:
        """Send ``op`` now and wait for every group it completes."""
        await self._send(op, perf_counter())
        completed = [self.log.groups[gid] for gid, last in zip(op.group, op.last) if last]
        await self._await_groups(completed)

    async def _await_groups(self, groups: list[GroupState]) -> None:
        waiting = [group.done for group in groups if not group.done.done()]
        if waiting:
            await asyncio.wait(waiting, timeout=GRACE_S)

    async def _send(self, op: Op, due: float) -> None:
        log = self.log
        conn = self.conns[op.conn]
        log.attempted += 1
        if op.measured:
            log.late_s.append(perf_counter() - due)
            log.first_due = min(log.first_due, due)
            log.last_due = max(log.last_due, due)
        for gid, last in zip(op.group, op.last):
            if last:
                log.groups[gid].due_last = due
                log.groups[gid].measured = op.measured
        try:
            if op.kind == "submit":
                handle = await conn.submit(op.sql[0])
                self._ack(op, due)
                self._watch(handle, op.group[0], op.traveler[0])
            elif op.kind == "submit_many":
                handles = await conn.submit_many(op.sql)
                self._ack(op, due)
                for handle, gid, traveler in zip(handles, op.group, op.traveler):
                    self._watch(handle, gid, traveler)
            elif op.kind == "park_cancel":
                handle = await conn.submit(op.sql[0])
                self._ack(op, due)
                await conn.cancel(handle.query_id)
                log.cancelled_ids.append(handle.query_id)
            elif op.kind == "select":
                count = (await conn.query(op.sql[0])).scalar()
                if not isinstance(count, int) or count < 0:
                    log.errors.append(f"op {op.index}: COUNT(*) returned {count!r}")
            else:  # insert | update
                result = await conn.execute(op.sql[0])
                if op.measured:
                    log.dml_s.append(perf_counter() - due)
                if result.affected != 1:
                    log.errors.append(f"op {op.index}: {op.kind} affected {result.affected} rows")
                log.acked_inserts += op.kind == "insert"
        except ServiceUnavailableError as exc:
            if "backpressure" in str(exc):
                log.refused += 1
            else:
                log.errors.append(f"op {op.index} ({op.kind}): {exc!r}")
        except Exception as exc:  # noqa: BLE001 - every failed op is counted, none aborts the run
            log.errors.append(f"op {op.index} ({op.kind}): {exc!r}")

    def _ack(self, op: Op, due: float) -> None:
        if op.measured:
            acks = self.log.ack_completing_s if any(op.last) else self.log.ack_parked_s
            acks.append(perf_counter() - due)

    # -- answers ------------------------------------------------------------------------

    def _watch(self, handle, gid: int, traveler: str) -> None:
        handle.add_done_callback(lambda done: self._on_terminal(done, gid, traveler))

    def _on_terminal(self, handle, gid: int, traveler: str) -> None:
        now = perf_counter()
        log = self.log
        if not handle.is_answered or handle.answer is None:
            log.errors.append(f"{traveler}: {handle.status.value} ({handle.error})")
            return
        rows = handle.answer.tuples.get(ANSWER_RELATION, ())
        if len(rows) != 1 or rows[0][0] != traveler:
            log.errors.append(f"{traveler}: answered with {dict(handle.answer.tuples)!r}")
            return
        group = log.groups[gid]
        group.receipts[traveler] = now
        group.fnos[traveler] = log.answered[traveler] = rows[0][1]
        if len(group.receipts) == group.size and not group.done.done():
            group.done.set_result(None)
