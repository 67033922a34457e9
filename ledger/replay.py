"""The traced run: where an op's time goes, layer by layer.

Separate from the end-to-end run and never the source of its numbers.  The
same server is hosted in this process (``build_server`` with the workload's
own ``serve`` flags), the workload's exact op list is replayed with one op in
flight and no sleeping — so per-layer *counts* repeat exactly — and
:mod:`ledger.trace` records the spans.  A second replay with the wrappers off
gives the tracing overhead.
"""

from __future__ import annotations

import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.apps import cli
from repro.service.aio import AsyncRemoteService, BackgroundAsyncServer

from ledger import oracle
from ledger.endtoend import serve_flags
from ledger.generator import Driver
from ledger.trace import LAYERS, Span, Tracer, layer_table, ratios
from ledger.workloads import WARMUP_BATCHES, Op, Plan


@dataclass
class TracedOutcome:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str] = field(default_factory=list)
    spans: list[Span] = field(default_factory=list)


def _serve_in_process(flags: list[str], seed: int) -> BackgroundAsyncServer:
    """The ``serve`` sub-command's own server, started in this process."""
    args = cli.build_parser().parse_args(
        ["serve", "--transport", "asyncio", "--port", "0", "--seed", str(seed), *flags]
    )
    options = vars(args)
    options.pop("command")
    return cli.build_server(**options)


def replayed_ops(plan: Plan) -> tuple[Op, ...]:
    """The op list the replay sends: all of it, or on the closed loop as many
    batches as the nominal rate would fit in the run."""
    if plan.workload.loop == "open":
        return plan.ops
    return plan.ops[: WARMUP_BATCHES + round(plan.workload.rate * plan.seconds)]


@dataclass
class _Replayed:
    """What one sequential replay observed besides the tracer's spans."""

    attempted: int
    answered: int
    round_trips: int
    fsyncs: int
    failures: list[str]
    recovery_s: float = 0.0


async def _replay(plan: Plan, workdir: Path, tracer: Tracer, traced: bool) -> _Replayed:
    """One sequential replay against a fresh in-process server."""
    data_dir = Path(tempfile.mkdtemp(prefix=f"{plan.workload.name}-", dir=workdir))
    crash_copy = data_dir.with_name(data_dir.name + "-crash")
    server = _serve_in_process(serve_flags(plan, data_dir), plan.seed)
    conns: list[AsyncRemoteService] = []
    try:
        conns = [await AsyncRemoteService.connect(*server.address) for _ in range(2)]
        driver = Driver(plan, conns)
        await driver.setup()
        system = server.service.system
        fsyncs = system.durability_stats().get("wal_fsyncs", 0)
        frames = sum(conn.frames_sent for conn in conns)
        if traced:
            tracer.install()
        try:
            await driver.run_sequential(replayed_ops(plan), tracer)
        finally:
            tracer.uninstall()
        log = driver.log
        replayed = _Replayed(
            attempted=log.attempted,
            answered=len(log.answered),
            round_trips=sum(conn.frames_sent for conn in conns) - frames,
            fsyncs=system.durability_stats().get("wal_fsyncs", 0) - fsyncs,
            failures=list(log.errors)
            + oracle.check_groups(plan, log)
            + await oracle.check_server(plan, log, conns[0]),
        )
        if traced and plan.workload.durable:
            # the idle server's directory is what a crash would leave behind
            shutil.copytree(data_dir, crash_copy)
    finally:
        for conn in conns:
            await conn.close()
        server.stop()
        shutil.rmtree(data_dir, ignore_errors=True)
    if crash_copy.exists():
        try:
            replayed.recovery_s = _recovery_seconds(plan, crash_copy, tracer)
        finally:
            shutil.rmtree(crash_copy, ignore_errors=True)
    return replayed


def _recovery_seconds(plan: Plan, crash_copy: Path, tracer: Tracer) -> float:
    """Start a server over the crash image; the time its ``recover`` span took."""
    before = len(tracer.spans)
    tracer.install()
    try:
        _serve_in_process(serve_flags(plan, crash_copy), plan.seed).stop()
    finally:
        tracer.uninstall()
    recovery = tracer.spans[before:]
    del tracer.spans[before:]  # recovery is its own number, not part of any op
    return sum(
        span.end - span.start for span in recovery if span.name == "DurabilityManager.recover"
    )


async def run(plan: Plan, workdir: Path) -> TracedOutcome:
    """The replay untraced (for the overhead), then traced.

    The untraced one goes first: run second, it would pay the garbage
    collector's walks over the hundred thousand spans the traced one holds.
    """
    plain = Tracer()
    await _replay(plan, workdir, plain, traced=False)
    tracer = Tracer()
    replayed = await _replay(plan, workdir, tracer, traced=True)

    ops = len(tracer.windows)
    metrics: dict[str, tuple[float, str]] = {}
    table = layer_table(tracer.spans, tracer.windows, replayed.round_trips)
    for layer in LAYERS:
        metrics[f"{layer}.calls_per_op"] = (table[layer]["calls_per_op"], "1/op")
        metrics[f"{layer}.self_ms_per_op"] = (table[layer]["self_ms_per_op"], "ms/op")
    metrics.update(ratios(tracer.spans, ops, replayed.answered))
    metrics["durability.fsyncs_per_op"] = (replayed.fsyncs / ops, "1/op")
    metrics["durability.recovery_s"] = (replayed.recovery_s, "s")
    # over the measured ops only: the first replay also pays the process's cold start
    traced_s, plain_s = (
        sum(end - start for op, start, end in windows if plan.ops[op].measured)
        for windows in (tracer.windows, plain.windows)
    )
    metrics["trace_overhead_share"] = (traced_s / plain_s - 1.0, "share")
    return TracedOutcome(metrics, replayed.attempted, replayed.failures, tracer.spans)
