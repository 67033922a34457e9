"""The end-to-end run: a live ``serve`` subprocess, two connections, no tracing.

What a user of the system feels is measured here and nowhere else: the delay
from the last partner's request being *due* to every member's pushed answer,
the time a submit blocks, sustained matched queries per second, the server's
peak memory and how long it takes to get a populated server up.
"""

from __future__ import annotations

import shutil
import statistics
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Optional

from repro.service.aio import AsyncRemoteService

from ledger import oracle
from ledger.generator import Driver, RunLog
from ledger.server import LiveServer
from ledger.stats import describe, percentile
from ledger.workloads import Plan

#: Set-up is repeated and its median reported: one spawn is too noisy to gate.
SETUP_REPEATS = 3
#: The generator may run this late (p99) before the run's timings are distrusted.
MAX_LATE_MS = 5.0
#: An open-loop run answering less than this share of the offered rate has a
#: growing backlog: its latencies describe the queue, not the system.
MIN_OFFERED_SHARE = 0.98


@dataclass
class Outcome:
    """One workload's end-to-end numbers and the verdicts on the run."""

    metrics: dict[str, tuple[float, str]]
    #: recorded beside the gated metrics, never gated
    supplementary: dict[str, tuple[float, str]]
    #: sample count and supported tail of each timing, as printed text
    samples: dict[str, str]
    attempted: int
    failures: list[str] = field(default_factory=list)
    #: why the timings cannot be trusted (late generator, refusals, backlog)
    invalid: list[str] = field(default_factory=list)


def calibration_ms() -> float:
    """A fixed pure-Python loop, so readers on other machines can normalise."""
    start = perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value % 7
    return 1000.0 * (perf_counter() - start)


def serve_flags(plan: Plan, data_dir: Path) -> list[str]:
    return [flag.replace("{data_dir}", str(data_dir)) for flag in plan.workload.serve_flags]


async def _connect(server: LiveServer) -> list[AsyncRemoteService]:
    host, port = server.address
    return [await AsyncRemoteService.connect(host, port) for _ in range(2)]


async def _close(conns: list[AsyncRemoteService]) -> None:
    for conn in conns:
        await conn.close()


async def run(plan: Plan, workdir: Path) -> Outcome:
    """Set up (several times), drive, check, and — if durable — crash and re-check."""
    workload = plan.workload
    calibration = calibration_ms()
    data_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=workdir))
    server: Optional[LiveServer] = None
    conns: list[AsyncRemoteService] = []
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            if server is not None:  # only the last set-up is driven
                await _close(conns)
                server.kill()
                shutil.rmtree(data_dir)
                data_dir.mkdir()
            start = perf_counter()
            server = LiveServer(serve_flags(plan, data_dir), seed=plan.seed)
            server.start()
            conns = await _connect(server)
            driver = Driver(plan, conns)
            await driver.setup()
            setup_s.append(perf_counter() - start)

        if workload.loop == "open":
            await driver.run_open()
        else:
            await driver.run_closed()
        log = driver.log
        rss_mb = server.peak_rss_mb()

        failures = list(log.errors) + [f"{log.refused} ops refused (backpressure)"] * bool(
            log.refused
        )
        failures += oracle.check_groups(plan, log)
        failures += await oracle.check_server(plan, log, conns[0])
        restart_s = None
        if workload.durable:
            # the crash drill: nothing acknowledged may be lost by kill -9
            await _close(conns)
            server.kill()
            start = perf_counter()
            server = LiveServer(serve_flags(plan, data_dir), seed=plan.seed)
            server.start()
            conns = await _connect(server)
            restart_s = perf_counter() - start
            failures += [
                f"after kill -9 and restart: {violation}"
                for violation in await oracle.check_server(plan, log, conns[0], recovered=True)
            ]
    finally:
        await _close(conns)
        if server is not None:
            server.kill()
        shutil.rmtree(data_dir, ignore_errors=True)

    outcome = _summarise(plan, log, rss_mb, statistics.median(setup_s), failures)
    outcome.supplementary["calibration_ms"] = (calibration, "ms")
    if restart_s is not None:
        outcome.supplementary["restart_s"] = (restart_s, "s")
    return outcome


def _summarise(
    plan: Plan, log: RunLog, rss_mb: float, setup_s: float, failures: list[str]
) -> Outcome:
    workload = plan.workload
    measured = [group for group in log.groups.values() if group.measured]
    done = [group for group in measured if group.coordination_s is not None]
    # the time a request blocks: of submissions that park — one that completes
    # a group waits for the match, which coord_ms already measures, and mixing
    # the two modes puts the median on the boundary between them.  Where every
    # measured submission completes groups (spill-batch), of those.
    acks = log.ack_parked_s or log.ack_completing_s
    if not done or not acks:
        raise RuntimeError(
            "no measured group was answered; first failures: " + "; ".join(failures[:5])
        )
    coord_ms = [1000.0 * group.coordination_s for group in done]
    ack_ms = [1000.0 * value for value in acks]
    late_ms = [1000.0 * value for value in log.late_s]
    # both rates start at the first measured request's due time: offered ends
    # at the last request's due time, matched at the last answer — a backlog
    # is the last answer trailing the last request
    last_receipt = max(max(group.receipts.values()) for group in done)
    matched_qps = sum(group.size for group in done) / (last_receipt - log.first_due)
    offered_qps = sum(group.size for group in measured) / (log.last_due - log.first_due)

    metrics = {
        "coord_ms_p50": (percentile(coord_ms, 50), "ms"),
        "coord_within_limit_share": (
            sum(1 for value in coord_ms if value <= workload.limit_ms) / len(measured),
            "share",
        ),
        "ack_ms_p50": (percentile(ack_ms, 50), "ms"),
        "matched_qps": (matched_qps, "queries/s"),
        "server_rss_mb": (rss_mb, "MB"),
        "setup_s": (setup_s, "s"),
    }
    late_p99 = percentile(late_ms, 99)
    supplementary = {
        "generator_late_ms_p99": (late_p99, "ms"),
        "failed_share": (len(failures) / log.attempted, "share"),
    }
    samples = {"coord_ms_p50": describe(coord_ms), "ack_ms_p50": describe(ack_ms)}
    if log.dml_s:
        dml_ms = [1000.0 * value for value in log.dml_s]
        supplementary["dml_ms_p50"] = (percentile(dml_ms, 50), "ms")
        samples["dml_ms_p50"] = describe(dml_ms)

    invalid = []
    if late_p99 > MAX_LATE_MS:
        invalid.append(f"generator ran late: p99 {late_p99:.2f} ms")
    if log.refused:
        invalid.append(f"server refused {log.refused} ops for backpressure")
    if workload.loop == "open":
        supplementary["offered_qps"] = (offered_qps, "queries/s")
        if matched_qps < MIN_OFFERED_SHARE * offered_qps:
            invalid.append(
                f"backlogged: matched {matched_qps:.1f} q/s of {offered_qps:.1f} offered"
            )
    return Outcome(metrics, supplementary, samples, log.attempted, failures, invalid)
