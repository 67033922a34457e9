"""The answer oracle: judges a run from the generator's own records.

The paper's contract is what is checked — a group is answered atomically or
not at all, every member holds the same flight and it goes where the group
asked, ``Reservation`` holds exactly one row per answered query, and nothing
that was acknowledged is lost (re-checked after ``kill -9`` and restart on the
durable workload).  Each violation is one line; the caller counts them as
failed operations.
"""

from __future__ import annotations

from repro.service.aio import AsyncRemoteService

from ledger.generator import RunLog
from ledger.workloads import ANSWER_RELATION, FLIGHT_COUNT, Plan


def check_groups(plan: Plan, log: RunLog) -> list[str]:
    """Atomicity, agreement and destination of every group that was sent."""
    violations = []
    for gid, group in log.groups.items():
        if group.due_last is None and not group.receipts:
            continue  # never completed by a request (e.g. closed loop ran out of time)
        if len(group.receipts) != group.size:
            violations.append(
                f"group {gid}: {len(group.receipts)} of {group.size} members answered"
            )
            continue
        flights = set(group.fnos.values())
        if len(flights) != 1:
            violations.append(f"group {gid}: members hold different flights {sorted(flights)}")
        elif plan.flight_dest.get(next(iter(flights))) != group.dest:
            violations.append(
                f"group {gid}: flight {next(iter(flights))} does not go to {group.dest}"
            )
    return violations


async def check_server(
    plan: Plan, log: RunLog, conn: AsyncRemoteService, recovered: bool = False
) -> list[str]:
    """The server's state against the records: answers, pending pool, base data.

    With ``recovered`` (after ``kill -9`` + restart over the same data
    directory) the same facts must still hold, and cancelled ids must not
    have come back.
    """
    violations = []
    rows = await conn.answers(ANSWER_RELATION)
    expected = sorted(log.answered.items())
    if sorted(rows) != expected:
        missing = set(expected) - set(rows)
        extra = set(rows) - set(expected)
        violations.append(
            f"{ANSWER_RELATION} differs from the answers received: "
            f"{len(missing)} missing, {len(extra)} unexpected, {len(rows)} rows"
        )
    parked = sum(1 for query in plan.setup if query.traveler not in log.answered)
    pending = (await conn.stats()).pending
    if pending != parked:
        violations.append(f"{pending} queries pending, {parked} parked by set-up remain")
    flights = (await conn.query("SELECT COUNT(*) FROM Flights")).scalar()
    if flights != FLIGHT_COUNT + log.acked_inserts:
        violations.append(
            f"Flights has {flights} rows, expected {FLIGHT_COUNT + log.acked_inserts}"
        )
    if recovered:
        pending_ids = {query.query_id for query in await conn.pending_queries()}
        returned = pending_ids & set(log.cancelled_ids)
        if returned:
            violations.append(f"cancelled queries pending after recovery: {sorted(returned)}")
    return violations
