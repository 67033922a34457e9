"""Seeded inputs of the four ledger workloads.

Everything the server sees is SQL text generated here from ``--seed``: the
``Flights(fno, dest, seats)`` table (200 rows over 4 destinations), the
unmatchable set-up pool, and the timed operation list.  Entangled queries have
the paper's Figure-1 shape — a group of *n* is *n* queries, each reserving one
``Reservation(traveler, fno)`` tuple and carrying *n−1* ``IN ANSWER``
constraints naming the other members.

The workloads differ in what the coordinator's behaviour depends on — pool
size, residency (hot tier vs. cold store), durability, op mix and batching —
not only in arrival rate; each ``Workload.why`` records the reason it exists.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Optional

DESTINATIONS = ("Paris", "Rome", "Oslo", "Lima")
FLIGHT_COUNT = 200
ANSWER_RELATION = "Reservation"

#: Every timed phase starts with this many seconds at the measured rate whose
#: samples are dropped (plan caches, lazy imports and allocator growth settle).
WARMUP_S = 3.0
#: Mean of the exponential delay between consecutive members of one group.
PARTNER_DELAY_S = 0.05
#: ``submit_many`` frame size used to park set-up pools.
SETUP_FRAME = 500
#: ``spill-batch``: partners per measured ``submit_many`` and warm-up batches.
BATCH_SIZE = 25
WARMUP_BATCHES = 8


@dataclass(frozen=True)
class Workload:
    """One traffic mix and the server configuration it runs against."""

    name: str
    why: str
    #: ``open``: ops are sent on a schedule whatever the server does;
    #: ``closed``: each connection sends its next batch when the previous one
    #: is fully answered.
    loop: str
    #: open loop: arrivals per second (groups, or ops on ``durable-mixed``);
    #: closed loop: the nominal batches per second that sizes the traced replay.
    rate: float
    limit_ms: float
    #: extra ``serve`` flags; ``{data_dir}`` is replaced by a temp directory
    serve_flags: tuple[str, ...] = ()
    #: unmatchable queries parked during set-up
    noise: int = 0
    #: first halves parked during set-up whose partners arrive when measured
    pool: int = 0
    group_sizes: tuple[int, ...] = (2,)
    #: op-kind deck (``durable-mixed``); dealt without replacement so every
    #: seed carries exactly the same mix
    mix: tuple[tuple[str, int], ...] = (("pair", 1),)

    @property
    def durable(self) -> bool:
        return "{data_dir}" in self.serve_flags


WORKLOADS = (
    Workload(
        name="pairs-live",
        why="open loop, pairs on an empty memory-only pool: only the request plane, codec, "
        "parse/compile and registration work, so a matcher change must not show here",
        loop="open",
        rate=40.0,
        limit_ms=25.0,
    ),
    Workload(
        name="noise-groups",
        why="groups of 2-4 over 2000 parked unmatchable queries: index probes, search and "
        "every per-pool sweep or scan dominate, which pairs-live bypasses",
        loop="open",
        rate=20.0,
        limit_ms=75.0,
        noise=2000,
        group_sizes=(2, 3, 4),
    ),
    Workload(
        name="durable-mixed",
        why="WAL with fsync always and snapshots under submits, DML, reads and cancels: a "
        "submit gain that costs writes, or a checkpoint stall, shows here",
        loop="open",
        rate=40.0,
        limit_ms=40.0,
        serve_flags=(
            "--data-dir", "{data_dir}", "--fsync-policy", "always",
            "--snapshot-interval", "250",
        ),  # fmt: skip
        noise=200,
        mix=(("pair", 12), ("insert", 3), ("update", 2), ("select", 2), ("park_cancel", 1)),
    ),
    Workload(
        name="spill-batch",
        why="closed loop, submit_many of 25 against 3000 parked halves over a 256-query hot "
        "tier: the only working set beyond memory and the capacity number",
        loop="closed",
        rate=2.0,
        limit_ms=1000.0,
        serve_flags=(
            "--data-dir", "{data_dir}", "--fsync-policy", "batch",
            "--pending-memory-limit", "256", "--cold-store", "sqlite",
        ),  # fmt: skip
        pool=3000,
    ),
)

BY_NAME = {workload.name: workload for workload in WORKLOADS}


@dataclass(frozen=True)
class Op:
    """One timed operation.

    ``due`` is seconds after the phase start (``None`` on the closed loop).
    ``sql`` holds one statement, or the whole batch for ``submit_many``.
    Entangled submissions carry, parallel to ``sql``, the ``group`` each
    query belongs to, its ``traveler`` name, and ``last`` — whether it is the
    member whose arrival completes the group.
    """

    index: int
    kind: str  # submit | submit_many | insert | update | select | park_cancel
    conn: int
    measured: bool
    sql: tuple[str, ...]
    due: Optional[float] = None
    group: tuple[int, ...] = ()
    traveler: tuple[str, ...] = ()
    last: tuple[bool, ...] = ()


@dataclass(frozen=True)
class Group:
    """What the oracle needs to know about one coordination group."""

    gid: int
    size: int
    dest: str


@dataclass(frozen=True)
class Parked:
    """One query parked during set-up; ``group`` is ``-1`` for unmatchable noise."""

    sql: str
    traveler: str
    group: int


@dataclass(frozen=True)
class Plan:
    """Everything one run sends: schema, set-up pool, timed ops."""

    workload: Workload
    seed: int
    seconds: float
    schema_sql: str
    #: destination of every flight that exists or is inserted by an op
    flight_dest: dict[int, str]
    #: the set-up pool (noise and/or first halves), sent SETUP_FRAME per ``submit_many``
    setup: tuple[Parked, ...]
    ops: tuple[Op, ...]
    groups: dict[int, Group]

    def dumps(self) -> str:
        """Canonical text of every generated input (same seed → same bytes)."""
        return json.dumps(
            {
                "schema": self.schema_sql,
                "setup": [parked.sql for parked in self.setup],
                "ops": [asdict(op) for op in self.ops],
            },
            sort_keys=True,
        )


def entangled_sql(traveler: str, partners: list[str], dest: str) -> str:
    constraints = " ".join(
        f"AND ('{partner}', fno) IN ANSWER {ANSWER_RELATION}" for partner in partners
    )
    return (
        f"SELECT '{traveler}', fno INTO ANSWER {ANSWER_RELATION} "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') "
        f"{constraints} CHOOSE 1"
    )


def _schema(rng: random.Random) -> tuple[str, dict[int, str]]:
    flight_dest = {
        fno: DESTINATIONS[fno % len(DESTINATIONS)] for fno in range(1, FLIGHT_COUNT + 1)
    }
    rows = ", ".join(
        f"({fno}, '{dest}', {rng.randint(50, 300)})" for fno, dest in flight_dest.items()
    )
    sql = (
        "CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, seats INT);\n"
        f"INSERT INTO Flights VALUES {rows};"
    )
    return sql, flight_dest


def _deck(rng: random.Random, cards: list, count: int) -> list:
    """``count`` draws from ``cards`` in equal shares, shuffled: every seed
    offers the same totals, so rates and mixes do not vary run to run."""
    dealt = (cards * (count // len(cards) + 1))[:count]
    rng.shuffle(dealt)
    return dealt


def _arrivals(rng: random.Random, rate: float, seconds: float) -> list[tuple[float, bool]]:
    """Poisson arrivals conditioned on their count: uniform order statistics,
    ``rate × duration`` of them in the warm-up window and in the measured one."""
    times = []
    for start, duration, measured in ((0.0, WARMUP_S, False), (WARMUP_S, seconds, True)):
        count = round(rate * duration)
        times += [(start + rng.random() * duration, measured) for _ in range(count)]
    return sorted(times)


class _Builder:
    """Accumulates ops and groups while one plan is generated."""

    def __init__(self, rng: random.Random, flight_dest: dict[int, str]) -> None:
        self.rng = rng
        self.ops: list[dict] = []
        self.groups: dict[int, Group] = {}
        self.flight_dest = flight_dest
        self._next_flight = 1000
        self._next_solo = 0

    def new_group(self, size: int) -> tuple[Group, list[str]]:
        gid = len(self.groups)
        group = Group(gid, size, self.rng.choice(DESTINATIONS))
        self.groups[gid] = group
        return group, [f"g{gid}m{member}" for member in range(size)]

    def add(self, kind: str, due: Optional[float], conn: int, measured: bool, sql, **extra) -> None:
        self.ops.append(
            dict(kind=kind, due=due, conn=conn, measured=measured, sql=tuple(sql), **extra)
        )

    def add_group(self, size: int, due: float, measured: bool) -> None:
        group, names = self.new_group(size)
        for member, name in enumerate(names):
            partners = [other for other in names if other != name]
            self.add(
                "submit", due, (group.gid + member) % 2, measured,
                [entangled_sql(name, partners, group.dest)],
                group=(group.gid,), traveler=(name,), last=(member == size - 1,),
            )  # fmt: skip
            due += self.rng.expovariate(1.0 / PARTNER_DELAY_S)

    def add_mixed(self, kind: str, due: float, conn: int, measured: bool) -> None:
        rng = self.rng
        if kind == "insert":
            fno, dest = self._next_flight, rng.choice(DESTINATIONS)
            self._next_flight += 1
            self.flight_dest[fno] = dest
            sql = f"INSERT INTO Flights VALUES ({fno}, '{dest}', {rng.randint(50, 300)})"
            self.add("insert", due, conn, measured, [sql])
        elif kind == "update":
            fno = rng.randint(1, FLIGHT_COUNT)
            sql = f"UPDATE Flights SET seats = seats - 1 WHERE fno = {fno}"
            self.add("update", due, conn, measured, [sql])
        elif kind == "select":
            self.add("select", due, conn, measured, [f"SELECT COUNT(*) FROM {ANSWER_RELATION}"])
        else:
            name = f"solo{self._next_solo}"
            self._next_solo += 1
            sql = entangled_sql(name, [f"nobody{name}"], rng.choice(DESTINATIONS))
            self.add("park_cancel", due, conn, measured, [sql], traveler=(name,))

    def finish(self) -> tuple[Op, ...]:
        if self.ops and self.ops[0]["due"] is not None:
            self.ops.sort(key=lambda op: op["due"])
        return tuple(Op(index=index, **op) for index, op in enumerate(self.ops))


def build_plan(workload: Workload, seed: int, seconds: float) -> Plan:
    """Generate every input of one run of ``workload`` from ``seed``."""
    rng = random.Random(f"{workload.name}/{seed}")
    schema_sql, flight_dest = _schema(rng)
    builder = _Builder(rng, flight_dest)

    setup = [
        Parked(
            entangled_sql(f"noise{index}", [f"ghost{index}"], DESTINATIONS[index % len(DESTINATIONS)]),
            f"noise{index}",
            -1,
        )
        for index in range(workload.noise)
    ]

    if workload.loop == "closed":
        # first halves parked at set-up; partners arrive in seeded shuffled
        # order, BATCH_SIZE per frame, frames alternating between connections
        partner_sql: list[tuple[int, str, str]] = []
        for _ in range(workload.pool):
            group, (first, second) = builder.new_group(2)
            setup.append(Parked(entangled_sql(first, [second], group.dest), first, group.gid))
            partner_sql.append((group.gid, second, entangled_sql(second, [first], group.dest)))
        rng.shuffle(partner_sql)
        for start in range(0, len(partner_sql), BATCH_SIZE):
            batch = partner_sql[start : start + BATCH_SIZE]
            number = start // BATCH_SIZE
            measured = number >= WARMUP_BATCHES
            builder.add(
                "submit_many", None, number % 2, measured, [sql for _, _, sql in batch],
                group=tuple(gid for gid, _, _ in batch),
                traveler=tuple(name for _, name, _ in batch),
                last=(True,) * len(batch),
            )  # fmt: skip
    else:
        arrivals = _arrivals(rng, workload.rate, seconds)
        kinds = _deck(rng, [kind for kind, share in workload.mix for _ in range(share)], len(arrivals))
        sizes = _deck(rng, list(workload.group_sizes), len(arrivals))
        for number, ((due, measured), kind, size) in enumerate(zip(arrivals, kinds, sizes)):
            if kind == "pair":
                builder.add_group(size, due, measured)
            else:
                builder.add_mixed(kind, due, number % 2, measured)

    return Plan(
        workload=workload,
        seed=seed,
        seconds=seconds,
        schema_sql=schema_sql,
        flight_dest=flight_dest,
        setup=tuple(setup),
        ops=builder.finish(),
        groups=builder.groups,
    )
