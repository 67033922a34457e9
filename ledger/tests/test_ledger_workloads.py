"""Seeded generation: same seed, same bytes; the mixes are exact."""

from collections import Counter

import pytest

from ledger.workloads import BATCH_SIZE, WARMUP_S, WORKLOADS, build_plan


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda workload: workload.name)
def test_same_seed_same_bytes_and_other_seed_differs(workload):
    first = build_plan(workload, 7, 4).dumps()
    assert first == build_plan(workload, 7, 4).dumps()
    assert first != build_plan(workload, 8, 4).dumps()


def test_open_loop_offers_exactly_rate_times_seconds():
    plan = build_plan(WORKLOADS[0], 1, 4)  # pairs-live, 40 groups/s
    last_members = [op for op in plan.ops if op.last[0]]
    assert sum(op.measured for op in last_members) == 160
    assert sum(not op.measured for op in last_members) == 40 * WARMUP_S
    assert [op.due for op in plan.ops] == sorted(op.due for op in plan.ops)
    # the two members of a pair travel on different connections
    by_group = {}
    for op in plan.ops:
        by_group.setdefault(op.group[0], set()).add(op.conn)
    assert all(conns == {0, 1} for conns in by_group.values())


def test_group_sizes_and_op_mix_are_dealt_in_exact_shares():
    noise = build_plan(WORKLOADS[1], 3, 6)
    assert Counter(group.size for group in noise.groups.values()) == {2: 60, 3: 60, 4: 60}
    assert len(noise.setup) == 2000 and {parked.group for parked in noise.setup} == {-1}
    mixed = build_plan(WORKLOADS[2], 3, 7)  # 400 arrivals: 20 decks of 20
    kinds = Counter(op.kind for op in mixed.ops)
    assert (kinds["insert"], kinds["update"], kinds["select"], kinds["park_cancel"]) == (
        60, 40, 40, 20,
    )  # fmt: skip
    assert kinds["submit"] == 2 * 240


def test_closed_loop_partners_cover_the_parked_pool_once():
    plan = build_plan(WORKLOADS[3], 5, 4)
    assert len(plan.setup) == plan.workload.pool == len(plan.groups)
    partners = [gid for op in plan.ops for gid in op.group]
    assert sorted(partners) == sorted(plan.groups)
    assert all(len(op.sql) == BATCH_SIZE and op.due is None for op in plan.ops)
    assert [op.conn for op in plan.ops[:4]] == [0, 1, 0, 1]
