"""Policy overhead — bounded candidate enumeration vs. the first-match default.

Run with ``PYTHONPATH=src python -m pytest -q benchmarks/bench_policy_overhead.py``.
"""

from __future__ import annotations

import time

from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem

# ---------------------------------------------------------------------------
# Policy overhead — bounded candidate enumeration vs. the first-match default
# ---------------------------------------------------------------------------
#
# The policy layer turns the single-group search into bounded enumeration
# (``policy_candidate_limit`` groups) plus an argmin over policy keys.  The
# default ``first_match`` policy must short-circuit back to the classic
# search: its throughput on a standing-pool workload is gated at >= 0.8x of
# a control run that bypasses the policy layer entirely.  The enumerating
# policies (priority / fairness) pay for the extra groups they inspect; their
# ratios are reported but not gated — the point of the experiment is to keep
# the *default* path free.

POLICY_NOISE_SINGLETONS = 16
POLICY_MEASURED_PAIRS = 48
POLICY_PARIS_FLIGHTS = 12  # enumeration breadth per decision (limit is 16)


def build_policy_system(policy: str) -> YoutopiaSystem:
    config = SystemConfig(seed=0, match_policy=policy)
    system = YoutopiaSystem(config=config)
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    rows = [f"({fno}, 'Paris')" for fno in range(1, POLICY_PARIS_FLIGHTS + 1)]
    rows += [f"({fno}, 'Rome')" for fno in range(100, 104)]
    system.execute("INSERT INTO Flights VALUES " + ", ".join(rows))
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


def policy_pair_sql(user: str, partner: str) -> str:
    return (
        f"SELECT '{user}', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{partner}', fno) IN ANSWER Reservation CHOOSE 1"
    )


def run_policy_workload(policy: str, bypass_policy_layer: bool = False) -> dict:
    """Standing pool of unmatchable singletons + a stream of matchable pairs.

    ``bypass_policy_layer=True`` is the pre-policy control: selection calls
    the matcher's single-group search directly, skipping the policy dispatch
    and its statistics, which is exactly what the coordinator did before the
    enumeration seam existed.
    """
    system = build_policy_system(policy)
    try:
        coordinator = system.coordinator
        if bypass_policy_layer:
            matcher = coordinator._matcher
            coordinator._select_group = (  # type: ignore[method-assign]
                lambda trigger: matcher.find_group(trigger, coordinator._pool, coordinator._index)
            )
        # standing pool: every pair decision scans past these pending queries
        for index in range(POLICY_NOISE_SINGLETONS):
            system.submit_entangled(
                policy_pair_sql(f"noise-{index}", f"ghost-{index}"), owner=f"noise-{index}"
            )
        started = time.perf_counter()
        for index in range(POLICY_MEASURED_PAIRS):
            left, right = f"p{index}a", f"p{index}b"
            system.submit_entangled(policy_pair_sql(left, right), owner=left)
            system.submit_entangled(policy_pair_sql(right, left), owner=right)
        elapsed = time.perf_counter() - started
        stats = system.statistics()
        answered = stats["queries_answered"]
        assert answered == 2 * POLICY_MEASURED_PAIRS, (
            f"{policy}: only {answered} of {2 * POLICY_MEASURED_PAIRS} answered"
        )
        return {
            "throughput_qps": answered / elapsed,
            "matching": coordinator.matching_statistics(),
        }
    finally:
        system.close()


def test_policy_overhead_vs_default_path(report):
    """first_match must stay within 0.8x of the no-policy-layer control."""
    control = run_policy_workload("first_match", bypass_policy_layer=True)
    first_match = run_policy_workload("first_match")
    priority = run_policy_workload("priority")
    fairness = run_policy_workload("fairness")

    default_ratio = first_match["throughput_qps"] / control["throughput_qps"]
    priority_ratio = priority["throughput_qps"] / first_match["throughput_qps"]
    fairness_ratio = fairness["throughput_qps"] / first_match["throughput_qps"]

    # the acceptance gate: the default path pays (almost) nothing for the seam
    assert default_ratio >= 0.8, f"default path ratio only {default_ratio:.2f}"

    # the default path never enumerates beyond the first group ...
    matching = first_match["matching"]
    assert matching["policy"] == "first_match"
    assert matching["decisions"] == POLICY_MEASURED_PAIRS
    assert matching["groups_enumerated"] == matching["decisions"]
    assert matching["groups_skipped"] == 0
    # ... while the enumerating policies inspected several candidates each
    for run in (priority, fairness):
        assert run["matching"]["decisions"] == POLICY_MEASURED_PAIRS
        assert run["matching"]["groups_enumerated"] > run["matching"]["decisions"]
        assert run["matching"]["groups_skipped"] > 0

    report(
        control_qps=round(control["throughput_qps"], 1),
        first_match_qps=round(first_match["throughput_qps"], 1),
        priority_qps=round(priority["throughput_qps"], 1),
        fairness_qps=round(fairness["throughput_qps"], 1),
        default_path_ratio=round(default_ratio, 3),
        priority_ratio=round(priority_ratio, 3),
        fairness_ratio=round(fairness_ratio, 3),
        enumerated_priority=priority["matching"]["groups_enumerated"],
    )
