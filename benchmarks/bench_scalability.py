"""E10 — scalability of the coordination algorithm on a loaded system.

"We also demonstrate the scalability of our coordination algorithm by allowing
our examples to be run on a loaded system, where a large number of entangled
queries are trying to coordinate simultaneously."

Three sweeps:

* total submission time for N coordinating pairs (N up to several hundred) —
  expected shape: near-linear in N for the unification-based matcher;
* per-arrival match cost when the pool already contains many unmatchable
  pending queries (pool noise) — expected shape: roughly flat thanks to the
  (relation, constant-position) provider index;
* group-size sweep — cost grows with the size of the coordination group.
"""

from __future__ import annotations

import pytest

from conftest import group_workload, pair_workload
from repro.workloads import run_workload


@pytest.mark.parametrize("num_pairs", [25, 50, 100, 200])
def test_throughput_vs_number_of_pairs(benchmark, report, num_pairs):
    """Total time to submit and coordinate N independent pairs."""

    def setup():
        return pair_workload(num_pairs, seed=1), {}

    def run(system, items):
        result = run_workload(system, items)
        assert result.answered == 2 * num_pairs
        return result

    result = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    per_query_ms = 1000.0 * result.elapsed_seconds / result.submitted
    report(
        pairs=num_pairs,
        queries=result.submitted,
        per_query_ms=round(per_query_ms, 3),
        structural_nodes=result.statistics["structural_nodes"],
        domain_queries=result.statistics["domain_queries"],
    )


@pytest.mark.parametrize("noise", [0, 100, 400, 800])
def test_arrival_cost_with_pool_noise(benchmark, report, noise):
    """Cost of coordinating one fresh pair while `noise` unrelated queries wait."""

    def setup():
        system, items = pair_workload(1, seed=2, num_unmatchable=noise)
        noise_items = [item for item in items if not item.expected_group]
        pair_items = [item for item in items if item.expected_group]
        for item in noise_items:
            system.submit_entangled(item.query, owner=item.owner)
        assert system.coordinator.pending_count() == noise
        return (system, pair_items), {}

    def run(system, pair_items):
        requests = [
            system.submit_entangled(item.query, owner=item.owner) for item in pair_items
        ]
        assert all(request.is_answered for request in requests)
        return system

    system = benchmark.pedantic(run, setup=setup, rounds=5, iterations=1)
    report(
        pool_noise=noise,
        pending_after=system.coordinator.pending_count(),
        provider_index_size=system.coordinator.provider_index_size(),
    )


@pytest.mark.parametrize("group_size", [2, 4, 8, 12])
def test_group_size_sweep(benchmark, report, group_size):
    """Cost of coordinating a single group as the group grows."""

    def setup():
        return group_workload(1, group_size, seed=3), {}

    def run(system, items):
        result = run_workload(system, items)
        assert result.answered == group_size
        return result

    result = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    report(
        group_size=group_size,
        structural_nodes=result.statistics["structural_nodes"],
        unification_attempts=result.statistics["unification_attempts"],
    )


@pytest.mark.parametrize("num_pairs", [50, 200])
def test_mixed_load_with_hotel_coordination(benchmark, report, num_pairs):
    """Pairs where half also coordinate the hotel (two answer relations)."""
    from repro.workloads import WorkloadConfig, WorkloadGenerator, build_loaded_system

    def setup():
        system, service, _friends = build_loaded_system(
            num_flights=120, num_hotels=40, num_users=4, seed=4
        )
        generator = WorkloadGenerator(
            service,
            WorkloadConfig(num_pairs=num_pairs, flight_and_hotel_fraction=0.5, seed=4),
        )
        return (system, generator.generate()), {}

    def run(system, items):
        result = run_workload(system, items)
        assert result.all_answered
        return result

    result = benchmark.pedantic(run, setup=setup, rounds=3, iterations=1)
    report(pairs=num_pairs, queries=result.submitted,
           groups=result.statistics["groups_matched"])
