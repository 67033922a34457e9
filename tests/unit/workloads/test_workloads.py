"""Unit tests for workload generation and the named demo scenarios."""

from __future__ import annotations

import pytest

from repro.core.coordinator import QueryStatus
from repro.core.safety import check
from repro.workloads import (
    SCENARIOS,
    WorkloadConfig,
    WorkloadGenerator,
    adhoc_chain,
    build_loaded_system,
    group_flight,
    group_flight_hotel,
    loaded_system,
    many_pairs,
    pair_flight,
    pair_flight_hotel,
    run_workload,
)


@pytest.fixture(scope="module")
def loaded():
    return build_loaded_system(num_flights=24, num_hotels=12, num_users=32, seed=0)


class TestGenerator:
    def test_pair_items_are_symmetric_and_safe(self, loaded):
        _system, service, _friends = loaded
        generator = WorkloadGenerator(service, WorkloadConfig(seed=1))
        items = generator.pair_items(3)
        assert len(items) == 6
        for item in items:
            assert check(item.query).admissible
        # partners reference each other
        first, second = items[0], items[1]
        assert first.owner in str(second.query.answer_atoms[0])
        assert second.owner in str(first.query.answer_atoms[0])

    def test_group_items_require_all_companions(self, loaded):
        _system, service, _friends = loaded
        generator = WorkloadGenerator(service, WorkloadConfig(seed=2))
        items = generator.group_items(1, 4)
        assert len(items) == 4
        assert all(len(item.query.answer_atoms) == 3 for item in items)

    def test_group_items_with_hotel_have_two_heads(self, loaded):
        _system, service, _friends = loaded
        generator = WorkloadGenerator(service, WorkloadConfig(seed=2))
        items = generator.group_items(1, 3, book_hotel=True)
        assert all(len(item.query.heads) == 2 for item in items)

    def test_unmatchable_items_reference_ghost_partners(self, loaded):
        _system, service, _friends = loaded
        generator = WorkloadGenerator(service, WorkloadConfig(seed=3))
        items = generator.unmatchable_items(2)
        assert all("ghost" in str(item.query.answer_atoms[0]) for item in items)

    def test_generate_respects_config_and_is_deterministic(self, loaded):
        _system, service, _friends = loaded
        config = WorkloadConfig(num_pairs=4, num_groups=1, group_size=3,
                                num_unmatchable=2, seed=9)
        first = WorkloadGenerator(service, config).generate()
        second = WorkloadGenerator(service, config).generate()
        assert len(first) == 4 * 2 + 3 + 2
        assert [item.owner for item in first] == [item.owner for item in second]

    def test_users_are_fresh_across_calls(self, loaded):
        _system, service, _friends = loaded
        generator = WorkloadGenerator(service, WorkloadConfig(seed=4))
        first = generator.pair_items(1)
        second = generator.pair_items(1)
        assert {item.owner for item in first}.isdisjoint({item.owner for item in second})


class TestRunWorkload:
    def test_run_workload_reports_counts(self):
        system, service, _friends = build_loaded_system(
            num_flights=12, num_hotels=6, num_users=8, seed=5
        )
        generator = WorkloadGenerator(service, WorkloadConfig(seed=5))
        items = generator.pair_items(2) + generator.unmatchable_items(1)
        result = run_workload(system, items)
        assert result.submitted == 5
        assert result.answered == 4
        assert result.pending == 1
        assert not result.all_answered
        assert result.statistics["groups_matched"] == 2
        assert result.elapsed_seconds >= 0


class TestScenarios:
    @pytest.mark.parametrize("scenario", [pair_flight, pair_flight_hotel])
    def test_pair_scenarios_coordinate(self, scenario):
        outcome = scenario(seed=0)
        assert outcome.coordinated
        assert len(outcome.answer_relation("Reservation")) == 2

    def test_group_scenarios_coordinate(self):
        for group_size in (2, 4, 8):
            outcome = group_flight(group_size=group_size, seed=0)
            assert outcome.coordinated, group_size
            flights = {fno for _t, fno in outcome.answer_relation("Reservation")}
            assert len(flights) == 1

        for group_size in (2, 3, 4):
            hotel_outcome = group_flight_hotel(group_size=group_size, seed=0)
            assert hotel_outcome.coordinated, group_size
            assert len(hotel_outcome.answer_relation("HotelReservation")) == group_size

    def test_many_pairs_scenario(self):
        for num_pairs in (5, 64):
            outcome = many_pairs(num_pairs=num_pairs, seed=0)
            assert outcome.coordinated, num_pairs
            assert outcome.result.submitted == 2 * num_pairs

    def test_adhoc_chain_scenario(self):
        for length in (3, 5, 7):
            outcome = adhoc_chain(length=length, seed=0)
            assert outcome.coordinated, length
            # the whole chain ends up on one flight
            assert len({fno for _t, fno in outcome.answer_relation("Reservation")}) == 1

    def test_loaded_system_with_noise(self):
        outcome = loaded_system(num_pairs=10, num_unmatchable=3, seed=0)
        assert outcome.result.submitted == 23
        assert outcome.result.answered == 20
        assert outcome.result.pending == 3
        assert outcome.system.coordinator.pending_count() == 3

    def test_scenario_registry_contains_all(self):
        assert set(SCENARIOS) == {
            "pair_flight", "pair_flight_hotel", "many_pairs", "group_flight",
            "group_flight_hotel", "adhoc_chain", "loaded_system",
        }
