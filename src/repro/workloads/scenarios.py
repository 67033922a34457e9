"""Named demo scenarios (Section 3.1 of the paper) as runnable workloads.

Each function builds a fresh system with the travel schema/dataset, generates
the scenario's coordination requests, submits them, and returns a
:class:`ScenarioOutcome` that records whether everyone was answered and what
they were answered with.  The unit and integration tests drive these
functions, so they check exactly the code path the demo exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.apps.travel.service import TravelService
from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem
from repro.workloads.generator import (
    WorkloadConfig,
    WorkloadGenerator,
    WorkloadItem,
    WorkloadResult,
    build_loaded_system,
    run_workload,
)


@dataclass
class ScenarioOutcome:
    """The result of running one named scenario."""

    name: str
    result: WorkloadResult
    system: YoutopiaSystem
    service: TravelService
    answers: dict[str, list[tuple[Any, ...]]] = field(default_factory=dict)

    @property
    def coordinated(self) -> bool:
        """Whether every submitted request in the scenario was answered."""
        return self.result.all_answered

    def answer_relation(self, relation: str) -> list[tuple[Any, ...]]:
        return self.answers.get(relation, [])


def _collect_answers(system: YoutopiaSystem) -> dict[str, list[tuple[Any, ...]]]:
    return {name: system.answers(name) for name in system.answer_relations.names()}


def _run(name: str, items, system, service) -> ScenarioOutcome:
    result = run_workload(system, items)
    return ScenarioOutcome(
        name=name,
        result=result,
        system=system,
        service=service,
        answers=_collect_answers(system),
    )


def _fresh(
    seed: int, config: Optional[SystemConfig]
) -> tuple[YoutopiaSystem, TravelService, WorkloadGenerator]:
    system, service, _friends = build_loaded_system(seed=seed, config=config)
    generator = WorkloadGenerator(service, WorkloadConfig(seed=seed))
    return system, service, generator


# ---------------------------------------------------------------------------
# E3 — Book a flight with a friend
# ---------------------------------------------------------------------------


def pair_flight(seed: int = 0, config: Optional[SystemConfig] = None) -> ScenarioOutcome:
    """Two friends coordinate a flight to the same destination (E3)."""
    system, service, generator = _fresh(seed, config)
    items = generator.pair_items(1, book_hotel=False)
    return _run("pair_flight", items, system, service)


# ---------------------------------------------------------------------------
# E4 — Book a flight and a hotel with a friend
# ---------------------------------------------------------------------------


def pair_flight_hotel(seed: int = 0, config: Optional[SystemConfig] = None) -> ScenarioOutcome:
    """Two friends coordinate flight *and* hotel in single entangled queries (E4)."""
    system, service, generator = _fresh(seed, config)
    items = generator.pair_items(1, book_hotel=True)
    return _run("pair_flight_hotel", items, system, service)


# ---------------------------------------------------------------------------
# E5 — Multiple simultaneous bookings
# ---------------------------------------------------------------------------


def many_pairs(
    num_pairs: int = 16, seed: int = 0, config: Optional[SystemConfig] = None
) -> ScenarioOutcome:
    """Many independent pairs coordinating concurrently (E5)."""
    system, service, generator = _fresh(seed, config)
    items = generator.pair_items(num_pairs, book_hotel=False)
    generator.rng.shuffle(items)
    return _run(f"many_pairs[{num_pairs}]", items, system, service)


# ---------------------------------------------------------------------------
# E6 / E7 — Group bookings
# ---------------------------------------------------------------------------


def group_flight(
    group_size: int = 4, seed: int = 0, config: Optional[SystemConfig] = None
) -> ScenarioOutcome:
    """A group of friends coordinates on one flight (E6; the demo uses 4)."""
    system, service, generator = _fresh(seed, config)
    items = generator.group_items(1, group_size, book_hotel=False)
    return _run(f"group_flight[{group_size}]", items, system, service)


def group_flight_hotel(
    group_size: int = 4, seed: int = 0, config: Optional[SystemConfig] = None
) -> ScenarioOutcome:
    """A group coordinates on both the flight and the hotel (E7)."""
    system, service, generator = _fresh(seed, config)
    items = generator.group_items(1, group_size, book_hotel=True)
    return _run(f"group_flight_hotel[{group_size}]", items, system, service)


# ---------------------------------------------------------------------------
# E8 — Ad-hoc coordination structures
# ---------------------------------------------------------------------------


def adhoc_chain(
    length: int = 3, seed: int = 0, config: Optional[SystemConfig] = None
) -> ScenarioOutcome:
    """A chain of overlapping pairwise constraints (E8, the Jerry/Kramer/Elaine case)."""
    system, service, generator = _fresh(seed, config)
    items = generator.adhoc_chain_items(length)
    return _run(f"adhoc_chain[{length}]", items, system, service)


# ---------------------------------------------------------------------------
# E10 — loaded system
# ---------------------------------------------------------------------------


def loaded_system(
    num_pairs: int = 100,
    num_unmatchable: int = 0,
    group_size: int = 0,
    num_groups: int = 0,
    seed: int = 0,
    config: Optional[SystemConfig] = None,
) -> ScenarioOutcome:
    """A loaded system with many entangled queries coordinating simultaneously (E10)."""
    system, service, _friends = build_loaded_system(seed=seed, config=config)
    config = WorkloadConfig(
        num_pairs=num_pairs,
        num_groups=num_groups,
        group_size=group_size or 4,
        num_unmatchable=num_unmatchable,
        shuffle_arrivals=True,
        seed=seed,
    )
    generator = WorkloadGenerator(service, config)
    items = generator.generate()
    return _run(f"loaded_system[pairs={num_pairs}]", items, system, service)


SCENARIOS: dict[str, Callable[..., ScenarioOutcome]] = {
    "pair_flight": pair_flight,
    "pair_flight_hotel": pair_flight_hotel,
    "many_pairs": many_pairs,
    "group_flight": group_flight,
    "group_flight_hotel": group_flight_hotel,
    "adhoc_chain": adhoc_chain,
    "loaded_system": loaded_system,
}
