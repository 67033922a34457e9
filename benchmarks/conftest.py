"""Shared helpers for the benchmark harness.

Most benchmarks correspond to an experiment id in DESIGN.md / EXPERIMENTS.md
(E1, E3-E8, E10, E13-E16).  The helpers here build fresh systems and workloads
so each measured round starts from a clean pending pool.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.config import SystemConfig  # noqa: E402
from repro.core.system import YoutopiaSystem  # noqa: E402
from repro.workloads import (  # noqa: E402
    WorkloadConfig,
    WorkloadGenerator,
    build_loaded_system,
)

KRAMER_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)
JERRY_SQL = (
    "SELECT 'Jerry', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
)


def figure1_system(seed: int = 0) -> YoutopiaSystem:
    """The four-flight database of Figure 1(a)."""
    system = YoutopiaSystem(config=SystemConfig(seed=seed))
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    system.execute(
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), (136, 'Rome')"
    )
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


def pair_workload(num_pairs: int, seed: int = 0, num_unmatchable: int = 0):
    """A loaded system plus a generated pair workload, ready to submit."""
    system, service, _friends = build_loaded_system(
        num_flights=120, num_hotels=40, num_users=4, seed=seed
    )
    generator = WorkloadGenerator(
        service,
        WorkloadConfig(
            num_pairs=num_pairs,
            num_unmatchable=num_unmatchable,
            shuffle_arrivals=True,
            seed=seed,
        ),
    )
    return system, generator.generate()


def group_workload(num_groups: int, group_size: int, seed: int = 0):
    system, service, _friends = build_loaded_system(
        num_flights=120, num_hotels=40, num_users=4, seed=seed
    )
    generator = WorkloadGenerator(service, WorkloadConfig(seed=seed))
    return system, generator.group_items(num_groups, group_size)


@pytest.fixture
def report(request, capsys):
    """Print a labelled result line that survives pytest's output capture.

    Benchmarks use this to emit the 'table row' each experiment reports
    (throughput, pool sizes, match counts) alongside pytest-benchmark's timing
    table, so EXPERIMENTS.md can be regenerated from the benchmark output.
    """

    def _report(**fields):
        with capsys.disabled():
            rendered = ", ".join(f"{key}={value}" for key, value in fields.items())
            print(f"\n[{request.node.name}] {rendered}")

    return _report
