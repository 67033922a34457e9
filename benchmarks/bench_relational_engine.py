"""Substrate micro-benchmarks: parser and relational execution engine.

Not an experiment from the paper, but the coordination path grounds every
entangled query through these components, so their costs bound the end-to-end
numbers of E10.  Reported for completeness and for catching regressions in the
substrate.
"""

from __future__ import annotations

import pytest

from repro.apps.travel.dataset import generate_dataset, install_and_load
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.sqlparser import parse_statement

COMPLEX_SQL = (
    "SELECT f.dest, COUNT(*) AS n, AVG(f.price) AS avg_price "
    "FROM Flights f JOIN Seats s ON f.fno = s.fno "
    "WHERE f.price BETWEEN 100 AND 900 AND f.seats > 0 "
    "GROUP BY f.dest HAVING COUNT(*) > 1 ORDER BY n DESC LIMIT 5"
)

ENTANGLED_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)


@pytest.fixture(scope="module")
def loaded_system():
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    install_and_load(system, generate_dataset(num_flights=400, num_hotels=100,
                                              num_users=50, seed=0))
    system.database.table("Flights").create_index("by_dest", ["dest"])
    return system


def test_parse_plain_select(benchmark, report):
    statement = benchmark(lambda: parse_statement(COMPLEX_SQL))
    report(statement="complex aggregate join", tokens=len(COMPLEX_SQL.split()))
    assert statement is not None


def test_parse_entangled_select(benchmark, report):
    statement = benchmark(lambda: parse_statement(ENTANGLED_SQL))
    report(statement="paper example", tokens=len(ENTANGLED_SQL.split()))
    assert statement is not None


def test_point_lookup_via_index(benchmark, report, loaded_system):
    result = benchmark(
        lambda: loaded_system.query("SELECT fno FROM Flights WHERE dest = 'Paris' AND seats > 0")
    )
    report(rows=len(result), table_rows=400, plan="IndexLookup")
    assert len(result) > 0


def test_join_aggregate_query(benchmark, report, loaded_system):
    result = benchmark(lambda: loaded_system.query(COMPLEX_SQL))
    report(rows=len(result), plan="Join+Aggregate+Sort")
    assert len(result) > 0


def test_insert_throughput(benchmark, report, loaded_system):
    counter = iter(range(10_000_000, 20_000_000))

    def insert_row():
        fno = next(counter)
        loaded_system.execute(
            f"INSERT INTO Flights VALUES ({fno}, 'Ithaca', 'Paris', '2011-06-13', 500.0, 10, 'United')"
        )

    benchmark(insert_row)
    report(table="Flights", unit="single-row INSERT")
