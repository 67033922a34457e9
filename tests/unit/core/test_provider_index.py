"""Unit tests for the grid provider index over pending queries' head atoms."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import ir
from repro.core.compiler import EntangledQueryBuilder, var
from repro.core.matchplan import GridProviderIndex, Provider


def make_query(query_id: str, traveler: str, relation: str = "Reservation"):
    return (
        EntangledQueryBuilder(owner=traveler)
        .head(relation, traveler, var("fno"))
        .domain("fno", "SELECT fno FROM Flights")
        .build(query_id=query_id)
    )


@pytest.fixture
def index() -> GridProviderIndex:
    index = GridProviderIndex()
    index.add_query(make_query("q1", "Jerry"))
    index.add_query(make_query("q2", "Kramer"))
    index.add_query(make_query("q3", "Elaine", relation="HotelReservation"))
    return index


def atom(relation: str, *terms):
    converted = tuple(
        term if isinstance(term, (ir.Constant, ir.Variable)) else ir.Constant(term)
        for term in terms
    )
    return ir.Atom(relation, converted)


class TestCandidates:
    def test_constant_position_narrows_candidates(self, index):
        candidates = index.candidates(atom("Reservation", "Jerry", ir.Variable("fno")))
        assert candidates == [Provider("q1", 0)]

    def test_variable_position_matches_all(self, index):
        candidates = index.candidates(atom("Reservation", ir.Variable("who"), ir.Variable("fno")))
        assert [provider.query_id for provider in candidates] == ["q1", "q2"]

    def test_relation_name_is_case_insensitive(self, index):
        candidates = index.candidates(atom("reservation", "Kramer", ir.Variable("fno")))
        assert candidates == [Provider("q2", 0)]

    def test_arity_mismatch_yields_nothing(self, index):
        assert index.candidates(atom("Reservation", "Jerry")) == []

    def test_unknown_relation_yields_nothing(self, index):
        assert index.candidates(atom("SeatBlock", "Jerry", 1, 2)) == []

    def test_unknown_constant_yields_nothing(self, index):
        assert index.candidates(atom("Reservation", "George", ir.Variable("fno"))) == []

    def test_candidates_preserve_insertion_order(self):
        """Same pool state → same candidate order, regardless of hash seeds."""
        index = GridProviderIndex()
        ids = [f"q{number}" for number in range(12)]
        for query_id in ids:
            index.add_query(make_query(query_id, "Jerry"))
        probe = atom("Reservation", "Jerry", ir.Variable("fno"))
        ordered = [provider.query_id for provider in index.candidates(probe)]
        assert ordered == ids
        # Removal keeps the remaining order; re-adding appends at the end.
        index.remove_query(make_query("q3", "Jerry"))
        index.add_query(make_query("q3", "Jerry"))
        reordered = [provider.query_id for provider in index.candidates(probe)]
        assert reordered == [qid for qid in ids if qid != "q3"] + ["q3"]


class TestMaintenance:
    def test_remove_query(self, index):
        index.remove_query(make_query("q1", "Jerry"))
        assert index.candidates(atom("Reservation", "Jerry", ir.Variable("fno"))) == []
        assert len(index) == 2

    def test_multi_head_queries_register_every_head(self):
        index = GridProviderIndex()
        query = (
            EntangledQueryBuilder(owner="Jerry")
            .head("Reservation", "Jerry", var("fno"))
            .head("HotelReservation", "Jerry", var("hid"))
            .domain("fno", "SELECT fno FROM Flights")
            .domain("hid", "SELECT hid FROM Hotels")
            .build(query_id="multi")
        )
        index.add_query(query)
        assert len(index) == 2
        assert index.candidates(atom("HotelReservation", "Jerry", ir.Variable("hid"))) == [
            Provider("multi", 1)
        ]
        assert index.atom_of(Provider("multi", 0)).relation == "Reservation"

    def test_constant_heads_still_require_exact_match(self):
        index = GridProviderIndex()
        query = EntangledQueryBuilder().head("Ping", "hello", 1).build(query_id="p")
        index.add_query(query)
        assert index.candidates(atom("Ping", "hello", 1)) == [Provider("p", 0)]
        assert index.candidates(atom("Ping", "hello", 2)) == []


DETERMINISM_SCRIPT = """
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem

system = YoutopiaSystem(config=SystemConfig(seed=0))
system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
system.execute("INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris'), (3, 'Paris')")
system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
jerry_sql = (
    "SELECT 'Jerry', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
)
kramer_sql = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)
# six interchangeable providers for Kramer's constraint: which one is matched
# depends entirely on candidate order (plus the seeded rng)
for index in range(6):
    system.submit_entangled(jerry_sql, owner=f"jerry-{index}")
trigger = system.submit_entangled(kramer_sql, owner="kramer")
print(sorted(trigger.group_query_ids))
print(sorted(system.answers("Reservation")))
system.close()
"""


class TestDeterministicMatching:
    def test_same_pool_yields_identical_answers_across_hash_seeds(self):
        """Regression: candidate buckets were ``set``s, so the matched partner
        (and chosen flight) varied with ``PYTHONHASHSEED``.  The same pool
        submitted twice — in separate interpreters with different hash seeds —
        must now produce identical answers."""
        src = Path(__file__).resolve().parents[3] / "src"

        def run(hash_seed: str) -> str:
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(src))
            result = subprocess.run(
                [sys.executable, "-c", DETERMINISM_SCRIPT],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert result.returncode == 0, result.stderr
            return result.stdout

        first, second = run("1"), run("2")
        assert first == second
        assert "jerry" not in first  # group ids are query ids, sanity only
        assert "Kramer" in first and "Jerry" in first
