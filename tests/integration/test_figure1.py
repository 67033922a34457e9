"""Integration test for experiment E1: the worked example of Figure 1.

The database is exactly Figure 1(a) (four flights, the Airlines table), the
queries are exactly Kramer's query from Section 2.1 and Jerry's symmetric
query, and the assertions check Figure 1(b): both queries receive one answer
tuple, with the same flight number, and that flight is one of the Paris
flights 122/123/134.
"""

from __future__ import annotations

import pytest

from repro.core.coordinator import QueryStatus
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem


class TestFigure1:
    def test_mutual_constraint_satisfaction(self, figure1_system, kramer_sql, jerry_sql):
        system = figure1_system
        kramer = system.submit_entangled(kramer_sql, owner="Kramer")
        # Kramer alone cannot be answered: his constraint refers to Jerry's tuple.
        assert kramer.status is QueryStatus.PENDING

        jerry = system.submit_entangled(jerry_sql, owner="Jerry")
        assert jerry.status is QueryStatus.ANSWERED
        assert kramer.status is QueryStatus.ANSWERED

        reservation = system.answers("Reservation")
        assert len(reservation) == 2
        by_traveler = dict(reservation)
        assert set(by_traveler) == {"Kramer", "Jerry"}
        # coordinated choice: the same flight for both, and a Paris flight
        assert by_traveler["Kramer"] == by_traveler["Jerry"]
        assert by_traveler["Kramer"] in (122, 123, 134)

    def test_choice_is_nondeterministic_across_seeds(self, kramer_sql, jerry_sql):
        """Different seeds can pick different Paris flights (122, 123 or 134)."""
        chosen = set()
        for seed in range(8):
            system = YoutopiaSystem(config=SystemConfig(seed=seed))
            system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
            system.execute(
                "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), "
                "(134, 'Paris'), (136, 'Rome')"
            )
            system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
            system.submit_entangled(kramer_sql, owner="Kramer")
            system.submit_entangled(jerry_sql, owner="Jerry")
            chosen.add(system.answers("Reservation")[0][1])
        assert chosen <= {122, 123, 134}
        assert len(chosen) >= 2

    def test_rome_flight_is_never_chosen(self, figure1_system, kramer_sql, jerry_sql):
        figure1_system.submit_entangled(kramer_sql, owner="Kramer")
        figure1_system.submit_entangled(jerry_sql, owner="Jerry")
        assert all(fno != 136 for _traveler, fno in figure1_system.answers("Reservation"))

    def test_answers_join_with_airlines(self, figure1_system, kramer_sql, jerry_sql):
        """After coordination, plain SQL can join the answer relation with base tables."""
        figure1_system.submit_entangled(kramer_sql, owner="Kramer")
        figure1_system.submit_entangled(jerry_sql, owner="Jerry")
        result = figure1_system.query(
            "SELECT r.traveler, a.airline FROM Reservation r JOIN Airlines a ON r.fno = a.fno "
            "ORDER BY r.traveler"
        )
        assert [row[0] for row in result.rows] == ["Jerry", "Kramer"]
        airlines = {row[1] for row in result.rows}
        assert len(airlines) == 1  # same flight, hence the same airline
        assert airlines <= {"United", "Lufthansa"}

    def test_submission_order_does_not_matter(self, figure1_system, kramer_sql, jerry_sql):
        jerry = figure1_system.submit_entangled(jerry_sql, owner="Jerry")
        assert jerry.status is QueryStatus.PENDING
        kramer = figure1_system.submit_entangled(kramer_sql, owner="Kramer")
        assert kramer.status is QueryStatus.ANSWERED and jerry.status is QueryStatus.ANSWERED
