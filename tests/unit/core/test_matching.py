"""Unit tests for the two-phase matching algorithm."""

from __future__ import annotations

import random

import pytest

from repro.core import ir
from repro.core.compiler import EntangledQueryBuilder, var
from repro.core.matching import GridProviderIndex, Matcher
from repro.relalg.engine import QueryEngine, run_script
from repro.storage.database import Database


@pytest.fixture
def engine() -> QueryEngine:
    engine = QueryEngine(Database())
    run_script(
        engine,
        """
        CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price REAL);
        CREATE TABLE Hotels (hid INT PRIMARY KEY, city TEXT, price REAL);
        INSERT INTO Flights VALUES
            (122, 'Paris', 450.0), (123, 'Paris', 500.0), (134, 'Paris', 700.0),
            (136, 'Rome', 300.0);
        INSERT INTO Hotels VALUES (7, 'Paris', 120.0), (8, 'Paris', 300.0), (9, 'Rome', 80.0);
        """,
    )
    return engine


@pytest.fixture
def matcher(engine) -> Matcher:
    return Matcher(engine, rng=random.Random(0))


def flight_query(owner: str, partner: str, dest: str = "Paris", max_price: float | None = None,
                 query_id: str | None = None):
    conditions = [f"dest = '{dest}'"]
    if max_price is not None:
        conditions.append(f"price <= {max_price}")
    return (
        EntangledQueryBuilder(owner=owner)
        .head("Reservation", owner, var("fno"))
        .domain("fno", f"SELECT fno FROM Flights WHERE {' AND '.join(conditions)}")
        .require("Reservation", partner, var("fno"))
        .build(query_id=query_id or owner)
    )


def as_pool(*queries):
    return {query.query_id: query for query in queries}


def build_index(pool):
    index = GridProviderIndex()
    for query in pool.values():
        index.add_query(query)
    return index


class TestPairMatching:
    def test_symmetric_pair_matches_on_shared_flight(self, matcher):
        kramer = flight_query("Kramer", "Jerry")
        jerry = flight_query("Jerry", "Kramer")
        pool = as_pool(kramer, jerry)
        group = matcher.find_group(jerry, pool, build_index(pool))
        assert group is not None
        assert set(group.query_ids) == {"Kramer", "Jerry"}
        contents = group.answer_relation_contents()["Reservation"]
        fnos = {fno for _traveler, fno in contents}
        assert len(fnos) == 1 and fnos.pop() in (122, 123, 134)
        travelers = {traveler for traveler, _ in contents}
        assert travelers == {"Kramer", "Jerry"}

    def test_single_query_with_constraint_does_not_match_alone(self, matcher):
        kramer = flight_query("Kramer", "Jerry")
        pool = as_pool(kramer)
        assert matcher.find_group(kramer, pool, build_index(pool)) is None

    def test_self_contained_query_matches_alone(self, matcher):
        solo = (
            EntangledQueryBuilder(owner="Newman")
            .head("Reservation", "Newman", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Rome'")
            .build(query_id="solo")
        )
        pool = as_pool(solo)
        group = matcher.find_group(solo, pool, build_index(pool))
        assert group is not None
        assert group.answer_relation_contents()["Reservation"] == [("Newman", 136)]

    def test_incompatible_price_constraints_prevent_grounding(self, matcher):
        cheap = flight_query("Kramer", "Jerry", max_price=460.0)
        pricey = (
            EntangledQueryBuilder(owner="Jerry")
            .head("Reservation", "Jerry", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris' AND price >= 600")
            .require("Reservation", "Kramer", var("fno"))
            .build(query_id="Jerry")
        )
        pool = as_pool(cheap, pricey)
        assert matcher.find_group(pricey, pool, build_index(pool)) is None

    def test_overlapping_price_windows_pick_common_flight(self, matcher):
        below_510 = flight_query("Kramer", "Jerry", max_price=510.0)
        above_480 = (
            EntangledQueryBuilder(owner="Jerry")
            .head("Reservation", "Jerry", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris' AND price >= 480")
            .require("Reservation", "Kramer", var("fno"))
            .build(query_id="Jerry")
        )
        pool = as_pool(below_510, above_480)
        group = matcher.find_group(above_480, pool, build_index(pool))
        assert group is not None
        fnos = {fno for _t, fno in group.answer_relation_contents()["Reservation"]}
        assert fnos == {123}

    def test_different_destinations_do_not_match(self, matcher):
        paris = flight_query("Kramer", "Jerry", dest="Paris")
        rome = flight_query("Jerry", "Kramer", dest="Rome")
        pool = as_pool(paris, rome)
        assert matcher.find_group(rome, pool, build_index(pool)) is None

    def test_wrong_partner_name_does_not_match(self, matcher):
        kramer = flight_query("Kramer", "Jerry")
        elaine = flight_query("Elaine", "Kramer")
        pool = as_pool(kramer, elaine)
        assert matcher.find_group(elaine, pool, build_index(pool)) is None


class TestGroupsAndMultiRelation:
    def group_queries(self, members, dest="Paris"):
        queries = []
        for member in members:
            builder = (
                EntangledQueryBuilder(owner=member)
                .head("Reservation", member, var("fno"))
                .domain("fno", f"SELECT fno FROM Flights WHERE dest = '{dest}'")
            )
            for other in members:
                if other != member:
                    builder.require("Reservation", other, var("fno"))
            queries.append(builder.build(query_id=member))
        return queries

    def test_group_of_four_on_same_flight(self, matcher):
        members = ["A", "B", "C", "D"]
        queries = self.group_queries(members)
        pool = as_pool(*queries)
        group = matcher.find_group(queries[-1], pool, build_index(pool))
        assert group is not None
        assert set(group.query_ids) == set(members)
        fnos = {fno for _t, fno in group.answer_relation_contents()["Reservation"]}
        assert len(fnos) == 1

    def test_partial_group_does_not_match(self, matcher):
        members = ["A", "B", "C"]
        queries = self.group_queries(members)[:2]  # C never submits
        pool = as_pool(*queries)
        assert matcher.find_group(queries[0], pool, build_index(pool)) is None

    def test_flight_and_hotel_coordination(self, matcher):
        def query(owner, partner):
            return (
                EntangledQueryBuilder(owner=owner)
                .head("Reservation", owner, var("fno"))
                .head("HotelReservation", owner, var("hid"))
                .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris'")
                .domain("hid", "SELECT hid FROM Hotels WHERE city = 'Paris'")
                .require("Reservation", partner, var("fno"))
                .require("HotelReservation", partner, var("hid"))
                .build(query_id=owner)
            )

        jerry, kramer = query("Jerry", "Kramer"), query("Kramer", "Jerry")
        pool = as_pool(jerry, kramer)
        group = matcher.find_group(kramer, pool, build_index(pool))
        assert group is not None
        contents = group.answer_relation_contents()
        flight_choice = {fno for _t, fno in contents["Reservation"]}
        hotel_choice = {hid for _t, hid in contents["HotelReservation"]}
        assert len(flight_choice) == 1 and len(hotel_choice) == 1

    def test_max_group_size_limits_search(self, engine):
        matcher = Matcher(engine, rng=random.Random(0), max_group_size=2)
        queries = self.group_queries(["A", "B", "C"])
        pool = as_pool(*queries)
        assert matcher.find_group(queries[0], pool, build_index(pool)) is None


class TestChooseK:
    def test_choose_two_returns_two_distinct_tuples(self, matcher):
        query = (
            EntangledQueryBuilder(owner="Newman")
            .head("Reservation", "Newman", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris'")
            .choose(2)
            .build(query_id="newman")
        )
        pool = as_pool(query)
        group = matcher.find_group(query, pool, build_index(pool))
        assert group is not None
        tuples = group.answer_relation_contents()["Reservation"]
        assert len(tuples) == 2
        assert len(set(tuples)) == 2

    def test_choose_more_than_available_fails(self, matcher):
        query = (
            EntangledQueryBuilder(owner="Newman")
            .head("Reservation", "Newman", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Rome'")
            .choose(3)
            .build(query_id="newman")
        )
        pool = as_pool(query)
        assert matcher.find_group(query, pool, build_index(pool)) is None


class TestStatisticsAndDeterminism:
    def test_statistics_are_recorded(self, matcher):
        kramer = flight_query("Kramer", "Jerry")
        jerry = flight_query("Jerry", "Kramer")
        pool = as_pool(kramer, jerry)
        group = matcher.find_group(jerry, pool, build_index(pool))
        stats = group.statistics
        assert stats.structural_nodes >= 1
        assert stats.unification_attempts >= 1
        assert stats.grounding_attempts >= 1
        assert stats.domain_queries >= 1

    def test_same_seed_gives_same_choice(self, engine):
        def run(seed):
            matcher = Matcher(engine, rng=random.Random(seed))
            kramer = flight_query("Kramer", "Jerry")
            jerry = flight_query("Jerry", "Kramer")
            pool = as_pool(kramer, jerry)
            group = matcher.find_group(jerry, pool, build_index(pool))
            return sorted(group.answer_relation_contents()["Reservation"])

        assert run(7) == run(7)

    def test_trigger_must_be_in_pool(self, matcher):
        from repro.errors import EntanglementError

        stray = flight_query("Kramer", "Jerry")
        with pytest.raises(EntanglementError):
            matcher.find_group(stray, {}, GridProviderIndex())

    def test_minimality_answer_relation_equals_group_heads(self, matcher):
        """The produced answer relation contains exactly the group's head tuples."""
        kramer = flight_query("Kramer", "Jerry")
        jerry = flight_query("Jerry", "Kramer")
        bystander = flight_query("Elaine", "George")
        pool = as_pool(kramer, jerry, bystander)
        group = matcher.find_group(jerry, pool, build_index(pool))
        contents = group.answer_relation_contents()["Reservation"]
        travelers = sorted(traveler for traveler, _ in contents)
        assert travelers == ["Jerry", "Kramer"]  # Elaine is not dragged in
