"""Unit tests for the travel dataset generator and the synthetic friend graph."""

from __future__ import annotations

import pytest

from repro.apps.travel.dataset import (
    ANSWER_RELATIONS,
    figure1_rows,
    generate_dataset,
    install_and_load,
)
from repro.apps.travel.social import FriendGraph, generate_friend_graph
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.errors import UnknownUserError


class TestDatasetGeneration:
    def test_deterministic_for_same_seed(self):
        first = generate_dataset(seed=5)
        second = generate_dataset(seed=5)
        assert first.flights == second.flights
        assert first.hotels == second.hotels
        assert first.users == second.users

    def test_every_destination_has_flights_and_hotels(self):
        dataset = generate_dataset(num_flights=16, num_hotels=16, seed=1)
        flight_cities = {flight.dest for flight in dataset.flights}
        hotel_cities = {hotel.city for hotel in dataset.hotels}
        assert flight_cities == hotel_cities
        assert dataset.destinations == sorted(flight_cities)

    def test_requested_sizes_respected(self):
        dataset = generate_dataset(num_flights=10, num_hotels=5, num_users=7, seed=0)
        assert len(dataset.flights) == 10
        assert len(dataset.hotels) == 5
        assert len(dataset.users) == 7
        assert len(dataset.seat_blocks) == 20  # two blocks per flight

    def test_flight_numbers_unique(self):
        dataset = generate_dataset(num_flights=50, seed=2)
        fnos = [flight.fno for flight in dataset.flights]
        assert len(set(fnos)) == len(fnos)

    def test_figure1_rows_match_paper(self):
        flights, airlines = figure1_rows()
        assert flights == [(122, "Paris"), (123, "Paris"), (134, "Paris"), (136, "Rome")]
        assert airlines[2] == (134, "Lufthansa")

    def test_install_and_load_populates_tables(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        dataset = install_and_load(system, generate_dataset(num_flights=8, num_hotels=4,
                                                            num_users=6, seed=3))
        assert system.query("SELECT COUNT(*) FROM Flights").scalar() == 8
        assert system.query("SELECT COUNT(*) FROM Hotels").scalar() == 4
        assert system.query("SELECT COUNT(*) FROM Users").scalar() == 6
        assert system.query("SELECT COUNT(*) FROM Seats").scalar() == 16
        for relation in ANSWER_RELATIONS:
            assert system.answer_relations.is_declared(relation)
        assert dataset.destinations

    def test_install_default_dataset_when_none_given(self):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        dataset = install_and_load(system, seed=11)
        assert system.query("SELECT COUNT(*) FROM Flights").scalar() == len(dataset.flights)


class TestFriendGraph:
    def test_add_and_query_friendships(self):
        graph = FriendGraph(["Jerry", "Kramer", "Elaine"])
        graph.add_friendship("Jerry", "Kramer")
        graph.add_friendship("Kramer", "Elaine")
        assert graph.are_friends("Jerry", "Kramer")
        assert not graph.are_friends("Jerry", "Elaine")
        assert graph.friends_of("Kramer") == ["Elaine", "Jerry"]
        assert graph.mutual_friends("Jerry", "Elaine") == ["Kramer"]

    def test_self_friendship_rejected(self):
        graph = FriendGraph(["Jerry"])
        with pytest.raises(ValueError):
            graph.add_friendship("Jerry", "Jerry")

    def test_unknown_user_raises(self):
        graph = FriendGraph(["Jerry"])
        with pytest.raises(UnknownUserError):
            graph.friends_of("Newman")

    def test_remove_friendship(self):
        graph = FriendGraph()
        graph.add_friendship("A", "B")
        graph.remove_friendship("A", "B")
        assert not graph.are_friends("A", "B")
        assert len(graph) == 2

    def test_friend_pairs_listed_once(self):
        graph = FriendGraph()
        graph.add_friendship("A", "B")
        graph.add_friendship("B", "C")
        assert list(graph.friend_pairs()) == [("A", "B"), ("B", "C")]

    def test_generated_graph_is_connected_and_deterministic(self):
        users = [f"u{i}" for i in range(12)]
        first = generate_friend_graph(users, average_friends=3, seed=9)
        second = generate_friend_graph(users, average_friends=3, seed=9)
        assert list(first.friend_pairs()) == list(second.friend_pairs())
        # ring construction guarantees every user has at least two friends
        assert all(len(first.friends_of(user)) >= 2 for user in users)

    def test_generated_graph_export_to_networkx(self):
        graph = generate_friend_graph([f"u{i}" for i in range(6)], seed=0)
        exported = graph.to_networkx()
        assert exported.number_of_nodes() == 6
        import networkx

        assert networkx.is_connected(exported)

    def test_tiny_graphs(self):
        assert len(generate_friend_graph([], seed=0)) == 0
        single = generate_friend_graph(["only"], seed=0)
        assert single.friends_of("only") == []
