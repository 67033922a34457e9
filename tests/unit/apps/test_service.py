"""Unit tests for the travel middle tier (TravelService)."""

from __future__ import annotations

import pytest

from repro.apps.travel.dataset import generate_dataset, install_and_load
from repro.apps.travel.models import TripRequest
from repro.apps.travel.service import TravelService
from repro.apps.travel.social import FriendGraph
from repro.core.coordinator import QueryStatus
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.errors import BookingError


@pytest.fixture
def setup():
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    install_and_load(system, generate_dataset(num_flights=24, num_hotels=12, num_users=8, seed=7))
    friends = FriendGraph(["Jerry", "Kramer", "Elaine", "George", "Newman"])
    friends.add_friendship("Jerry", "Kramer")
    friends.add_friendship("Jerry", "Elaine")
    friends.add_friendship("Kramer", "Elaine")
    friends.add_friendship("Kramer", "George")
    service = TravelService(system, friends=friends)
    return system, service


class TestSearchAndBrowse:
    def test_search_flights_filters_and_sorts(self, setup):
        _system, service = setup
        flights = service.search_flights("Paris")
        assert flights
        assert all(flight.dest == "Paris" for flight in flights)
        prices = [flight.price for flight in flights]
        assert prices == sorted(prices)

    def test_search_flights_with_price_cap(self, setup):
        _system, service = setup
        capped = service.search_flights("Paris", max_price=500)
        assert all(flight.price <= 500 for flight in capped)

    def test_search_hotels(self, setup):
        _system, service = setup
        hotels = service.search_hotels("Paris", min_stars=3)
        assert all(hotel.stars >= 3 and hotel.city == "Paris" for hotel in hotels)

    def test_flight_lookup_unknown_number(self, setup):
        _system, service = setup
        with pytest.raises(BookingError):
            service.flight(99999)

    def test_friends_of_uses_graph(self, setup):
        _system, service = setup
        assert service.friends_of("Jerry") == ["Elaine", "Kramer"]

    def test_browse_flights_with_friends_shows_existing_bookings(self, setup):
        _system, service = setup
        flights = service.search_flights("Paris")
        target = flights[0]
        service.book_flight("Kramer", target.fno)
        listing = dict(
            (flight.fno, friends)
            for flight, friends in service.browse_flights_with_friends("Jerry", "Paris")
        )
        assert listing[target.fno] == ["Kramer"]
        # Newman is not Jerry's friend, so his bookings never show up
        service.book_flight("Newman", target.fno)
        listing = dict(
            (flight.fno, friends)
            for flight, friends in service.browse_flights_with_friends("Jerry", "Paris")
        )
        assert listing[target.fno] == ["Kramer"]


class TestDirectBooking:
    def test_book_flight_decrements_inventory(self, setup):
        system, service = setup
        target = service.search_flights("Rome")[0]
        request = service.book_flight("Jerry", target.fno)
        assert request.status is QueryStatus.ANSWERED
        assert service.flight(target.fno).seats == target.seats - 1
        assert ("Jerry", target.fno) in system.answers("Reservation")
        assert service.bookings_of("Jerry").flight.fno == target.fno

    def test_book_full_flight_rejected(self, setup):
        system, service = setup
        target = service.search_flights("Rome")[0]
        system.execute(f"UPDATE Flights SET seats = 0 WHERE fno = {target.fno}")
        with pytest.raises(BookingError):
            service.book_flight("Jerry", target.fno)


class TestCoordinationRequests:
    def test_pair_flight_coordination(self, setup):
        system, service = setup
        jerry = service.request_flight_with_friend("Jerry", "Kramer", "Paris")
        assert jerry.status is QueryStatus.PENDING
        kramer = service.request_flight_with_friend("Kramer", "Jerry", "Paris")
        assert jerry.status is QueryStatus.ANSWERED and kramer.status is QueryStatus.ANSWERED
        jerry_confirmation = service.confirmation_for(jerry)
        kramer_confirmation = service.confirmation_for(kramer)
        assert jerry_confirmation.flight.fno == kramer_confirmation.flight.fno
        assert jerry_confirmation.coordinated_with == ("Kramer",)
        # mailbox notifications (the "Facebook message")
        assert service.notifications_for("Jerry")
        assert service.notifications_for("Kramer")

    def test_non_friends_cannot_coordinate(self, setup):
        _system, service = setup
        with pytest.raises(BookingError):
            service.request_flight_with_friend("Jerry", "Newman", "Paris")
        with pytest.raises(BookingError):
            service.request_flight_with_friend("Jerry", "Jerry", "Paris")

    def test_trip_request_must_book_something(self, setup):
        _system, service = setup
        with pytest.raises(BookingError):
            service.request_trip(TripRequest(user="Jerry", destination="Paris", book_flight=False))

    def test_flight_and_hotel_coordination(self, setup):
        system, service = setup
        jerry = service.request_flight_and_hotel_with_friend("Jerry", "Kramer", "Paris")
        kramer = service.request_flight_and_hotel_with_friend("Kramer", "Jerry", "Paris")
        assert jerry.status is QueryStatus.ANSWERED and kramer.status is QueryStatus.ANSWERED
        flights = {fno for _t, fno in system.answers("Reservation")}
        hotels = {hid for _t, hid in system.answers("HotelReservation")}
        assert len(flights) == 1 and len(hotels) == 1

    def test_adjacent_seats_coordinate_on_seat_block(self, setup):
        system, service = setup
        jerry = service.request_flight_with_friend("Jerry", "Kramer", "Paris", adjacent_seats=True)
        kramer = service.request_flight_with_friend("Kramer", "Jerry", "Paris", adjacent_seats=True)
        assert jerry.status is QueryStatus.ANSWERED and kramer.status is QueryStatus.ANSWERED
        blocks = system.answers("SeatBlock")
        assert len(blocks) == 2
        assert len({(fno, block) for _traveler, fno, block in blocks}) == 1
        confirmation = service.confirmation_for(jerry)
        assert confirmation.seat is not None
        assert confirmation.seat.fno == confirmation.flight.fno

    def test_group_flight_booking(self, setup):
        system, service = setup
        members = ["Jerry", "Kramer", "Elaine"]
        service.friends.add_friendship("Jerry", "Elaine")
        requests = service.submit_group_flight(members, "Paris")
        assert all(request.status is QueryStatus.ANSWERED for request in requests.values())
        flights = {fno for _t, fno in system.answers("Reservation")}
        assert len(flights) == 1
        assert {t for t, _ in system.answers("Reservation")} == set(members)

    def test_group_needs_two_members(self, setup):
        _system, service = setup
        with pytest.raises(BookingError):
            service.submit_group_flight(["Jerry"], "Paris")
        with pytest.raises(BookingError):
            service.submit_group_flight_hotel(["Jerry"], "Paris")

    def test_inventory_decremented_per_traveler(self, setup):
        system, service = setup
        before = {flight.fno: flight.seats for flight in service.search_flights("Paris")}
        service.request_flight_with_friend("Jerry", "Kramer", "Paris")
        service.request_flight_with_friend("Kramer", "Jerry", "Paris")
        booked_fno = system.answers("Reservation")[0][1]
        assert service.flight(booked_fno).seats == before[booked_fno] - 2

    def test_price_constrained_coordination(self, setup):
        system, service = setup
        flights = service.search_flights("Paris")
        cheap_cap = flights[0].price  # only the cheapest flight qualifies
        jerry = service.request_flight_with_friend("Jerry", "Kramer", "Paris", max_price=cheap_cap)
        kramer = service.request_flight_with_friend("Kramer", "Jerry", "Paris", max_price=cheap_cap)
        assert jerry.status is QueryStatus.ANSWERED and kramer.status is QueryStatus.ANSWERED
        booked = {fno for _t, fno in system.answers("Reservation")}
        assert booked == {flights[0].fno}

    def test_confirmation_for_pending_request_is_none(self, setup):
        _system, service = setup
        jerry = service.request_flight_with_friend("Jerry", "Kramer", "Paris")
        assert service.confirmation_for(jerry) is None

    def test_enforcement_can_be_disabled(self, setup):
        system, _service = setup
        permissive = TravelService(system, friends=None, enforce_friendship=False,
                                   manage_inventory=False)
        request = permissive.request_flight_with_friend("Jerry", "Newman", "Rome")
        assert request.status is QueryStatus.PENDING
