"""Integration tests for experiments E3-E8: the demo scenarios of Section 3.1.

These drive the full stack the way the demo's web front end would: the
TravelService middle tier, the synthetic friend graph (Facebook stand-in), the
notification mailbox (Facebook-message stand-in), entangled queries inside the
Youtopia system, and the travel database underneath.
"""

from __future__ import annotations

import pytest

from repro.apps.travel.dataset import generate_dataset, install_and_load
from repro.apps.travel.models import TripRequest
from repro.apps.travel.notifications import Mailbox
from repro.apps.travel.service import TravelService
from repro.apps.travel.social import FriendGraph
from repro.core.coordinator import QueryStatus
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.workloads import loaded_system, many_pairs


@pytest.fixture
def stack():
    system = YoutopiaSystem(config=SystemConfig(seed=3))
    install_and_load(system, generate_dataset(num_flights=32, num_hotels=16, num_users=0, seed=3))
    friends = FriendGraph()
    for left, right in [
        ("Jerry", "Kramer"), ("Jerry", "Elaine"), ("Kramer", "Elaine"),
        ("Jerry", "George"), ("Kramer", "George"), ("Elaine", "George"),
        ("Kramer", "Newman"),
    ]:
        friends.add_friendship(left, right)
    mailbox = Mailbox(system)
    service = TravelService(system, friends=friends, mailbox=mailbox)
    return system, service, mailbox


class TestBookFlightWithFriend:
    """E3 — 'Book a flight with a friend' (Figures 3 and 4)."""

    def test_coordinated_booking_workflow(self, stack):
        system, service, mailbox = stack
        # Jerry chooses Kramer from his friend list (Figure 3)...
        assert "Kramer" in service.friends_of("Jerry")
        # ...and submits his coordination request.
        jerry = service.request_flight_with_friend("Jerry", "Kramer", "Paris")
        assert jerry.status is QueryStatus.PENDING
        # Kramer submits the symmetric request; Youtopia coordinates both.
        kramer = service.request_flight_with_friend("Kramer", "Jerry", "Paris")
        assert jerry.status is QueryStatus.ANSWERED and kramer.status is QueryStatus.ANSWERED
        booked = dict(system.answers("Reservation"))
        assert booked["Jerry"] == booked["Kramer"]
        # both are notified "via a Facebook message"
        assert mailbox.unread_count("Jerry") == 1
        assert mailbox.unread_count("Kramer") == 1

    def test_alternate_path_browse_then_book_directly(self, stack):
        system, service, _mailbox = stack
        # Kramer already booked a Paris flight on his own.
        target = service.search_flights("Paris")[0]
        service.book_flight("Kramer", target.fno)
        # Jerry browses flights and sees his friend's existing booking (Figure 4)...
        listing = service.browse_flights_with_friends("Jerry", "Paris")
        flights_with_kramer = [flight.fno for flight, friends in listing if "Kramer" in friends]
        assert flights_with_kramer == [target.fno]
        # ...and books the same flight directly through the system.
        service.book_flight("Jerry", target.fno)
        booked = dict(system.answers("Reservation"))
        assert booked["Jerry"] == booked["Kramer"] == target.fno


class TestBookFlightAndHotelWithFriend:
    """E4 — 'Book a flight and a hotel with a friend'."""

    def test_single_entangled_query_covers_both(self, stack):
        system, service, _mailbox = stack
        jerry = service.request_flight_and_hotel_with_friend("Jerry", "Kramer", "Paris")
        # Jerry's single request has constraints on both the flight and the hotel.
        assert len(jerry.query.heads) == 2
        assert len(jerry.query.answer_atoms) == 2
        kramer = service.request_flight_and_hotel_with_friend("Kramer", "Jerry", "Paris")
        assert jerry.status is QueryStatus.ANSWERED and kramer.status is QueryStatus.ANSWERED
        assert len({fno for _t, fno in system.answers("Reservation")}) == 1
        assert len({hid for _t, hid in system.answers("HotelReservation")}) == 1
        confirmation = service.confirmation_for(jerry)
        assert confirmation.flight is not None and confirmation.hotel is not None


class TestMultipleSimultaneousBookings:
    """E5 — 'Multiple simultaneous bookings'."""

    def test_many_pairs_coordinate_independently(self):
        outcome = many_pairs(num_pairs=12, seed=2)
        assert outcome.coordinated
        reservations = outcome.answer_relation("Reservation")
        assert len(reservations) == 24
        # each pair is on one flight; different pairs may be on different flights
        assert outcome.result.statistics["groups_matched"] == 12


class TestGroupBookings:
    """E6 / E7 — group flight (and hotel) bookings."""

    def test_group_of_four_flight(self, stack):
        system, service, _mailbox = stack
        members = ["Jerry", "Kramer", "Elaine", "George"]
        requests = service.submit_group_flight(members, "Paris")
        assert all(request.status is QueryStatus.ANSWERED for request in requests.values())
        reservations = system.answers("Reservation")
        assert {traveler for traveler, _ in reservations} == set(members)
        assert len({fno for _t, fno in reservations}) == 1

    def test_group_flight_and_hotel(self, stack):
        system, service, _mailbox = stack
        members = ["Jerry", "Kramer", "Elaine"]
        requests = service.submit_group_flight_hotel(members, "Rome")
        assert all(request.status is QueryStatus.ANSWERED for request in requests.values())
        assert len({fno for _t, fno in system.answers("Reservation")}) == 1
        assert len({hid for _t, hid in system.answers("HotelReservation")}) == 1

    def test_group_waits_until_last_member_submits(self, stack):
        _system, service, _mailbox = stack
        members = ["Jerry", "Kramer", "Elaine", "George"]
        requests = []
        for member in members[:-1]:
            companions = [other for other in members if other != member]
            requests.append(service.request_group_flight(member, companions, "Paris"))
            assert all(request.status is QueryStatus.PENDING for request in requests)
        final = service.request_group_flight(
            members[-1], members[:-1], "Paris"
        )
        assert final.status is QueryStatus.ANSWERED
        assert all(request.status is QueryStatus.ANSWERED for request in requests)


class TestAdHocCoordination:
    """E8 — ad-hoc structures: Jerry+Kramer on flights, Kramer+Elaine on flight and hotel."""

    def test_paper_adhoc_example(self, stack):
        system, service, _mailbox = stack
        # Jerry coordinates only the flight with Kramer.
        jerry = service.request_trip(TripRequest(
            user="Jerry", destination="Athens", flight_partners=("Kramer",),
        ))
        # Kramer coordinates the flight with both Jerry and Elaine, and the hotel with Elaine.
        kramer = service.request_trip(TripRequest(
            user="Kramer", destination="Athens",
            flight_partners=("Jerry", "Elaine"), hotel_partners=("Elaine",), book_hotel=True,
        ))
        # Elaine coordinates the flight and hotel with Kramer only.
        elaine = service.request_trip(TripRequest(
            user="Elaine", destination="Athens",
            flight_partners=("Kramer",), hotel_partners=("Kramer",), book_hotel=True,
        ))
        assert jerry.status is QueryStatus.ANSWERED
        assert kramer.status is QueryStatus.ANSWERED
        assert elaine.status is QueryStatus.ANSWERED

        flights = dict(system.answers("Reservation"))
        hotels = dict(system.answers("HotelReservation"))
        # all three share the flight (Jerry-Kramer and Kramer-Elaine constraints chain)
        assert flights["Jerry"] == flights["Kramer"] == flights["Elaine"]
        # only Kramer and Elaine coordinate the hotel; Jerry has no hotel booking
        assert hotels["Kramer"] == hotels["Elaine"]
        assert "Jerry" not in hotels


class TestLoadedSystem:
    """E10 (functional check) — the demo runs its examples on a loaded system."""

    def test_examples_still_coordinate_under_load(self):
        outcome = loaded_system(num_pairs=40, num_unmatchable=15, seed=4)
        assert outcome.result.answered == 80
        assert outcome.result.pending == 15
        stats = outcome.result.statistics
        assert stats["groups_matched"] == 40
        # the matcher never needed to explore more than the pairs involved
        assert stats["structural_nodes"] < stats["queries_registered"] * 10
