"""Demo scenarios E6/E7: group flight (and hotel) booking.

A group of four friends jointly specifies that they want to travel on the same
flight (and, in the second part, also stay in the same hotel).  Each member
submits an individual entangled query naming the whole group; Youtopia answers
all of them only when the last member's request arrives.

Run with:  python examples/travel_group.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SystemConfig, YoutopiaSystem  # noqa: E402
from repro.apps.travel import (  # noqa: E402
    FriendGraph,
    TravelService,
    generate_dataset,
    install_and_load,
)

GROUP = ["Jerry", "Kramer", "Elaine", "George"]


def main() -> int:
    system = YoutopiaSystem(config=SystemConfig(seed=7))
    install_and_load(system, generate_dataset(num_flights=48, num_hotels=24, seed=7))

    friends = FriendGraph(GROUP)
    for index, left in enumerate(GROUP):
        for right in GROUP[index + 1:]:
            friends.add_friendship(left, right)
    service = TravelService(system, friends=friends)

    # ------------------------------------------------------------------ E6 ----
    print("== Group flight booking (four friends, same flight) ==")
    requests = {}
    for member in GROUP:
        companions = [other for other in GROUP if other != member]
        requests[member] = service.request_group_flight(member, companions, "Athens")
        pending = sum(1 for request in requests.values() if not request.is_answered)
        print(f"  {member:<7} submitted — {pending} request(s) still pending")

    flights = {fno for _traveler, fno in system.answers("Reservation")}
    print(f"All four answered together: shared flight {flights}")
    assert len(flights) == 1

    # ------------------------------------------------------------------ E7 ----
    print("\n== Group flight AND hotel booking (three friends) ==")
    trio = GROUP[:3]
    requests = service.submit_group_flight_hotel(trio, "Berlin")
    for member, request in requests.items():
        confirmation = service.confirmation_for(request)
        print(f"  {member:<7} flight={confirmation.flight.fno} hotel={confirmation.hotel.hid}")
    hotel_choices = {hid for traveler, hid in system.answers("HotelReservation") if traveler in trio}
    assert len(hotel_choices) == 1
    print(f"The trio shares hotel {hotel_choices.pop()} in Berlin.")

    stats = system.statistics()
    print(f"\nCoordination statistics: {stats['groups_matched']} groups matched, "
          f"{stats['queries_answered']} queries answered, "
          f"{stats['structural_nodes']} matcher search nodes explored.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
