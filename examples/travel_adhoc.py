"""Demo scenario E8: ad-hoc coordination structures.

"For example, it is possible to have a group of three friends, Jerry, Kramer
and Elaine, where Jerry and Kramer coordinate on flight reservations only,
whereas Kramer and Elaine coordinate on both flight and hotel reservations."

This example reproduces exactly that asymmetric structure and shows that the
constraints chain: all three end up on the same flight, but only Kramer and
Elaine share a hotel.

Run with:  python examples/travel_adhoc.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SystemConfig, YoutopiaSystem  # noqa: E402
from repro.apps.travel import (  # noqa: E402
    FriendGraph,
    TravelService,
    TripRequest,
    generate_dataset,
    install_and_load,
)


def main() -> int:
    system = YoutopiaSystem(config=SystemConfig(seed=11))
    install_and_load(system, generate_dataset(num_flights=40, num_hotels=20, seed=11))

    friends = FriendGraph(["Jerry", "Kramer", "Elaine"])
    friends.add_friendship("Jerry", "Kramer")
    friends.add_friendship("Kramer", "Elaine")
    service = TravelService(system, friends=friends)

    print("Ad-hoc coordination: Jerry+Kramer (flight only), Kramer+Elaine (flight and hotel)")

    jerry = service.request_trip(TripRequest(
        user="Jerry", destination="Madrid", flight_partners=("Kramer",),
    ))
    print(f"  Jerry  (flight with Kramer) .............. {jerry.status.value}")

    kramer = service.request_trip(TripRequest(
        user="Kramer", destination="Madrid",
        flight_partners=("Jerry", "Elaine"),
        hotel_partners=("Elaine",), book_hotel=True,
    ))
    print(f"  Kramer (flight with both, hotel with Elaine) {kramer.status.value}")

    elaine = service.request_trip(TripRequest(
        user="Elaine", destination="Madrid",
        flight_partners=("Kramer",), hotel_partners=("Kramer",), book_hotel=True,
    ))
    print(f"  Elaine (flight and hotel with Kramer) ..... {elaine.status.value}")

    flights = dict(system.answers("Reservation"))
    hotels = dict(system.answers("HotelReservation"))

    print("\nOutcome:")
    for user in ("Jerry", "Kramer", "Elaine"):
        print(f"  {user:<7} flight={flights.get(user, '-')} hotel={hotels.get(user, '-')}")

    assert flights["Jerry"] == flights["Kramer"] == flights["Elaine"]
    assert hotels["Kramer"] == hotels["Elaine"]
    assert "Jerry" not in hotels
    print("\nAll three share the flight; only Kramer and Elaine share a hotel — "
          "exactly the ad-hoc structure described in the paper.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
