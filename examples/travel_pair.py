"""Demo scenarios E3/E4: coordinating a trip with one friend.

Walks through the first two scenarios of Section 3.1 using the travel
application's middle tier (the same code path the demo's web front end used):

1. "Book a flight with a friend" — Jerry picks Kramer from his friend list and
   asks for a seat on the same flight; the alternate browse-then-book path is
   shown as well.
2. "Book a flight and a hotel with a friend" — a single entangled query per
   user constrains both reservations.

Run with:  python examples/travel_pair.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SystemConfig, YoutopiaSystem  # noqa: E402
from repro.apps.travel import (  # noqa: E402
    FriendGraph,
    Mailbox,
    TravelService,
    generate_dataset,
    install_and_load,
)


def main() -> int:
    system = YoutopiaSystem(config=SystemConfig(seed=42))
    install_and_load(system, generate_dataset(num_flights=40, num_hotels=20, seed=42))

    friends = FriendGraph()
    friends.add_friendship("Jerry", "Kramer")
    friends.add_friendship("Jerry", "Elaine")
    mailbox = Mailbox(system)
    service = TravelService(system, friends=friends, mailbox=mailbox)

    # ------------------------------------------------------------------ E3 ----
    print("== Book a flight with a friend ==")
    print(f"Jerry's friends: {service.friends_of('Jerry')}")
    jerry = service.request_flight_with_friend("Jerry", "Kramer", "Paris", max_price=900)
    print(f"Jerry submits his request ............ {jerry.status.value}")
    kramer = service.request_flight_with_friend("Kramer", "Jerry", "Paris")
    print(f"Kramer submits the matching request .. {kramer.status.value}")

    confirmation = service.confirmation_for(jerry)
    print(f"Jerry is booked on flight {confirmation.flight.fno} "
          f"(coordinated with {', '.join(confirmation.coordinated_with)})")
    for note in mailbox.messages_for("Jerry"):
        print(f"  [message to Jerry] {note.subject}")

    # alternate path: browse friends' bookings, then book directly (Figure 4)
    print("\n== Alternate path: browse friends' existing bookings ==")
    listing = service.browse_flights_with_friends("Elaine", "Paris")
    with_friends = [(flight, names) for flight, names in listing if names]
    for flight, names in with_friends[:3]:
        print(f"  flight {flight.fno} to {flight.dest} at {flight.price:.0f}: friends {names}")
    if with_friends:
        chosen = with_friends[0][0]
        service.friends.add_friendship("Elaine", "Kramer")
        service.book_flight("Elaine", chosen.fno)
        print(f"Elaine books flight {chosen.fno} directly; "
              f"seats left: {service.flight(chosen.fno).seats}")

    # ------------------------------------------------------------------ E4 ----
    print("\n== Book a flight and a hotel with a friend ==")
    jerry2 = service.request_flight_and_hotel_with_friend("Jerry", "Elaine", "Rome")
    print(f"Jerry's combined request ............. {jerry2.status.value}")
    elaine2 = service.request_flight_and_hotel_with_friend("Elaine", "Jerry", "Rome")
    print(f"Elaine's combined request ............ {elaine2.status.value}")
    confirmation = service.confirmation_for(jerry2)
    print(f"Jerry: flight {confirmation.flight.fno}, hotel {confirmation.hotel.hid}")
    confirmation = service.confirmation_for(elaine2)
    print(f"Elaine: flight {confirmation.flight.fno}, hotel {confirmation.hotel.hid}")

    print("\nFinal account view:")
    for user in ("Jerry", "Kramer", "Elaine"):
        bookings = service.bookings_of(user)
        flight = bookings.flight.fno if bookings.flight else "-"
        hotel = bookings.hotel.hid if bookings.hotel else "-"
        print(f"  {user:<7} flight={flight} hotel={hotel}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
