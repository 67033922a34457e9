"""Workload generation for the scalability demonstrations and benchmarks.

The demo "allows our examples to be run on a loaded system, where a large
number of entangled queries are trying to coordinate simultaneously".  This
module generates such loads deterministically: collections of coordination
requests (pairs, groups, flight+hotel combinations, ad-hoc constraint chains)
over a synthetic travel database, plus a small runner that submits them in a
given arrival order and reports what happened.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.apps.travel.dataset import generate_dataset, install_and_load
from repro.apps.travel.models import TripRequest
from repro.apps.travel.service import TravelService
from repro.apps.travel.social import FriendGraph
from repro.core import ir
from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem


@dataclass(frozen=True)
class WorkloadItem:
    """One entangled query to submit, with its owner and compiled IR."""

    owner: str
    query: ir.EntangledQuery
    expected_group: tuple[str, ...] = ()


@dataclass
class WorkloadResult:
    """What happened when a workload was submitted to a system."""

    submitted: int = 0
    answered: int = 0
    pending: int = 0
    elapsed_seconds: float = 0.0
    statistics: dict[str, int] = field(default_factory=dict)

    @property
    def all_answered(self) -> bool:
        return self.submitted > 0 and self.answered == self.submitted


@dataclass
class WorkloadConfig:
    """Parameters of a generated coordination workload."""

    num_pairs: int = 0
    num_groups: int = 0
    group_size: int = 4
    flight_and_hotel_fraction: float = 0.0
    num_unmatchable: int = 0
    destinations: Optional[Sequence[str]] = None
    max_price_fraction: float = 1.0
    shuffle_arrivals: bool = True
    seed: int = 0


def build_loaded_system(
    num_flights: int = 120,
    num_hotels: int = 60,
    num_users: int = 512,
    seed: int = 0,
    config: Optional[SystemConfig] = None,
) -> tuple[YoutopiaSystem, TravelService, FriendGraph]:
    """A Youtopia instance with the travel schema, dataset and service installed.

    ``seed`` drives the dataset and, without an explicit ``config``, the
    system's ``CHOOSE`` RNG.
    """
    system = YoutopiaSystem(config=config or SystemConfig(seed=seed))
    dataset = generate_dataset(
        num_flights=num_flights, num_hotels=num_hotels, num_users=0, seed=seed
    )
    install_and_load(system, dataset)
    usernames = [f"user{i:04d}" for i in range(num_users)]
    users_table = system.database.table("Users")
    for username in usernames:
        users_table.insert((username, username.title(), "Ithaca"))
    friends = FriendGraph(usernames)
    # Friendships are added lazily by the generators for exactly the pairs and
    # groups that will coordinate; a ring keeps the graph connected.
    for index, username in enumerate(usernames):
        friends.add_friendship(username, usernames[(index + 1) % len(usernames)])
    service = TravelService(system, friends=friends, enforce_friendship=False)
    return system, service, friends


class WorkloadGenerator:
    """Generates lists of :class:`WorkloadItem` for a given travel service."""

    def __init__(self, service: TravelService, config: WorkloadConfig) -> None:
        self.service = service
        self.config = config
        self.rng = random.Random(config.seed)
        self._destinations = list(
            config.destinations
            or sorted(
                {
                    row[0]
                    for row in self.service.system.query("SELECT DISTINCT dest FROM Flights").rows
                }
            )
        )
        self._user_counter = 0

    # -- helpers -------------------------------------------------------------------------

    def _fresh_users(self, count: int) -> list[str]:
        users = [f"user{self._user_counter + offset:04d}" for offset in range(count)]
        self._user_counter += count
        return users

    def _destination(self) -> str:
        return self.rng.choice(self._destinations)

    def _trip_item(self, trip: TripRequest, expected_group: Sequence[str]) -> WorkloadItem:
        query = self.service.build_trip_query(trip)
        return WorkloadItem(owner=trip.user, query=query, expected_group=tuple(expected_group))

    # -- generators ------------------------------------------------------------------------

    def pair_items(self, num_pairs: int, book_hotel: bool = False) -> list[WorkloadItem]:
        """``num_pairs`` independent two-person coordinations (E5 / E10)."""
        items: list[WorkloadItem] = []
        for _ in range(num_pairs):
            left, right = self._fresh_users(2)
            dest = self._destination()
            for user, partner in ((left, right), (right, left)):
                trip = TripRequest(
                    user=user,
                    destination=dest,
                    flight_partners=(partner,),
                    hotel_partners=(partner,) if book_hotel else (),
                    book_hotel=book_hotel,
                )
                items.append(self._trip_item(trip, (left, right)))
        return items

    def group_items(
        self, num_groups: int, group_size: int, book_hotel: bool = False
    ) -> list[WorkloadItem]:
        """``num_groups`` coordinations of ``group_size`` friends each (E6/E7)."""
        items: list[WorkloadItem] = []
        for _ in range(num_groups):
            members = self._fresh_users(group_size)
            dest = self._destination()
            for member in members:
                companions = tuple(other for other in members if other != member)
                trip = TripRequest(
                    user=member,
                    destination=dest,
                    flight_partners=companions,
                    hotel_partners=companions if book_hotel else (),
                    book_hotel=book_hotel,
                )
                items.append(self._trip_item(trip, tuple(members)))
        return items

    def adhoc_chain_items(self, length: int) -> list[WorkloadItem]:
        """A chain of overlapping constraints (the "ad-hoc examples" of §3.1).

        User ``u_i`` coordinates flights with ``u_{i+1}``; every second user
        additionally coordinates the hotel with the next user, mirroring the
        Jerry–Kramer–Elaine example where different pairs coordinate on
        different subsets of the reservations.
        """
        users = self._fresh_users(length)
        dest = self._destination()
        items: list[WorkloadItem] = []
        for index, user in enumerate(users):
            flight_partners: list[str] = []
            hotel_partners: list[str] = []
            if index > 0:
                flight_partners.append(users[index - 1])
            if index + 1 < length:
                flight_partners.append(users[index + 1])
            if index % 2 == 0 and index + 1 < length:
                hotel_partners.append(users[index + 1])
            if index % 2 == 1:
                hotel_partners.append(users[index - 1])
            trip = TripRequest(
                user=user,
                destination=dest,
                flight_partners=tuple(flight_partners),
                hotel_partners=tuple(hotel_partners),
                book_hotel=bool(hotel_partners),
            )
            items.append(self._trip_item(trip, tuple(users)))
        return items

    def unmatchable_items(self, count: int) -> list[WorkloadItem]:
        """Queries whose partner never shows up — they stay pending (pool noise)."""
        items: list[WorkloadItem] = []
        for _ in range(count):
            (user,) = self._fresh_users(1)
            ghost = f"ghost-{user}"
            trip = TripRequest(user=user, destination=self._destination(), flight_partners=(ghost,))
            items.append(self._trip_item(trip, ()))
        return items

    def generate(self) -> list[WorkloadItem]:
        """Generate the full workload described by the configuration."""
        config = self.config
        items: list[WorkloadItem] = []
        if config.num_pairs:
            hotel_pairs = int(config.num_pairs * config.flight_and_hotel_fraction)
            items.extend(self.pair_items(config.num_pairs - hotel_pairs, book_hotel=False))
            items.extend(self.pair_items(hotel_pairs, book_hotel=True))
        if config.num_groups:
            items.extend(self.group_items(config.num_groups, config.group_size))
        if config.num_unmatchable:
            items.extend(self.unmatchable_items(config.num_unmatchable))
        if config.shuffle_arrivals:
            self.rng.shuffle(items)
        return items


def run_workload(
    system: YoutopiaSystem, items: Sequence[WorkloadItem], batch: bool = False
) -> WorkloadResult:
    """Submit every item (in order) and summarise the outcome.

    With ``batch=False`` items are submitted one at a time, each arrival
    triggering an inline match pass (the classic loop used by the demo
    scenarios).  With ``batch=True`` the whole workload goes through
    :meth:`~repro.core.system.YoutopiaSystem.submit_many`: one lock
    acquisition, one deferred match pass — the service layer's hot path.
    """
    result = WorkloadResult()
    started = time.perf_counter()
    if batch:
        requests = system.submit_many([item.query for item in items])
        result.submitted = len(requests)
    else:
        requests = []
        for item in items:
            requests.append(system.submit_entangled(item.query, owner=item.owner))
            result.submitted += 1
    result.elapsed_seconds = time.perf_counter() - started
    result.answered = sum(1 for request in requests if request.status is QueryStatus.ANSWERED)
    result.pending = sum(1 for request in requests if request.status is QueryStatus.PENDING)
    result.statistics = system.statistics()
    return result
