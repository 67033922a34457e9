"""Shared fixtures for the test suite."""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make sibling helper modules (service_conformance.py) importable from test
# modules in any subdirectory, mirroring the src/ shim in the root conftest.
_TESTS = Path(__file__).resolve().parent
if str(_TESTS) not in sys.path:
    sys.path.insert(0, str(_TESTS))

from repro.apps.travel.dataset import TravelDataset, generate_dataset, install_and_load
from repro.apps.travel.service import TravelService
from repro.apps.travel.social import FriendGraph, generate_friend_graph
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem
from repro.relalg.engine import QueryEngine
from repro.storage.database import Database


@pytest.fixture
def database() -> Database:
    """An empty in-memory catalog."""
    return Database()


@pytest.fixture
def engine(database: Database) -> QueryEngine:
    """A query engine over an empty catalog."""
    return QueryEngine(database)


@pytest.fixture
def system() -> YoutopiaSystem:
    """A fresh Youtopia instance with a fixed seed (deterministic CHOOSE)."""
    return YoutopiaSystem(config=SystemConfig(seed=0))


@pytest.fixture
def figure1_system(system: YoutopiaSystem) -> YoutopiaSystem:
    """The system of Figure 1: the four-flight database plus the Airlines table."""
    system.execute_script(
        """
        CREATE TABLE Flights (fno INTEGER NOT NULL, dest TEXT, PRIMARY KEY (fno));
        CREATE TABLE Airlines (fno INTEGER NOT NULL, airline TEXT, PRIMARY KEY (fno));
        INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (134, 'Paris'), (136, 'Rome');
        INSERT INTO Airlines VALUES (122, 'United'), (123, 'United'),
                                    (134, 'Lufthansa'), (136, 'Alitalia');
        """
    )
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


KRAMER_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)
JERRY_SQL = (
    "SELECT 'Jerry', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
)


@pytest.fixture
def kramer_sql() -> str:
    return KRAMER_SQL


@pytest.fixture
def jerry_sql() -> str:
    return JERRY_SQL


@pytest.fixture
def travel_dataset() -> TravelDataset:
    return generate_dataset(num_flights=24, num_hotels=12, num_users=12, seed=7)


@pytest.fixture
def travel_system(travel_dataset: TravelDataset) -> YoutopiaSystem:
    """A system with the travel schema and a small synthetic dataset loaded."""
    system = YoutopiaSystem(config=SystemConfig(seed=1))
    install_and_load(system, travel_dataset)
    return system


@pytest.fixture
def friend_graph(travel_dataset: TravelDataset) -> FriendGraph:
    return generate_friend_graph(
        [user.username for user in travel_dataset.users], average_friends=4, seed=3
    )


@pytest.fixture
def travel_service(travel_system: YoutopiaSystem, friend_graph: FriendGraph) -> TravelService:
    return TravelService(travel_system, friends=friend_graph)
