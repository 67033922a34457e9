"""Integration test for experiment E9: the SQL command line and admin interfaces.

Reproduces Section 3.2: "The command line allows us to show how we can
directly input SQL code into the system, specifying entangled queries on our
travel database", plus the admin mode that "enables visual inspection of the
state of the system".
"""

from __future__ import annotations

import pytest

from repro.apps.admin import AdminInterface
from repro.apps.cli import CommandLine
from repro.apps.travel.dataset import generate_dataset, install_and_load
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem


@pytest.fixture
def travel_shell() -> CommandLine:
    system = YoutopiaSystem(config=SystemConfig(seed=5))
    install_and_load(system, generate_dataset(num_flights=16, num_hotels=8, num_users=4, seed=5))
    return CommandLine(system)


SESSION_SCRIPT = [
    ".tables",
    "SELECT COUNT(*) AS flights FROM Flights",
    ".user Kramer",
    (
        "SELECT 'Kramer', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
    ),
    ".pending",
    ".user Jerry",
    (
        "SELECT 'Jerry', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
    ),
    ".answers Reservation",
    ".stats",
    ".quit",
]


class TestScriptedDemoSession:
    def test_full_session_transcript(self, travel_shell):
        outputs = travel_shell.run_script(SESSION_SCRIPT)
        transcript = dict(zip(SESSION_SCRIPT, outputs))

        assert "Flights" in transcript[".tables"]
        assert "flights" in transcript["SELECT COUNT(*) AS flights FROM Flights"]
        assert "PENDING" in transcript[SESSION_SCRIPT[3]]
        assert "Kramer" in transcript[".pending"]
        assert "ANSWERED" in transcript[SESSION_SCRIPT[6]]
        assert "(2 rows)" in transcript[".answers Reservation"]
        assert "groups_matched = 1" in transcript[".stats"]
        assert travel_shell.done

    def test_arbitrary_sql_also_works(self, travel_shell):
        # "as well as any other arbitrary queries the user may care to specify"
        output = travel_shell.run_line(
            "SELECT dest, COUNT(*) AS n FROM Flights GROUP BY dest ORDER BY n DESC LIMIT 3"
        )
        assert "dest" in output and "n" in output

    def test_updates_through_the_shell_affect_coordination(self, travel_shell):
        # Remove every Paris flight, then show the pair cannot coordinate.
        travel_shell.run_line("DELETE FROM Flights WHERE dest = 'Paris'")
        travel_shell.run_line(".user Kramer")
        first = travel_shell.run_line(SESSION_SCRIPT[3])
        travel_shell.run_line(".user Jerry")
        second = travel_shell.run_line(SESSION_SCRIPT[6])
        assert "PENDING" in first and "PENDING" in second


class TestAdminMode:
    def test_admin_inspection_of_cli_state(self, travel_shell):
        travel_shell.run_line(".user Kramer")
        travel_shell.run_line(SESSION_SCRIPT[3])
        admin = AdminInterface(travel_shell.system)
        state = admin.render_state()
        assert "pending entangled queries" in state
        assert "Reservation('Kramer', fno)" in state
        pending = admin.pending_queries()
        assert len(pending) == 1
        described = admin.describe_query(pending[0].query_id)
        assert "owner        : Kramer" in described
