"""Demo application #3 (experiments E2/E9): the administrative interface.

Shows the "special mode that enables visual inspection of the state of the
system": the pending entangled queries and their internal representation, the
potential-match graph the matching algorithm works on, answer relations,
coordination statistics and the event log — before and after a coordination
completes.

Run with:  python examples/admin_walkthrough.py
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import SystemConfig, YoutopiaSystem  # noqa: E402
from repro.apps.admin import AdminInterface  # noqa: E402
from repro.apps.travel import generate_dataset, install_and_load  # noqa: E402

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
ELAINE_SQL = (
    "SELECT 'Elaine', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Rome') "
    "AND ('George', fno) IN ANSWER Reservation CHOOSE 1"
)


def main() -> int:
    system = YoutopiaSystem(config=SystemConfig(seed=3))
    install_and_load(system, generate_dataset(num_flights=24, num_hotels=8, seed=3))
    admin = AdminInterface(system)

    kramer = system.submit_entangled(KRAMER_SQL, owner="Kramer")
    system.submit_entangled(ELAINE_SQL, owner="Elaine")

    print("== Internal representation of Kramer's pending query ==")
    print(admin.describe_query(kramer.query_id))

    print("\n== Potential-match graph over the pending pool ==")
    print(admin.match_graph_text())
    print("(Kramer and Elaine cannot provide for each other: different partners)")

    print("\n== EXPLAIN of the domain subquery the matcher grounds against the DB ==")
    print(admin.explain("SELECT fno FROM Flights WHERE dest = 'Paris'"))

    system.submit_entangled(JERRY_SQL, owner="Jerry")

    print("\n== Answer relation after Jerry's query arrives ==")
    print(admin.answer_relation_text("Reservation"))

    print("\n== Coordination event log (most recent events) ==")
    print(admin.event_log_text(limit=8))

    print("\n== Full state dump ==")
    print(admin.render_state())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
