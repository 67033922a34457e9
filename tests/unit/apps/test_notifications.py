"""Unit tests for the notification mailbox (the Facebook-message stand-in)."""

from __future__ import annotations

import pytest

from repro.apps.travel.notifications import Mailbox
from repro.core.config import SystemConfig
from repro.core.system import YoutopiaSystem

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
def system() -> YoutopiaSystem:
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    system.execute("INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris')")
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


def test_answered_queries_notify_both_owners(system):
    mailbox = Mailbox(system)
    system.execute(KRAMER_SQL, owner="Kramer")
    system.execute(JERRY_SQL, owner="Jerry")
    kramer_messages = mailbox.messages_for("Kramer")
    jerry_messages = mailbox.messages_for("Jerry")
    assert len(kramer_messages) == 1 and len(jerry_messages) == 1
    assert "confirmed" in kramer_messages[0].subject
    assert "Reservation" in kramer_messages[0].body
    assert mailbox.unread_count("Kramer") == 1


def test_pending_queries_do_not_notify(system):
    mailbox = Mailbox(system)
    system.execute(KRAMER_SQL, owner="Kramer")
    assert mailbox.messages_for("Kramer") == []


def test_cancellation_notifies_owner(system):
    mailbox = Mailbox(system)
    request = system.execute(KRAMER_SQL, owner="Kramer")
    system.cancel(request.query_id)
    messages = mailbox.messages_for("Kramer")
    assert len(messages) == 1
    assert "withdrawn" in messages[0].subject


def test_clear_mailbox(system):
    mailbox = Mailbox(system)
    system.execute(KRAMER_SQL, owner="Kramer")
    system.execute(JERRY_SQL, owner="Jerry")
    mailbox.clear("Kramer")
    assert mailbox.unread_count("Kramer") == 0
    assert mailbox.unread_count("Jerry") == 1


def test_anonymous_queries_do_not_crash_mailbox(system):
    mailbox = Mailbox(system)
    system.execute(KRAMER_SQL)  # no owner
    system.execute(JERRY_SQL)
    assert mailbox.messages_for("Kramer") == []
