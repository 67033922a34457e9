"""Event bus for coordination lifecycle notifications.

**Role**: the observation seam of the coordination component — every state
transition a registered query goes through (registered, match attempted,
group matched, answered, cancelled, rejected, timed out, execution failed)
is published here as a typed :class:`Event`.

**Paper correspondence**: Section 3.1 of the demo paper, where users are
notified "via a Facebook message" when their coordination request succeeds.
Internally that notification is just a subscription to coordination events;
the travel application's mailbox, the admin interface's activity log and the
tests all observe the system through this bus.  Subscribers run
synchronously inside coordination and must not call back into the
coordinator (use the service layer's done-callbacks for that).
"""

from __future__ import annotations

import enum
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional


class EventType(enum.Enum):
    """Lifecycle events emitted by the coordination component."""

    QUERY_REGISTERED = "query_registered"
    QUERY_REJECTED = "query_rejected"
    MATCH_ATTEMPTED = "match_attempted"
    GROUP_MATCHED = "group_matched"
    QUERY_ANSWERED = "query_answered"
    QUERY_CANCELLED = "query_cancelled"
    QUERY_TIMED_OUT = "query_timed_out"
    EXECUTION_FAILED = "execution_failed"
    SNAPSHOT_TAKEN = "snapshot_taken"
    RECOVERY_COMPLETED = "recovery_completed"


_event_counter = itertools.count(1)


@dataclass(frozen=True)
class Event:
    """One coordination event.

    ``payload`` carries event-specific data such as the query id, the group's
    query ids, or the answer tuples; see the coordinator for the exact keys
    emitted per event type.
    """

    type: EventType
    payload: dict[str, Any] = field(default_factory=dict)
    sequence: int = field(default_factory=lambda: next(_event_counter))
    timestamp: float = field(default_factory=time.time)

    @property
    def query_id(self) -> Optional[str]:
        return self.payload.get("query_id")


Subscriber = Callable[[Event], None]


class EventBus:
    """A tiny synchronous publish/subscribe hub with bounded history."""

    def __init__(self, history_limit: int = 1_000) -> None:
        self._subscribers: list[tuple[Optional[EventType], Subscriber]] = []
        # every event pins its payload (answer tuples, group ids, SQL), so the
        # history stays a short activity log rather than an archive
        self._history: deque[Event] = deque(maxlen=history_limit)
        self._lock = threading.RLock()

    def subscribe(self, subscriber: Subscriber, event_type: Optional[EventType] = None) -> None:
        """Register ``subscriber``; a ``None`` event type receives everything."""
        with self._lock:
            self._subscribers.append((event_type, subscriber))

    def unsubscribe(self, subscriber: Subscriber) -> None:
        with self._lock:
            # Equality (not identity) so that bound methods — which Python
            # recreates on every attribute access — can be unsubscribed too.
            self._subscribers = [
                (event_type, existing)
                for event_type, existing in self._subscribers
                if existing != subscriber
            ]

    def publish(self, event_type: EventType, **payload: Any) -> Event:
        event = Event(type=event_type, payload=payload)
        with self._lock:
            self._history.append(event)
            subscribers = list(self._subscribers)
        for wanted_type, subscriber in subscribers:
            if wanted_type is None or wanted_type is event_type:
                subscriber(event)
        return event

    def history(self, event_type: Optional[EventType] = None) -> list[Event]:
        with self._lock:
            events = list(self._history)
        if event_type is None:
            return events
        return [event for event in events if event.type is event_type]

    def clear_history(self) -> None:
        with self._lock:
            self._history.clear()
