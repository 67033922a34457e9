"""Transport-level metrics of the network server.

:class:`TransportMetrics` is a small thread-safe counter block that the
:class:`~repro.service.aio.server.AsyncCoordinationServer` (and the cluster
router, which shares its request plane) populates.  A snapshot crosses the
wire inside the ``stats`` operation and surfaces as
:attr:`~repro.service.api.ServiceStats.transport`, so an admin screen reads
the request plane of a remote server:

* ``connections_open`` / ``connections_total`` — live and lifetime accepted
  client connections;
* ``requests_in_flight`` / ``requests_total`` — operations currently being
  handled and handled since start;
* ``bytes_in`` / ``bytes_out`` — wire traffic, counted on whole frames;
* ``rejected_backpressure`` — requests refused because a connection exceeded
  its in-flight budget.

Every :class:`~repro.service.api.ServiceStats` block is a plain JSON-safe
mapping, so two generic helpers serve them all: :func:`merge_stats` folds the
blocks of several cluster nodes into one, and :func:`render_stats` prints a
snapshot for the admin screen and the shell's ``.stats``.
"""

from __future__ import annotations

import threading
from dataclasses import fields
from typing import Any, Iterable, Mapping


class TransportMetrics:
    """Thread-safe counters describing one server's request plane."""

    __slots__ = (
        "_lock",
        "connections_open",
        "connections_total",
        "requests_in_flight",
        "requests_total",
        "bytes_in",
        "bytes_out",
        "rejected_backpressure",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.connections_open = 0
        self.connections_total = 0
        self.requests_in_flight = 0
        self.requests_total = 0
        self.bytes_in = 0
        self.bytes_out = 0
        self.rejected_backpressure = 0

    # -- connection lifecycle ---------------------------------------------------------------

    def connection_opened(self) -> None:
        with self._lock:
            self.connections_open += 1
            self.connections_total += 1

    def connection_closed(self) -> None:
        with self._lock:
            self.connections_open -= 1

    # -- request lifecycle ------------------------------------------------------------------

    def request_started(self) -> None:
        with self._lock:
            self.requests_in_flight += 1
            self.requests_total += 1

    def request_finished(self) -> None:
        with self._lock:
            self.requests_in_flight -= 1

    def request_rejected(self) -> None:
        with self._lock:
            self.rejected_backpressure += 1

    # -- traffic ----------------------------------------------------------------------------

    def add_bytes_in(self, count: int) -> None:
        with self._lock:
            self.bytes_in += count

    def add_bytes_out(self, count: int) -> None:
        with self._lock:
            self.bytes_out += count

    # -- reporting ---------------------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of every counter (wire- and admin-friendly)."""
        with self._lock:
            return {name: getattr(self, name) for name in self.__slots__[1:]}


#: Settings and log positions, not counters: their sum across nodes means
#: nothing, so they merge like strings (the shared value, or ``"mixed"``).
NO_SUM_KEYS = frozenset({"candidate_limit", "snapshot_interval", "wal_last_lsn", "snapshot_lsn"})


def merge_stats(values: Iterable[Any], key: str = "") -> Any:
    """Merge one stats value reported by several nodes into the cluster's value.

    Mappings merge key by key; numbers sum, bools OR, and strings (or a
    :data:`NO_SUM_KEYS` number) keep the one value every node shares or become
    ``"mixed"``.  A node that reports ``None`` (or lacks the key) is skipped.
    """
    present = [value for value in values if value is not None]
    if not present:
        return None
    first = present[0]
    if isinstance(first, Mapping):
        names = dict.fromkeys(name for value in present for name in value)
        return {name: merge_stats([value.get(name) for value in present], name) for name in names}
    if isinstance(first, bool):
        return any(present)
    if isinstance(first, (int, float)) and key not in NO_SUM_KEYS:
        return sum(present)
    return first if all(value == first for value in present) else "mixed"


def _flatten(value: Any, prefix: str) -> dict[str, Any]:
    """``value`` as dotted ``prefix.key`` leaves (list items keyed by index).

    An empty mapping or list is a leaf of its own, so no key disappears.
    """
    items: list[tuple[Any, Any]]
    if isinstance(value, Mapping):
        items = list(value.items())
    elif isinstance(value, (list, tuple)):
        items = list(enumerate(value))
    else:
        return {prefix: value}
    if not items:
        return {prefix: value}
    flat: dict[str, Any] = {}
    for name, item in items:
        flat.update(_flatten(item, f"{prefix}.{name}"))
    return flat


def render_stats(stats: Any) -> str:
    """Every block of a :class:`~repro.service.api.ServiceStats` as sorted
    ``block.key = value`` lines, nested mappings and lists flattened."""
    flat: dict[str, Any] = {}
    for field in fields(stats):
        flat.update(_flatten(getattr(stats, field.name), field.name))
    return "\n".join(f"{name} = {flat[name]}" for name in sorted(flat))
