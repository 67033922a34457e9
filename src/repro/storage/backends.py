"""Pluggable storage backends for the tiered pending pool.

The tiered pool (:mod:`repro.core.tiering`) evicts cold pending queries out
of memory into a *pending store*: a tiny durable key/value table
mapping ``query_id`` to a JSON payload from which the query can be recompiled
on page-in.  This module defines the backend contract plus the two built-in
implementations, and a registry so alternative stores (a Postgres table, a
remote KV service) drop in without touching the coordinator:

* :class:`PendingStoreBackend` — the protocol every backend satisfies.
* :class:`SQLitePendingStore` — the default: one stdlib-``sqlite3`` table,
  batched commits, ``sync()`` as the durability barrier the checkpoint uses.
* :class:`MemoryPendingStore` — a dict; proves the protocol is the only
  coupling and gives tests a zero-IO backend.
* :func:`register_backend` / :func:`create_backend` — the scheme registry
  (``"sqlite"``, ``"memory"``, yours).

Durability contract (shared with :mod:`repro.core.durability`): a payload
handed to :meth:`PendingStoreBackend.put` must survive a process crash once
:meth:`PendingStoreBackend.sync` has returned.  The coordinator calls
``sync()`` while cutting a snapshot, *before* the snapshot file is written,
so a snapshot that references a cold entry can always resolve it on
recovery.  ``delete`` of an absent key is a no-op — page-in intentionally
leaves the stored payload behind (see the tiering module) and removal only
happens when a query leaves the pending pool for good.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from pathlib import Path
from typing import Any, Callable, Optional, Protocol, Union, runtime_checkable

from repro.errors import StorageError

#: File name of the default SQLite pending store inside a ``data_dir``.
COLD_STORE_FILE = "cold_store.db"

#: Sidecar files SQLite may create next to the store (wiped with it on a
#: provably-failed bootstrap, see ``repro.apps.cli``).
COLD_STORE_SIDECARS = (COLD_STORE_FILE + "-journal", COLD_STORE_FILE + "-wal",
                      COLD_STORE_FILE + "-shm")


@runtime_checkable
class PendingStoreBackend(Protocol):
    """The contract a cold store must satisfy.

    Implementations must be thread-safe: the checkpoint's ``sync()`` call
    can race eviction and page-in.  Keys are globally unique query ids, values are opaque
    JSON strings produced by the tiering layer.
    """

    def put(self, query_id: str, payload: str) -> None:
        """Insert or replace one payload (durable only after ``sync()``)."""
        ...

    def get(self, query_id: str) -> Optional[str]:
        """The stored payload, or ``None`` when the key is absent."""
        ...

    def delete(self, query_id: str) -> None:
        """Remove one entry; absent keys are a no-op."""
        ...

    def keys(self) -> list[str]:
        """Every stored query id (recovery diagnostics, tests)."""
        ...

    def __len__(self) -> int:
        ...

    def sync(self) -> None:
        """Durability barrier: everything ``put`` so far survives a crash."""
        ...

    def close(self) -> None:
        """Flush and release resources (idempotent)."""
        ...

    def describe(self) -> str:
        """A short human-readable identity for stats/admin output."""
        ...


class MemoryPendingStore:
    """A process-local dict backend.

    Useful for tests and for memory-only systems (no ``data_dir``): the
    tiering machinery, eviction accounting and page-in path are identical,
    only crash durability is absent — which such systems never promised.
    """

    def __init__(self) -> None:
        self._entries: dict[str, str] = {}
        self._lock = threading.Lock()

    def put(self, query_id: str, payload: str) -> None:
        with self._lock:
            self._entries[query_id] = payload

    def get(self, query_id: str) -> Optional[str]:
        with self._lock:
            return self._entries.get(query_id)

    def delete(self, query_id: str) -> None:
        with self._lock:
            self._entries.pop(query_id, None)

    def keys(self) -> list[str]:
        with self._lock:
            return list(self._entries)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def sync(self) -> None:
        pass

    def close(self) -> None:
        with self._lock:
            self._entries.clear()

    def describe(self) -> str:
        return "memory"


class SQLitePendingStore:
    """The default cold store: one ``pending_spill`` table in SQLite.

    * ``INSERT OR REPLACE`` semantics, so re-evicting a paged-in query
      overwrites its (identical) payload instead of erroring.
    * Writes accumulate in one open transaction and commit every
      ``commit_interval`` mutations; ``sync()`` commits unconditionally —
      that is the barrier the coordinator's checkpoint relies on.
    * ``PRAGMA synchronous`` follows the system's fsync policy (``never`` →
      OFF, otherwise FULL), so a cold store inside a durable data dir is as
      crash-safe as the WAL next to it.
    * A single connection guarded by a lock (``check_same_thread=False``):
      eviction/page-in already serialise on the coordinator lock, so
      backend contention is not a hot path.
    """

    _SYNCHRONOUS = {"always": "FULL", "batch": "FULL", "never": "OFF"}

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        fsync_policy: str = "batch",
        commit_interval: int = 256,
    ) -> None:
        if fsync_policy not in self._SYNCHRONOUS:
            raise StorageError(
                f"unknown fsync_policy {fsync_policy!r} for the pending store; "
                f"expected one of {tuple(self._SYNCHRONOUS)}"
            )
        self._path = str(path)
        if self._path != ":memory:":
            Path(self._path).parent.mkdir(parents=True, exist_ok=True)
        try:
            self._conn = sqlite3.connect(self._path, check_same_thread=False)
        except sqlite3.Error as exc:  # pragma: no cover - environment-dependent
            raise StorageError(f"cannot open pending store at {self._path}: {exc}") from exc
        self._lock = threading.Lock()
        self._pending_commits = 0
        self._commit_interval = max(1, commit_interval)
        self._closed = False
        with self._lock:
            self._conn.execute(
                f"PRAGMA synchronous={self._SYNCHRONOUS[fsync_policy]}"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS pending_spill ("
                "query_id TEXT PRIMARY KEY, payload TEXT NOT NULL)"
            )
            self._conn.commit()

    def put(self, query_id: str, payload: str) -> None:
        with self._lock:
            self._execute(
                "INSERT OR REPLACE INTO pending_spill (query_id, payload) VALUES (?, ?)",
                (query_id, payload),
            )
            self._bump_locked()

    def get(self, query_id: str) -> Optional[str]:
        with self._lock:
            cursor = self._execute(
                "SELECT payload FROM pending_spill WHERE query_id = ?", (query_id,)
            )
            row = cursor.fetchone()
        return None if row is None else str(row[0])

    def delete(self, query_id: str) -> None:
        with self._lock:
            self._execute("DELETE FROM pending_spill WHERE query_id = ?", (query_id,))
            self._bump_locked()

    def keys(self) -> list[str]:
        with self._lock:
            cursor = self._execute("SELECT query_id FROM pending_spill ORDER BY query_id")
            return [str(row[0]) for row in cursor.fetchall()]

    def __len__(self) -> int:
        with self._lock:
            cursor = self._execute("SELECT COUNT(*) FROM pending_spill")
            return int(cursor.fetchone()[0])

    def sync(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._commit_locked()

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            try:
                self._commit_locked()
            finally:
                self._closed = True
                self._conn.close()

    def describe(self) -> str:
        return "sqlite:memory" if self._path == ":memory:" else f"sqlite:{self._path}"

    # -- internals ---------------------------------------------------------------------

    def _execute(self, sql: str, params: tuple[Any, ...] = ()) -> sqlite3.Cursor:
        if self._closed:
            raise StorageError("the pending store is closed")
        try:
            return self._conn.execute(sql, params)
        except sqlite3.Error as exc:
            raise StorageError(f"pending store failure: {exc}") from exc

    def _bump_locked(self) -> None:
        self._pending_commits += 1
        if self._pending_commits >= self._commit_interval:
            self._commit_locked()

    def _commit_locked(self) -> None:
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            raise StorageError(f"pending store commit failure: {exc}") from exc
        self._pending_commits = 0


# ---------------------------------------------------------------------------
# The backend registry
# ---------------------------------------------------------------------------

BackendFactory = Callable[[Optional[Path], str], PendingStoreBackend]

_REGISTRY: dict[str, BackendFactory] = {}


def register_backend(scheme: str, factory: BackendFactory) -> None:
    """Register a cold-store scheme for ``SystemConfig(cold_store=scheme)``.

    ``factory(data_dir, fsync_policy)`` must return a fresh backend; it is
    called once per coordinator.  Registering an existing scheme replaces it
    (tests swap in instrumented stores this way).
    """
    _REGISTRY[scheme.lower()] = factory


def backend_schemes() -> tuple[str, ...]:
    """The registered scheme names (for validation and error messages)."""
    return tuple(sorted(_REGISTRY))


def create_backend(
    scheme: str, data_dir: Optional[Union[str, Path]], fsync_policy: str = "batch"
) -> PendingStoreBackend:
    """Instantiate the backend registered for ``scheme``.

    The default ``sqlite`` backend lives at ``data_dir/cold_store.db`` so it
    is covered by the data dir's advisory lock and wiped with the WAL on a
    provably-failed bootstrap; without a ``data_dir`` it degrades to an
    in-memory SQLite database (same code path, no crash durability — exactly
    the guarantee a memory-only system has anyway).
    """
    factory = _REGISTRY.get(scheme.lower())
    if factory is None:
        known = ", ".join(backend_schemes()) or "none"
        raise StorageError(
            f"unknown cold_store backend {scheme!r} (registered schemes: {known})"
        )
    directory = None if data_dir is None else Path(data_dir)
    return factory(directory, fsync_policy)


def _sqlite_factory(data_dir: Optional[Path], fsync_policy: str) -> PendingStoreBackend:
    if data_dir is None:
        return SQLitePendingStore(":memory:", fsync_policy=fsync_policy)
    return SQLitePendingStore(data_dir / COLD_STORE_FILE, fsync_policy=fsync_policy)


def _memory_factory(data_dir: Optional[Path], fsync_policy: str) -> PendingStoreBackend:
    del data_dir, fsync_policy
    return MemoryPendingStore()


register_backend("sqlite", _sqlite_factory)
register_backend("memory", _memory_factory)


def encode_payload(sql: str, owner: Optional[str], priority: Optional[float]) -> str:
    """Serialize one spilled query (the same fields a WAL submit carries)."""
    return json.dumps({"sql": sql, "owner": owner, "priority": priority}, sort_keys=True)


def decode_payload(payload: str) -> dict[str, Any]:
    """Parse a spilled payload; raises :class:`StorageError` on corruption."""
    try:
        decoded = json.loads(payload)
    except (TypeError, ValueError) as exc:
        raise StorageError(f"corrupt pending-store payload: {exc}") from exc
    if not isinstance(decoded, dict) or not decoded.get("sql"):
        raise StorageError("corrupt pending-store payload: missing sql")
    return decoded
