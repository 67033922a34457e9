"""Tiered pending pool: hot queries in memory, cold ones spilled.

The paper's steady state is thousands of entangled queries parked waiting
for coordination partners.  Keeping each one fully materialized — parsed
domain subqueries, predicate trees, compiled match plans — caps the pool at
process memory.  This module bounds that: the coordinator's pending pool
becomes a :class:`TieredPool` holding at most ``memory_limit``
fully-materialized *hot* queries; everything beyond is evicted to a pluggable
:class:`~repro.storage.backends.PendingStoreBackend` and *paged back in on
demand*.

What stays resident for a cold query — and why that is enough:

* **Its provider-index entries.**  Eviction never touches the coordinator's
  provider index, so a cold query is still discoverable as a coordination
  candidate.  When the matcher probes the pool for a candidate hit
  (``pool.get(candidate.query_id)``) the tiered pool transparently pages the
  query back in *before* the match attempt — candidate enumeration order,
  RNG consumption and committed answers are byte-identical to an untiered
  pool (proven by the differential fuzz pass in
  ``tests/integration/test_matching_fuzz.py``).
* **A structural stub.**  The cold side keeps a slimmed
  :class:`~repro.core.ir.EntangledQuery` — heads, answer atoms, owner,
  priority and the materialized SQL, with the bulky ``domains`` /
  ``predicates`` bodies dropped.  The stub answers every probe that does not
  need matching semantics: ``in`` / ``len`` membership, id sweeps, index
  removal when the query leaves the pool, and snapshot/wire encoding (the
  SQL string is exact, so journaling stays faithful).
* **Nothing else.**  Compiled match plans are evicted with the query (they
  are derived state keyed by IR object identity and recompile transparently
  after a page-in), and the full payload lives only in the backend.

Page-in recompiles the query from its spilled SQL exactly the way WAL
recovery does (:meth:`~repro.core.coordinator.Coordinator.recover_request`),
so a round trip through the cold store is the same transformation a crash
restart already guarantees to preserve.  The stored payload is *not* deleted
on page-in — only when the query leaves the pending pool for good — so a
snapshot that references cold entries (see ``_capture_state_locked``) can
always resolve them, even if the query paged in and back out around the
checkpoint.

Locking: a :class:`TieredPool` has no lock of its own.  Every access happens
under the coordinator lock that already guards the pool, and the
eviction/page-in hooks re-enter the coordinator under that same (reentrant)
lock.  The backend serializes internally.
"""

from __future__ import annotations

import dataclasses
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.core import ir
from repro.core.compiler import compile_entangled, entangled_to_sql
from repro.errors import StorageError, YoutopiaError
from repro.storage.backends import (
    PendingStoreBackend,
    decode_payload,
    encode_payload,
)

_MISSING = object()


def make_stub(query: ir.EntangledQuery) -> ir.EntangledQuery:
    """The resident skeleton of an evicted query.

    Heads and answer atoms survive (index removal and membership need
    them); ``sql`` is materialized via
    :func:`~repro.core.compiler.entangled_to_sql` so builder-made queries
    keep an exact journalable form; the parsed ``domains`` and ``predicates``
    — the bulk of a query's memory — are dropped.  A stub must never be
    handed to the matcher: with its constraints gone it would match
    unconstrained.  The pool guarantees that by paging in on every ``get``.
    """
    return dataclasses.replace(
        query, sql=entangled_to_sql(query), domains=(), predicates=()
    )


def recompile_stub(
    query_id: str, sql: str, owner: Optional[str], priority: Optional[float]
) -> ir.EntangledQuery:
    """Rebuild the full query from its spilled payload (the recovery recipe)."""
    try:
        query = dataclasses.replace(
            compile_entangled(str(sql), owner=owner), query_id=query_id
        )
    except YoutopiaError as exc:
        raise StorageError(
            f"cold store page-in could not recompile query {query_id!r}: {exc}"
        ) from exc
    if priority is not None:
        query = dataclasses.replace(query, priority=float(priority))
    return query


class TieredPool:
    """A hot/cold pending pool with the mapping surface the coordinator uses.

    Drop-in for the coordinator's ``dict[str, EntangledQuery]``: ``get`` /
    ``[]`` return the *full* query (paging it in when cold), membership and
    iteration cover both tiers without IO, ``values()`` / ``items()`` peek
    cold entries as stubs (introspection must not thrash the hot set), and
    ``pop`` removes from either tier, deleting the spilled payload.
    """

    def __init__(self, manager: "TieringManager") -> None:
        self._manager = manager
        self._hot: dict[str, ir.EntangledQuery] = {}
        self._cold: dict[str, ir.EntangledQuery] = {}
        # Arrival order of every resident id, hot or cold.  Iteration and
        # keys() follow it so id sweeps (dirty retries, admin listings) see
        # exactly the order an untiered dict pool would — tier transitions
        # reorder ``_hot`` for LRU accounting but never the visible order.
        self._seq: dict[str, None] = {}
        #: Ids that must stay hot: eviction passes over them (see pinned()).
        self._pinned: frozenset[str] = frozenset()
        self.evictions = 0
        self.page_ins = 0
        self.page_in_seconds = 0.0
        self.peak_hot = 0

    # -- mapping surface ---------------------------------------------------------------

    def __setitem__(self, query_id: str, query: ir.EntangledQuery) -> None:
        self._seq.setdefault(query_id, None)
        self._cold.pop(query_id, None)
        self._hot[query_id] = query
        if len(self._hot) > self.peak_hot:
            self.peak_hot = len(self._hot)
        self._evict_overflow()

    def get(
        self, query_id: str, default: Optional[ir.EntangledQuery] = None
    ) -> Optional[ir.EntangledQuery]:
        query = self._hot.get(query_id)
        if query is not None:
            # least recently probed spills first: a hit moves to the back
            self._hot[query_id] = self._hot.pop(query_id)
            return query
        if query_id in self._cold:
            return self._page_in(query_id)
        return default

    def __getitem__(self, query_id: str) -> ir.EntangledQuery:
        query = self.get(query_id)
        if query is None:
            raise KeyError(query_id)
        return query

    def pop(self, query_id: str, *default: Any) -> Any:
        """Remove from either tier; returns the full query or the cold stub.

        The returned object always carries the query's heads, which is all
        index removal needs — a cold departure (answered partner, cancel,
        recovery discard) costs one backend delete, never a recompile.  The
        delete runs after the caller has journaled the departure (commit and
        cancel records are appended before pool mutation), so a crash can
        never lose a payload the log still considers pending.
        """
        query = self._hot.pop(query_id, None)
        if query is None:
            query = self._cold.pop(query_id, None)
        if query is None:
            if default:
                return default[0]
            raise KeyError(query_id)
        self._seq.pop(query_id, None)
        self._manager.backend.delete(query_id)
        return query

    def __contains__(self, query_id: object) -> bool:
        return query_id in self._seq

    def __len__(self) -> int:
        return len(self._seq)

    def __bool__(self) -> bool:
        return bool(self._seq)

    def __iter__(self) -> Iterator[str]:
        yield from list(self._seq)

    def keys(self) -> list[str]:
        return list(self._seq)

    def values(self) -> list[ir.EntangledQuery]:
        """Hot queries plus cold *stubs* — introspection without page-ins."""
        return [self._peek(query_id) for query_id in self._seq]

    def items(self) -> list[tuple[str, ir.EntangledQuery]]:
        return [(query_id, self._peek(query_id)) for query_id in self._seq]

    def _peek(self, query_id: str) -> ir.EntangledQuery:
        """The resident object of either tier, with no touch and no IO."""
        query = self._hot.get(query_id)
        return query if query is not None else self._cold[query_id]

    # -- tier introspection ------------------------------------------------------------

    def hot_count(self) -> int:
        return len(self._hot)

    def cold_count(self) -> int:
        return len(self._cold)

    def is_cold(self, query_id: str) -> bool:
        return query_id in self._cold

    def cold_ids(self) -> list[str]:
        return list(self._cold)

    @contextmanager
    def pinned(self, query_ids: Iterable[str]) -> Iterator[None]:
        """Keep ``query_ids`` hot inside the block, then evict the overflow.

        While pinned queries fill the hot tier it may exceed the memory
        limit; the block's end brings it back under.
        """
        self._pinned = frozenset(query_ids)
        try:
            yield
        finally:
            self._pinned = frozenset()
            self._evict_overflow()

    # -- tier transitions --------------------------------------------------------------

    def _evict_overflow(self) -> None:
        capacity = self._manager.memory_limit
        while len(self._hot) > capacity:
            # least recently probed first, passing over pinned queries
            victim_id = next((qid for qid in self._hot if qid not in self._pinned), None)
            if victim_id is None:
                return
            victim = self._hot.pop(victim_id)
            self._manager.backend.put(
                victim_id,
                encode_payload(entangled_to_sql(victim), victim.owner, victim.priority),
            )
            stub = make_stub(victim)
            self._cold[victim_id] = stub
            self.evictions += 1
            self._manager.on_evict(victim_id, stub)

    def _page_in(self, query_id: str) -> ir.EntangledQuery:
        started = time.perf_counter()
        payload = self._manager.backend.get(query_id)
        if payload is None:
            # The invariant "backend ⊇ cold set" broke: matching with the
            # stub would ignore the query's constraints, so fail loudly.
            raise StorageError(
                f"cold store lost the payload of pending query {query_id!r}"
            )
        decoded = decode_payload(payload)
        query = recompile_stub(
            query_id,
            str(decoded["sql"]),
            decoded.get("owner"),
            decoded.get("priority"),
        )
        del self._cold[query_id]
        self._hot[query_id] = query
        if len(self._hot) > self.peak_hot:
            self.peak_hot = len(self._hot)
        self.page_ins += 1
        self.page_in_seconds += time.perf_counter() - started
        self._manager.on_page_in(query_id, query)
        # Note: the spilled payload stays in the backend until the query
        # leaves the pool — a snapshot cut before this page-in may reference
        # it, and re-eviction would only rewrite the identical bytes.
        self._evict_overflow()
        return query


class TieringManager:
    """Owns the cold-store backend and the coordinator's tiered pool.

    The coordinator creates one manager when ``pending_memory_limit`` is
    configured and uses its :attr:`pool` as the pending pool.
    ``pending_memory_limit`` bounds the fully-materialized pending queries
    outside a pinned batch (see :meth:`TieredPool.pinned`); it is at least
    one, because the query being matched must be materialized.
    """

    def __init__(
        self,
        backend: PendingStoreBackend,
        memory_limit: int,
        on_evict: Optional[Callable[[str, ir.EntangledQuery], None]] = None,
        on_page_in: Optional[Callable[[str, ir.EntangledQuery], None]] = None,
    ) -> None:
        if memory_limit < 1:
            raise ValueError("pending_memory_limit must be >= 1 when tiering is enabled")
        self.backend = backend
        self.memory_limit = memory_limit
        self._on_evict = on_evict
        self._on_page_in = on_page_in
        self._closed = False
        self.pool = TieredPool(self)

    # -- coordinator hooks -------------------------------------------------------------

    def on_evict(self, query_id: str, stub: ir.EntangledQuery) -> None:
        if self._on_evict is not None:
            self._on_evict(query_id, stub)

    def on_page_in(self, query_id: str, query: ir.EntangledQuery) -> None:
        if self._on_page_in is not None:
            self._on_page_in(query_id, query)

    # -- lifecycle and introspection ---------------------------------------------------

    def sync(self) -> None:
        """Durability barrier before a snapshot references cold entries."""
        self.backend.sync()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.backend.close()

    def statistics(self) -> dict[str, Any]:
        """The ``ServiceStats.tiering`` block (numerics sum across nodes)."""
        pool = self.pool
        return {
            "enabled": True,
            "memory_limit": self.memory_limit,
            "backend": self.backend.describe(),
            "hot": pool.hot_count(),
            "cold": pool.cold_count(),
            "peak_hot": pool.peak_hot,
            "evictions": pool.evictions,
            "page_ins": pool.page_ins,
            "page_in_seconds": round(pool.page_in_seconds, 6),
        }
