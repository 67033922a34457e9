"""A minimal transaction layer over the in-memory catalog.

**Role**: the atomicity substrate of joint execution.  Youtopia answers a
matched group of entangled queries *jointly*: either every query in the
group receives its answer tuple (and every side-effect row is written) or
none does.

**Paper correspondence**: Section 2.2 of the demo paper, where the execution
engine runs "queries and updates" on behalf of the coordination component
and leans on the DBMS's usual transactional machinery for all-or-nothing
effects; our substrate provides the same guarantee with whole-database
snapshots — perfectly adequate at laptop scale and easy to reason about.

The manager also doubles as the system's coarse concurrency control: a single
re-entrant lock serialises transactions, which is the "isolation by default"
baseline that entangled queries then selectively relax *at the semantic level*
(queries coordinate their answers) without ever compromising physical atomicity.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Iterator

from repro.errors import TransactionError
from repro.storage.database import Database, Snapshot


class TransactionManager:
    """Snapshot-based transactions with a serialising lock."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._lock = threading.RLock()
        self._depth = 0
        self._aborted = False
        self._snapshot: Snapshot | None = None
        self.commits = 0
        self.rollbacks = 0

    # -- explicit API ----------------------------------------------------------------

    def begin(self) -> None:
        """Start a transaction.  Nested begins join the outer transaction."""
        self._lock.acquire()
        if self._depth == 0:
            self._snapshot = self._database.snapshot()
            self._aborted = False
        self._depth += 1

    def commit(self) -> None:
        """Commit the current level.

        If an inner level already rolled back, the whole transaction is
        considered aborted and the outer commit finalises the rollback instead
        of silently committing partial state.
        """
        if self._depth == 0:
            raise TransactionError("commit without an active transaction")
        self._depth -= 1
        if self._depth == 0:
            if self._aborted:
                self.rollbacks += 1
            else:
                self.commits += 1
            self._snapshot = None
            self._aborted = False
        self._lock.release()

    def rollback(self) -> None:
        """Abort: restore the snapshot taken at the outermost ``begin``."""
        if self._depth == 0:
            raise TransactionError("rollback without an active transaction")
        assert self._snapshot is not None
        self._database.restore(self._snapshot)
        self._aborted = True
        self._depth -= 1
        if self._depth == 0:
            self._snapshot = None
            self._aborted = False
            self.rollbacks += 1
        self._lock.release()

    @property
    def in_transaction(self) -> bool:
        return self._depth > 0

    # -- context manager ----------------------------------------------------------------

    @contextmanager
    def atomic(self) -> Iterator[None]:
        """``with transactions.atomic(): ...`` — commit on success, rollback on error."""
        self.begin()
        try:
            yield
        except BaseException:
            self.rollback()
            raise
        else:
            self.commit()
