"""Typed configuration for assembling a Youtopia instance.

:class:`SystemConfig` replaces the kwargs-soup constructors of
:class:`~repro.core.system.YoutopiaSystem` and
:class:`~repro.core.coordinator.Coordinator`: one frozen dataclass carries
every tuning knob, can be passed around (benchmark sweeps, the service layer,
future network servers), compared, and overridden immutably.  Both
``YoutopiaSystem`` and the coordinator take one (``None`` on the system means
``SystemConfig()``).  There is no knob for *how* matching runs: compiled
match plans over the grid provider index are the only matcher, and the
relational optimizer always uses an index that exactly covers a plain SQL
query's equality conjuncts.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union


@dataclass(frozen=True)
class SystemConfig:
    """Every tuning knob of a Youtopia instance, in one value object.

    Attributes
    ----------
    seed:
        Seed for the nondeterministic ``CHOOSE`` tie-breaking; ``None`` means
        a fresh unseeded RNG.
    max_group_size:
        Upper bound on the size of a coordination group the matcher explores.
    auto_retry_on_data_change:
        Re-attempt pending coordinations when base data changes.
    data_dir:
        Directory for the durability subsystem
        (:mod:`~repro.core.durability`): a write-ahead log journaling every
        coordination state transition plus periodic snapshots.  A system
        rebuilt over the same directory after a crash recovers its pending
        pool, request history and base data.  ``None`` (the default) keeps
        the system memory-only.
    fsync_policy:
        When WAL appends are forced to disk: ``"always"`` (every record),
        ``"batch"`` (the default: once per append, or once per
        ``submit_many`` group-commit batch) or ``"never"`` (OS-buffered).
        Ignored without ``data_dir``.
    snapshot_interval:
        Number of WAL records between automatic snapshots (after which the
        log is truncated).  ``0`` disables automatic snapshots — the log
        then only shrinks on explicit ``checkpoint()`` calls.  Ignored
        without ``data_dir``.
    match_policy:
        How the coordinator chooses among candidate match groups: one of
        ``first_match`` (the default — commit the first group the search
        discovers, exactly the classic behaviour and cost), ``priority``
        (maximise summed per-query priorities), ``fairness`` (serve the
        longest-waiting member) or ``min_cost`` (minimise the summed
        ``policy_cost_attribute`` over chosen valuations).  See
        :mod:`repro.core.policy`.
    policy_candidate_limit:
        Upper bound on how many candidate groups a non-``first_match``
        policy enumerates per match attempt.  Bounds the extra search work;
        ``first_match`` never enumerates more than one group regardless.
    policy_cost_attribute:
        Variable name (case-insensitive) the ``min_cost`` policy sums over
        each group's chosen valuations.
    pending_memory_limit:
        System-wide bound on *fully-materialized* pending queries.  ``None``
        (the default) keeps the classic all-in-memory pool.  With a limit,
        the pending pool becomes a :class:`~repro.core.tiering.TieredPool`:
        recently-touched queries stay hot in memory, and colder ones are evicted to the
        ``cold_store`` backend — their provider-index entries stay resident,
        so a candidate hit transparently pages the query back in before the
        match attempt.  Answers are identical to the untiered pool; only
        memory (bounded) and page-in latency (on cold hits) change.
    cold_store:
        Which :mod:`repro.storage.backends` scheme holds evicted queries:
        ``"sqlite"`` (the default — ``cold_store.db`` inside ``data_dir``,
        or an in-memory SQLite database without one) or ``"memory"``; custom
        backends register via
        :func:`repro.storage.backends.register_backend`.  Ignored without
        ``pending_memory_limit``.
    """

    seed: Optional[int] = None
    max_group_size: int = 32
    auto_retry_on_data_change: bool = False
    data_dir: Optional[Union[str, Path]] = None
    fsync_policy: str = "batch"
    snapshot_interval: int = 1000
    match_policy: str = "first_match"
    policy_candidate_limit: int = 16
    policy_cost_attribute: str = "price"
    pending_memory_limit: Optional[int] = None
    cold_store: str = "sqlite"

    def replace(self, **overrides: object) -> "SystemConfig":
        """A copy of this configuration with some fields overridden."""
        return dataclasses.replace(self, **overrides)  # type: ignore[arg-type]

    def as_dict(self) -> dict[str, object]:
        """A plain-dict view (handy for logging and admin introspection)."""
        return {
            "seed": self.seed,
            "max_group_size": self.max_group_size,
            "auto_retry_on_data_change": self.auto_retry_on_data_change,
            "data_dir": None if self.data_dir is None else str(self.data_dir),
            "fsync_policy": self.fsync_policy,
            "snapshot_interval": self.snapshot_interval,
            "match_policy": self.match_policy,
            "policy_candidate_limit": self.policy_candidate_limit,
            "policy_cost_attribute": self.policy_cost_attribute,
            "pending_memory_limit": self.pending_memory_limit,
            "cold_store": self.cold_store,
        }
