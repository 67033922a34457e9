"""Aggregate statistics of the coordination component.

The administrative interface of the demo "allows us to show the internal state
of the system"; these counters are part of that state and are also what the
scalability benchmarks report.

``domain_queries`` counts domain subqueries actually executed: the matcher
reuses a domain's rows across attempts while the tables it reads are
unchanged, and a reused result is not counted.  Like the other matching
work counters it adds up successful attempts only.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from repro.core.matching import MatchStatistics


@dataclass
class CoordinationStatistics:
    """Monotonic counters maintained by the coordinator (under its lock)."""

    queries_registered: int = 0
    queries_rejected: int = 0
    queries_answered: int = 0
    queries_cancelled: int = 0
    queries_timed_out: int = 0
    groups_matched: int = 0
    match_attempts: int = 0
    failed_match_attempts: int = 0
    executions_failed: int = 0
    structural_nodes: int = 0
    unification_attempts: int = 0
    grounding_attempts: int = 0
    domain_queries: int = 0

    def record_match_attempt(self, succeeded: bool, match_stats: MatchStatistics) -> None:
        self.match_attempts += 1
        if not succeeded:
            self.failed_match_attempts += 1
        self.structural_nodes += match_stats.structural_nodes
        self.unification_attempts += match_stats.unification_attempts
        self.grounding_attempts += match_stats.grounding_attempts
        self.domain_queries += match_stats.domain_queries

    def load(self, counters: dict[str, int]) -> None:
        """Restore counter values (recovery from a durability snapshot).

        Names this version does not count (snapshots written by older code)
        are skipped.
        """
        for counter in fields(self):
            if counter.name in counters:
                setattr(self, counter.name, counters[counter.name])

    def as_dict(self) -> dict[str, int]:
        """A plain dictionary view (for the admin interface and benchmarks)."""
        return {counter.name: getattr(self, counter.name) for counter in fields(self)}
