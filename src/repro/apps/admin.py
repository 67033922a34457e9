"""Administrative interface (demo application #3).

"The third application is an administrative interface which allows us to show
the internal state of the system and to visualize the state created by the
matching algorithms."  This module exposes that internal state as plain Python
structures and as formatted text: the pending-query pool and each query's
intermediate representation, the potential-match graph between pending
queries, answer-relation contents, coordination statistics, the event log and
EXPLAIN output for plain SELECTs.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional, Union

from repro.core import ir
from repro.core.coordinator import QueryStatus
from repro.core.events import Event
from repro.core.safety import analyze, mutual_match_possible
from repro.core.system import YoutopiaSystem
from repro.service.inprocess import InProcessService
from repro.apps.cli import format_result_table


@dataclass(frozen=True)
class MatchEdge:
    """A potential coordination edge between two pending queries."""

    left: str
    right: str
    relations: tuple[str, ...]


class AdminInterface:
    """Read-only inspection of a running Youtopia system.

    Talks through the service layer's introspection surface
    (:class:`~repro.service.IntrospectionService`); the deep dumps that are
    inherently in-process (event log, EXPLAIN, table statistics) reach into
    the wrapped system.
    """

    def __init__(self, system: Union[YoutopiaSystem, InProcessService]) -> None:
        if isinstance(system, YoutopiaSystem):
            self.service = system.service()
            self.system = system
        else:
            self.service = system
            self.system = system.system

    # -- pending queries -----------------------------------------------------------------

    def pending_queries(self) -> list[ir.EntangledQuery]:
        return self.service.pending_queries()

    def describe_query(self, query_id: str) -> str:
        """The internal representation of one registered query."""
        request = self.service.request(query_id)
        query = request.query
        report = analyze(query)
        lines = [
            f"query id     : {query.query_id}",
            f"owner        : {query.owner}",
            f"status       : {request.status.value}",
            f"SQL          : {query.sql or '(built programmatically)'}",
            f"IR           : {query.describe()}",
            f"heads        : {', '.join(str(atom) for atom in query.heads)}",
            f"answer atoms : {', '.join(str(atom) for atom in query.answer_atoms) or '(none)'}",
            f"domains      : {', '.join(str(domain) for domain in query.domains) or '(none)'}",
            f"predicates   : {', '.join(str(predicate) for predicate in query.predicates) or '(none)'}",
            f"CHOOSE       : {query.choose}",
            f"safe         : {report.safe}",
            f"origin/unique: {report.unique}",
        ]
        if request.status is QueryStatus.ANSWERED and request.answer is not None:
            lines.append(f"answer       : {request.answer.tuples}")
            lines.append(f"group        : {list(request.group_query_ids)}")
        if report.warnings:
            lines.append("warnings     : " + "; ".join(report.warnings))
        return "\n".join(lines)

    # -- match graph -----------------------------------------------------------------------

    def match_graph(self) -> list[MatchEdge]:
        """Potential-coordination edges between currently pending queries.

        An edge between two pending queries means their answer constraints
        could *structurally* be provided by each other's heads (necessary but
        not sufficient for a match — grounding against the database may still
        fail).  This is the visualization the demo's admin mode shows.
        """
        pending = self.pending_queries()
        edges: list[MatchEdge] = []
        for index, left in enumerate(pending):
            for right in pending[index + 1 :]:
                if not mutual_match_possible(left, right):
                    continue
                shared = sorted(
                    left.answer_relations() & right.answer_relations(),
                    key=str.lower,
                )
                edges.append(MatchEdge(left.query_id, right.query_id, tuple(shared)))
        return edges

    def match_graph_text(self) -> str:
        edges = self.match_graph()
        if not edges:
            return "(no potential matches among pending queries)"
        return "\n".join(
            f"{edge.left} <-> {edge.right}  via {', '.join(edge.relations)}" for edge in edges
        )

    # -- answer relations and tables --------------------------------------------------------------

    def answer_relations(self) -> dict[str, list[tuple]]:
        return {
            name: self.service.answers(name) for name in self.system.answer_relations.names()
        }

    def answer_relation_text(self, relation: str) -> str:
        columns = list(self.system.database.schema(relation).column_names)
        return format_result_table(columns, self.service.answers(relation))

    def table_statistics(self) -> dict[str, int]:
        return self.system.database.statistics()

    # -- statistics and events ----------------------------------------------------------------------

    def statistics(self) -> dict[str, int]:
        return self.service.stats().as_dict()

    def shard_stats(self) -> list[dict[str, int]]:
        """Per-shard pending/index/queue sizes of the coordination component."""
        return [dict(entry) for entry in self.service.stats().shards]

    def shard_text(self) -> str:
        lines = []
        for entry in self.shard_stats():
            lines.append(
                f"shard {entry['shard']}: pending={entry['pending']} "
                f"index={entry['index_size']} queued={entry['queued_events']} "
                f"dirty={bool(entry['dirty'])}"
            )
        return "\n".join(lines) or "(no shards)"

    def transport_stats(self) -> dict[str, int]:
        """Request-plane counters (empty for a purely in-process service)."""
        return dict(self.service.stats().transport)

    def transport_text(self) -> str:
        stats = self.transport_stats()
        if not stats:
            return "(no transport: in-process service)"
        return "\n".join(
            [
                f"connections: open={stats.get('connections_open')} "
                f"total={stats.get('connections_total')}",
                f"requests: in_flight={stats.get('requests_in_flight')} "
                f"total={stats.get('requests_total')} "
                f"rejected_backpressure={stats.get('rejected_backpressure')}",
                f"traffic: bytes_in={stats.get('bytes_in')} "
                f"bytes_out={stats.get('bytes_out')}",
            ]
        )

    def matching_stats(self) -> dict:
        """The match-policy block of :meth:`ServiceStats` (policy + counters)."""
        return dict(self.service.stats().matching)

    def matching_text(self) -> str:
        stats = self.matching_stats()
        if not stats:
            return "(no matching stats reported)"
        return "\n".join(
            [
                f"policy = {stats.get('policy', 'first_match')} "
                f"(candidate_limit={stats.get('candidate_limit')})",
                f"decisions: total={stats.get('decisions', 0)} "
                f"ties_broken={stats.get('ties_broken', 0)}",
                f"enumeration: groups={stats.get('groups_enumerated', 0)} "
                f"skipped={stats.get('groups_skipped', 0)} "
                f"truncated={stats.get('enumerations_truncated', 0)}",
            ]
        )

    def tiering_stats(self) -> dict:
        """The tiered-pool block of :meth:`ServiceStats` (disabled marker when off)."""
        return dict(self.service.stats().tiering)

    def tiering_text(self) -> str:
        stats = self.tiering_stats()
        if not stats.get("enabled"):
            return "(tiering off: all pending queries resident)"
        return "\n".join(
            [
                f"memory_limit = {stats.get('memory_limit')} "
                f"(backend={stats.get('backend')})",
                f"residency: hot={stats.get('hot', 0)} cold={stats.get('cold', 0)} "
                f"peak_hot={stats.get('peak_hot', 0)}",
                f"traffic: evictions={stats.get('evictions', 0)} "
                f"page_ins={stats.get('page_ins', 0)} "
                f"avg_page_in={stats.get('avg_page_in_ms', 0.0)}ms",
            ]
        )

    def cluster_stats(self) -> dict:
        """The cluster block of :meth:`ServiceStats` (empty for single-node)."""
        return dict(self.service.stats().cluster)

    def cluster_text(self) -> str:
        stats = self.cluster_stats()
        if not stats:
            return "(no cluster: single-node deployment)"
        role = stats.get("role", "node")
        lines = [f"role = {role}"]
        if role == "router":
            lines.append(
                f"topology: nodes={stats.get('node_count')} "
                f"shards={stats.get('shard_count')} "
                f"residence={stats.get('residence', 'per-signature')}"
            )
            lines.append(
                f"submits: routed={stats.get('routed_submits')} "
                f"cross_node={stats.get('cross_node_submits')} "
                f"relocations={stats.get('relocations')} "
                f"duplicates_rejected={stats.get('duplicate_rejections')} "
                f"failovers={stats.get('failovers')}"
            )
            lines.append(
                f"recovery: recovered={stats.get('recovered_queries', 0)} "
                f"resharded={stats.get('resharded_relocations', 0)} "
                f"introspection_gaps={stats.get('introspection_gaps', 0)}"
            )
            hot_nodes = stats.get("hot_nodes") or {}
            if hot_nodes:
                rendered = ", ".join(
                    f"{relation}@{node}" for relation, node in sorted(hot_nodes.items())
                )
            else:
                hot = stats.get("hot_relations") or []
                rendered = ", ".join(hot) if hot else "(none)"
            lines.append(f"hot relations: {rendered}")
            gaps = stats.get("unreachable_nodes") or []
            if gaps:
                lines.append(
                    "unreachable nodes: " + ", ".join(str(node) for node in gaps)
                )
            for node in stats.get("nodes", []):
                if not node.get("reachable", True):
                    lines.append(
                        f"node {node.get('index')} @ {node.get('address')}: UNREACHABLE"
                    )
                    continue
                line = (
                    f"node {node.get('index')} @ {node.get('address')}: "
                    f"shards={node.get('shards')} "
                    f"pending={node.get('pending')} "
                    f"routed_pending={node.get('routed_pending')} "
                    f"wal_last_lsn={node.get('wal_last_lsn')}"
                )
                standby = node.get("standby")
                if standby:
                    if standby.get("reachable", True):
                        line += (
                            f" standby@{standby.get('address')} "
                            f"lag={standby.get('lag_lsns')} lsns"
                        )
                    else:
                        line += f" standby@{standby.get('address')} UNREACHABLE"
                lines.append(line)
        else:
            for key, value in sorted(stats.items()):
                if key == "role":
                    continue
                lines.append(f"{key} = {value}")
        return "\n".join(lines)

    def durability_stats(self) -> dict:
        """The durability subsystem's counters (``{"enabled": False}`` when off)."""
        return dict(self.service.stats().durability)

    def durability_text(self) -> str:
        stats = self.durability_stats()
        if not stats.get("enabled"):
            return "(durability off: memory-only system)"
        lines = [
            f"data_dir = {stats.get('data_dir')}",
            f"fsync_policy = {stats.get('fsync_policy')} "
            f"(fsyncs={stats.get('wal_fsyncs')}, group_commits={stats.get('wal_group_commits')})",
            f"wal: last_lsn={stats.get('wal_last_lsn')} "
            f"appended={stats.get('wal_records_appended')} "
            f"since_checkpoint={stats.get('records_since_checkpoint')}",
            f"snapshots_taken = {stats.get('snapshots_taken')} "
            f"(interval={stats.get('snapshot_interval')})",
        ]
        recovery = stats.get("recovery")
        if recovery:
            lines.append(
                "last recovery: "
                f"pending={recovery.get('pending_recovered')} "
                f"answered={recovery.get('answered_recovered')} "
                f"replayed={recovery.get('records_replayed')} "
                f"repaired_bytes={recovery.get('repaired_bytes')} "
                f"in {recovery.get('elapsed_seconds', 0.0):.3f}s"
            )
        return "\n".join(lines)

    def event_log(self, limit: Optional[int] = None) -> list[Event]:
        events = self.system.events.history()
        if limit is not None:
            events = events[-limit:]
        return events

    def event_log_text(self, limit: int = 20) -> str:
        lines = []
        for event in self.event_log(limit):
            payload = {key: value for key, value in event.payload.items() if key != "sql"}
            lines.append(f"[{event.sequence:>5}] {event.type.value}: {payload}")
        return "\n".join(lines) or "(no events)"

    def explain(self, sql: str) -> str:
        """EXPLAIN a plain SELECT (the optimizer's plan, as indented text)."""
        return self.system.engine.explain(sql)

    # -- full dump -----------------------------------------------------------------------------------

    def render_state(self) -> str:
        """A complete text dump of the internal state (the demo's admin screen)."""
        sections = ["== Youtopia system state =="]
        sections.append("\n-- tables --")
        for name, count in sorted(self.table_statistics().items()):
            sections.append(f"{name}: {count} rows")
        sections.append("\n-- answer relations --")
        for name, tuples in sorted(self.answer_relations().items()):
            sections.append(f"{name}: {len(tuples)} tuples")
        sections.append("\n-- pending entangled queries --")
        pending = self.pending_queries()
        if pending:
            for query in pending:
                sections.append(f"{query.query_id} [{query.owner}]: {query.describe()}")
        else:
            sections.append("(none)")
        sections.append("\n-- potential match graph --")
        sections.append(self.match_graph_text())
        sections.append("\n-- matching shards --")
        sections.append(self.shard_text())
        sections.append("\n-- match policy --")
        sections.append(self.matching_text())
        sections.append("\n-- tiering --")
        sections.append(self.tiering_text())
        sections.append("\n-- transport --")
        sections.append(self.transport_text())
        sections.append("\n-- cluster --")
        sections.append(self.cluster_text())
        sections.append("\n-- durability --")
        sections.append(self.durability_text())
        sections.append("\n-- coordination statistics --")
        for key, value in sorted(self.statistics().items()):
            sections.append(f"{key} = {value}")
        return "\n".join(sections)


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - interactive helper
    """Entry point (``youtopia-admin``): dump the state of a fresh system."""
    del argv
    system = YoutopiaSystem()
    print(AdminInterface(system).render_state())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
