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
from repro.service.metrics import render_stats
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
        sections.append("\n-- service statistics --")
        sections.append(render_stats(self.service.stats()))
        return "\n".join(sections)


def main(argv: Optional[list[str]] = None) -> int:  # pragma: no cover - interactive helper
    """Entry point (``youtopia-admin``): dump the state of a fresh system."""
    del argv
    system = YoutopiaSystem()
    print(AdminInterface(system).render_state())
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
