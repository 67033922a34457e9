"""The paper's primary contribution: entangled queries and coordination.

Public surface (also re-exported from the top-level :mod:`repro` package):

* :class:`~repro.core.system.YoutopiaSystem` — the assembled system facade
* :class:`~repro.core.session.YoutopiaSession` — per-user sessions
* :class:`~repro.core.compiler.EntangledQueryBuilder`, :func:`~repro.core.compiler.var`,
  :func:`~repro.core.compiler.compile_entangled`
* the IR types in :mod:`repro.core.ir`
* :class:`~repro.core.coordinator.Coordinator` / :class:`~repro.core.coordinator.QueryStatus`
* :class:`~repro.core.matching.Matcher` over the
  :class:`~repro.core.matchplan.GridProviderIndex` — the one matcher; its
  test oracles (interpreted matcher, single-key index, exhaustive evaluator)
  live in ``tests/matching_reference.py``
"""

from repro.core import ir
from repro.core.answer import AnswerRelationRegistry, AnswerRelationSpec
from repro.core.compiler import EntangledQueryBuilder, compile_entangled, entangled_to_sql, var
from repro.core.config import SystemConfig
from repro.core.coordinator import CoordinationRequest, Coordinator, QueryStatus
from repro.core.durability import (
    DurabilityManager,
    RecoveryReport,
    WriteAheadLog,
    read_wal,
)
from repro.core.events import Event, EventBus, EventType
from repro.core.executor import ExecutionOutcome, JointExecutor
from repro.core.matching import MatchedGroup, Matcher, Unifier
from repro.core.matchplan import GridProviderIndex, MatchPlanCache, QueryPlan
from repro.core.safety import AnalysisReport, analyze, check
from repro.core.session import YoutopiaSession
from repro.core.stats import CoordinationStatistics
from repro.core.system import YoutopiaSystem
from repro.core.transactions import TransactionManager

__all__ = [
    "AnalysisReport",
    "AnswerRelationRegistry",
    "AnswerRelationSpec",
    "CoordinationRequest",
    "CoordinationStatistics",
    "Coordinator",
    "DurabilityManager",
    "EntangledQueryBuilder",
    "Event",
    "EventBus",
    "EventType",
    "ExecutionOutcome",
    "GridProviderIndex",
    "JointExecutor",
    "MatchPlanCache",
    "MatchedGroup",
    "Matcher",
    "QueryPlan",
    "QueryStatus",
    "RecoveryReport",
    "SystemConfig",
    "TransactionManager",
    "Unifier",
    "WriteAheadLog",
    "YoutopiaSession",
    "YoutopiaSystem",
    "analyze",
    "check",
    "compile_entangled",
    "entangled_to_sql",
    "ir",
    "read_wal",
    "var",
]
