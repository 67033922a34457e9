"""Reproduction of "Coordination through Querying in the Youtopia System".

Youtopia (SIGMOD 2011 demo) is a database system that supports *declarative
data-driven coordination*: users submit **entangled queries** whose answers
are placed in shared answer relations and are only produced when the
coordination constraints of a whole group of queries can be satisfied jointly.

Clients talk to the system through the transport-agnostic **coordination
service** (:mod:`repro.service`): typed requests in, future-style handles out.

Quickstart::

    from repro import InProcessService, SubmitRequest, SystemConfig

    service = InProcessService(config=SystemConfig(seed=0))
    service.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    service.execute("INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris')")
    service.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])

    # submit_many registers the whole batch under one lock acquisition and
    # runs a single deferred match pass — the fast path for loaded systems.
    kramer, jerry = service.submit_many([
        SubmitRequest(owner="Kramer", sql=(
            "SELECT 'Kramer', fno INTO ANSWER Reservation "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1")),
        SubmitRequest(owner="Jerry", sql=(
            "SELECT 'Jerry', fno INTO ANSWER Reservation "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1")),
    ])

    # handles are future-style: done() / result(timeout) / add_done_callback
    assert kramer.done() and jerry.done()
    print(kramer.result().tuples)           # {'Reservation': (('Kramer', ...),)}
    print(service.answers("Reservation"))   # both travelers, same flight
    print(service.stats()["groups_matched"])  # 1

The classic facade (:class:`~repro.core.system.YoutopiaSystem`) remains
available and now delegates to the same machinery; ``docs/API.md`` has the
full protocol and a migration table.  See ``DESIGN.md`` for the system
inventory and ``EXPERIMENTS.md`` for the reproduced demo scenarios.
"""

from repro.core import (
    AnalysisReport,
    AnswerRelationRegistry,
    CoordinationRequest,
    Coordinator,
    EntangledQueryBuilder,
    EventBus,
    EventType,
    GridProviderIndex,
    MatchPlanCache,
    MatchedGroup,
    Matcher,
    QueryStatus,
    SystemConfig,
    YoutopiaSession,
    YoutopiaSystem,
    analyze,
    check,
    compile_entangled,
    ir,
    var,
)
from repro.errors import YoutopiaError
from repro.relalg import QueryEngine, QueryResult
from repro.service import (
    AnswerEnvelope,
    CoordinationServer,
    CoordinationService,
    InProcessService,
    IntrospectionService,
    RelationResult,
    RemoteHandle,
    RemoteService,
    RequestHandle,
    ServiceStats,
    SubmitRequest,
)
from repro.storage import Database

__version__ = "1.1.0"

__all__ = [
    "AnalysisReport",
    "AnswerEnvelope",
    "AnswerRelationRegistry",
    "CoordinationRequest",
    "CoordinationServer",
    "CoordinationService",
    "Coordinator",
    "Database",
    "EntangledQueryBuilder",
    "EventBus",
    "EventType",
    "GridProviderIndex",
    "InProcessService",
    "IntrospectionService",
    "MatchPlanCache",
    "MatchedGroup",
    "Matcher",
    "QueryEngine",
    "QueryResult",
    "QueryStatus",
    "RelationResult",
    "RemoteHandle",
    "RemoteService",
    "RequestHandle",
    "ServiceStats",
    "SubmitRequest",
    "SystemConfig",
    "YoutopiaError",
    "YoutopiaSession",
    "YoutopiaSystem",
    "analyze",
    "check",
    "compile_entangled",
    "ir",
    "var",
    "__version__",
]
