"""Property-based test: the plan optimizer never changes query results.

Random (but well-typed) SELECTs over a fixed flights/airlines schema are
executed three ways — unoptimized plan, optimized plan of the query with its
WHERE clause rewritten to ``(p) OR FALSE`` (same truth value, no top-level
equality conjunct, hence no index lookup), optimized plan of the query as
written — and must return identical row multisets.
"""

from __future__ import annotations

from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.relalg.engine import QueryEngine, run_script
from repro.relalg.expressions import ExpressionEvaluator
from repro.relalg.optimizer import optimize
from repro.relalg.plan import PlanContext
from repro.relalg.planner import build_plan, output_columns
from repro.sqlparser import parse_statement
from repro.storage.database import Database

SETUP = """
CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price REAL, seats INT);
CREATE TABLE Airlines (fno INT PRIMARY KEY, airline TEXT);
INSERT INTO Flights VALUES
    (122, 'Paris', 450.0, 10), (123, 'Paris', 500.0, 0), (134, 'Paris', 700.0, 5),
    (136, 'Rome', 300.0, 3), (140, 'Rome', 900.0, 8), (141, 'Athens', 150.0, 2);
INSERT INTO Airlines VALUES
    (122, 'United'), (123, 'United'), (134, 'Lufthansa'), (136, 'Alitalia'), (140, 'Aegean');
"""


def build_engine() -> QueryEngine:
    engine = QueryEngine(Database())
    run_script(engine, SETUP)
    engine.database.table("Flights").create_index("by_dest", ["dest"])
    return engine


_ENGINE = build_engine()

column_predicates = st.one_of(
    st.sampled_from(["f.dest", "a.airline"]).flatmap(
        lambda column: st.sampled_from(["Paris", "Rome", "Athens", "United", "Aegean"]).map(
            lambda value: f"{column} = '{value}'"
        )
    ),
    st.sampled_from(["f.price", "f.seats", "f.fno"]).flatmap(
        lambda column: st.tuples(
            st.sampled_from(["<", "<=", ">", ">=", "=", "!="]),
            st.integers(min_value=0, max_value=1000),
        ).map(lambda pair: f"{column} {pair[0]} {pair[1]}")
    ),
    st.just("f.fno = a.fno"),
    st.just("1 = 1"),
    st.just("1 = 2"),
)


def conditions(depth: int = 2):
    if depth == 0:
        return column_predicates
    sub = conditions(depth - 1)
    return st.one_of(
        column_predicates,
        st.tuples(sub, st.sampled_from(["AND", "OR"]), sub).map(
            lambda triple: f"({triple[0]} {triple[1]} {triple[2]})"
        ),
    )


select_texts = st.tuples(
    st.sampled_from([
        "f.fno",
        "f.fno, f.dest",
        "f.fno, a.airline",
        "f.dest, f.price",
    ]),
    conditions(2),
    st.sampled_from(["", " ORDER BY f.fno", " ORDER BY f.price DESC, f.fno"]),
    st.sampled_from(["", " LIMIT 3"]),
).map(
    lambda parts: (
        f"SELECT {parts[0]} FROM Flights f JOIN Airlines a ON f.fno = a.fno "
        f"WHERE {parts[1]}{parts[2]}{parts[3]}"
    )
)


def run_unoptimized(sql: str) -> list[tuple]:
    select = parse_statement(sql)
    plan = build_plan(select, _ENGINE.database)
    columns = output_columns(select, _ENGINE.database)
    context = PlanContext(_ENGINE.database, _ENGINE.evaluator)
    return [tuple(row.get(column) for column in columns) for row in plan.rows(context)]


def scan_reference(sql: str) -> str:
    head, _, rest = sql.partition(" WHERE ")
    tails = [rest.find(tail) for tail in (" ORDER BY", " LIMIT") if tail in rest]
    cut = min(tails, default=len(rest))
    return f"{head} WHERE ({rest[:cut]}) OR FALSE{rest[cut:]}"


def run_optimized(sql: str) -> list[tuple]:
    select = parse_statement(sql)
    plan = optimize(build_plan(select, _ENGINE.database), _ENGINE.database)
    columns = output_columns(select, _ENGINE.database)
    context = PlanContext(_ENGINE.database, _ENGINE.evaluator)
    return [tuple(row.get(column) for column in columns) for row in plan.rows(context)]


@settings(max_examples=120, deadline=None)
@given(select_texts)
def test_optimizer_preserves_results(sql: str):
    baseline = run_unoptimized(sql)
    no_index = run_optimized(scan_reference(sql))
    with_index = run_optimized(sql)
    # Without an ORDER BY the row order is unspecified, so compare multisets;
    # with an ORDER BY the sequences must agree exactly.
    if "ORDER BY" in sql and "LIMIT" not in sql:
        assert baseline == no_index == with_index
    else:
        assert Counter(map(repr, baseline)) == Counter(map(repr, no_index)) == Counter(
            map(repr, with_index)
        ) or ("LIMIT" in sql and len(baseline) == len(no_index) == len(with_index))
