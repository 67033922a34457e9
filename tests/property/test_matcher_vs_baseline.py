"""Property-based oracle test: the production matcher (compiled plans over the
grid provider index) agrees with the exhaustive reference evaluator of
``tests/matching_reference.py`` on whether a pool of entangled queries can
coordinate.

Pools are random collections of pairwise travel-style coordination requests
(random destinations, partners, and price caps) over a small flight database.
The unification-based matcher and the direct implementation of the declarative
semantics must agree on matchability for every trigger query, and whenever the
matcher produces a group the group must actually satisfy the semantics.
"""

from __future__ import annotations

import random

from hypothesis import given, settings, strategies as st
from matching_reference import ExhaustiveEvaluator

from repro.core.compiler import EntangledQueryBuilder, var
from repro.core.matching import GridProviderIndex, Matcher
from repro.relalg.engine import QueryEngine, run_script
from repro.storage.database import Database

PEOPLE = ["Jerry", "Kramer", "Elaine", "George"]
DESTINATIONS = ["Paris", "Rome"]
PRICE_CAPS = [None, 350.0, 800.0]


def build_engine() -> QueryEngine:
    engine = QueryEngine(Database())
    run_script(
        engine,
        """
        CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price REAL);
        INSERT INTO Flights VALUES
            (122, 'Paris', 450.0), (123, 'Paris', 300.0),
            (136, 'Rome', 200.0), (140, 'Rome', 900.0);
        """,
    )
    return engine


query_specs = st.lists(
    st.tuples(
        st.sampled_from(PEOPLE),          # owner
        st.sampled_from(PEOPLE),          # partner
        st.sampled_from(DESTINATIONS),    # destination
        st.sampled_from(PRICE_CAPS),      # price cap
    ).filter(lambda spec: spec[0] != spec[1]),
    min_size=1,
    max_size=4,
)


def build_query(index, owner, partner, dest, cap):
    conditions = [f"dest = '{dest}'"]
    if cap is not None:
        conditions.append(f"price <= {cap}")
    return (
        EntangledQueryBuilder(owner=owner)
        .head("Reservation", owner, var("fno"))
        .domain("fno", f"SELECT fno FROM Flights WHERE {' AND '.join(conditions)}")
        .require("Reservation", partner, var("fno"))
        .build(query_id=f"q{index}")
    )


def satisfies_semantics(group, engine) -> bool:
    """Check a matched group directly against the declarative semantics."""
    answer_relation: dict[str, set] = {}
    for query in group.queries:
        for valuation in group.bindings[query.query_id]:
            for atom in query.heads:
                answer_relation.setdefault(atom.relation.lower(), set()).add(
                    atom.substitute(valuation)
                )
    for query in group.queries:
        for valuation in group.bindings[query.query_id]:
            # every domain constraint holds
            for domain in query.domains:
                rows = {tuple(row) for row in engine.execute(domain.subquery).rows}
                observed = tuple(valuation[name] for name in domain.variables)
                if observed not in rows:
                    return False
            # every answer constraint is satisfied by the group's own tuples
            for atom in query.answer_atoms:
                if atom.substitute(valuation) not in answer_relation.get(atom.relation.lower(), set()):
                    return False
    return True


@settings(max_examples=60, deadline=None)
@given(query_specs, st.integers(min_value=0, max_value=10_000))
def test_matcher_agrees_with_exhaustive_baseline(specs, seed):
    engine = build_engine()
    queries = [build_query(i, *spec) for i, spec in enumerate(specs)]
    pool = {query.query_id: query for query in queries}
    index = GridProviderIndex()
    for query in pool.values():
        index.add_query(query)

    matcher = Matcher(engine, rng=random.Random(seed))
    baseline = ExhaustiveEvaluator(engine, rng=random.Random(seed), max_group_size=4)

    for trigger in queries:
        fast = matcher.find_group(trigger, pool, index)
        slow = baseline.find_group(trigger, pool)
        assert (fast is None) == (slow is None), (
            f"matcher and baseline disagree for trigger {trigger.query_id}: "
            f"fast={fast is not None}, slow={slow is not None}"
        )
        if fast is not None:
            assert trigger.query_id in fast.query_ids
            assert satisfies_semantics(fast, engine)
        if slow is not None:
            assert satisfies_semantics(slow, engine)
