"""Unit tests for compiled match plans and the grid provider index.

The load-bearing invariants:

* ``GridProviderIndex.candidates`` returns *exactly* the same list — members
  and order — as the single-key reference index of
  ``tests/matching_reference.py``, on random query corpora, so matcher
  exploration (and hence RNG consumption) is identical under either index;
* compiled pair programs agree with interpreted unification;
* the plan cache memoizes, evicts, recompiles on object identity change, and
  counts what it did, and those counters are what the coordinator reports.
"""

from __future__ import annotations

import copy
import random

import pytest
from matching_reference import ReferenceProviderIndex

from repro.core import ir
from repro.core.compiler import compile_entangled
from repro.core.config import SystemConfig
from repro.core.matching import GridProviderIndex, MatchPlanCache, Unifier
from repro.core.matchplan import DomainPlan, QueryPlan, apply_pair, compile_pair
from repro.core.system import YoutopiaSystem

RELATIONS = ("ResA", "ResB", "ResC")


def entangled_sql(
    user: str, partner: str, head_rel: str = "ResA", need_rel: str = "ResA"
) -> str:
    return (
        f"SELECT '{user}', fno INTO ANSWER {head_rel} "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        f"AND ('{partner}', fno) IN ANSWER {need_rel} CHOOSE 1"
    )


def random_queries(seed: int, count: int) -> list:
    rng = random.Random(seed)
    queries = []
    for i in range(count):
        head_rel = rng.choice(RELATIONS)
        need_rel = rng.choice(RELATIONS)
        queries.append(
            compile_entangled(entangled_sql(f"u{i}", f"p{rng.randrange(count)}", head_rel, need_rel))
        )
    return queries


# ---------------------------------------------------------------------------
# Grid index vs. single-key index: identical candidate lists
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(5))
def test_grid_candidates_match_single_key_exactly(seed):
    queries = random_queries(seed, 40)
    single = ReferenceProviderIndex()
    grid = GridProviderIndex()
    for query in queries:
        single.add_query(query)
        grid.add_query(query)
    assert len(grid) == len(single)

    cache = MatchPlanCache()
    for query in queries:
        plan = cache.plan_for(query)
        for atom_index, atom in enumerate(query.answer_atoms):
            expected = single.candidates(atom)
            # members AND order must agree, across all four lookup paths
            assert grid.candidates(atom) == expected
            probe = plan.answer_atoms[atom_index]
            assert grid.candidates_compiled(probe) == expected
            assert single.candidates_compiled(probe) == expected

    # removal keeps the two indexes aligned
    rng = random.Random(seed + 1000)
    for query in rng.sample(queries, 15):
        single.remove_query(query)
        grid.remove_query(query)
    for query in queries:
        for atom in query.answer_atoms:
            assert grid.candidates(atom) == single.candidates(atom)


def test_grid_candidates_preserve_insertion_order_within_bucket():
    grid = GridProviderIndex()
    queries = [compile_entangled(entangled_sql(f"u{i}", "shared")) for i in range(10)]
    for query in queries:
        grid.add_query(query)
    expected = [q.query_id for q in queries]

    # an unconstrained probe (both positions variable) walks the full bucket
    # in arrival order
    open_probe = ir.Atom("ResA", (ir.Variable("t"), ir.Variable("f")))
    assert [p.query_id for p in grid.candidates(open_probe)] == expected

    # a probe bound on one column filters but never reorders the survivors
    bound_probe = ir.Atom("ResA", (ir.Constant("u3"), ir.Variable("f")))
    assert [p.query_id for p in grid.candidates(bound_probe)] == [
        queries[3].query_id
    ]

    # no head binds traveler='shared': the bound column empties the result
    ghost_probe = ir.Atom("ResA", (ir.Constant("shared"), ir.Variable("f")))
    assert grid.candidates(ghost_probe) == []


def test_grid_removal_leaves_no_empty_buckets():
    """Answered queries leave nothing behind: a bucket keyed by a query's own
    constant must not outlive the query."""
    grid = GridProviderIndex()
    queries = random_queries(7, 30)
    for query in queries:
        grid.add_query(query)
    for query in queries:
        grid.remove_query(query)
    assert len(grid) == 0
    assert (grid._by_relation, grid._const_columns, grid._var_columns) == ({}, {}, {})


# ---------------------------------------------------------------------------
# Pair programs: compiled unification vs. interpreted
# ---------------------------------------------------------------------------


def test_pair_ops_compatible_pair_unifies_like_interpreter():
    cache = MatchPlanCache()
    left = compile_entangled(entangled_sql("jerry", "kramer"))
    right = compile_entangled(entangled_sql("kramer", "jerry"))
    probe = cache.plan_for(left).answer_atoms[0]  # ('kramer', fno) IN ResA
    provider = cache.plan_for(right).heads[0]  # head ('kramer', fno)

    ops = cache.pair_ops(probe, provider)
    assert ops.compatible
    unifier = Unifier()
    assert apply_pair(unifier, ops)
    # the probe's fno and the provider's fno now share a class
    assert unifier.find((left.query_id, "fno")) == unifier.find(
        (right.query_id, "fno")
    )


def test_pair_ops_constant_mismatch_is_incompatible():
    cache = MatchPlanCache()
    left = compile_entangled(entangled_sql("jerry", "kramer"))
    stranger = compile_entangled(entangled_sql("newman", "elaine"))
    probe = cache.plan_for(left).answer_atoms[0]  # needs traveler='kramer'
    provider = cache.plan_for(stranger).heads[0]  # offers traveler='newman'
    ops = cache.pair_ops(probe, provider)
    assert not ops.compatible
    assert not apply_pair(Unifier(), ops)


def test_pair_ops_relation_mismatch_is_incompatible():
    left = compile_entangled(entangled_sql("a", "b", "ResA", "ResA"))
    right = compile_entangled(entangled_sql("b", "a", "ResB", "ResB"))
    cache = MatchPlanCache()
    probe = cache.plan_for(left).answer_atoms[0]
    provider = cache.plan_for(right).heads[0]
    assert not compile_pair(probe, provider).compatible


def test_pair_ops_are_memoized_per_probe_and_provider():
    cache = MatchPlanCache()
    left = compile_entangled(entangled_sql("jerry", "kramer"))
    right = compile_entangled(entangled_sql("kramer", "jerry"))
    probe = cache.plan_for(left).answer_atoms[0]
    provider = cache.plan_for(right).heads[0]

    first = cache.pair_ops(probe, provider)
    second = cache.pair_ops(probe, provider)
    assert first is second
    stats = cache.statistics()
    assert stats["pair_ops_compiled"] == 1
    assert stats["pair_ops_hits"] == 1


# ---------------------------------------------------------------------------
# Plan cache lifecycle
# ---------------------------------------------------------------------------


def test_plan_cache_hits_evicts_and_counts():
    cache = MatchPlanCache()
    query = compile_entangled(entangled_sql("jerry", "kramer"))
    plan = cache.plan_for(query)
    assert cache.plan_for(query) is plan
    assert len(cache) == 1

    cache.evict(query.query_id)
    assert len(cache) == 0
    cache.evict(query.query_id)  # idempotent

    stats = cache.statistics()
    assert stats["plans_compiled"] == 1
    assert stats["plan_cache_hits"] == 1
    assert stats["plans_evicted"] == 1


def test_plan_cache_recompiles_when_query_object_changes():
    """WAL recovery rebuilds IR objects: same id, new object → new plan."""
    cache = MatchPlanCache()
    query = compile_entangled(entangled_sql("jerry", "kramer"))
    plan = cache.plan_for(query)
    replayed = copy.deepcopy(query)
    assert replayed.query_id == query.query_id
    recompiled = cache.plan_for(replayed)
    assert recompiled is not plan
    assert recompiled.query is replayed
    assert cache.statistics()["plans_compiled"] == 2


def test_plan_cache_invalidate_all():
    cache = MatchPlanCache()
    for query in random_queries(3, 5):
        cache.plan_for(query)
    assert len(cache) == 5
    cache.invalidate_all()
    assert len(cache) == 0
    assert cache.statistics()["plan_invalidations"] == 1


def test_compiled_atom_uids_are_unique_across_plans():
    cache = MatchPlanCache()
    uids = set()
    for query in random_queries(4, 10):
        plan = cache.plan_for(query)
        for atom in (*plan.heads, *plan.answer_atoms):
            assert atom.uid not in uids
            uids.add(atom.uid)


# ---------------------------------------------------------------------------
# The coordinator's matching statistics
# ---------------------------------------------------------------------------


def test_domain_plan_keys_on_printed_text_and_lists_every_table_read():
    query = compile_entangled(
        "SELECT 'J', fno INTO ANSWER R WHERE fno IN "
        "(SELECT f.fno FROM Flights AS f JOIN Airlines a ON f.carrier = a.name "
        "WHERE a.hub IN (SELECT city FROM Cities WHERE country IN "
        "(SELECT name FROM Countries)) AND f.fno IN (SELECT fno FROM flights)) "
        "AND ('K', fno) IN ANSWER R CHOOSE 1"
    )
    (domain,) = QueryPlan(query, iter(range(1, 100))).domains()
    assert isinstance(domain, DomainPlan) and domain.constraint is query.domains[0]
    assert domain.key == str(query.domains[0]).split(" IN (", 1)[1][:-1]
    assert domain.tables == ("airlines", "cities", "countries", "flights")


def test_domain_plans_are_built_on_first_use_and_kept():
    plan = QueryPlan(compile_entangled(entangled_sql("J", "K")), iter(range(1, 100)))
    assert plan._domains is None  # compiling a plan does not print its domains
    first = plan.domains()
    assert plan.domains() is first
    assert first[0].key == "SELECT fno FROM Flights WHERE (dest = 'Paris')"
    assert first[0].tables == ("flights",)


def test_plan_cache_counters_surface_in_matching_statistics():
    """A fresh system reports the plan-cache counters, and no execution-mode
    strings: compiled plans over the grid index are the only matcher."""
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    try:
        stats = system.coordinator.matching_statistics()
        assert stats["plans_compiled"] == 0
        assert stats["plans_cached"] == 0
        assert "match_plan" not in stats and "provider_index" not in stats
        assert isinstance(system.coordinator._index, GridProviderIndex)
    finally:
        system.close()


def test_default_config_compiles_plans_end_to_end():
    system = YoutopiaSystem(config=SystemConfig(seed=0))
    try:
        system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
        system.execute("INSERT INTO Flights VALUES (1, 'Paris'), (2, 'Paris')")
        system.declare_answer_relation("ResA", ["traveler", "fno"], ["TEXT", "INTEGER"])
        first = system.submit_entangled(entangled_sql("jerry", "kramer"))
        second = system.submit_entangled(entangled_sql("kramer", "jerry"))
        assert first.answer is not None and second.answer is not None
        stats = system.coordinator.matching_statistics()
        assert stats["plans_compiled"] == 2
        # both answered queries left the pool, so their plans were evicted
        assert stats["plans_cached"] == 0
        assert stats["plans_evicted"] == 2
    finally:
        system.close()
