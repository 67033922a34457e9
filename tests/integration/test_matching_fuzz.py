"""Fuzz harness: 200 random pools hold matching variants to one partition.

Each test generates ≥200 random pools of entangled queries and submits the
same compiled IR, in the same order, to a baseline system and to a variant:
a rotated match-selection policy, the test-side reference matcher or index,
or a tiered pending pool.  Pools are built so the *query-id partition* is
unique — every entangled constraint names its partner by a distinct
constant — which makes the comparison independent of the matcher's
randomised exploration order.

Pool ingredients (mixed per pool, over 4 answer relations):

* matchable pairs (the Jerry/Kramer shape),
* triangles A→B→C→A on one relation,
* cross-relation pairs whose head and constraint name different relations,
* unmatchable singletons (partner never arrives),
* grounding-fail pairs that unify structurally but have empty / disjoint
  flight domains, so they permanently occupy the pending pool.
"""

from __future__ import annotations

import random

from matching_reference import InterpretedMatcher, ReferenceProviderIndex

from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.system import YoutopiaSystem

RELATIONS = ("ResA", "ResB", "ResC", "ResD")
# Paris/Rome have flights, Atlantis never does (grounding-fail fuel).
DESTINATIONS = ("Paris", "Rome")

NUM_POOLS = 200


def build_system(match_policy: str = "first_match", **config_kwargs) -> YoutopiaSystem:
    config = SystemConfig(seed=7, match_policy=match_policy, **config_kwargs)
    system = YoutopiaSystem(config=config)
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    system.execute(
        "INSERT INTO Flights VALUES "
        "(1, 'Paris'), (2, 'Paris'), (3, 'Paris'), (4, 'Rome'), (5, 'Rome')"
    )
    for relation in RELATIONS:
        system.declare_answer_relation(relation, ["traveler", "fno"], ["TEXT", "INTEGER"])
    return system


class PoolBuilder:
    """Generates one random pool of entangled SQL with a unique partition."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self._counter = 0
        self.statements: list[str] = []

    def _users(self, count: int) -> list[str]:
        users = [f"u{self._counter + offset}" for offset in range(count)]
        self._counter += count
        return users

    def _entangled(self, user: str, partner: str, head_rel: str, need_rel: str, dest: str) -> str:
        return (
            f"SELECT '{user}', fno INTO ANSWER {head_rel} "
            f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') "
            f"AND ('{partner}', fno) IN ANSWER {need_rel} CHOOSE 1"
        )

    def add_pair(self) -> None:
        left, right = self._users(2)
        relation = self.rng.choice(RELATIONS)
        dest = self.rng.choice(DESTINATIONS)
        self.statements.append(self._entangled(left, right, relation, relation, dest))
        self.statements.append(self._entangled(right, left, relation, relation, dest))

    def add_triangle(self) -> None:
        first, second, third = self._users(3)
        relation = self.rng.choice(RELATIONS)
        dest = self.rng.choice(DESTINATIONS)
        self.statements.append(self._entangled(first, second, relation, relation, dest))
        self.statements.append(self._entangled(second, third, relation, relation, dest))
        self.statements.append(self._entangled(third, first, relation, relation, dest))

    def add_cross_relation_pair(self) -> None:
        left, right = self._users(2)
        rel_left, rel_right = self.rng.sample(RELATIONS, 2)
        dest = self.rng.choice(DESTINATIONS)
        self.statements.append(self._entangled(left, right, rel_left, rel_right, dest))
        self.statements.append(self._entangled(right, left, rel_right, rel_left, dest))

    def add_unmatchable(self) -> None:
        (user,) = self._users(1)
        relation = self.rng.choice(RELATIONS)
        self.statements.append(
            self._entangled(user, f"ghost-{user}", relation, relation, self.rng.choice(DESTINATIONS))
        )

    def add_grounding_fail_pair(self) -> None:
        left, right = self._users(2)
        relation = self.rng.choice(RELATIONS)
        if self.rng.random() < 0.5:
            dests = ("Paris", "Atlantis")  # empty domain on one side
        else:
            dests = ("Paris", "Rome")  # both non-empty but disjoint fnos
        self.statements.append(self._entangled(left, right, relation, relation, dests[0]))
        self.statements.append(self._entangled(right, left, relation, relation, dests[1]))

    def build(self) -> list[str]:
        generators = [
            (self.add_pair, 4),
            (self.add_triangle, 1),
            (self.add_cross_relation_pair, 2),
            (self.add_unmatchable, 2),
            (self.add_grounding_fail_pair, 2),
        ]
        for generator, weight in generators:
            for _ in range(self.rng.randint(0, weight)):
                generator()
        if not self.statements:
            self.add_pair()
        self.rng.shuffle(self.statements)
        return self.statements


def outcome_partition(system: YoutopiaSystem) -> tuple[set[frozenset[str]], set[str]]:
    groups: set[frozenset[str]] = set()
    pending: set[str] = set()
    for request in system.coordinator.requests():
        if request.status is QueryStatus.ANSWERED:
            groups.add(frozenset(request.group_query_ids))
        elif request.status is QueryStatus.PENDING:
            pending.add(request.query_id)
    return groups, pending


# ---------------------------------------------------------------------------
# Policy invariance: every selection policy answers the same partition as the
# classic first-match search, and only ever commits *valid* groups.
# ---------------------------------------------------------------------------

POLICY_ROTATION = ("priority", "fairness", "min_cost")


def assert_answered_groups_valid(system: YoutopiaSystem, pool_seed: int) -> int:
    """Every committed group must satisfy each member's atoms.

    For each answered group: every member's head atoms instantiated under its
    chosen binding must be among the tuples that member contributed, and every
    member's ``IN ANSWER`` constraint atoms must be satisfied by the union of
    tuples the whole group contributed.  Returns the number of distinct
    groups checked.
    """
    requests = {record.query_id: record for record in system.coordinator.requests()}
    seen_groups: set[frozenset[str]] = set()
    for record in requests.values():
        if record.status is not QueryStatus.ANSWERED:
            continue
        group_ids = frozenset(record.group_query_ids)
        if group_ids in seen_groups:
            continue
        seen_groups.add(group_ids)
        members = [requests[query_id] for query_id in group_ids]
        pool_tuples: dict[str, set[tuple]] = {}
        for member in members:
            assert member.answer is not None, f"pool {pool_seed}: answered without answer"
            for relation, rows in member.answer.tuples.items():
                pool_tuples.setdefault(relation.lower(), set()).update(rows)
        for member in members:
            binding = member.answer.binding
            contributed = {
                relation.lower(): set(rows)
                for relation, rows in member.answer.tuples.items()
            }
            for atom in member.query.heads:
                values = atom.substitute(binding)
                assert values in contributed.get(atom.relation.lower(), set()), (
                    f"pool {pool_seed}: head {atom.relation}{values} not contributed "
                    f"by {member.query_id}"
                )
            for atom in member.query.answer_atoms:
                values = atom.substitute(binding)
                assert values in pool_tuples.get(atom.relation.lower(), set()), (
                    f"pool {pool_seed}: constraint {atom.relation}{values} of "
                    f"{member.query_id} unsatisfied by its group"
                )
    return len(seen_groups)


def test_policies_are_partition_equivalent_over_200_random_pools():
    """200 pools: first_match baseline ≡ each rotated policy, all groups valid.

    Pools have a unique query-id partition (partners are named by distinct
    constants), so a correct policy may pick *different bindings* but must
    answer exactly the same groups and leave the same queries pending.
    """
    total_groups = 0
    total_decisions = 0
    total_enumerated = 0
    total_skipped = 0
    for seed in range(NUM_POOLS):
        rng = random.Random(seed)
        statements = PoolBuilder(rng).build()
        policy = POLICY_ROTATION[seed % len(POLICY_ROTATION)]

        baseline_system = build_system()
        policy_system = build_system(match_policy=policy)
        try:
            compiled = [baseline_system.compile(sql) for sql in statements]
            for query in compiled:
                baseline_system.submit_entangled(query)
            for query in compiled:
                policy_system.submit_entangled(query)

            baseline_groups, baseline_pending = outcome_partition(baseline_system)
            policy_groups, policy_pending = outcome_partition(policy_system)
            assert policy_groups == baseline_groups, (
                f"pool {seed}: {policy} answered a different partition"
            )
            assert policy_pending == baseline_pending, (
                f"pool {seed}: {policy} left a different pending set"
            )

            assert_answered_groups_valid(baseline_system, seed)
            total_groups += assert_answered_groups_valid(policy_system, seed)

            stats = policy_system.coordinator.matching_statistics()
            assert stats["policy"] == policy
            assert len(policy_groups) <= stats["decisions"]
            total_decisions += stats["decisions"]
            total_enumerated += stats["groups_enumerated"]
            total_skipped += stats["groups_skipped"]
        finally:
            baseline_system.close()
            policy_system.close()

    # the differential pass must actually exercise bounded enumeration:
    # several candidate groups per decision, with non-chosen ones skipped
    assert total_groups > 100
    assert total_decisions > 100
    assert total_enumerated > total_decisions
    assert total_skipped > 0


# ---------------------------------------------------------------------------
# Match-execution invariance: the production matcher (compiled plans over the
# grid index) answers the same partition AND commits byte-identical tuples as
# the interpreted matcher over the single-key index of
# ``tests/matching_reference.py``, under every selection policy — and so do
# the two mixed variants, which pin any divergence on one half.
# ---------------------------------------------------------------------------

#: ``(label, interpreted matcher?, single-key reference index?)``
MATCH_EXECUTION_VARIANTS = (
    ("production", False, False),
    ("reference-index", False, True),
    ("reference-matcher", True, False),
)
ALL_POLICIES = ("first_match",) + POLICY_ROTATION


def with_matching(
    system: YoutopiaSystem, interpreted: bool, reference_index: bool
) -> YoutopiaSystem:
    """Swap reference parts into a fresh inline system before its first submit."""
    coordinator = system.coordinator
    if interpreted:
        production = coordinator._matcher
        coordinator._matcher = InterpretedMatcher(
            production.engine, rng=production.rng, max_group_size=production.max_group_size
        )
    if reference_index:
        coordinator._index = ReferenceProviderIndex()
    return system


def committed_answers(system: YoutopiaSystem) -> dict[str, list[tuple]]:
    return {relation: system.answers(relation) for relation in RELATIONS}


def test_match_plans_and_indexes_are_answer_equivalent_over_200_random_pools():
    """200 pools: interpreted+single_key reference ≡ the three variants.

    Candidate enumeration order is insertion order under both indexes and the
    compiled path consumes the match RNG identically, so the committed answer
    tuples — not just the query-id partition — must match *exactly*, in order,
    for every rotation of the selection policy.
    """
    total_groups = 0
    total_pending = 0
    total_plans_compiled = 0
    for seed in range(NUM_POOLS):
        rng = random.Random(seed)
        statements = PoolBuilder(rng).build()
        policy = ALL_POLICIES[seed % len(ALL_POLICIES)]

        reference = with_matching(
            build_system(match_policy=policy),
            interpreted=True,
            reference_index=True,
        )
        try:
            compiled_ir = [reference.compile(sql) for sql in statements]
            for query in compiled_ir:
                reference.submit_entangled(query)
            reference_groups, reference_pending = outcome_partition(reference)
            reference_answers = committed_answers(reference)
            assert_answered_groups_valid(reference, seed)
            total_groups += len(reference_groups)
            total_pending += len(reference_pending)

            for name, interpreted, reference_index in MATCH_EXECUTION_VARIANTS:
                variant = with_matching(
                    build_system(match_policy=policy),
                    interpreted=interpreted,
                    reference_index=reference_index,
                )
                label = f"pool {seed} ({name}/{policy})"
                try:
                    for query in compiled_ir:
                        variant.submit_entangled(query)
                    groups, pending = outcome_partition(variant)
                    assert groups == reference_groups, f"{label}: groups differ"
                    assert pending == reference_pending, f"{label}: pending differs"
                    assert committed_answers(variant) == reference_answers, (
                        f"{label}: committed tuples differ"
                    )
                    plans_compiled = variant.coordinator.matching_statistics()["plans_compiled"]
                    if interpreted:
                        assert plans_compiled == 0, f"{label}: interpreted path compiled plans"
                    total_plans_compiled += plans_compiled
                finally:
                    variant.close()
        finally:
            reference.close()

    # the harness must exercise both matched and permanently-pending pools,
    # and the compiled path must actually compile plans
    assert total_groups > 100
    assert total_pending > 100
    assert total_plans_compiled > 1000


# ---------------------------------------------------------------------------
# Tiering invariance: the tiered pending pool (hot/cold split + page-in) is a
# pure memory optimisation — under a tiny memory limit it answers the same
# partition and commits byte-identical tuples as the untiered pool, under
# every selection-policy rotation.
# ---------------------------------------------------------------------------

TIERED_VARIANTS = (
    {"pending_memory_limit": 4, "cold_store": "memory"},
    {"pending_memory_limit": 1, "cold_store": "sqlite"},
)


def test_tiered_pool_is_answer_equivalent_over_200_random_pools():
    """200 pools: untiered reference ≡ tiered pools under aggressive spill.

    The tiered pool pages a cold query back in *before* any match attempt and
    keeps id-sweep order identical to the untiered dict, so candidate
    enumeration and RNG consumption never diverge: the committed answer
    tuples must match exactly, in order, for every rotation of the selection
    policy (``memory_limit=1`` forces nearly the whole pool through the cold
    store — the sqlite variant proves the default backend, not just the
    in-memory one).
    """
    total_groups = 0
    total_pending = 0
    total_evictions = 0
    total_page_ins = 0
    for seed in range(NUM_POOLS):
        rng = random.Random(seed)
        statements = PoolBuilder(rng).build()
        policy = ALL_POLICIES[seed % len(ALL_POLICIES)]

        reference = build_system(match_policy=policy)
        try:
            compiled_ir = [reference.compile(sql) for sql in statements]
            for query in compiled_ir:
                reference.submit_entangled(query)
            reference_groups, reference_pending = outcome_partition(reference)
            reference_answers = committed_answers(reference)
            total_groups += len(reference_groups)
            total_pending += len(reference_pending)

            for variant_config in TIERED_VARIANTS:
                tiered = build_system(
                    match_policy=policy, **variant_config
                )
                label = (
                    f"pool {seed} (limit={variant_config['pending_memory_limit']}/"
                    f"{variant_config['cold_store']}/{policy})"
                )
                try:
                    for query in compiled_ir:
                        tiered.submit_entangled(query)
                    groups, pending = outcome_partition(tiered)
                    assert groups == reference_groups, f"{label}: groups differ"
                    assert pending == reference_pending, f"{label}: pending differs"
                    assert committed_answers(tiered) == reference_answers, (
                        f"{label}: committed tuples differ"
                    )
                    stats = tiered.coordinator.tiering_statistics()
                    assert stats["enabled"], label
                    assert stats["hot"] <= variant_config["pending_memory_limit"], (
                        f"{label}: hot set exceeds the memory limit"
                    )
                    assert stats["hot"] + stats["cold"] == len(pending), (
                        f"{label}: tier residency does not cover the pending set"
                    )
                    total_evictions += stats["evictions"]
                    total_page_ins += stats["page_ins"]
                finally:
                    tiered.close()
        finally:
            reference.close()

    # the differential pass must actually push queries through the cold
    # store and page them back for matching, not just run with tiering on
    assert total_groups > 100
    assert total_pending > 100
    assert total_evictions > 1000
    assert total_page_ins > 1000
