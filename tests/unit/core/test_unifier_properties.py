"""Property-based tests for the matcher's :class:`Unifier`.

The structural matching phase leans on three guarantees of the union-find
trail machinery, exercised here over randomly generated operation sequences:

1. ``mark`` / ``undo_to`` round-trips: undoing to a mark restores *exactly*
   the union-find state (parents and class values) present at the mark.
2. Order independence: a conflict-free set of ``union`` / ``bind`` operations
   produces the same variable partition and the same per-class constants in
   whatever order it is applied.
3. Idempotence: re-applying an already-successful ``bind`` / ``union`` /
   ``unify_terms`` / ``unify_atoms`` succeeds again *without* growing the
   undo trail (so redundant unifications are free to backtrack over).

Uses ``hypothesis`` when it is installed and falls back to a deterministic
seeded sweep otherwise, per the repo's no-new-dependencies rule.
"""

from __future__ import annotations

import random

import pytest
from matching_reference import unify_atoms, unify_terms

from repro.core import ir
from repro.core.matching import _UNBOUND, Unifier, VarNode

try:  # pragma: no cover - exercised implicitly by whichever branch runs
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover
    HAVE_HYPOTHESIS = False


NODES: list[VarNode] = [
    (query_id, name) for query_id in ("q1", "q2", "q3") for name in ("x", "y", "z", "w")
]
VALUES = list(range(4))


def apply_random_ops(unifier: Unifier, rng: random.Random, count: int) -> None:
    """A random mix of unions and binds (failures allowed — they must not mutate)."""
    for _ in range(count):
        if rng.random() < 0.5:
            unifier.union(rng.choice(NODES), rng.choice(NODES))
        else:
            unifier.bind(rng.choice(NODES), rng.choice(VALUES))


def snapshot(unifier: Unifier) -> tuple[dict, dict]:
    return dict(unifier._parent), dict(unifier._value)


def canonical_state(unifier: Unifier) -> dict[frozenset[VarNode], object]:
    """The observable state: the node partition and each class's constant."""
    classes: dict[VarNode, set[VarNode]] = {}
    for node in NODES:
        classes.setdefault(unifier.find(node), set()).add(node)
    return {
        frozenset(members): unifier.value_of(next(iter(members)))
        for members in classes.values()
    }


def conflict_free_script(rng: random.Random) -> list[tuple]:
    """Unions + binds guaranteed to succeed in any order.

    Nodes are pre-partitioned into target groups; unions only connect nodes
    within a group and every group gets at most one bind value (possibly
    issued several times through different member nodes).
    """
    nodes = list(NODES)
    rng.shuffle(nodes)
    group_count = rng.randint(1, 5)
    groups: list[list[VarNode]] = [[] for _ in range(group_count)]
    for index, node in enumerate(nodes):
        groups[index % group_count].append(node)
    script: list[tuple] = []
    for group in groups:
        for left, right in zip(group, group[1:]):
            script.append(("union", left, right))
        if group and rng.random() < 0.7:
            value = rng.choice(VALUES)
            for _ in range(rng.randint(1, 2)):
                script.append(("bind", rng.choice(group), value))
    return script


def run_script(script: list[tuple]) -> Unifier:
    unifier = Unifier()
    for op in script:
        if op[0] == "union":
            assert unifier.union(op[1], op[2])
        else:
            assert unifier.bind(op[1], op[2])
    return unifier


# -- the three properties, as plain seeded checks -------------------------------------


def check_mark_undo_roundtrip(seed: int) -> None:
    rng = random.Random(seed)
    unifier = Unifier()
    apply_random_ops(unifier, rng, rng.randint(0, 15))
    states = [snapshot(unifier)]
    marks = [unifier.mark()]
    for _ in range(rng.randint(1, 4)):
        apply_random_ops(unifier, rng, rng.randint(1, 10))
        states.append(snapshot(unifier))
        marks.append(unifier.mark())
    # undo the nested marks in reverse; each must restore its exact state
    for mark, state in zip(reversed(marks), reversed(states)):
        unifier.undo_to(mark)
        assert snapshot(unifier) == state


def check_order_independence(seed: int) -> None:
    rng = random.Random(seed)
    script = conflict_free_script(rng)
    shuffled = list(script)
    rng.shuffle(shuffled)
    assert canonical_state(run_script(script)) == canonical_state(run_script(shuffled))


def check_idempotence(seed: int) -> None:
    rng = random.Random(seed)
    unifier = Unifier()
    apply_random_ops(unifier, rng, rng.randint(0, 12))

    node, other = rng.sample(NODES, 2)
    value = rng.choice(VALUES)

    if unifier.bind(node, value):
        trail = unifier.mark()
        assert unifier.bind(node, value)
        assert unifier.mark() == trail

    if unifier.union(node, other):
        trail = unifier.mark()
        assert unifier.union(node, other)
        assert unifier.mark() == trail

    # unify_terms over already-unified variable terms must also be free
    left = ir.Variable("x")
    right = ir.Variable("y")
    if unify_terms(unifier, "q1", left, "q2", right):
        trail = unifier.mark()
        state = snapshot(unifier)
        assert unify_terms(unifier, "q1", left, "q2", right)
        assert unifier.mark() == trail
        assert snapshot(unifier) == state


def check_find_and_union_consistency(seed: int) -> None:
    """Absorbed from the former ``tests/property`` suite: find is idempotent,
    every class member reports the class constant, and a successful union
    really merges (a refused one implies conflicting constants)."""
    rng = random.Random(seed)
    unifier = Unifier()
    apply_random_ops(unifier, rng, rng.randint(0, 30))
    for node in NODES:
        root = unifier.find(node)
        assert unifier.find(root) == root
        assert unifier.value_of(node) == unifier.value_of(root)
    left, right = rng.sample(NODES, 2)
    if unifier.union(left, right):
        assert unifier.find(left) == unifier.find(right)
    else:
        value_left = unifier.value_of(left)
        value_right = unifier.value_of(right)
        assert value_left is not _UNBOUND
        assert value_right is not _UNBOUND
        assert value_left != value_right


def check_rebind_stability(seed: int) -> None:
    rng = random.Random(seed)
    unifier = Unifier()
    apply_random_ops(unifier, rng, rng.randint(0, 20))
    node = rng.choice(NODES)
    if unifier.bind(node, 7):
        assert unifier.bind(node, 7)
        assert not unifier.bind(node, 8)
        assert unifier.value_of(node) == 7


def check_failed_ops_do_not_mutate(seed: int) -> None:
    rng = random.Random(seed)
    unifier = Unifier()
    left, right = rng.sample(NODES, 2)
    assert unifier.bind(left, 0)
    assert unifier.bind(right, 1)
    state = snapshot(unifier)
    trail = unifier.mark()
    assert not unifier.union(left, right)  # conflicting class constants
    assert not unifier.bind(left, 1)  # conflicting rebind
    assert unifier.mark() == trail
    assert snapshot(unifier) == state
    # constant/constant term unification never touches the trail either
    assert not unify_terms(unifier, "q1", ir.Constant(1), "q2", ir.Constant(2))
    assert snapshot(unifier) == state


def check_unify_atoms_atomicity(seed: int) -> None:
    """A failing unify_atoms may leave partial bindings — callers undo to the
    mark they took first; verify the mark covers everything it did."""
    rng = random.Random(seed)
    unifier = Unifier()
    apply_random_ops(unifier, rng, rng.randint(0, 10))
    state = snapshot(unifier)
    mark = unifier.mark()
    atom_left = ir.Atom("R", (ir.Variable("x"), ir.Constant(rng.choice(VALUES))))
    atom_right = ir.Atom("R", (ir.Constant(rng.choice(VALUES)), ir.Variable("y")))
    unify_atoms(unifier, "q1", atom_left, "q2", atom_right)
    unifier.undo_to(mark)
    assert snapshot(unifier) == state


ALL_CHECKS = [
    check_mark_undo_roundtrip,
    check_order_independence,
    check_idempotence,
    check_find_and_union_consistency,
    check_rebind_stability,
    check_failed_ops_do_not_mutate,
    check_unify_atoms_atomicity,
]


if HAVE_HYPOTHESIS:

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_mark_undo_roundtrip(seed: int) -> None:
        check_mark_undo_roundtrip(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_union_bind_order_independent(seed: int) -> None:
        check_order_independence(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_substitution_idempotence(seed: int) -> None:
        check_idempotence(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_find_and_union_consistency(seed: int) -> None:
        check_find_and_union_consistency(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_rebind_stability(seed: int) -> None:
        check_rebind_stability(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_failed_ops_do_not_mutate(seed: int) -> None:
        check_failed_ops_do_not_mutate(seed)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_unify_atoms_undo_covers_partial_work(seed: int) -> None:
        check_unify_atoms_atomicity(seed)

else:  # pragma: no cover - fallback when hypothesis is unavailable

    @pytest.mark.parametrize("seed", range(60))
    @pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda fn: fn.__name__)
    def test_unifier_properties_seeded(check, seed: int) -> None:
        check(seed)


def test_value_of_unbound_sentinel() -> None:
    """Anchor the `_UNBOUND` contract the property helpers rely on."""
    unifier = Unifier()
    assert unifier.value_of(("q1", "x")) is _UNBOUND
    assert unifier.bind(("q1", "x"), 7)
    assert unifier.value_of(("q1", "x")) == 7
