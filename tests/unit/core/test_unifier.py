"""Unit tests for the union-find unifier used by the matching algorithm."""

from __future__ import annotations

from matching_reference import unify_atoms, unify_terms

from repro.core import ir
from repro.core.matching import Unifier


class TestBindAndUnion:
    def test_bind_then_conflicting_bind_fails(self):
        unifier = Unifier()
        assert unifier.bind(("q1", "x"), 122)
        assert unifier.bind(("q1", "x"), 122)
        assert not unifier.bind(("q1", "x"), 123)

    def test_union_propagates_constants(self):
        unifier = Unifier()
        assert unifier.bind(("q1", "x"), 5)
        assert unifier.union(("q1", "x"), ("q2", "y"))
        assert unifier.value_of(("q2", "y")) == 5

    def test_union_of_two_different_constants_fails(self):
        unifier = Unifier()
        unifier.bind(("q1", "x"), 1)
        unifier.bind(("q2", "y"), 2)
        assert not unifier.union(("q1", "x"), ("q2", "y"))

    def test_union_is_transitive(self):
        unifier = Unifier()
        unifier.union(("q1", "x"), ("q2", "y"))
        unifier.union(("q2", "y"), ("q3", "z"))
        assert unifier.find(("q1", "x")) == unifier.find(("q3", "z"))
        unifier.bind(("q3", "z"), 9)
        assert unifier.value_of(("q1", "x")) == 9

    def test_same_class_union_is_noop(self):
        unifier = Unifier()
        unifier.union(("q1", "x"), ("q2", "y"))
        assert unifier.union(("q2", "y"), ("q1", "x"))


class TestUndo:
    def test_undo_restores_bindings_and_classes(self):
        unifier = Unifier()
        unifier.bind(("q1", "x"), 1)
        mark = unifier.mark()
        unifier.union(("q1", "x"), ("q2", "y"))
        unifier.bind(("q3", "z"), 3)
        unifier.undo_to(mark)
        # q2.y is back in its own singleton class with no constant attached
        assert unifier.find(("q2", "y")) == ("q2", "y")
        assert unifier.value_of(("q2", "y")) != 1
        assert unifier.value_of(("q1", "x")) == 1

    def test_nested_marks(self):
        unifier = Unifier()
        outer = unifier.mark()
        unifier.bind(("q1", "x"), 1)
        inner = unifier.mark()
        unifier.bind(("q1", "y"), 2)
        unifier.undo_to(inner)
        assert unifier.value_of(("q1", "x")) == 1
        unifier.undo_to(outer)
        assert unifier.find(("q1", "x")) == ("q1", "x")


class TestTermAndAtomUnification:
    def test_constant_constant(self):
        unifier = Unifier()
        assert unify_terms(unifier, "q1", ir.Constant(1), "q2", ir.Constant(1))
        assert not unify_terms(unifier, "q1", ir.Constant(1), "q2", ir.Constant(2))

    def test_constant_variable_both_directions(self):
        unifier = Unifier()
        assert unify_terms(unifier, "q1", ir.Constant("K"), "q2", ir.Variable("who"))
        assert unifier.value_of(("q2", "who")) == "K"
        assert unify_terms(unifier, "q2", ir.Variable("who"), "q1", ir.Constant("K"))
        assert not unify_terms(unifier, "q2", ir.Variable("who"), "q1", ir.Constant("J"))

    def test_unify_atoms_matching(self):
        unifier = Unifier()
        answer_atom = ir.Atom("Reservation", (ir.Constant("Jerry"), ir.Variable("fno")))
        head_atom = ir.Atom("Reservation", (ir.Constant("Jerry"), ir.Variable("fno")))
        assert unify_atoms(unifier, "kramer", answer_atom, "jerry", head_atom)
        assert unifier.find(("kramer", "fno")) == unifier.find(("jerry", "fno"))

    def test_unify_atoms_relation_and_arity_mismatch(self):
        unifier = Unifier()
        left = ir.Atom("R", (ir.Constant(1),))
        assert not unify_atoms(unifier, "a", left, "b", ir.Atom("S", (ir.Constant(1),)))
        assert not unify_atoms(unifier, 
            "a", left, "b", ir.Atom("R", (ir.Constant(1), ir.Constant(2)))
        )

    def test_unify_atoms_constant_conflict(self):
        unifier = Unifier()
        left = ir.Atom("R", (ir.Constant("Jerry"), ir.Variable("x")))
        right = ir.Atom("R", (ir.Constant("Kramer"), ir.Variable("y")))
        assert not unify_atoms(unifier, "a", left, "b", right)
