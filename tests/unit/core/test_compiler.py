"""Unit tests for the entangled-query compiler and the programmatic builder."""

from __future__ import annotations

import pytest

from repro.core import ir
from repro.core.compiler import (
    EntangledQueryBuilder,
    compile_entangled,
    entangled_to_sql,
    var,
)
from repro.errors import CompilationError

KRAMER_SQL = (
    "SELECT 'Kramer', fno INTO ANSWER Reservation "
    "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
    "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
)


class TestCompileFromSQL:
    def test_paper_example_structure(self):
        query = compile_entangled(KRAMER_SQL, owner="Kramer")
        assert query.owner == "Kramer"
        assert query.choose == 1
        assert len(query.heads) == 1
        head = query.heads[0]
        assert head.relation == "Reservation"
        assert head.terms == (ir.Constant("Kramer"), ir.Variable("fno"))
        assert len(query.domains) == 1
        assert query.domains[0].variables == ("fno",)
        assert len(query.answer_atoms) == 1
        assert query.answer_atoms[0].terms == (ir.Constant("Jerry"), ir.Variable("fno"))
        assert query.predicates == ()
        assert query.sql is not None

    def test_multi_head_flight_and_hotel(self):
        query = compile_entangled(
            "SELECT 'Jerry', fno INTO ANSWER Reservation, "
            "'Jerry', hid INTO ANSWER HotelReservation "
            "WHERE fno IN (SELECT fno FROM Flights) AND hid IN (SELECT hid FROM Hotels) "
            "AND ('Kramer', fno) IN ANSWER Reservation "
            "AND ('Kramer', hid) IN ANSWER HotelReservation CHOOSE 1"
        )
        assert [head.relation for head in query.heads] == ["Reservation", "HotelReservation"]
        assert len(query.domains) == 2
        assert len(query.answer_atoms) == 2

    def test_residual_predicates_are_kept(self):
        query = compile_entangled(
            "SELECT 'K', fno INTO ANSWER R "
            "WHERE fno IN (SELECT fno FROM Flights) AND fno > 100 AND fno < 200"
        )
        assert len(query.predicates) == 2
        assert all(predicate.variables == ("fno",) for predicate in query.predicates)

    def test_tuple_domain_constraint(self):
        query = compile_entangled(
            "SELECT 'K', fno, block INTO ANSWER SeatBlock "
            "WHERE (fno, block) IN (SELECT fno, block_id FROM Seats)"
        )
        assert query.domains[0].variables == ("fno", "block")

    def test_negative_constant_head(self):
        query = compile_entangled(
            "SELECT -1, fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights)"
        )
        assert query.heads[0].terms[0] == ir.Constant(-1)

    def test_variable_names_are_lowercased(self):
        query = compile_entangled(
            "SELECT 'K', FNO INTO ANSWER R WHERE Fno IN (SELECT fno FROM Flights)"
        )
        assert query.heads[0].terms[1] == ir.Variable("fno")
        assert query.domains[0].variables == ("fno",)

    def test_choose_k_without_constraints_allowed(self):
        query = compile_entangled(
            "SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE 3"
        )
        assert query.choose == 3


class TestCompileErrors:
    def test_plain_select_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled("SELECT fno FROM Flights")

    def test_from_clause_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled(
                "SELECT 'K', fno INTO ANSWER R FROM Flights WHERE dest = 'Paris'"
            )

    def test_null_in_head_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled("SELECT NULL, fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F)")

    def test_arbitrary_expression_in_head_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled("SELECT fno + 1 INTO ANSWER R WHERE fno IN (SELECT fno FROM F)")

    def test_qualified_reference_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled("SELECT 'K', f.fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F)")

    def test_negated_answer_constraint_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled(
                "SELECT 'K', fno INTO ANSWER R "
                "WHERE fno IN (SELECT fno FROM F) AND ('J', fno) NOT IN ANSWER R"
            )

    def test_answer_constraint_inside_or_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled(
                "SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F) "
                "AND (('J', fno) IN ANSWER R OR fno = 1)"
            )

    def test_choose_k_with_constraints_rejected(self):
        with pytest.raises(CompilationError):
            compile_entangled(
                "SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F) "
                "AND ('J', fno) IN ANSWER R CHOOSE 2"
            )


class TestBuilder:
    def test_builder_equivalent_to_sql_compilation(self):
        from_sql = compile_entangled(KRAMER_SQL, owner="Kramer")
        built = (
            EntangledQueryBuilder(owner="Kramer")
            .head("Reservation", "Kramer", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris'")
            .require("Reservation", "Jerry", var("fno"))
            .build()
        )
        assert built.heads == from_sql.heads
        assert built.answer_atoms == from_sql.answer_atoms
        assert built.domains[0].variables == from_sql.domains[0].variables
        assert built.choose == from_sql.choose

    def test_builder_predicate_parsing(self):
        query = (
            EntangledQueryBuilder()
            .head("R", "K", var("x"))
            .domain("x", "SELECT a FROM T")
            .predicate("x BETWEEN 1 AND 5")
            .build()
        )
        assert query.predicates[0].variables == ("x",)

    def test_builder_rejects_empty_heads_and_bad_choose(self):
        with pytest.raises(CompilationError):
            EntangledQueryBuilder().build()
        with pytest.raises(CompilationError):
            EntangledQueryBuilder().choose(0)

    def test_builder_rejects_choose_k_with_requirements(self):
        builder = (
            EntangledQueryBuilder()
            .head("R", "K", var("x"))
            .domain("x", "SELECT a FROM T")
            .require("R", "J", var("x"))
            .choose(2)
        )
        with pytest.raises(CompilationError):
            builder.build()

    def test_builder_rejects_answer_constraint_in_predicate(self):
        builder = EntangledQueryBuilder().head("R", "K", var("x"))
        with pytest.raises(CompilationError):
            builder.predicate("('J', x) IN ANSWER R")

    def test_builder_rejects_unusable_terms(self):
        with pytest.raises(CompilationError):
            EntangledQueryBuilder().head("R", object())

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_builder_rejects_non_finite_constants(self, value):
        # printed SQL has no spelling for them: `SELECT inf, fno INTO ANSWER R`
        # would recompile the constant as a variable named inf
        with pytest.raises(CompilationError, match="non-finite"):
            EntangledQueryBuilder().head("R", value, var("fno"))
        with pytest.raises(CompilationError, match="non-finite"):
            EntangledQueryBuilder().require("R", ir.Constant(value), var("fno"))

    def test_builder_keeps_finite_float_constants(self):
        query = (
            EntangledQueryBuilder()
            .head("R", 1.5, var("fno"))
            .domain("fno", "SELECT fno FROM Flights")
            .build()
        )
        assert compile_entangled(entangled_to_sql(query)).heads[0].terms[0] == ir.Constant(1.5)

    def test_var_lowercases(self):
        assert var("FNO") == ir.Variable("fno")


class TestRendering:
    def test_entangled_to_sql_prefers_original_text(self):
        query = compile_entangled(KRAMER_SQL)
        assert entangled_to_sql(query) == query.sql

    def test_entangled_to_sql_for_built_queries(self):
        query = (
            EntangledQueryBuilder(owner="Jerry")
            .head("Reservation", "Jerry", var("fno"))
            .domain("fno", "SELECT fno FROM Flights")
            .require("Reservation", "Kramer", var("fno"))
            .build()
        )
        text = entangled_to_sql(query)
        assert "INTO ANSWER Reservation" in text
        assert "IN ANSWER Reservation" in text
        assert text.endswith("CHOOSE 1")

    def test_built_query_with_keyword_names_recompiles_from_its_sql(self):
        """A built query journals ``entangled_to_sql``: a variable or relation
        named by a keyword, and a float with an exponent, must read back."""
        query = (
            EntangledQueryBuilder(owner="Jerry")
            .head("Order", "Jerry", var("order"), 1e-05)
            .domain("order", 'SELECT "order" FROM Flights')
            .require("Order", "Kramer", var("order"))
            .build()
        )
        recompiled = compile_entangled(entangled_to_sql(query))
        assert recompiled.heads == query.heads
        assert recompiled.answer_atoms == query.answer_atoms
        assert [d.variables for d in recompiled.domains] == [("order",)]
