"""Unit tests for parsing plain SELECT statements and expressions."""

from __future__ import annotations

import pytest

from repro.errors import ParseError
from repro.sqlparser import ast, parse_statement


def parse_select(sql: str) -> ast.Select:
    statement = parse_statement(sql)
    assert isinstance(statement, ast.Select)
    return statement


class TestSelectShape:
    def test_simple_select(self):
        select = parse_select("SELECT fno, dest FROM Flights")
        assert [item.expression.name for item in select.items] == ["fno", "dest"]
        assert select.from_table == ast.TableRef("Flights", None)

    def test_select_star_and_qualified_star(self):
        select = parse_select("SELECT *, f.* FROM Flights f")
        assert isinstance(select.items[0].expression, ast.Star)
        assert select.items[1].expression == ast.Star(table="f")
        assert select.from_table.binding == "f"

    def test_aliases_explicit_and_implicit(self):
        select = parse_select("SELECT fno AS number, price cost FROM Flights")
        assert select.items[0].alias == "number"
        assert select.items[1].alias == "cost"

    def test_distinct_order_limit_offset(self):
        select = parse_select(
            "SELECT DISTINCT dest FROM Flights ORDER BY dest DESC, fno LIMIT 5 OFFSET 2"
        )
        assert select.distinct
        assert select.order_by[0].descending
        assert not select.order_by[1].descending
        assert select.limit == 5 and select.offset == 2

    def test_group_by_having(self):
        select = parse_select(
            "SELECT dest, COUNT(*) FROM Flights GROUP BY dest HAVING COUNT(*) > 1"
        )
        assert len(select.group_by) == 1
        assert isinstance(select.having, ast.BinaryOp)

    def test_joins(self):
        select = parse_select(
            "SELECT f.fno FROM Flights f JOIN Airlines a ON f.fno = a.fno "
            "LEFT JOIN Seats s ON s.fno = f.fno CROSS JOIN Users"
        )
        assert [join.kind for join in select.joins] == ["inner", "left", "cross"]
        assert select.joins[2].condition is None

    def test_implicit_cross_join_with_comma(self):
        select = parse_select("SELECT 1 FROM Flights, Hotels")
        assert select.joins[0].kind == "cross"

    def test_select_without_from(self):
        select = parse_select("SELECT 1 + 1")
        assert select.from_table is None

    def test_trailing_garbage_rejected(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT fno FROM Flights extra garbage here")

    def test_limit_requires_integer(self):
        with pytest.raises(ParseError):
            parse_statement("SELECT 1 LIMIT 'x'")


class TestExpressions:
    def test_operator_precedence_arithmetic(self):
        select = parse_select("SELECT 1 + 2 * 3")
        expression = select.items[0].expression
        assert isinstance(expression, ast.BinaryOp) and expression.operator == "+"
        assert isinstance(expression.right, ast.BinaryOp) and expression.right.operator == "*"

    def test_and_or_precedence(self):
        select = parse_select("SELECT 1 WHERE a = 1 OR b = 2 AND c = 3")
        where = select.where
        assert isinstance(where, ast.BinaryOp) and where.operator == "OR"
        assert isinstance(where.right, ast.BinaryOp) and where.right.operator == "AND"

    def test_not_and_comparison(self):
        select = parse_select("SELECT 1 WHERE NOT price > 100")
        assert isinstance(select.where, ast.UnaryOp)
        assert select.where.operator == "NOT"

    def test_unary_minus_and_plus(self):
        select = parse_select("SELECT -5, +7, -price")
        assert select.items[0].expression == ast.Literal(-5)
        assert select.items[1].expression == ast.Literal(7)
        assert select.items[2].expression == ast.UnaryOp("-", ast.ColumnRef("price"))

    def test_in_list_and_not_in(self):
        select = parse_select("SELECT 1 WHERE dest IN ('Paris', 'Rome') AND fno NOT IN (1, 2)")
        conjuncts = select.where
        assert isinstance(conjuncts.left, ast.InList) and not conjuncts.left.negated
        assert isinstance(conjuncts.right, ast.InList) and conjuncts.right.negated

    def test_in_subquery(self):
        select = parse_select(
            "SELECT 1 WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')"
        )
        assert isinstance(select.where, ast.InSubquery)
        assert isinstance(select.where.subquery, ast.Select)

    def test_between_like_is_null(self):
        select = parse_select(
            "SELECT 1 WHERE price BETWEEN 100 AND 200 AND name LIKE 'Gr%' AND dest IS NOT NULL"
        )
        flattened = str(select.where)
        assert "Between" in flattened and "Like" in flattened and "IsNull" in flattened

    def test_function_calls_and_distinct_aggregate(self):
        select = parse_select("SELECT COUNT(DISTINCT dest), LOWER(name) FROM Flights")
        count = select.items[0].expression
        assert isinstance(count, ast.FunctionCall) and count.distinct
        assert select.items[1].expression.name == "LOWER"

    def test_literals(self):
        select = parse_select("SELECT 'x', 42, 4.5, NULL, TRUE, FALSE")
        values = [item.expression.value for item in select.items]
        assert values == ["x", 42, 4.5, None, True, False]

    def test_tuple_expression(self):
        select = parse_select("SELECT 1 WHERE (a, b) IN (SELECT x, y FROM t)")
        assert isinstance(select.where.operand, ast.TupleExpr)

    def test_string_concatenation(self):
        select = parse_select("SELECT 'a' || 'b'")
        assert select.items[0].expression.operator == "||"

    def test_qualified_column_reference(self):
        select = parse_select("SELECT f.fno FROM Flights f")
        assert select.items[0].expression == ast.ColumnRef("fno", table="f")


class TestIntegerLimits:
    """An integer beyond the interpreter's digit limit is a ParseError at the
    literal, never a bare ValueError."""

    @pytest.mark.parametrize(
        "prefix",
        [
            "SELECT ",
            "SELECT fno FROM Flights WHERE fno = ",
            "SELECT fno FROM Flights LIMIT ",
            "SELECT fno FROM Flights LIMIT 1 OFFSET ",
            "SELECT 'J', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE ",
            "INSERT INTO Flights VALUES (",
        ],
    )
    def test_oversized_integer_raises_parse_error_at_the_literal(self, prefix):
        with pytest.raises(ParseError, match="numeric literal out of range") as raised:
            parse_statement(prefix + "1" * 5000)
        assert (raised.value.line, raised.value.column) == (1, len(prefix) + 1)

    def test_integer_at_the_limit_still_parses(self):
        select = parse_select("SELECT " + "1" * 4000)
        assert select.items[0].expression == ast.Literal(int("1" * 4000))


class TestHelpers:
    def test_walk_and_column_refs(self):
        select = parse_select("SELECT a + b WHERE c = 1")
        refs = ast.expression_column_refs(select.items[0].expression)
        assert [ref.name for ref in refs] == ["a", "b"]

    def test_contains_aggregate(self):
        select = parse_select("SELECT MAX(price) + 1, fno FROM Flights")
        assert ast.contains_aggregate(select.items[0].expression)
        assert not ast.contains_aggregate(select.items[1].expression)
