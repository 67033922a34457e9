"""Unit tests for the SQL pretty-printer (format → reparse stability)."""

from __future__ import annotations

import pytest

from repro.sqlparser import ast, format_expression, format_statement, parse_statement

ROUND_TRIP_STATEMENTS = [
    "SELECT fno, dest FROM Flights WHERE dest = 'Paris' ORDER BY fno LIMIT 3",
    "SELECT DISTINCT dest FROM Flights",
    "SELECT dest, COUNT(*) AS n FROM Flights GROUP BY dest HAVING COUNT(*) > 1",
    "SELECT f.fno FROM Flights AS f JOIN Airlines AS a ON f.fno = a.fno",
    "SELECT 1 WHERE price BETWEEN 100 AND 200 AND name LIKE 'Gr%'",
    "SELECT 1 WHERE dest IN ('Paris', 'Rome') AND fno IS NOT NULL",
    "CREATE TABLE Flights (fno INT NOT NULL, dest TEXT, PRIMARY KEY (fno))",
    "DROP TABLE IF EXISTS Flights",
    "INSERT INTO Flights (fno, dest) VALUES (1, 'Paris'), (2, 'Rome')",
    "UPDATE Flights SET price = price + 10 WHERE fno = 1",
    "DELETE FROM Flights WHERE dest = 'Rome'",
    (
        "SELECT 'Kramer', fno INTO ANSWER Reservation "
        "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
        "AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1"
    ),
    (
        "SELECT 'Jerry', fno INTO ANSWER Reservation, 'Jerry', hid INTO ANSWER HotelReservation "
        "WHERE fno IN (SELECT fno FROM Flights) AND hid IN (SELECT hid FROM Hotels) "
        "AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1"
    ),
]


@pytest.mark.parametrize("sql", ROUND_TRIP_STATEMENTS)
def test_format_then_reparse_is_stable(sql: str):
    """Formatting a parsed statement and reparsing it yields the same AST."""
    first = parse_statement(sql)
    formatted = format_statement(first)
    second = parse_statement(formatted)
    assert first == second
    # and formatting is idempotent
    assert format_statement(second) == formatted


def test_string_literal_escaping():
    assert format_expression(ast.Literal("O'Hare")) == "'O''Hare'"
    reparsed = parse_statement("SELECT " + format_expression(ast.Literal("O'Hare")))
    assert reparsed.items[0].expression.value == "O'Hare"


def test_null_and_booleans():
    assert format_expression(ast.Literal(None)) == "NULL"
    assert format_expression(ast.Literal(True)) == "TRUE"
    assert format_expression(ast.Literal(False)) == "FALSE"


def test_negated_answer_membership_formatting():
    expression = ast.AnswerMembership((ast.Literal("J"), ast.ColumnRef("fno")), "R", negated=True)
    assert format_expression(expression) == "(('J', fno) NOT IN ANSWER R)"


def test_unknown_node_rejected():
    class Bogus(ast.Expression):
        pass

    with pytest.raises(TypeError):
        format_expression(Bogus())


@pytest.mark.parametrize(
    "sql",
    [
        'SELECT "it\'s" FROM F',
        'SELECT "order", "my col" AS "group" FROM "from" AS "t t"',
        'CREATE TABLE F (fno INT PRIMARY KEY, "order" INT)',
        'INSERT INTO "select" ("key", "a b") VALUES (1, 2)',
        'UPDATE F SET "order" = 2 WHERE "order" = 1',
        'SELECT "Res""v", """" FROM "a""b"',
        "SELECT 'a', \"order\" INTO ANSWER \"Answer\" WHERE \"order\" IN (SELECT \"order\" FROM F) "
        "AND ('b', \"order\") IN ANSWER \"Answer\" CHOOSE 1",
    ],
)
def test_quoted_identifiers_survive_a_round_trip(sql: str):
    """A keyword or non-word identifier is printed quoted, so it re-parses."""
    first = parse_statement(sql)
    formatted = format_statement(first)
    assert parse_statement(formatted) == first
    assert format_statement(parse_statement(formatted)) == formatted


def test_plain_identifiers_stay_bare():
    assert format_statement(parse_statement('SELECT "fno" FROM "Flights"')) == (
        "SELECT fno FROM Flights"
    )
    assert format_statement(parse_statement('SELECT "it\'s" FROM F')) == 'SELECT "it\'s" FROM F'


def test_identifier_with_a_double_quote_doubles_it():
    from repro.sqlparser.pretty import format_identifier

    assert format_identifier('Res"v') == '"Res""v"'
    name = 'Res"v'
    assert parse_statement(f"SELECT x FROM {format_identifier(name)}").from_table.name == name


@pytest.mark.parametrize(
    "value", [1e-05, -1e-07, 0.1, 1.5, 1e16, -2.5e22, 1e300, 5e-324, 1.7976931348623157e308]
)
def test_floats_print_positionally_and_round_trip_exactly(value: float):
    text = format_expression(ast.Literal(value))
    assert "e" not in text and "." in text
    reparsed = parse_statement(f"SELECT 1 WHERE x = {text}").where.right.value
    assert isinstance(reparsed, float) and reparsed == value
    insert = format_statement(ast.Insert("T", (), ((ast.Literal(1), ast.Literal(value)),)))
    assert parse_statement(insert).rows[0][1].value == value


def test_compiled_sql_with_a_small_float_recompiles():
    from repro.core.compiler import compile_entangled

    query = compile_entangled(
        "SELECT 'a', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F) "
        "AND fno > 0.00001 CHOOSE 1"
    )
    assert "e-" not in query.sql
    assert compile_entangled(query.sql).sql == query.sql


def test_overflowing_numeric_literal_does_not_compile():
    """Compiled as ``fno < inf``, this text recompiled with ``inf`` read as a
    second variable; it is a parse error instead."""
    from repro.core.compiler import compile_entangled
    from repro.errors import ParseError

    with pytest.raises(ParseError, match="out of range"):
        compile_entangled(
            "SELECT 'a', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM F) "
            f"AND fno < 1{'0' * 400}.0 CHOOSE 1"
        )
