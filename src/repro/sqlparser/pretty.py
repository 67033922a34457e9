"""Render AST nodes back to SQL text.

Used by the admin interface (to show pending entangled queries), by error
messages, and by the parser round-trip property tests.
"""

from __future__ import annotations

import math
import re
from functools import lru_cache

from repro.sqlparser import ast
from repro.sqlparser.tokens import KEYWORDS

_BARE_IDENTIFIER = re.compile(r"[A-Za-z_]\w*")


@lru_cache(maxsize=1024)  # a workload names a few tables and columns, over and over
def format_identifier(name: str) -> str:
    """``name`` as the tokenizer reads it back: bare, or double-quoted (a
    ``"`` doubled) when it is a keyword or not a plain word."""
    if name.upper() in KEYWORDS or not _BARE_IDENTIFIER.fullmatch(name):
        return '"' + name.replace('"', '""') + '"'
    return name


def _format_float(value: float) -> str:
    """Plain positional digits with a ``.``: the tokenizer reads no exponent,
    and ``repr``'s shortest digits make the text round-trip exactly."""
    text = repr(value)
    if "e" not in text or not math.isfinite(value):
        return text
    from decimal import Decimal  # rare: keep it off the server's start-up path

    text = format(Decimal(text), "f")
    return text if "." in text else text + ".0"


def format_literal(value: object) -> str:
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, str):
        escaped = value.replace("'", "''")
        return f"'{escaped}'"
    return _format_float(value) if isinstance(value, float) else str(value)


def _format_column(reference: ast.ColumnRef) -> str:
    name = format_identifier(reference.name)
    return f"{format_identifier(reference.table)}.{name}" if reference.table else name


def _format_table(table: ast.TableRef) -> str:
    name = format_identifier(table.name)
    return f"{name} AS {format_identifier(table.alias)}" if table.alias else name


def format_expression(expression: ast.Expression) -> str:
    """Render an expression as SQL text (fully parenthesised where needed)."""
    if isinstance(expression, ast.Literal):
        return format_literal(expression.value)
    if isinstance(expression, ast.ColumnRef):
        return _format_column(expression)
    if isinstance(expression, ast.Star):
        return f"{format_identifier(expression.table)}.*" if expression.table else "*"
    if isinstance(expression, ast.UnaryOp):
        operand = format_expression(expression.operand)
        if expression.operator == "NOT":
            return f"(NOT {operand})"
        # Parenthesise unary minus so "- -x" never collapses into a "--" comment.
        return f"({expression.operator}{operand})"
    if isinstance(expression, ast.BinaryOp):
        left = format_expression(expression.left)
        right = format_expression(expression.right)
        # Always parenthesise so that nested comparisons ("(a = b) = c") and
        # mixed precedence round-trip through the parser unambiguously.
        return f"({left} {expression.operator} {right})"
    if isinstance(expression, ast.FunctionCall):
        arguments = ", ".join(format_expression(a) for a in expression.arguments)
        distinct = "DISTINCT " if expression.distinct else ""
        return f"{format_identifier(expression.name)}({distinct}{arguments})"
    if isinstance(expression, ast.TupleExpr):
        return "(" + ", ".join(format_expression(i) for i in expression.items) + ")"
    # Predicate forms below are wrapped in parentheses so they can be embedded
    # in any surrounding context (e.g. as an operand of arithmetic or of
    # another predicate) and still reparse to the same tree.
    if isinstance(expression, ast.IsNull):
        keyword = "IS NOT NULL" if expression.negated else "IS NULL"
        return f"({format_expression(expression.operand)} {keyword})"
    if isinstance(expression, ast.Between):
        keyword = "NOT BETWEEN" if expression.negated else "BETWEEN"
        return (
            f"({format_expression(expression.operand)} {keyword} "
            f"{format_expression(expression.low)} AND {format_expression(expression.high)})"
        )
    if isinstance(expression, ast.Like):
        keyword = "NOT LIKE" if expression.negated else "LIKE"
        return f"({format_expression(expression.operand)} {keyword} {format_expression(expression.pattern)})"
    if isinstance(expression, ast.InList):
        keyword = "NOT IN" if expression.negated else "IN"
        items = ", ".join(format_expression(i) for i in expression.items)
        return f"({format_expression(expression.operand)} {keyword} ({items}))"
    if isinstance(expression, ast.InSubquery):
        keyword = "NOT IN" if expression.negated else "IN"
        return f"({format_expression(expression.operand)} {keyword} ({format_statement(expression.subquery)}))"
    if isinstance(expression, ast.AnswerMembership):
        keyword = "NOT IN ANSWER" if expression.negated else "IN ANSWER"
        if len(expression.items) == 1:
            left = format_expression(expression.items[0])
        else:
            left = "(" + ", ".join(format_expression(i) for i in expression.items) + ")"
        return f"({left} {keyword} {format_identifier(expression.relation)})"
    raise TypeError(f"cannot format expression node: {expression!r}")


def _format_from(from_table: ast.TableRef | None, joins: tuple[ast.Join, ...]) -> list[str]:
    parts: list[str] = []
    if from_table is not None:
        parts.append(f"FROM {_format_table(from_table)}")
        for join in joins:
            table = _format_table(join.table)
            if join.kind == "cross":
                parts.append(f"CROSS JOIN {table}")
            else:
                keyword = "LEFT JOIN" if join.kind == "left" else "JOIN"
                parts.append(f"{keyword} {table} ON {format_expression(join.condition)}")
    return parts


def format_statement(statement: ast.Statement) -> str:
    """Render any statement node back to a single-line SQL string."""
    if isinstance(statement, ast.Select):
        items = []
        for item in statement.items:
            rendered = format_expression(item.expression)
            if item.alias:
                rendered += f" AS {format_identifier(item.alias)}"
            items.append(rendered)
        parts = ["SELECT " + ("DISTINCT " if statement.distinct else "") + ", ".join(items)]
        parts.extend(_format_from(statement.from_table, statement.joins))
        if statement.where is not None:
            parts.append(f"WHERE {format_expression(statement.where)}")
        if statement.group_by:
            parts.append("GROUP BY " + ", ".join(format_expression(e) for e in statement.group_by))
        if statement.having is not None:
            parts.append(f"HAVING {format_expression(statement.having)}")
        if statement.order_by:
            rendered_order = [
                format_expression(item.expression) + (" DESC" if item.descending else "")
                for item in statement.order_by
            ]
            parts.append("ORDER BY " + ", ".join(rendered_order))
        if statement.limit is not None:
            parts.append(f"LIMIT {statement.limit}")
            if statement.offset is not None:
                parts.append(f"OFFSET {statement.offset}")
        return " ".join(parts)

    if isinstance(statement, ast.EntangledSelect):
        head_parts = []
        for head in statement.heads:
            rendered_items = ", ".join(format_expression(i) for i in head.items)
            head_parts.append(f"{rendered_items} INTO ANSWER {format_identifier(head.relation)}")
        parts = ["SELECT " + ", ".join(head_parts)]
        parts.extend(_format_from(statement.from_table, statement.joins))
        if statement.where is not None:
            parts.append(f"WHERE {format_expression(statement.where)}")
        parts.append(f"CHOOSE {statement.choose}")
        return " ".join(parts)

    if isinstance(statement, ast.CreateTable):
        column_parts = []
        for column in statement.columns:
            clause = f"{format_identifier(column.name)} {format_identifier(column.type_name)}"
            if not column.nullable:
                clause += " NOT NULL"
            column_parts.append(clause)
        if statement.primary_key:
            key = ", ".join(format_identifier(name) for name in statement.primary_key)
            column_parts.append(f"PRIMARY KEY ({key})")
        exists = "IF NOT EXISTS " if statement.if_not_exists else ""
        name = format_identifier(statement.name)
        return f"CREATE TABLE {exists}{name} (" + ", ".join(column_parts) + ")"

    if isinstance(statement, ast.DropTable):
        exists = "IF EXISTS " if statement.if_exists else ""
        return f"DROP TABLE {exists}{format_identifier(statement.name)}"

    if isinstance(statement, ast.Insert):
        names = ", ".join(format_identifier(name) for name in statement.columns)
        columns = f" ({names})" if statement.columns else ""
        rows = ", ".join(
            "(" + ", ".join(format_expression(value) for value in row) + ")"
            for row in statement.rows
        )
        return f"INSERT INTO {format_identifier(statement.table)}{columns} VALUES {rows}"

    if isinstance(statement, ast.Update):
        assignments = ", ".join(
            f"{format_identifier(column)} = {format_expression(value)}"
            for column, value in statement.assignments
        )
        where = f" WHERE {format_expression(statement.where)}" if statement.where is not None else ""
        return f"UPDATE {format_identifier(statement.table)} SET {assignments}{where}"

    if isinstance(statement, ast.Delete):
        where = f" WHERE {format_expression(statement.where)}" if statement.where is not None else ""
        return f"DELETE FROM {format_identifier(statement.table)}{where}"

    raise TypeError(f"cannot format statement node: {statement!r}")
