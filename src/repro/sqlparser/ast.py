"""Abstract syntax tree for the Youtopia SQL dialect.

The AST is split into *expressions* (scalar-valued, used in SELECT lists and
WHERE clauses) and *statements* (top-level commands).  Entangled queries are
represented by :class:`EntangledSelect`, which is an ordinary select extended
with one or more :class:`AnswerHead` clauses (``... INTO ANSWER tbl``),
answer-membership conditions in the WHERE clause (:class:`AnswerMembership`)
and a ``CHOOSE k`` bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expression:
    """Base class of all expression nodes."""

    def children(self) -> tuple["Expression", ...]:
        """Direct sub-expressions (used by generic AST walks)."""
        return ()


@dataclass(frozen=True)
class Literal(Expression):
    """A constant: string, int, float, bool or NULL (``value is None``)."""

    value: Any


@dataclass(frozen=True)
class ColumnRef(Expression):
    """A possibly-qualified column reference (``fno`` or ``f.fno``)."""

    name: str
    table: Optional[str] = None

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


@dataclass(frozen=True)
class Star(Expression):
    """``*`` or ``t.*`` in a SELECT list."""

    table: Optional[str] = None


@dataclass(frozen=True)
class UnaryOp(Expression):
    """``-expr`` or ``NOT expr``."""

    operator: str
    operand: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class BinaryOp(Expression):
    """Arithmetic, comparison or logical binary operation."""

    operator: str
    left: Expression
    right: Expression

    def children(self) -> tuple[Expression, ...]:
        return (self.left, self.right)


@dataclass(frozen=True)
class FunctionCall(Expression):
    """A (possibly aggregate) function call such as ``COUNT(*)`` or ``LOWER(x)``."""

    name: str
    arguments: tuple[Expression, ...]
    distinct: bool = False

    def children(self) -> tuple[Expression, ...]:
        return self.arguments


@dataclass(frozen=True)
class TupleExpr(Expression):
    """A tuple of expressions, e.g. the left side of ``(a, b) IN ANSWER R``."""

    items: tuple[Expression, ...]

    def children(self) -> tuple[Expression, ...]:
        return self.items


@dataclass(frozen=True)
class IsNull(Expression):
    """``expr IS [NOT] NULL``."""

    operand: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class Between(Expression):
    """``expr [NOT] BETWEEN low AND high``."""

    operand: Expression
    low: Expression
    high: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, self.low, self.high)


@dataclass(frozen=True)
class Like(Expression):
    """``expr [NOT] LIKE pattern`` with ``%`` and ``_`` wildcards."""

    operand: Expression
    pattern: Expression
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, self.pattern)


@dataclass(frozen=True)
class InList(Expression):
    """``expr [NOT] IN (v1, v2, ...)``."""

    operand: Expression
    items: tuple[Expression, ...]
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand, *self.items)


@dataclass(frozen=True)
class InSubquery(Expression):
    """``expr [NOT] IN (SELECT ...)``."""

    operand: Expression
    subquery: "Select"
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return (self.operand,)


@dataclass(frozen=True)
class AnswerMembership(Expression):
    """The entangled coordination constraint ``(e1, ..., en) IN ANSWER R``.

    ``items`` are the component expressions (a single expression is treated as
    a 1-tuple).  ``negated`` supports the ``NOT IN ANSWER`` form, which the
    system accepts syntactically but rejects during compilation (the published
    semantics only uses positive constraints).
    """

    items: tuple[Expression, ...]
    relation: str
    negated: bool = False

    def children(self) -> tuple[Expression, ...]:
        return self.items


# ---------------------------------------------------------------------------
# Select statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelectItem:
    """One entry of a SELECT list: an expression plus an optional alias."""

    expression: Expression
    alias: Optional[str] = None


@dataclass(frozen=True)
class TableRef:
    """A table in the FROM clause, with an optional alias."""

    name: str
    alias: Optional[str] = None

    @property
    def binding(self) -> str:
        return self.alias or self.name


@dataclass(frozen=True)
class Join:
    """An explicit join against ``table`` with an ON condition.

    ``kind`` is ``"inner"``, ``"left"`` or ``"cross"`` (cross joins have no
    condition).
    """

    table: TableRef
    condition: Optional[Expression]
    kind: str = "inner"


@dataclass(frozen=True)
class OrderItem:
    expression: Expression
    descending: bool = False


@dataclass(frozen=True)
class Select:
    """A plain (non-entangled) SELECT statement."""

    items: tuple[SelectItem, ...]
    from_table: Optional[TableRef] = None
    joins: tuple[Join, ...] = ()
    where: Optional[Expression] = None
    group_by: tuple[Expression, ...] = ()
    having: Optional[Expression] = None
    order_by: tuple[OrderItem, ...] = ()
    limit: Optional[int] = None
    offset: Optional[int] = None
    distinct: bool = False


@dataclass(frozen=True)
class AnswerHead:
    """One ``expr_list INTO ANSWER relation`` clause of an entangled query."""

    items: tuple[Expression, ...]
    relation: str


@dataclass(frozen=True)
class EntangledSelect:
    """An entangled query: heads, a WHERE clause, and a CHOOSE bound.

    The demo paper's example has exactly one head; multi-head queries (flight
    *and* hotel coordination in a single query, Section 3.1) simply list
    several ``INTO ANSWER`` clauses.
    """

    heads: tuple[AnswerHead, ...]
    where: Optional[Expression] = None
    choose: int = 1
    from_table: Optional[TableRef] = None
    joins: tuple[Join, ...] = ()


# ---------------------------------------------------------------------------
# DDL / DML statements
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ColumnDefinition:
    name: str
    type_name: str
    nullable: bool = True


@dataclass(frozen=True)
class CreateTable:
    name: str
    columns: tuple[ColumnDefinition, ...]
    primary_key: tuple[str, ...] = ()
    if_not_exists: bool = False


@dataclass(frozen=True)
class DropTable:
    name: str
    if_exists: bool = False


@dataclass(frozen=True)
class Insert:
    table: str
    columns: tuple[str, ...]
    rows: tuple[tuple[Expression, ...], ...]


@dataclass(frozen=True)
class Update:
    table: str
    assignments: tuple[tuple[str, Expression], ...]
    where: Optional[Expression] = None


@dataclass(frozen=True)
class Delete:
    table: str
    where: Optional[Expression] = None


Statement = Union[
    Select,
    EntangledSelect,
    CreateTable,
    DropTable,
    Insert,
    Update,
    Delete,
]


def walk_expression(expression: Expression):
    """Yield ``expression`` and every nested sub-expression, pre-order."""
    yield expression
    for child in expression.children():
        yield from walk_expression(child)


def expression_column_refs(expression: Expression) -> list[ColumnRef]:
    """All column references appearing anywhere inside ``expression``."""
    return [node for node in walk_expression(expression) if isinstance(node, ColumnRef)]


def contains_aggregate(expression: Expression) -> bool:
    """Whether the expression contains an aggregate function call."""
    aggregates = {"COUNT", "SUM", "AVG", "MIN", "MAX"}
    return any(
        isinstance(node, FunctionCall) and node.name.upper() in aggregates
        for node in walk_expression(expression)
    )


def tables_read(select: Select) -> tuple[str, ...]:
    """The sorted lowercase names of every table ``select`` reads.

    That is its FROM table, its JOINs and, recursively, the tables of every
    ``IN (SELECT ...)`` nested in any of its expressions.
    """
    names: set[str] = set()
    pending = [select]
    while pending:
        current = pending.pop()
        if current.from_table is not None:
            names.add(current.from_table.name.lower())
        expressions = [item.expression for item in current.items]
        for join in current.joins:
            names.add(join.table.name.lower())
            if join.condition is not None:
                expressions.append(join.condition)
        expressions.extend(e for e in (current.where, current.having) if e is not None)
        expressions.extend(current.group_by)
        expressions.extend(item.expression for item in current.order_by)
        while expressions:  # an explicit stack: no generator per node
            expression = expressions.pop()
            if isinstance(expression, InSubquery):
                pending.append(expression.subquery)
            expressions.extend(expression.children())
    return tuple(sorted(names))
