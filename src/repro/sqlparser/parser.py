"""Recursive-descent parser for the Youtopia SQL dialect.

Entry points:

* :func:`parse_statement` — parse exactly one statement.
* :func:`parse_script` — parse a ``;``-separated sequence of statements.

Entangled queries follow the syntax of the demo paper::

    SELECT 'Kramer', fno INTO ANSWER Reservation
    WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')
      AND ('Jerry', fno) IN ANSWER Reservation
    CHOOSE 1

Multi-head entangled queries (flight *and* hotel in one request) list several
``INTO ANSWER`` clauses::

    SELECT 'Jerry', fno INTO ANSWER FlightRes,
           'Jerry', hid INTO ANSWER HotelRes
    WHERE ...
    CHOOSE 1
"""

from __future__ import annotations

import re
import threading
from collections import OrderedDict
from dataclasses import fields, is_dataclass
from typing import Any, Optional

from repro.errors import ParseError
from repro.sqlparser import ast
from repro.sqlparser.tokens import Token, TokenType, tokenize


class _Parser:
    """Stateful cursor over the token stream."""

    def __init__(self, tokens: list[Token]) -> None:
        self._tokens = tokens
        self._position = 0

    # -- cursor helpers --------------------------------------------------------

    @property
    def current(self) -> Token:
        return self._tokens[self._position]

    def peek(self, offset: int = 1) -> Token:
        index = min(self._position + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.type is not TokenType.EOF:
            self._position += 1
        return token

    def error(self, message: str, token: Token | None = None) -> ParseError:
        token = token or self.current
        return ParseError(message, token.line, token.column)

    def expect_keyword(self, *names: str) -> Token:
        if self.current.is_keyword(*names):
            return self.advance()
        raise self.error(f"expected {' or '.join(names)}, found {self.current}")

    def expect_punct(self, symbol: str) -> Token:
        if self.current.is_punct(symbol):
            return self.advance()
        raise self.error(f"expected {symbol!r}, found {self.current}")

    def expect_identifier(self) -> str:
        if self.current.type is TokenType.IDENTIFIER:
            return self.advance().value
        # Allow non-reserved words used as identifiers in common positions.
        if self.current.type is TokenType.KEYWORD and self.current.value in ("KEY", "ANSWER"):
            return self.advance().value
        raise self.error(f"expected identifier, found {self.current}")

    def accept_keyword(self, *names: str) -> bool:
        if self.current.is_keyword(*names):
            self.advance()
            return True
        return False

    def accept_punct(self, symbol: str) -> bool:
        if self.current.is_punct(symbol):
            self.advance()
            return True
        return False

    def at_end(self) -> bool:
        return self.current.type is TokenType.EOF

    # -- statements ---------------------------------------------------------------

    def parse_statement(self) -> ast.Statement:
        token = self.current
        if token.is_keyword("SELECT"):
            return self.parse_select_like()
        if token.is_keyword("CREATE"):
            return self.parse_create_table()
        if token.is_keyword("DROP"):
            return self.parse_drop_table()
        if token.is_keyword("INSERT"):
            return self.parse_insert()
        if token.is_keyword("UPDATE"):
            return self.parse_update()
        if token.is_keyword("DELETE"):
            return self.parse_delete()
        raise self.error(f"expected a statement, found {token}")

    # -- SELECT (plain and entangled) -----------------------------------------------

    def parse_select_like(self) -> ast.Statement:
        self.expect_keyword("SELECT")
        distinct = self.accept_keyword("DISTINCT")

        items: list[ast.SelectItem] = []
        heads: list[ast.AnswerHead] = []
        current_exprs: list[ast.Expression] = []
        entangled = False

        while True:
            expression = self.parse_expression()
            alias = None
            if self.accept_keyword("AS"):
                alias = self.expect_identifier()
            elif self.current.type is TokenType.IDENTIFIER and not entangled:
                # implicit alias only meaningful for plain selects
                alias = self.advance().value
            current_exprs.append(expression)
            items.append(ast.SelectItem(expression, alias))

            if self.current.is_keyword("INTO"):
                self.advance()
                self.expect_keyword("ANSWER")
                relation = self.expect_identifier()
                heads.append(ast.AnswerHead(tuple(current_exprs), relation))
                current_exprs = []
                entangled = True
                if self.accept_punct(","):
                    continue
                break

            if self.accept_punct(","):
                continue
            break

        if entangled and current_exprs:
            raise self.error("entangled SELECT has trailing expressions without INTO ANSWER")

        from_table: Optional[ast.TableRef] = None
        joins: list[ast.Join] = []
        if self.accept_keyword("FROM"):
            from_table = self.parse_table_ref()
            joins = self.parse_joins()

        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()

        if entangled:
            choose = 1
            if self.current.is_keyword("CHOOSE"):
                self.advance()
                choose_token = self.current
                if choose_token.type is not TokenType.INTEGER:
                    raise self.error("CHOOSE expects a positive integer")
                self.advance()
                choose = int(choose_token.value)
                if choose < 1:
                    raise self.error("CHOOSE expects a positive integer", choose_token)
            return ast.EntangledSelect(
                heads=tuple(heads),
                where=where,
                choose=choose,
                from_table=from_table,
                joins=tuple(joins),
            )

        group_by: list[ast.Expression] = []
        having = None
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.accept_punct(","):
                group_by.append(self.parse_expression())
        if self.accept_keyword("HAVING"):
            # HAVING without GROUP BY parses fine; the planner rejects it
            # unless aggregates are involved.
            having = self.parse_expression()

        order_by: list[ast.OrderItem] = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expression = self.parse_expression()
                descending = False
                if self.accept_keyword("DESC"):
                    descending = True
                else:
                    self.accept_keyword("ASC")
                order_by.append(ast.OrderItem(expression, descending))
                if not self.accept_punct(","):
                    break

        limit = None
        offset = None
        if self.accept_keyword("LIMIT"):
            limit_token = self.current
            if limit_token.type is not TokenType.INTEGER:
                raise self.error("LIMIT expects an integer")
            self.advance()
            limit = int(limit_token.value)
            if self.accept_keyword("OFFSET"):
                offset_token = self.current
                if offset_token.type is not TokenType.INTEGER:
                    raise self.error("OFFSET expects an integer")
                self.advance()
                offset = int(offset_token.value)

        return ast.Select(
            items=tuple(items),
            from_table=from_table,
            joins=tuple(joins),
            where=where,
            group_by=tuple(group_by),
            having=having,
            order_by=tuple(order_by),
            limit=limit,
            offset=offset,
            distinct=distinct,
        )

    def parse_table_ref(self) -> ast.TableRef:
        name = self.expect_identifier()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier()
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return ast.TableRef(name, alias)

    def parse_joins(self) -> list[ast.Join]:
        joins: list[ast.Join] = []
        while True:
            kind = None
            if self.current.is_keyword("JOIN"):
                kind = "inner"
                self.advance()
            elif self.current.is_keyword("INNER"):
                self.advance()
                self.expect_keyword("JOIN")
                kind = "inner"
            elif self.current.is_keyword("LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                kind = "left"
            elif self.current.is_keyword("CROSS"):
                self.advance()
                self.expect_keyword("JOIN")
                kind = "cross"
            elif self.current.is_punct(","):
                # implicit cross join: FROM a, b
                self.advance()
                kind = "cross"
            else:
                break
            table = self.parse_table_ref()
            condition = None
            if kind != "cross":
                self.expect_keyword("ON")
                condition = self.parse_expression()
            joins.append(ast.Join(table, condition, kind))
        return joins

    # -- DDL -------------------------------------------------------------------------

    def parse_create_table(self) -> ast.CreateTable:
        self.expect_keyword("CREATE")
        self.expect_keyword("TABLE")
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_identifier()
        self.expect_punct("(")
        columns: list[ast.ColumnDefinition] = []
        primary_key: tuple[str, ...] = ()
        while True:
            if self.current.is_keyword("PRIMARY"):
                self.advance()
                self.expect_keyword("KEY")
                self.expect_punct("(")
                key_columns = [self.expect_identifier()]
                while self.accept_punct(","):
                    key_columns.append(self.expect_identifier())
                self.expect_punct(")")
                primary_key = tuple(key_columns)
            else:
                column_name = self.expect_identifier()
                type_name = self.expect_identifier()
                nullable = True
                if self.accept_keyword("NOT"):
                    self.expect_keyword("NULL")
                    nullable = False
                elif self.accept_keyword("NULL"):
                    nullable = True
                if self.current.is_keyword("PRIMARY"):
                    self.advance()
                    self.expect_keyword("KEY")
                    primary_key = (column_name,)
                columns.append(ast.ColumnDefinition(column_name, type_name, nullable))
            if not self.accept_punct(","):
                break
        self.expect_punct(")")
        return ast.CreateTable(name, tuple(columns), primary_key, if_not_exists)

    def parse_drop_table(self) -> ast.DropTable:
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_identifier()
        return ast.DropTable(name, if_exists)

    # -- DML -------------------------------------------------------------------------

    def parse_insert(self) -> ast.Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier()
        columns: tuple[str, ...] = ()
        if self.current.is_punct("("):
            self.advance()
            names = [self.expect_identifier()]
            while self.accept_punct(","):
                names.append(self.expect_identifier())
            self.expect_punct(")")
            columns = tuple(names)
        self.expect_keyword("VALUES")
        rows: list[tuple[ast.Expression, ...]] = []
        while True:
            self.expect_punct("(")
            values = [self.parse_expression()]
            while self.accept_punct(","):
                values.append(self.parse_expression())
            self.expect_punct(")")
            rows.append(tuple(values))
            if not self.accept_punct(","):
                break
        return ast.Insert(table, columns, tuple(rows))

    def parse_update(self) -> ast.Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier()
        self.expect_keyword("SET")
        assignments: list[tuple[str, ast.Expression]] = []
        while True:
            column = self.expect_identifier()
            if not self.current.is_operator("="):
                raise self.error("expected '=' in UPDATE assignment")
            self.advance()
            assignments.append((column, self.parse_expression()))
            if not self.accept_punct(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.Update(table, tuple(assignments), where)

    def parse_delete(self) -> ast.Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.Delete(table, where)

    # -- expressions ---------------------------------------------------------------------

    def parse_expression(self) -> ast.Expression:
        return self.parse_or()

    def parse_or(self) -> ast.Expression:
        left = self.parse_and()
        while self.current.is_keyword("OR"):
            self.advance()
            right = self.parse_and()
            left = ast.BinaryOp("OR", left, right)
        return left

    def parse_and(self) -> ast.Expression:
        left = self.parse_not()
        while self.current.is_keyword("AND"):
            self.advance()
            right = self.parse_not()
            left = ast.BinaryOp("AND", left, right)
        return left

    def parse_not(self) -> ast.Expression:
        if self.current.is_keyword("NOT"):
            self.advance()
            return ast.UnaryOp("NOT", self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self) -> ast.Expression:
        left = self.parse_additive()

        negated = False
        if self.current.is_keyword("NOT") and self.peek().is_keyword("IN", "BETWEEN", "LIKE"):
            self.advance()
            negated = True

        if self.current.is_keyword("IS"):
            self.advance()
            is_negated = self.accept_keyword("NOT")
            self.expect_keyword("NULL")
            return ast.IsNull(left, negated=is_negated)

        if self.current.is_keyword("BETWEEN"):
            self.advance()
            low = self.parse_additive()
            self.expect_keyword("AND")
            high = self.parse_additive()
            return ast.Between(left, low, high, negated=negated)

        if self.current.is_keyword("LIKE"):
            self.advance()
            pattern = self.parse_additive()
            return ast.Like(left, pattern, negated=negated)

        if self.current.is_keyword("IN"):
            self.advance()
            return self.parse_in_tail(left, negated)

        if self.current.is_operator("=", "!=", "<>", "<", "<=", ">", ">="):
            operator = self.advance().value
            if operator == "<>":
                operator = "!="
            right = self.parse_additive()
            return ast.BinaryOp(operator, left, right)

        return left

    def parse_in_tail(self, left: ast.Expression, negated: bool) -> ast.Expression:
        """Parse the tail of ``left [NOT] IN ...`` (ANSWER, subquery, or list)."""
        if self.current.is_keyword("ANSWER"):
            self.advance()
            relation = self.expect_identifier()
            items = left.items if isinstance(left, ast.TupleExpr) else (left,)
            return ast.AnswerMembership(items, relation, negated=negated)

        self.expect_punct("(")
        if self.current.is_keyword("SELECT"):
            subquery = self.parse_select_like()
            if not isinstance(subquery, ast.Select):
                raise self.error("entangled queries cannot appear as subqueries")
            self.expect_punct(")")
            return ast.InSubquery(left, subquery, negated=negated)

        items = [self.parse_expression()]
        while self.accept_punct(","):
            items.append(self.parse_expression())
        self.expect_punct(")")
        return ast.InList(left, tuple(items), negated=negated)

    def parse_additive(self) -> ast.Expression:
        left = self.parse_multiplicative()
        while self.current.is_operator("+", "-", "||"):
            operator = self.advance().value
            right = self.parse_multiplicative()
            left = ast.BinaryOp(operator, left, right)
        return left

    def parse_multiplicative(self) -> ast.Expression:
        left = self.parse_unary()
        while self.current.is_operator("*", "/", "%"):
            operator = self.advance().value
            right = self.parse_unary()
            left = ast.BinaryOp(operator, left, right)
        return left

    def parse_unary(self) -> ast.Expression:
        if self.current.is_operator("-"):
            self.advance()
            operand = self.parse_unary()
            # Fold "-<number>" into a negative literal so that negative
            # constants round-trip through the pretty-printer unchanged.
            if isinstance(operand, ast.Literal) and isinstance(operand.value, (int, float)) \
                    and not isinstance(operand.value, bool):
                return ast.Literal(-operand.value)
            return ast.UnaryOp("-", operand)
        if self.current.is_operator("+"):
            self.advance()
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self) -> ast.Expression:
        token = self.current

        if token.type is TokenType.STRING:
            self.advance()
            return ast.Literal(token.value)
        if token.type is TokenType.INTEGER:
            self.advance()
            return ast.Literal(int(token.value))
        if token.type is TokenType.FLOAT:
            self.advance()
            return ast.Literal(float(token.value))
        if token.is_keyword("NULL"):
            self.advance()
            return ast.Literal(None)
        if token.is_keyword("TRUE"):
            self.advance()
            return ast.Literal(True)
        if token.is_keyword("FALSE"):
            self.advance()
            return ast.Literal(False)

        if token.is_operator("*"):
            self.advance()
            return ast.Star()

        if token.is_punct("("):
            self.advance()
            first = self.parse_expression()
            if self.current.is_punct(","):
                items = [first]
                while self.accept_punct(","):
                    items.append(self.parse_expression())
                self.expect_punct(")")
                return ast.TupleExpr(tuple(items))
            self.expect_punct(")")
            return first

        if token.type is TokenType.IDENTIFIER or token.is_keyword("ANSWER", "KEY"):
            name = self.advance().value
            # function call
            if self.current.is_punct("("):
                self.advance()
                distinct = self.accept_keyword("DISTINCT")
                arguments: list[ast.Expression] = []
                if not self.current.is_punct(")"):
                    arguments.append(self.parse_expression())
                    while self.accept_punct(","):
                        arguments.append(self.parse_expression())
                self.expect_punct(")")
                return ast.FunctionCall(name.upper(), tuple(arguments), distinct)
            # qualified reference: table.column or table.*
            if self.current.is_punct("."):
                self.advance()
                if self.current.is_operator("*"):
                    self.advance()
                    return ast.Star(table=name)
                column = self.expect_identifier()
                return ast.ColumnRef(column, table=name)
            return ast.ColumnRef(name)

        raise self.error(f"unexpected token {token}")


def parse_statement(text: str) -> ast.Statement:
    """Parse a single SQL statement (an optional trailing ``;`` is allowed).

    Texts that differ only in their single-quoted string constants share one
    parse: see :class:`_ShapeCache`.  The result equals :func:`_parse_text`'s
    for every input, including the :class:`ParseError` it raises.
    """
    pieces = _STRING_LITERAL.split(text)
    shape = tuple(pieces[0::2])
    if _UNCACHEABLE.search(" ".join(shape)):
        return _parse_text(text)
    values = [value.replace("''", "'") for value in pieces[1::2]]
    entry = _shapes.get(shape)
    if isinstance(entry, _Template):
        return entry.bind(values)
    statement = _parse_text(text)  # a failed parse records nothing
    if entry is None:
        _shapes.put(shape, _SEEN)
    elif entry is _SEEN:
        _shapes.put(shape, _Template.verified(shape, values, statement))
    return statement


def _parse_text(text: str) -> ast.Statement:
    """Tokenise and parse ``text`` from scratch (the shape cache's oracle)."""
    parser = _Parser(tokenize(text))
    statement = parser.parse_statement()
    parser.accept_punct(";")
    if not parser.at_end():
        raise parser.error(f"unexpected trailing input: {parser.current}")
    return statement


def parse_script(text: str) -> list[ast.Statement]:
    """Parse a ``;``-separated sequence of statements."""
    parser = _Parser(tokenize(text))
    statements: list[ast.Statement] = []
    while not parser.at_end():
        statements.append(parser.parse_statement())
        while parser.accept_punct(";"):
            pass
    return statements


# -- the shape cache ---------------------------------------------------------------
#
# A travel site's users submit the same few query *shapes*, differing only in
# names and destinations.  A shape is a text's parts outside its string
# literals; its template is the AST of that shape parsed with a placeholder in
# each literal, and a hit rebuilds only the spines from the root to those
# literals, sharing every other (frozen) subtree.  The parser never looks
# inside a string token, so every text of a shape parses to the same tree up
# to those literals -- provided the literal boundaries found by the regex are
# the tokenizer's, which is why a shape holding a quote, a quoted identifier
# or a comment start is never cached.

#: a whole string literal, ``''`` escapes included; the group is its body
_STRING_LITERAL = re.compile(r"'([^']*(?:''[^']*)*)'")
#: outside the literals, these could hide or fake a literal boundary
_UNCACHEABLE = re.compile(r"['\"]|--|/\*")

SHAPE_CACHE_CAPACITY = 256

#: seen once and parsed: a second sighting templates the shape, so one-off
#: statements (``INSERT ... VALUES (1000, ...)``) never pay a second parse
_SEEN = object()
#: the template did not reproduce a full parse: always parse this shape
_BYPASS = object()


class _Template:
    """A shape's parse with a placeholder in each string literal."""

    __slots__ = ("statement", "plan")

    def __init__(self, statement: ast.Statement, plan: Any) -> None:
        self.statement = statement
        #: ``None`` (no literal below), a slot index (this node is the
        #: literal) or ``{field or index: plan}`` for the children that
        #: hold literals
        self.plan = plan

    @classmethod
    def verified(cls, shape: tuple[str, ...], values: list[str], statement: ast.Statement) -> Any:
        """The template of ``shape``, or :data:`_BYPASS` unless binding it
        with ``values`` gives ``statement``, the full parse of the same text."""
        slots = {f"\x00{index}": index for index in range(len(values))}
        text = shape[0] + "".join(
            f"'{placeholder}'{part}" for placeholder, part in zip(slots, shape[1:])
        )
        try:
            parsed = _parse_text(text)
        except ParseError:
            return _BYPASS
        template = cls(parsed, _slot_plan(parsed, slots))
        return template if template.bind(values) == statement else _BYPASS

    def bind(self, values: list[str]) -> ast.Statement:
        return _bind(self.statement, self.plan, values) if self.plan is not None else self.statement


def _slot_plan(node: Any, slots: dict[str, int]) -> Any:
    if isinstance(node, ast.Literal):
        return slots.get(node.value) if isinstance(node.value, str) else None
    if isinstance(node, tuple):
        children: Any = enumerate(node)
    elif is_dataclass(node):
        children = ((field.name, getattr(node, field.name)) for field in fields(node))
    else:
        return None
    plan = {
        key: child_plan
        for key, child in children
        if (child_plan := _slot_plan(child, slots)) is not None
    }
    return plan or None


_set_field = object.__setattr__


def _bind(node: Any, plan: Any, values: list[str]) -> Any:
    if isinstance(plan, int):
        return ast.Literal(values[plan])
    if isinstance(node, tuple):
        items = list(node)
        for index, child_plan in plan.items():
            items[index] = _bind(node[index], child_plan, values)
        return tuple(items)
    # A frozen dataclass: copy its fields, replacing the ones on a spine.  Set
    # one by one, not through ``__dict__``, so the copy keeps CPython's fast
    # inline attribute layout.
    bound = object.__new__(type(node))
    for name, value in node.__dict__.items():
        child_plan = plan.get(name)
        _set_field(bound, name, value if child_plan is None else _bind(value, child_plan, values))
    return bound


class _ShapeCache:
    """A lock-guarded LRU from shape to :data:`_SEEN`, :data:`_BYPASS` or a
    :class:`_Template`, holding at most :data:`SHAPE_CACHE_CAPACITY` shapes."""

    def __init__(self) -> None:
        self._entries: OrderedDict[tuple[str, ...], Any] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, shape: tuple[str, ...]) -> Any:
        with self._lock:
            entry = self._entries.get(shape)
            if entry is not None:
                self._entries.move_to_end(shape)
            return entry

    def put(self, shape: tuple[str, ...], entry: Any) -> None:
        with self._lock:
            self._entries[shape] = entry
            self._entries.move_to_end(shape)
            if len(self._entries) > SHAPE_CACHE_CAPACITY:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


_shapes = _ShapeCache()
