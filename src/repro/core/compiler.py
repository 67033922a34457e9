"""The query compiler: entangled SQL → internal representation.

"The query compiler processes them and translates them to an intermediate
representation inside Youtopia for processing by the coordination component"
(demo paper, Section 2.2).  The compiler accepts the AST produced by
:mod:`repro.sqlparser` (or raw SQL text) and emits an
:class:`~repro.core.ir.EntangledQuery`.

The supported fragment mirrors the paper's examples:

* one or more ``expr_list INTO ANSWER relation`` heads whose items are string /
  numeric constants or variables (bare column names);
* a conjunctive WHERE clause whose conjuncts are
  - domain constraints ``x IN (SELECT ...)`` / ``(x, y) IN (SELECT ...)``,
  - coordination constraints ``(e1, ..., en) IN ANSWER relation``,
  - residual scalar predicates over the query's variables;
* an optional ``CHOOSE k`` (default 1).

Programmatic construction is available through :class:`EntangledQueryBuilder`,
which is what the travel application's middle tier uses.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional, Sequence, Union

from repro.errors import CompilationError
from repro.core import ir
from repro.sqlparser import ast, parse_statement
from repro.sqlparser.pretty import format_statement


def _compile_term(expression: ast.Expression, context: str) -> ir.Term:
    """Turn a head/answer-atom item into a constant or variable term."""
    if isinstance(expression, ast.Literal):
        if expression.value is None:
            raise CompilationError(f"NULL is not allowed in {context}")
        return ir.Constant(expression.value)
    if isinstance(expression, ast.UnaryOp) and expression.operator == "-" and isinstance(
        expression.operand, ast.Literal
    ):
        value = expression.operand.value
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise CompilationError(f"cannot negate {value!r} in {context}")
        return ir.Constant(-value)
    if isinstance(expression, ast.ColumnRef):
        if expression.table is not None:
            raise CompilationError(
                f"qualified reference {expression.qualified!r} is not allowed in {context}; "
                "entangled queries bind variables through IN (SELECT ...) constraints"
            )
        return ir.Variable(expression.name.lower())
    raise CompilationError(
        f"{context} items must be constants or variables, got: {type(expression).__name__}"
    )


def _contains_answer_membership(expression: ast.Expression) -> bool:
    return any(
        isinstance(node, ast.AnswerMembership) for node in ast.walk_expression(expression)
    )


def _predicate_variables(expression: ast.Expression) -> tuple[str, ...]:
    names: list[str] = []
    for ref in ast.expression_column_refs(expression):
        if ref.table is not None:
            raise CompilationError(
                f"qualified reference {ref.qualified!r} is not allowed in an "
                "entangled WHERE clause"
            )
        lowered = ref.name.lower()
        if lowered not in names:
            names.append(lowered)
    return tuple(names)


def compile_entangled(
    statement: Union[ast.EntangledSelect, str],
    owner: Optional[str] = None,
    query_id: Optional[str] = None,
) -> ir.EntangledQuery:
    """Compile an entangled SELECT (AST node or SQL text) into the IR."""
    if isinstance(statement, str):
        parsed = parse_statement(statement)
        if not isinstance(parsed, ast.EntangledSelect):
            raise CompilationError(
                "expected an entangled query (SELECT ... INTO ANSWER ...), got plain SQL"
            )
        statement = parsed

    if statement.from_table is not None or statement.joins:
        raise CompilationError(
            "entangled queries do not take a FROM clause; bind variables with "
            "'x IN (SELECT ...)' constraints in the WHERE clause instead"
        )
    if statement.choose < 1:
        raise CompilationError("CHOOSE must be at least 1")

    heads: list[ir.Atom] = []
    for head in statement.heads:
        terms = tuple(_compile_term(item, "an INTO ANSWER head") for item in head.items)
        heads.append(ir.Atom(head.relation, terms))
    if not heads:
        raise CompilationError("an entangled query needs at least one INTO ANSWER head")

    answer_atoms: list[ir.Atom] = []
    domains: list[ir.DomainConstraint] = []
    predicates: list[ir.Predicate] = []

    conjuncts: list[ast.Expression] = []
    if statement.where is not None:
        from repro.relalg.optimizer import split_conjuncts

        conjuncts = split_conjuncts(statement.where)

    for conjunct in conjuncts:
        if isinstance(conjunct, ast.AnswerMembership):
            if conjunct.negated:
                raise CompilationError(
                    "NOT IN ANSWER constraints are not part of the published semantics"
                )
            terms = tuple(
                _compile_term(item, "an IN ANSWER constraint") for item in conjunct.items
            )
            answer_atoms.append(ir.Atom(conjunct.relation, terms))
            continue

        if isinstance(conjunct, ast.InSubquery) and not conjunct.negated:
            operand = conjunct.operand
            if isinstance(operand, ast.ColumnRef):
                variables: tuple[str, ...] = (operand.name.lower(),)
            elif isinstance(operand, ast.TupleExpr) and all(
                isinstance(item, ast.ColumnRef) for item in operand.items
            ):
                variables = tuple(item.name.lower() for item in operand.items)  # type: ignore[union-attr]
            else:
                variables = ()
            if variables:
                if any("." in variable for variable in variables):
                    raise CompilationError(
                        "qualified references are not allowed in domain constraints"
                    )
                domains.append(ir.DomainConstraint(variables, conjunct.subquery))
                continue
            #

        # Everything else is a residual predicate — but coordination constraints
        # must not hide inside disjunctions or negations.
        if _contains_answer_membership(conjunct):
            raise CompilationError(
                "IN ANSWER constraints must appear as top-level conjuncts of the WHERE clause"
            )
        predicates.append(ir.Predicate(conjunct, _predicate_variables(conjunct)))

    if statement.choose > 1 and answer_atoms:
        raise CompilationError(
            "CHOOSE k with k > 1 is only supported for queries without IN ANSWER "
            "constraints in this reproduction (the demo scenarios all use CHOOSE 1)"
        )

    query = ir.EntangledQuery(
        query_id=query_id or ir.next_query_id(),
        heads=tuple(heads),
        answer_atoms=tuple(answer_atoms),
        domains=tuple(domains),
        predicates=tuple(predicates),
        choose=statement.choose,
        owner=owner,
        sql=format_statement(statement),
    )
    return query


class EntangledQueryBuilder:
    """Fluent programmatic construction of entangled queries.

    The travel application's middle tier builds coordination requests with
    this builder rather than by string-formatting SQL::

        query = (
            EntangledQueryBuilder(owner="Jerry")
            .head("Reservation", "Jerry", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris'")
            .require("Reservation", "Kramer", var("fno"))
            .build()
        )
    """

    def __init__(self, owner: Optional[str] = None) -> None:
        self._owner = owner
        self._heads: list[ir.Atom] = []
        self._answer_atoms: list[ir.Atom] = []
        self._domains: list[ir.DomainConstraint] = []
        self._predicates: list[ir.Predicate] = []
        self._choose = 1

    # -- term helpers ------------------------------------------------------------------

    @staticmethod
    def _to_term(value: Any) -> ir.Term:
        if isinstance(value, (ir.Constant, ir.Variable)):
            return value
        if isinstance(value, (str, int, float, bool)):
            return ir.Constant(value)
        raise CompilationError(f"cannot use {value!r} as an atom term")

    # -- builder steps ------------------------------------------------------------------

    def head(self, relation: str, *terms: Any) -> "EntangledQueryBuilder":
        """Add an ``INTO ANSWER relation`` head with the given terms."""
        self._heads.append(ir.Atom(relation, tuple(self._to_term(t) for t in terms)))
        return self

    def require(self, relation: str, *terms: Any) -> "EntangledQueryBuilder":
        """Add an ``IN ANSWER relation`` coordination constraint."""
        self._answer_atoms.append(ir.Atom(relation, tuple(self._to_term(t) for t in terms)))
        return self

    def domain(
        self, variables: str | Sequence[str], subquery: str | ast.Select
    ) -> "EntangledQueryBuilder":
        """Add an ``x IN (SELECT ...)`` domain constraint."""
        if isinstance(variables, str):
            variable_names: tuple[str, ...] = (variables.lower(),)
        else:
            variable_names = tuple(name.lower() for name in variables)
        if isinstance(subquery, str):
            parsed = parse_statement(subquery)
            if not isinstance(parsed, ast.Select):
                raise CompilationError("domain constraints need a plain SELECT subquery")
            subquery = parsed
        self._domains.append(ir.DomainConstraint(variable_names, subquery))
        return self

    def predicate(self, condition: str | ast.Expression) -> "EntangledQueryBuilder":
        """Add a residual scalar condition (SQL text or expression AST)."""
        if isinstance(condition, str):
            # Parse the condition by wrapping it in a throwaway SELECT.
            parsed = parse_statement(f"SELECT 1 WHERE {condition}")
            assert isinstance(parsed, ast.Select) and parsed.where is not None
            condition = parsed.where
        if _contains_answer_membership(condition):
            raise CompilationError("use .require() for IN ANSWER constraints")
        self._predicates.append(ir.Predicate(condition, _predicate_variables(condition)))
        return self

    def choose(self, count: int) -> "EntangledQueryBuilder":
        if count < 1:
            raise CompilationError("CHOOSE must be at least 1")
        self._choose = count
        return self

    def build(self, query_id: Optional[str] = None) -> ir.EntangledQuery:
        if not self._heads:
            raise CompilationError("an entangled query needs at least one head")
        if self._choose > 1 and self._answer_atoms:
            raise CompilationError(
                "CHOOSE k with k > 1 is only supported for queries without "
                "coordination constraints"
            )
        return ir.EntangledQuery(
            query_id=query_id or ir.next_query_id(),
            heads=tuple(self._heads),
            answer_atoms=tuple(self._answer_atoms),
            domains=tuple(self._domains),
            predicates=tuple(self._predicates),
            choose=self._choose,
            owner=self._owner,
            sql=None,
        )


def var(name: str) -> ir.Variable:
    """Shorthand for creating a variable term in builder calls."""
    return ir.Variable(name.lower())


def entangled_to_sql(query: ir.EntangledQuery) -> str:
    """Render an IR query back to entangled SQL.

    Used for display *and* for the durability journal (a builder-made query
    records no SQL of its own), so constants are rendered with the SQL
    pretty-printer's literal rules (``''`` escaping, ``TRUE``/``NULL``) —
    the output must survive a trip through :func:`compile_entangled` on
    recovery, not just look readable.
    """
    if query.sql:
        return query.sql
    from repro.sqlparser.pretty import format_expression, format_identifier, format_literal

    def term_sql(term: ir.Term) -> str:
        if isinstance(term, ir.Constant):
            return format_literal(term.value)
        return format_identifier(term.name)

    head_parts = []
    for atom in query.heads:
        items = ", ".join(term_sql(term) for term in atom.terms)
        head_parts.append(f"{items} INTO ANSWER {format_identifier(atom.relation)}")
    clauses: list[str] = []
    for domain in query.domains:
        clauses.append(str(domain))
    for predicate in query.predicates:
        clauses.append(format_expression(predicate.expression))
    for atom in query.answer_atoms:
        items = ", ".join(term_sql(term) for term in atom.terms)
        clauses.append(f"({items}) IN ANSWER {format_identifier(atom.relation)}")
    where = f" WHERE {' AND '.join(clauses)}" if clauses else ""
    return f"SELECT {', '.join(head_parts)}{where} CHOOSE {query.choose}"
