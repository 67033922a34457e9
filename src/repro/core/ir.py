"""Intermediate representation of entangled queries.

The query compiler translates the SQL form of an entangled query (the
``SELECT ... INTO ANSWER ... WHERE ... CHOOSE k`` statement of the demo paper)
into this Datalog-style representation, which is what the coordination
component actually works with:

* **head atoms** — the tuples the query contributes to answer relations
  (``R('Kramer', fno)``);
* **answer atoms** — the coordination constraints that must hold over the
  system-wide answer relation (``R('Jerry', fno)``);
* **domain constraints** — ``x IN (SELECT ...)`` conditions that tie variables
  to values present in the regular database;
* **predicates** — residual scalar conditions over the query's variables
  (``price < 600``);
* the **CHOOSE** bound.

Terms are either constants or named variables.  Variable names are scoped to
their query; the matcher distinguishes the variable ``fno`` of Jerry's query
from the ``fno`` of Kramer's query by pairing each variable with its query id.
"""

from __future__ import annotations

import dataclasses
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator, Optional, Union

from repro.sqlparser import ast


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Constant:
    """A literal value appearing in an atom."""

    value: Any

    def __str__(self) -> str:
        return repr(self.value)


@dataclass(frozen=True)
class Variable:
    """A named variable, scoped to the query it appears in."""

    name: str

    def __str__(self) -> str:
        return self.name


Term = Union[Constant, Variable]


def is_ground(term: Term) -> bool:
    return isinstance(term, Constant)


# ---------------------------------------------------------------------------
# Atoms and constraints
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    """A relational atom ``relation(t1, ..., tn)`` over an answer relation."""

    relation: str
    terms: tuple[Term, ...]

    @property
    def arity(self) -> int:
        return len(self.terms)

    def variables(self) -> tuple[Variable, ...]:
        return tuple(term for term in self.terms if isinstance(term, Variable))

    def constants(self) -> tuple[tuple[int, Any], ...]:
        """(position, value) pairs for the constant positions of the atom."""
        return tuple(
            (index, term.value)
            for index, term in enumerate(self.terms)
            if isinstance(term, Constant)
        )

    def substitute(self, binding: dict[str, Any]) -> tuple[Any, ...]:
        """Instantiate the atom under a variable-name → value binding.

        Raises ``KeyError`` if a variable is unbound; callers are expected to
        only instantiate fully-determined atoms.
        """
        values: list[Any] = []
        for term in self.terms:
            if isinstance(term, Constant):
                values.append(term.value)
            else:
                values.append(binding[term.name])
        return tuple(values)

    def __str__(self) -> str:
        rendered = ", ".join(str(term) for term in self.terms)
        return f"{self.relation}({rendered})"


@dataclass(frozen=True)
class DomainConstraint:
    """``(v1, ..., vn) IN (SELECT ...)`` — ties variables to database values.

    ``variables`` is the tuple of variable names on the left-hand side (a
    single variable is the common case); ``subquery`` is the parsed SELECT that
    produces the candidate tuples.
    """

    variables: tuple[str, ...]
    subquery: ast.Select

    def __str__(self) -> str:
        from repro.sqlparser.pretty import format_identifier, format_statement

        left = ", ".join(format_identifier(name) for name in self.variables)
        if len(self.variables) > 1:
            left = f"({left})"
        return f"{left} IN ({format_statement(self.subquery)})"


@dataclass(frozen=True)
class Predicate:
    """A residual scalar condition over the query's variables."""

    expression: ast.Expression
    variables: tuple[str, ...]

    def __str__(self) -> str:
        from repro.sqlparser.pretty import format_expression

        return format_expression(self.expression)


# ---------------------------------------------------------------------------
# The entangled query
# ---------------------------------------------------------------------------

_query_counter = itertools.count(1)


def next_query_id() -> str:
    """Generate a fresh query id (``q1``, ``q2``, ...)."""
    return f"q{next(_query_counter)}"


def advance_query_counter(minimum_next: int) -> None:
    """Ensure the next generated id is at least ``q{minimum_next}``.

    Recovery calls this after rebuilding a system from a durability log: the
    counter is process-global and restarts at 1, so without the bump a fresh
    submission on a restarted server would collide with a recovered query id
    (including cancelled and rejected ids, which stay registered forever).
    """
    global _query_counter
    current = next(_query_counter)
    _query_counter = itertools.count(max(current, minimum_next))


@dataclass(frozen=True)
class EntangledQuery:
    """The compiled form of one entangled query."""

    query_id: str
    heads: tuple[Atom, ...]
    answer_atoms: tuple[Atom, ...] = ()
    domains: tuple[DomainConstraint, ...] = ()
    predicates: tuple[Predicate, ...] = ()
    choose: int = 1
    owner: Optional[str] = None
    sql: Optional[str] = None
    # Optional per-query weight consumed by the ``priority`` match policy
    # (larger wins).  ``None`` is treated as 0.0 by the policy layer.
    priority: Optional[float] = None

    # -- introspection ----------------------------------------------------------

    def variables(self) -> frozenset[str]:
        """All variable names appearing anywhere in the query."""
        names: set[str] = set()
        for atom in itertools.chain(self.heads, self.answer_atoms):
            names.update(variable.name for variable in atom.variables())
        for domain in self.domains:
            names.update(domain.variables)
        for predicate in self.predicates:
            names.update(predicate.variables)
        return frozenset(names)

    def head_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for atom in self.heads:
            names.update(variable.name for variable in atom.variables())
        return frozenset(names)

    def answer_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for atom in self.answer_atoms:
            names.update(variable.name for variable in atom.variables())
        return frozenset(names)

    def domain_variables(self) -> frozenset[str]:
        names: set[str] = set()
        for domain in self.domains:
            names.update(domain.variables)
        return frozenset(names)

    def answer_relations(self) -> frozenset[str]:
        """All answer relation names this query mentions (heads + constraints)."""
        return frozenset(
            atom.relation for atom in itertools.chain(self.heads, self.answer_atoms)
        )

    def replace_owner(self, owner: Optional[str]) -> "EntangledQuery":
        """A copy of this query attributed to ``owner``.

        Uses :func:`dataclasses.replace` so every field — including any added
        in the future — is carried over.
        """
        return dataclasses.replace(self, owner=owner)

    def is_self_contained(self) -> bool:
        """Whether the query has no coordination constraints at all.

        Such a query can be answered on its own; it still flows through the
        coordination component so that its answers land in answer relations,
        but no partner queries are needed.
        """
        return not self.answer_atoms

    def heads_for_relation(self, relation: str) -> Iterator[tuple[int, Atom]]:
        lowered = relation.lower()
        for index, atom in enumerate(self.heads):
            if atom.relation.lower() == lowered:
                yield index, atom

    def describe(self) -> str:
        """A compact human-readable rendering used by the admin interface."""
        parts = [" & ".join(str(atom) for atom in self.heads)]
        body: list[str] = []
        body.extend(str(domain) for domain in self.domains)
        body.extend(str(predicate) for predicate in self.predicates)
        body.extend(str(atom) for atom in self.answer_atoms)
        if body:
            parts.append(" :- " + ", ".join(body))
        parts.append(f"  [CHOOSE {self.choose}]")
        return "".join(parts)

    def __str__(self) -> str:
        return f"EntangledQuery({self.query_id}: {self.describe()})"


@dataclass(frozen=True)
class GroundAnswer:
    """One query's share of a coordinated answer.

    ``tuples`` maps each answer relation to the tuples this query contributed.
    ``binding`` is the variable valuation the executor chose for the query.
    """

    query_id: str
    binding: dict[str, Any] = field(default_factory=dict)
    tuples: dict[str, tuple[tuple[Any, ...], ...]] = field(default_factory=dict)

    def all_tuples(self) -> list[tuple[str, tuple[Any, ...]]]:
        pairs: list[tuple[str, tuple[Any, ...]]] = []
        for relation, relation_tuples in sorted(self.tuples.items()):
            for values in relation_tuples:
                pairs.append((relation, values))
        return pairs
