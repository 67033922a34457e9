"""Answer relations: the shared tables through which entangled queries coordinate.

"The idea is that the answer to the query is returned through an answer
relation that is shared among multiple queries in the system" (demo paper,
Section 1).  In this reproduction answer relations are ordinary tables in the
catalog, so applications can read coordinated answers with plain SQL and the
durability snapshots persist them like any other table.

The :class:`AnswerRelationRegistry` tracks which tables are answer relations,
lets applications declare meaningful column names/types up front (the travel
application declares ``Reservation(traveler TEXT, fno INTEGER)``), and
auto-declares relations with generic dynamically-typed columns the first time
an entangled query mentions them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.errors import EntanglementError
from repro.storage.database import Database
from repro.storage.schema import Column, ColumnType, TableSchema


@dataclass(frozen=True)
class AnswerRelationSpec:
    """Metadata about one declared answer relation."""

    name: str
    column_names: tuple[str, ...]

    @property
    def arity(self) -> int:
        return len(self.column_names)


class AnswerRelationRegistry:
    """Declares and tracks answer relations inside a :class:`Database`."""

    def __init__(self, database: Database) -> None:
        self._database = database
        self._specs: dict[str, AnswerRelationSpec] = {}

    # -- declaration -------------------------------------------------------------

    def declare(
        self,
        name: str,
        columns: Sequence[str] | None = None,
        types: Sequence[str] | None = None,
        arity: Optional[int] = None,
    ) -> AnswerRelationSpec:
        """Declare an answer relation.

        Exactly one of ``columns`` (with optional ``types``) or ``arity`` must
        describe the relation's width.  Declaring an already-declared relation
        with a consistent shape is a no-op; an inconsistent re-declaration
        raises :class:`~repro.errors.EntanglementError`.
        """
        key = name.lower()
        if columns is None:
            if arity is None:
                raise EntanglementError(
                    f"answer relation {name!r} needs either column names or an arity"
                )
            columns = tuple(f"a{position + 1}" for position in range(arity))
        columns = tuple(columns)
        if types is not None and len(types) != len(columns):
            raise EntanglementError(
                f"answer relation {name!r}: {len(types)} types for {len(columns)} columns"
            )

        existing = self._specs.get(key)
        if existing is not None:
            if existing.arity != len(columns):
                raise EntanglementError(
                    f"answer relation {name!r} already declared with arity "
                    f"{existing.arity}, cannot redeclare with arity {len(columns)}"
                )
            return existing

        if self._database.has_table(name):
            schema = self._database.schema(name)
            if schema.arity != len(columns):
                raise EntanglementError(
                    f"table {name!r} already exists with {schema.arity} columns; "
                    f"cannot use it as an answer relation of arity {len(columns)}"
                )
            spec = AnswerRelationSpec(schema.name, schema.column_names)
            self._specs[key] = spec
            return spec

        column_objects = []
        for position, column_name in enumerate(columns):
            type_name = types[position] if types is not None else "ANY"
            column_objects.append(Column(column_name, ColumnType.from_name(type_name)))
        schema = TableSchema(name, tuple(column_objects))
        self._database.create_table(schema)
        spec = AnswerRelationSpec(name, tuple(columns))
        self._specs[key] = spec
        return spec

    def ensure(self, name: str, arity: int) -> AnswerRelationSpec:
        """Declare ``name`` with generic columns unless it already exists."""
        key = name.lower()
        spec = self._specs.get(key)
        if spec is not None:
            if spec.arity != arity:
                raise EntanglementError(
                    f"answer relation {name!r} has arity {spec.arity}, "
                    f"but a query uses it with arity {arity}"
                )
            return spec
        return self.declare(name, arity=arity)

    # -- lookups -----------------------------------------------------------------

    def is_declared(self, name: str) -> bool:
        return name.lower() in self._specs

    def spec(self, name: str) -> AnswerRelationSpec:
        try:
            return self._specs[name.lower()]
        except KeyError:
            raise EntanglementError(f"unknown answer relation {name!r}") from None

    def names(self) -> list[str]:
        return sorted(spec.name for spec in self._specs.values())

    # -- contents -----------------------------------------------------------------

    def insert(self, name: str, values: Sequence[Any]) -> None:
        spec = self.spec(name)
        if len(values) != spec.arity:
            raise EntanglementError(
                f"answer relation {name!r} has arity {spec.arity}, "
                f"got a tuple of width {len(values)}"
            )
        self._database.insert(spec.name, list(values))

    def tuples(self, name: str) -> list[tuple[Any, ...]]:
        """All tuples currently in the answer relation."""
        spec = self.spec(name)
        return [tuple(row) for row in self._database.table(spec.name).rows()]

    def contains(self, name: str, values: Sequence[Any]) -> bool:
        spec = self.spec(name)
        return self._database.table(spec.name).contains_row(list(values))

    def clear(self, name: str) -> None:
        spec = self.spec(name)
        self._database.truncate(spec.name)
