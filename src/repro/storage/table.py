"""In-memory tables: the row store behind the Youtopia database catalog.

A :class:`Table` stores validated positional tuples keyed by a monotonically
increasing row id.  Row ids are internal — they never leak through the query
engine — but they give updates, deletes and secondary indexes a stable handle.
Tables support an optional primary key (enforced through a unique hash index)
and any number of secondary hash indexes.

A table created with a *clock* (the catalog's database-wide counter) carries a
write stamp: :attr:`Table.stamp` takes a fresh clock value at creation and
after every completed change — rows inserted, updated or deleted, a truncate,
a snapshot restore, an index created or dropped.  Two reads that see the same
stamp therefore see the same rows in the same order, which is what lets the
matcher reuse a domain subquery's result.  The stamp is set *after* the
change, so a reader that takes the stamp before reading the rows can only
pair an old stamp with new rows, never the reverse.  A table built without a
clock (a view's per-read copy) has no stamp.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Collection, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import ConstraintViolationError, StorageError
from repro.storage.indexes import HashIndex
from repro.storage.schema import TableSchema


class Table:
    """A mutable bag of tuples conforming to a :class:`TableSchema`."""

    def __init__(self, schema: TableSchema, clock: Optional[Callable[[], int]] = None) -> None:
        self.schema = schema
        self._clock = clock
        self.stamp: Optional[int] = clock() if clock is not None else None
        self._rows: dict[int, tuple[Any, ...]] = {}
        self._next_row_id = itertools.count(1)
        self._indexes: dict[str, HashIndex] = {}
        if schema.primary_key:
            self.create_index("__pk__", schema.primary_key, unique=True)

    def _stamp(self) -> None:
        """Record a completed change (see the module docstring)."""
        if self._clock is not None:
            self.stamp = self._clock()

    # -- introspection --------------------------------------------------------

    @property
    def name(self) -> str:
        return self.schema.name

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[tuple[Any, ...]]:
        return iter(list(self._rows.values()))

    def rows(self) -> list[tuple[Any, ...]]:
        """A snapshot list of all rows (positional tuples)."""
        return list(self._rows.values())

    def rows_with_ids(self) -> list[tuple[int, tuple[Any, ...]]]:
        return list(self._rows.items())

    def dicts(self) -> list[dict[str, Any]]:
        """All rows as column-name → value dictionaries."""
        return [self.schema.row_as_dict(row) for row in self.rows()]

    # -- index management ------------------------------------------------------

    def create_index(self, name: str, columns: Sequence[str], unique: bool = False) -> HashIndex:
        if name in self._indexes:
            raise StorageError(f"index {name!r} already exists on table {self.name!r}")
        positions = tuple(self.schema.column_index(column) for column in columns)
        index = HashIndex(name, positions, unique=unique)
        index.rebuild(self._rows.items())
        self._indexes[name] = index
        self._stamp()
        return index

    def drop_index(self, name: str) -> None:
        if name not in self._indexes:
            raise StorageError(f"no index named {name!r} on table {self.name!r}")
        del self._indexes[name]
        self._stamp()

    def indexes(self) -> dict[str, HashIndex]:
        return dict(self._indexes)

    def find_index(self, columns: Sequence[str]) -> HashIndex | None:
        """Return an index exactly covering ``columns`` (in order), if any."""
        return self._index_on(tuple(self.schema.column_index(column) for column in columns))

    def _index_on(self, positions: tuple[int, ...]) -> HashIndex | None:
        for index in self._indexes.values():
            if index.column_positions == positions:
                return index
        return None

    # -- mutation ---------------------------------------------------------------
    #
    # Every mutation is all-or-nothing: new rows are computed and checked
    # against the unique indexes' final state before anything is touched, so
    # a statement that fails leaves the table exactly as it found it.

    def insert(self, values: Sequence[Any]) -> int:
        """Insert a positional row, returning its internal row id."""
        return self.insert_many([values])[0]

    def insert_mapping(self, mapping: dict[str, Any]) -> int:
        """Insert a row given as a column-name → value mapping."""
        return self.insert(self.schema.row_from_mapping(mapping))

    def insert_many(self, rows: Iterable[Sequence[Any]]) -> list[int]:
        """Insert positional rows, all of them or — on any error — none."""
        validated = [self.schema.validate_row(values) for values in rows]
        self._check_unique(validated)
        row_ids = []
        for row in validated:
            row_id = next(self._next_row_id)
            self._rows[row_id] = row
            for index in self._indexes.values():
                index.add(row_id, row)
            row_ids.append(row_id)
        if row_ids:
            self._stamp()
        return row_ids

    def delete_where(self, predicate: Callable[[dict[str, Any]], bool]) -> int:
        """Delete every row whose dict form satisfies ``predicate``."""
        return self._delete_rows(self.rows_with_ids(), predicate)

    def delete_by_key(
        self,
        key_values: Mapping[str, Any],
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> int:
        """Delete the rows :meth:`lookup_equal` finds for ``key_values``.

        ``predicate``, when given, is a residual filter applied to those rows
        only.  Returns the number of rows deleted.
        """
        return self._delete_rows(self._rows_by_key(key_values), predicate)

    def update_where(
        self,
        predicate: Callable[[dict[str, Any]], bool],
        updater: Callable[[dict[str, Any]], dict[str, Any]],
    ) -> int:
        """Update matching rows.

        ``updater`` receives the current row as a dict and returns a dict of
        column → new value assignments (a partial update).  Returns the number
        of rows updated.
        """
        return self._update_rows(list(self._rows.items()), predicate, updater)

    def update_by_key(
        self,
        key_values: Mapping[str, Any],
        assignments: Mapping[str, Any] | Callable[[dict[str, Any]], Mapping[str, Any]],
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> int:
        """Update the rows :meth:`lookup_equal` finds for ``key_values``.

        ``assignments`` is a column → value mapping, or a callable computing
        one from the current row as :meth:`update_where`'s ``updater`` does;
        ``predicate``, when given, is a residual filter applied to the keyed
        rows only.  Returns the number of rows updated (0 when none match).
        """
        updater = assignments if callable(assignments) else lambda _row: assignments
        return self._update_rows(self._rows_by_key(key_values), predicate, updater)

    def truncate(self) -> None:
        self._rows.clear()
        for index in self._indexes.values():
            index.clear()
        self._stamp()

    def _delete_rows(
        self,
        targets: Iterable[tuple[int, tuple[Any, ...]]],
        predicate: Optional[Callable[[dict[str, Any]], bool]],
    ) -> int:
        doomed = [
            row_id
            for row_id, row in targets
            if predicate is None or predicate(self.schema.row_as_dict(row))
        ]
        for row_id in doomed:
            row = self._rows.pop(row_id)
            for index in self._indexes.values():
                index.remove(row_id, row)
        if doomed:
            self._stamp()
        return len(doomed)

    def _update_rows(
        self,
        targets: Iterable[tuple[int, tuple[Any, ...]]],
        predicate: Optional[Callable[[dict[str, Any]], bool]],
        updater: Callable[[dict[str, Any]], Mapping[str, Any]],
    ) -> int:
        """The one apply loop behind both the scanning and the keyed update."""
        changes: dict[int, tuple[Any, ...]] = {}
        for row_id, row in targets:
            as_dict = self.schema.row_as_dict(row)
            if predicate is not None and not predicate(as_dict):
                continue
            merged = dict(as_dict)
            merged.update(updater(as_dict))
            changes[row_id] = self.schema.row_from_mapping(merged)
        self._check_unique(changes.values(), vacated=changes)
        # drop every old index entry before adding any new one, so rows that
        # trade keys (k = 3 - k) never meet each other half-way
        for row_id in changes:
            for index in self._indexes.values():
                index.remove(row_id, self._rows[row_id])
        for row_id, new_row in changes.items():
            self._rows[row_id] = new_row
            for index in self._indexes.values():
                index.add(row_id, new_row)
        if changes:
            self._stamp()
        return len(changes)

    def _check_unique(
        self, rows: Collection[tuple[Any, ...]], vacated: Collection[int] = ()
    ) -> None:
        """Raise unless ``rows`` fit every unique index once the row ids in
        ``vacated`` have given up their current entries."""
        for index in self._indexes.values():
            if not index.unique:
                continue
            claimed: set[tuple[Any, ...]] = set()
            for row in rows:
                key = index.key_for_row(row)
                if key in claimed or any(held not in vacated for held in index.lookup(key)):
                    raise ConstraintViolationError(
                        f"unique index {index.name!r} on table {self.name!r} "
                        f"violated by row {row!r}"
                    )
                claimed.add(key)

    # -- querying ---------------------------------------------------------------

    def scan(self) -> Iterator[dict[str, Any]]:
        """Iterate over all rows as dictionaries (snapshot semantics)."""
        for row in self.rows():
            yield self.schema.row_as_dict(row)

    def _rows_by_key(self, key_values: Mapping[str, Any]) -> list[tuple[int, tuple[Any, ...]]]:
        """``(row id, row)`` pairs whose columns equal ``key_values``, in row-id order."""
        positions = tuple(self.schema.column_index(column) for column in key_values)
        key = tuple(key_values.values())
        if any(value is None for value in key):
            return []
        index = self._index_on(positions)
        if index is not None:
            return [(row_id, self._rows[row_id]) for row_id in sorted(index.lookup(key))]
        # Scan a copy: a write from another thread between two rows must not
        # abort this read (the coordinator does not lock out plain DML).
        return [
            (row_id, row)
            for row_id, row in self.rows_with_ids()
            if all(row[position] == value for position, value in zip(positions, key))
        ]

    def lookup_equal(self, column_values: Mapping[str, Any]) -> list[dict[str, Any]]:
        """All rows matching the conjunction of ``column = value`` predicates.

        Equality is SQL ``=`` as the expression evaluator computes it, so the
        result is exactly what a ``WHERE`` filter over the same equalities
        keeps: a NULL probe matches nothing, and the probe value is compared as
        given — not coerced through the column type — so a constant the column
        could never hold matches nothing instead of raising.  An index covering
        exactly the key columns answers the probe with one bucket lookup;
        without one the table is scanned.
        """
        return [self.schema.row_as_dict(row) for _, row in self._rows_by_key(column_values)]

    def contains_row(self, values: Sequence[Any]) -> bool:
        """Whether an exact positional row is present (bag membership >= 1)."""
        target = self.schema.validate_row(values)
        return any(row == target for row in self.rows())

    # -- snapshot / restore (transaction support) --------------------------------

    def snapshot(self) -> dict[int, tuple[Any, ...]]:
        """An immutable copy of the current row-id → row mapping."""
        return dict(self._rows)

    def restore(self, snapshot: dict[int, tuple[Any, ...]]) -> None:
        """Restore a previously captured snapshot, rebuilding indexes."""
        self._rows = dict(snapshot)
        for index in self._indexes.values():
            index.rebuild(self._rows.items())
        self._stamp()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Table({self.name!r}, rows={len(self)})"
