"""The database catalog: a named collection of in-memory tables.

This is the "regular database tables" box of the Youtopia architecture
(Figure 2 of the demo paper).  The catalog supports DDL (create / drop),
lookups used by the relational engine, whole-database snapshots used by the
transaction layer, and change notification hooks used by the coordination
component to re-try pending entangled queries when base data changes.

A *view* is a read-only table whose rows a function computes at read time:
the coordinator serves its internal ``_pending_queries`` table this way, so
the table is never a second copy of state kept elsewhere.  Reads see a view
like any table; writes, DDL and snapshots leave it alone.

Every stored table draws its write stamp (see :mod:`repro.storage.table`)
from one database-wide monotonic counter, so a table dropped and created
again can never reuse a stamp its predecessor carried.  Views have none.
"""

from __future__ import annotations

import itertools
import threading
from typing import Any, Callable, Iterable, Iterator, Mapping, Optional, Sequence

from repro.errors import DuplicateTableError, StorageError, UnknownTableError
from repro.storage.schema import Column, ColumnType, TableSchema, make_schema
from repro.storage.table import Table

#: What :meth:`Database.snapshot` captures: each table's write stamp and rows.
Snapshot = dict[str, tuple[Optional[int], dict[int, tuple[Any, ...]]]]

# A change listener receives (table_name, kind) where kind is one of
# "insert", "delete", "update", "truncate", "create", "drop".
ChangeListener = Callable[[str, str], None]


class Database:
    """A thread-safe catalog of named :class:`Table` objects."""

    def __init__(self, name: str = "youtopia") -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        # lowercase name -> (schema, row function) of each read-only view
        self._views: dict[str, tuple[TableSchema, Callable[[], Iterable[Sequence[Any]]]]] = {}
        self._lock = threading.RLock()
        self._listeners: list[ChangeListener] = []
        self._clock = itertools.count(1).__next__

    # -- DDL --------------------------------------------------------------------

    def create_table(
        self,
        schema: TableSchema | None = None,
        *,
        name: str | None = None,
        columns: Iterable[tuple[str, str] | tuple[str, str, bool] | Column] | None = None,
        primary_key: Sequence[str] = (),
        if_not_exists: bool = False,
    ) -> Table:
        """Create a table from a schema or from ``name`` + ``columns`` specs."""
        if schema is None:
            if name is None or columns is None:
                raise ValueError("either a schema or name+columns must be provided")
            schema = make_schema(name, columns, primary_key)
        key = schema.name.lower()
        self._refuse_view(schema.name)
        with self._lock:
            if key in self._tables:
                if if_not_exists:
                    return self._tables[key]
                raise DuplicateTableError(schema.name)
            table = Table(schema, self._clock)
            self._tables[key] = table
        self._notify(schema.name, "create")
        return table

    def create_view(
        self, schema: TableSchema, rows: Callable[[], Iterable[Sequence[Any]]]
    ) -> None:
        """Register a read-only table whose rows ``rows()`` computes per read.

        Registering a view under the name of an existing view rebinds it.
        """
        with self._lock:
            if schema.name.lower() in self._tables:
                raise DuplicateTableError(schema.name)
            self._views[schema.name.lower()] = (schema, rows)

    def _refuse_view(self, name: str) -> None:
        if name.lower() in self._views:
            raise StorageError(f"{name!r} is a read-only view")

    def drop_table(self, name: str, if_exists: bool = False) -> None:
        key = name.lower()
        self._refuse_view(name)
        with self._lock:
            if key not in self._tables:
                if if_exists:
                    return
                raise UnknownTableError(name)
            del self._tables[key]
        self._notify(name, "drop")

    # -- lookups ------------------------------------------------------------------

    def table(self, name: str) -> Table:
        """The named table; a view is built afresh from its current rows."""
        key = name.lower()
        if key in self._views:
            schema, rows = self._views[key]
            view = Table(schema)
            view.insert_many(rows())
            return view
        try:
            return self._tables[key]
        except KeyError:
            raise UnknownTableError(name) from None

    def stamps(self, names: Sequence[str]) -> Optional[tuple[int, ...]]:
        """The write stamp of each stored table in ``names`` (lowercase).

        ``None`` when any name is a view or no table at all: such a read has
        no version to compare against.
        """
        tables = self._tables
        stamps = []
        for name in names:
            table = tables.get(name)
            if table is None:
                return None
            stamps.append(table.stamp)
        return tuple(stamps)

    def has_table(self, name: str) -> bool:
        return name.lower() in self._tables or name.lower() in self._views

    def table_names(self) -> list[str]:
        with self._lock:
            names = [table.name for table in self._tables.values()]
            return sorted(names + [schema.name for schema, _ in self._views.values()])

    def tables(self) -> Iterator[Table]:
        """The stored tables (views excluded: they hold no state of their own)."""
        with self._lock:
            return iter(list(self._tables.values()))

    def schema(self, name: str) -> TableSchema:
        view = self._views.get(name.lower())
        return view[0] if view is not None else self.table(name).schema

    # -- DML convenience wrappers ---------------------------------------------------

    def _writable(self, table_name: str) -> Table:
        self._refuse_view(table_name)
        return self.table(table_name)

    def insert(self, table_name: str, values: Sequence[Any]) -> int:
        row_id = self._writable(table_name).insert(values)
        self._notify(table_name, "insert")
        return row_id

    def insert_many(self, table_name: str, rows: Iterable[Sequence[Any]]) -> list[int]:
        ids = self._writable(table_name).insert_many(rows)
        if ids:
            self._notify(table_name, "insert")
        return ids

    def delete_where(
        self, table_name: str, predicate: Callable[[dict[str, Any]], bool]
    ) -> int:
        count = self._writable(table_name).delete_where(predicate)
        if count:
            self._notify(table_name, "delete")
        return count

    def update_where(
        self,
        table_name: str,
        predicate: Callable[[dict[str, Any]], bool],
        updater: Callable[[dict[str, Any]], dict[str, Any]],
    ) -> int:
        count = self._writable(table_name).update_where(predicate, updater)
        if count:
            self._notify(table_name, "update")
        return count

    def delete_by_key(
        self,
        table_name: str,
        key_values: Mapping[str, Any],
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> int:
        """:meth:`Table.delete_by_key`, notifying listeners when rows went."""
        count = self._writable(table_name).delete_by_key(key_values, predicate)
        if count:
            self._notify(table_name, "delete")
        return count

    def update_by_key(
        self,
        table_name: str,
        key_values: Mapping[str, Any],
        assignments: Mapping[str, Any] | Callable[[dict[str, Any]], Mapping[str, Any]],
        predicate: Optional[Callable[[dict[str, Any]], bool]] = None,
    ) -> int:
        """:meth:`Table.update_by_key`, notifying listeners when rows changed."""
        count = self._writable(table_name).update_by_key(key_values, assignments, predicate)
        if count:
            self._notify(table_name, "update")
        return count

    def truncate(self, table_name: str) -> None:
        self._writable(table_name).truncate()
        self._notify(table_name, "truncate")

    # -- change notification ----------------------------------------------------------

    def add_listener(self, listener: ChangeListener) -> None:
        """Register a callback invoked after every successful change."""
        self._listeners.append(listener)

    def remove_listener(self, listener: ChangeListener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _notify(self, table_name: str, kind: str) -> None:
        for listener in list(self._listeners):
            listener(table_name, kind)

    # -- snapshots (transaction support) -------------------------------------------------

    def snapshot(self) -> Snapshot:
        """Capture every table's rows and write stamp, keyed by lowercase name."""
        with self._lock:
            return {key: (table.stamp, table.snapshot()) for key, table in self._tables.items()}

    def restore(self, snapshot: Snapshot) -> None:
        """Restore table contents from a prior :meth:`snapshot`.

        A table whose stamp has not moved since the snapshot still holds its
        rows and is left alone, so its stamp (and every domain result cached
        under it) stays valid.  Tables created after the snapshot keep their
        schema but are truncated; tables dropped after the snapshot are *not*
        resurrected (DDL is outside the transactional scope of this
        reproduction).
        """
        with self._lock:
            for key, table in self._tables.items():
                if key not in snapshot:
                    table.truncate()
                    continue
                stamp, rows = snapshot[key]
                if table.stamp != stamp:
                    table.restore(rows)

    # -- statistics ------------------------------------------------------------------------

    def statistics(self) -> dict[str, int]:
        """Row counts per table and view, for the administrative interface."""
        with self._lock:
            counts = {table.name: len(table) for table in self._tables.values()}
            views = [schema.name for schema, _ in self._views.values()]
        return counts | {name: len(self.table(name)) for name in views}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Database({self.name!r}, tables={self.table_names()})"


__all__ = ["Database", "ChangeListener", "Column", "ColumnType", "TableSchema", "make_schema"]
