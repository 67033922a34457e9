"""Relational storage substrate for the Youtopia reproduction.

Public surface:

* :class:`~repro.storage.schema.Column`, :class:`~repro.storage.schema.ColumnType`,
  :class:`~repro.storage.schema.TableSchema`, :func:`~repro.storage.schema.make_schema`
* :class:`~repro.storage.table.Table` and :class:`~repro.storage.indexes.HashIndex`
* :class:`~repro.storage.database.Database` — the catalog used by the rest of the
  system: stored tables plus read-only views computed at read time
* :func:`~repro.storage.csvio.import_table` / :func:`~repro.storage.csvio.export_table`
"""

from repro.storage.csvio import export_table, import_table
from repro.storage.database import Database
from repro.storage.indexes import HashIndex
from repro.storage.schema import Column, ColumnType, TableSchema, make_schema
from repro.storage.table import Table

__all__ = [
    "Column",
    "ColumnType",
    "Database",
    "HashIndex",
    "Table",
    "TableSchema",
    "export_table",
    "import_table",
    "make_schema",
]
