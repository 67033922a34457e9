"""Property-based tests for the storage engine against a simple Python model."""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.errors import ConstraintViolationError, YoutopiaError
from repro.relalg.engine import QueryEngine
from repro.storage.database import Database
from repro.storage.schema import make_schema
from repro.storage.table import Table

rows = st.tuples(
    st.integers(min_value=0, max_value=50),
    st.sampled_from(["Paris", "Rome", "Athens", "Berlin"]),
    st.one_of(st.none(), st.floats(min_value=0, max_value=1000, allow_nan=False)),
)

operations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), rows),
        st.tuples(st.just("delete_dest"), st.sampled_from(["Paris", "Rome", "Athens", "Berlin"])),
        st.tuples(st.just("update_price"), st.integers(min_value=0, max_value=50)),
    ),
    max_size=40,
)


def fresh_table() -> Table:
    return Table(make_schema("T", [("id", "INT"), ("dest", "TEXT"), ("price", "REAL")]))


@settings(max_examples=120, deadline=None)
@given(operations)
def test_table_matches_list_model(ops):
    """Insert/delete/update on the table behave like the same ops on a plain list."""
    table = fresh_table()
    table.create_index("by_dest", ["dest"])
    model: list[tuple] = []

    for kind, payload in ops:
        if kind == "insert":
            table.insert(payload)
            identifier, dest, price = payload
            model.append((identifier, dest, None if price is None else float(price)))
        elif kind == "delete_dest":
            table.delete_where(lambda row: row["dest"] == payload)
            model = [row for row in model if row[1] != payload]
        else:  # update_price
            table.update_where(
                lambda row: row["id"] == payload, lambda row: {"price": 999.0}
            )
            model = [
                (identifier, dest, 999.0) if identifier == payload else (identifier, dest, price)
                for identifier, dest, price in model
            ]

    from collections import Counter

    assert Counter(map(repr, table.rows())) == Counter(map(repr, model))
    # the index agrees with a full scan for every destination
    for dest in ("Paris", "Rome", "Athens", "Berlin"):
        via_index = sorted(row["id"] for row in table.lookup_equal({"dest": dest}))
        via_scan = sorted(identifier for identifier, d, _ in model if d == dest)
        assert via_index == via_scan


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=40))
def test_primary_key_uniqueness_is_invariant(keys):
    """However inserts interleave, a keyed table never holds duplicate keys."""
    table = Table(make_schema("K", [("id", "INT")], primary_key=("id",)))
    accepted = set()
    for key in keys:
        try:
            table.insert((key,))
            assert key not in accepted
            accepted.add(key)
        except ConstraintViolationError:
            assert key in accepted
    assert {row["id"] for row in table.scan()} == accepted


@settings(max_examples=80, deadline=None)
@given(operations, operations)
def test_snapshot_restore_is_exact(before_ops, after_ops):
    """Restoring a snapshot erases exactly the effects applied after it."""
    table = fresh_table()
    for kind, payload in before_ops:
        if kind == "insert":
            table.insert(payload)
    expected = sorted(table.rows(), key=repr)
    snapshot = table.snapshot()
    for kind, payload in after_ops:
        if kind == "insert":
            table.insert(payload)
        elif kind == "delete_dest":
            table.delete_where(lambda row: row["dest"] == payload)
    table.restore(snapshot)
    assert sorted(table.rows(), key=repr) == expected


# ---------------------------------------------------------------------------
# Keyed access paths agree with the scans they replace
# ---------------------------------------------------------------------------

MIXED_COLUMNS = [("k", "INT", False), ("v", "INT"), ("r", "REAL"), ("d", "TEXT"), ("b", "BOOLEAN")]
SECONDARY_INDEXES = [("v",), ("r",), ("d",), ("b",), ("v", "d"), ("d", "v")]

mixed_rows = st.lists(
    st.tuples(
        st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
        st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1.5, 2.0])),
        st.one_of(st.none(), st.sampled_from(["a", "b", "1"])),
        st.one_of(st.none(), st.booleans()),
    ),
    max_size=12,
)
index_sets = st.lists(st.sampled_from(SECONDARY_INDEXES), unique=True, max_size=3)
column_names = st.sampled_from([name for name, *_ in MIXED_COLUMNS])
# NULL, each column's own type, INT/REAL mixing, and types a column cannot hold
any_value = st.one_of(
    st.none(),
    st.integers(min_value=-1, max_value=3),
    st.sampled_from([0.0, 1.0, 1.5, 2.0]),
    st.sampled_from(["a", "b", "1"]),
    st.booleans(),
)


def mixed_table(rows, indexes, database: Database | None = None) -> Table:
    schema = make_schema("M", MIXED_COLUMNS, primary_key=("k",))
    table = database.create_table(schema) if database is not None else Table(schema)
    for columns in indexes:
        table.create_index("_".join(columns), columns)
    table.insert_many([(k, *row) for k, row in enumerate(rows)])
    return table


def table_state(table: Table):
    """Rows with their ids plus every index's buckets."""
    buckets = {
        name: {key: index.lookup(key) for key in index.keys()}
        for name, index in table.indexes().items()
    }
    return table.rows_with_ids(), buckets


def outcome(operation):
    """What an operation returned, or the type of the error it raised."""
    try:
        return operation()
    except YoutopiaError as exc:
        return type(exc)


def sql_equal(row, key_values) -> bool:
    """The row satisfies ``col = value`` for every pair, NULL equalling nothing."""
    return all(
        row[column] is not None and value is not None and row[column] == value
        for column, value in key_values.items()
    )


def even_key(row) -> bool:
    return row["k"] % 2 == 0


keyed_ops = st.lists(
    st.tuples(
        st.sampled_from(["update", "delete"]),
        st.dictionaries(column_names, any_value, max_size=2),
        st.dictionaries(column_names, any_value, min_size=1, max_size=2),
        st.sampled_from([None, even_key]),
    ),
    max_size=8,
)


@settings(max_examples=150, deadline=None)
@given(mixed_rows, index_sets, keyed_ops)
def test_keyed_writes_match_scanning_writes(rows, indexes, ops):
    """update_by_key / delete_by_key leave the same rows and index contents as
    update_where / delete_where over the same equalities, and a keyed write
    that fails leaves its table untouched."""
    keyed, scanned = mixed_table(rows, indexes), mixed_table(rows, indexes)
    for kind, key_values, assignments, residual in ops:

        def scan_predicate(row):
            return sql_equal(row, key_values) and (residual is None or residual(row))

        before = table_state(keyed)
        if kind == "update":
            got = outcome(lambda: keyed.update_by_key(key_values, assignments, residual))
            want = outcome(lambda: scanned.update_where(scan_predicate, lambda row: assignments))
        else:
            got = outcome(lambda: keyed.delete_by_key(key_values, residual))
            want = outcome(lambda: scanned.delete_where(scan_predicate))
        assert got == want
        if not isinstance(got, int):
            assert table_state(keyed) == before
        assert table_state(keyed) == table_state(scanned)


SQL_LITERALS = ["NULL", "0", "1", "2", "1.0", "1.5", "'a'", "'1'", "TRUE", "FALSE"]
NUMERIC_LITERALS = ["NULL", "0", "1", "1.5", "TRUE"]

equality_atoms = st.one_of(
    st.builds("{} = {}".format, column_names, st.sampled_from(SQL_LITERALS)),
    st.builds("{1} = {0}".format, column_names, st.sampled_from(SQL_LITERALS)),
)
# comparisons that never raise, so both sides may evaluate them on any row
other_atoms = st.one_of(
    st.builds("{} != {}".format, column_names, st.sampled_from(SQL_LITERALS)),
    st.builds("{} < {}".format, st.sampled_from(["k", "v", "r"]), st.sampled_from(NUMERIC_LITERALS)),
    st.builds("{} IS NULL".format, column_names),
)
atoms = st.one_of(equality_atoms, equality_atoms, other_atoms)
conjuncts = st.one_of(
    atoms,
    st.builds("({} OR {})".format, atoms, atoms),
    # two equalities on one column: one probes, the other stays residual
    st.builds(
        "{0} = {1} AND {0} = {2}".format,
        column_names,
        st.sampled_from(SQL_LITERALS),
        st.sampled_from(SQL_LITERALS),
    ),
)
predicates = st.lists(conjuncts, min_size=1, max_size=3).map(" AND ".join)
assignments = st.sampled_from(
    ["v = v + 1", "d = 'z'", "k = k + 10", "k = 1", "r = v", "b = NOT b", "v = 'x'"]
)


def mixed_engine(rows, indexes) -> QueryEngine:
    database = Database()
    mixed_table(rows, indexes, database)
    return QueryEngine(database)


@settings(max_examples=200, deadline=None)
@given(mixed_rows, index_sets, predicates, assignments)
def test_indexed_and_scanning_sql_agree(rows, indexes, where, assignment):
    """SELECT / UPDATE / DELETE ... WHERE give the same rows and the same
    final table whether constant equalities probe an index or every row is
    filtered.  ``(p) OR FALSE`` keeps ``p``'s truth value but has no top-level
    equality conjunct, so it always takes the filtering path."""
    indexed, scanning = mixed_engine(rows, indexes), mixed_engine(rows, indexes)
    scan_where = f"({where}) OR FALSE"
    assert "IndexLookup" not in scanning.explain(f"SELECT k FROM M WHERE {scan_where}")

    selected = indexed.query(f"SELECT k FROM M WHERE {where}").rows
    assert sorted(selected) == sorted(scanning.query(f"SELECT k FROM M WHERE {scan_where}").rows)
    for statement in (f"UPDATE M SET {assignment} WHERE {{}}", "DELETE FROM M WHERE {}"):
        got = outcome(lambda: indexed.execute(statement.format(where)).affected)
        want = outcome(lambda: scanning.execute(statement.format(scan_where)).affected)
        assert got == want
        assert table_state(indexed.database.table("M")) == table_state(
            scanning.database.table("M")
        )
