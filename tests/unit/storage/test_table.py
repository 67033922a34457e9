"""Unit tests for the in-memory table (insert/update/delete, indexes, snapshots)."""

from __future__ import annotations

import pytest

from repro.errors import ConstraintViolationError, StorageError, TypeMismatchError
from repro.storage.schema import make_schema
from repro.storage.table import Table


@pytest.fixture
def flights() -> Table:
    table = Table(make_schema(
        "Flights",
        [("fno", "INT", False), ("dest", "TEXT"), ("price", "REAL")],
        primary_key=("fno",),
    ))
    table.insert((122, "Paris", 450.0))
    table.insert((123, "Paris", 500.0))
    table.insert((136, "Rome", 300.0))
    return table


class TestInsert:
    def test_insert_validates_types(self, flights: Table):
        with pytest.raises(TypeMismatchError):
            flights.insert(("oops", "Paris", 1.0))

    def test_insert_enforces_primary_key(self, flights: Table):
        with pytest.raises(ConstraintViolationError):
            flights.insert((122, "Athens", 100.0))
        # the failed insert must not leave a partial row behind
        assert len(flights) == 3

    def test_insert_mapping_and_many(self):
        table = Table(make_schema("t", [("a", "INT"), ("b", "TEXT")]))
        table.insert_mapping({"b": "x", "a": 1})
        table.insert_many([(2, "y"), (3, "z")])
        assert sorted(row["a"] for row in table.scan()) == [1, 2, 3]

    def test_duplicate_rows_allowed_without_primary_key(self):
        table = Table(make_schema("t", [("a", "INT")]))
        table.insert((1,))
        table.insert((1,))
        assert len(table) == 2


class TestDeleteUpdate:
    def test_delete_where(self, flights: Table):
        deleted = flights.delete_where(lambda row: row["dest"] == "Paris")
        assert deleted == 2
        assert [row["dest"] for row in flights.scan()] == ["Rome"]

    def test_update_where_partial_assignment(self, flights: Table):
        updated = flights.update_where(
            lambda row: row["fno"] == 123, lambda row: {"price": row["price"] + 50}
        )
        assert updated == 1
        assert flights.lookup_equal({"fno": 123})[0]["price"] == 550.0

    def test_update_violating_unique_index_rolls_back_row(self, flights: Table):
        with pytest.raises(ConstraintViolationError):
            flights.update_where(lambda row: row["fno"] == 123, lambda row: {"fno": 122})
        # table unchanged: both original keys still present exactly once
        assert len(flights.lookup_equal({"fno": 122})) == 1
        assert len(flights.lookup_equal({"fno": 123})) == 1

    def test_update_by_key_touches_only_the_keyed_row(self, flights: Table, monkeypatch):
        visited = []
        original = flights.schema.row_as_dict
        monkeypatch.setattr(
            type(flights.schema), "row_as_dict",
            lambda schema, row: visited.append(row) or original(row),
        )
        assert flights.update_by_key({"fno": 123}, {"price": 1.0}) == 1
        assert visited == [(123, "Paris", 500.0)]
        assert flights.lookup_equal({"fno": 123})[0]["price"] == 1.0

    def test_update_by_key_missing_row_is_zero(self, flights: Table):
        before = flights.rows_with_ids()
        assert flights.update_by_key({"fno": 999}, {"price": 1.0}) == 0
        assert flights.rows_with_ids() == before

    def test_update_by_key_callable_assignments_and_residual(self, flights: Table):
        flights.create_index("by_dest", ["dest"])
        updated = flights.update_by_key(
            {"dest": "Paris"},
            lambda row: {"price": row["price"] * 2},
            lambda row: row["price"] > 460,
        )
        assert updated == 1
        assert sorted(row["price"] for row in flights.lookup_equal({"dest": "Paris"})) == [
            450.0, 1000.0,
        ]

    def test_keyed_writes_without_covering_index_scan(self, flights: Table):
        assert flights.find_index(["dest"]) is None
        assert flights.update_by_key({"dest": "Paris"}, {"price": 0.0}) == 2
        assert flights.delete_by_key({"dest": "Paris", "price": 0.0}) == 2
        assert [row["fno"] for row in flights.scan()] == [136]

    def test_delete_by_key(self, flights: Table):
        assert flights.delete_by_key({"fno": 122}) == 1
        assert flights.delete_by_key({"fno": 122}) == 0
        assert flights.delete_by_key({"fno": 123}, lambda row: row["price"] > 999) == 0
        assert {row["fno"] for row in flights.scan()} == {123, 136}

    def test_truncate(self, flights: Table):
        flights.truncate()
        assert len(flights) == 0
        assert flights.lookup_equal({"fno": 122}) == []


def table_state(table: Table):
    """Rows with their ids plus every index's buckets: what must not move."""
    buckets = {
        name: {key: index.lookup(key) for key in index.keys()}
        for name, index in table.indexes().items()
    }
    return table.rows_with_ids(), buckets


class TestStatementAtomicity:
    """A write that fails on any row leaves the table exactly as it was."""

    @pytest.fixture
    def keyed(self) -> Table:
        table = Table(make_schema("T", [("k", "INT"), ("v", "INT")], primary_key=("k",)))
        table.create_index("by_v", ["v"])
        table.insert_many([(1, 10), (2, 20), (3, 30)])
        return table

    def test_multi_row_update_violation_changes_nothing(self, keyed: Table):
        before = table_state(keyed)
        with pytest.raises(ConstraintViolationError):
            keyed.update_where(lambda row: row["k"] >= 2, lambda row: {"k": 4})
        assert table_state(keyed) == before

    def test_keyed_update_violation_changes_nothing(self, keyed: Table):
        before = table_state(keyed)
        with pytest.raises(ConstraintViolationError):
            keyed.update_by_key({"v": 30}, {"k": 1})
        assert table_state(keyed) == before

    def test_failure_computing_a_later_row_changes_nothing(self, keyed: Table):
        before = table_state(keyed)
        with pytest.raises(TypeMismatchError):
            keyed.update_where(
                lambda row: True, lambda row: {"v": "bad" if row["k"] == 3 else 0}
            )
        assert table_state(keyed) == before

    def test_insert_many_violation_inserts_nothing(self, keyed: Table):
        before = table_state(keyed)
        with pytest.raises(ConstraintViolationError):
            keyed.insert_many([(4, 40), (5, 50), (2, 99)])
        with pytest.raises(ConstraintViolationError):
            keyed.insert_many([(6, 60), (6, 61)])  # clash within the batch
        with pytest.raises(TypeMismatchError):
            keyed.insert_many([(7, 70), ("x", 1)])
        assert table_state(keyed) == before

    def test_uniqueness_is_checked_against_the_final_state(self, keyed: Table):
        # rows trading keys pass; row by row they would collide half-way
        assert keyed.update_where(lambda row: True, lambda row: {"k": 4 - row["k"]}) == 3
        assert sorted(keyed.rows()) == [(1, 30), (2, 20), (3, 10)]
        assert keyed.update_where(lambda row: True, lambda row: {"k": row["k"] + 1}) == 3
        assert sorted(keyed.rows()) == [(2, 30), (3, 20), (4, 10)]
        assert [row["v"] for row in keyed.lookup_equal({"k": 4})] == [10]


class TestProbeSemantics:
    """``lookup_equal`` keeps exactly the rows a ``col = value`` filter keeps."""

    @pytest.fixture(params=[False, True], ids=["scan", "indexed"])
    def table(self, request) -> Table:
        table = Table(make_schema("T", [("k", "INT"), ("v", "INT"), ("d", "TEXT")]))
        table.insert_many([(1, 10, "a"), (2, None, "b"), (3, 30, None)])
        if request.param:
            table.create_index("by_v", ["v"])
            table.create_index("by_d", ["d"])
        return table

    def test_null_probe_matches_nothing(self, table: Table):
        assert table.lookup_equal({"v": None}) == []
        assert table.update_by_key({"d": None}, {"v": 0}) == 0
        assert table.delete_by_key({"v": None}) == 0

    def test_probe_the_column_type_rejects_matches_nothing(self, table: Table):
        assert table.lookup_equal({"d": 5}) == []
        assert table.lookup_equal({"v": "10"}) == []
        assert table.delete_by_key({"v": 10.5}) == 0

    def test_probe_compares_numbers_like_the_filter(self, table: Table):
        assert [row["k"] for row in table.lookup_equal({"v": 10.0})] == [1]


class TestIndexes:
    def test_create_index_and_lookup(self, flights: Table):
        flights.create_index("by_dest", ["dest"])
        rows = flights.lookup_equal({"dest": "Paris"})
        assert {row["fno"] for row in rows} == {122, 123}

    def test_lookup_without_index_falls_back_to_scan(self, flights: Table):
        rows = flights.lookup_equal({"dest": "Rome", "price": 300.0})
        assert [row["fno"] for row in rows] == [136]

    def test_scan_survives_a_write_between_two_rows(self, flights: Table):
        """Plain DML on another thread may land in the middle of a grounding
        scan; the scan reads the rows as they were when it started."""

        class WriteOnCompare:
            def __eq__(self, other: object) -> bool:
                if len(flights) == 3:
                    flights.insert((140, "Oslo", 90.0))
                return False

        assert flights.lookup_equal({"dest": WriteOnCompare()}) == []
        assert len(flights) == 4

    def test_index_maintained_across_mutations(self, flights: Table):
        flights.create_index("by_dest", ["dest"])
        flights.insert((140, "Paris", 620.0))
        flights.delete_where(lambda row: row["fno"] == 122)
        assert {row["fno"] for row in flights.lookup_equal({"dest": "Paris"})} == {123, 140}

    def test_duplicate_index_name_rejected(self, flights: Table):
        flights.create_index("by_dest", ["dest"])
        with pytest.raises(StorageError):
            flights.create_index("by_dest", ["price"])

    def test_drop_index(self, flights: Table):
        flights.create_index("by_dest", ["dest"])
        flights.drop_index("by_dest")
        with pytest.raises(StorageError):
            flights.drop_index("by_dest")

    def test_find_index_matches_exact_column_order(self, flights: Table):
        index = flights.find_index(["fno"])
        assert index is not None and index.unique
        assert flights.find_index(["dest"]) is None


class TestSnapshots:
    def test_snapshot_restore_round_trip(self, flights: Table):
        snapshot = flights.snapshot()
        flights.insert((150, "Athens", 222.0))
        flights.delete_where(lambda row: row["fno"] == 122)
        flights.restore(snapshot)
        assert {row["fno"] for row in flights.scan()} == {122, 123, 136}

    def test_restore_rebuilds_unique_index(self, flights: Table):
        snapshot = flights.snapshot()
        flights.delete_where(lambda row: row["fno"] == 122)
        flights.restore(snapshot)
        # primary key still enforced after restore
        with pytest.raises(ConstraintViolationError):
            flights.insert((122, "Athens", 1.0))

    def test_contains_row(self, flights: Table):
        assert flights.contains_row((122, "Paris", 450.0))
        assert not flights.contains_row((122, "Paris", 451.0))
