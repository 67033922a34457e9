"""Unit tests for the database catalog (DDL, DML wrappers, listeners, snapshots)."""

from __future__ import annotations

import pytest

from repro.errors import DuplicateTableError, StorageError, UnknownTableError
from repro.storage.database import Database
from repro.storage.schema import make_schema


@pytest.fixture
def catalog() -> Database:
    database = Database("test")
    database.create_table(name="Flights", columns=[("fno", "INT"), ("dest", "TEXT")],
                          primary_key=("fno",))
    database.insert_many("Flights", [(122, "Paris"), (123, "Paris"), (136, "Rome")])
    return database


class TestDDL:
    def test_create_and_lookup_case_insensitive(self, catalog: Database):
        assert catalog.has_table("flights")
        assert catalog.table("FLIGHTS").name == "Flights"
        assert catalog.schema("flights").primary_key == ("fno",)

    def test_duplicate_create_rejected_unless_if_not_exists(self, catalog: Database):
        with pytest.raises(DuplicateTableError):
            catalog.create_table(name="Flights", columns=[("x", "INT")])
        table = catalog.create_table(
            name="Flights", columns=[("x", "INT")], if_not_exists=True
        )
        assert table.schema.column_names == ("fno", "dest")

    def test_create_from_schema_object(self):
        database = Database()
        schema = make_schema("T", [("a", "INT")])
        database.create_table(schema)
        assert database.table_names() == ["T"]

    def test_create_requires_schema_or_columns(self):
        with pytest.raises(ValueError):
            Database().create_table(name="incomplete")

    def test_drop_table(self, catalog: Database):
        catalog.drop_table("Flights")
        assert not catalog.has_table("Flights")
        with pytest.raises(UnknownTableError):
            catalog.drop_table("Flights")
        catalog.drop_table("Flights", if_exists=True)

    def test_unknown_table_error(self, catalog: Database):
        with pytest.raises(UnknownTableError):
            catalog.table("Hotels")


class TestDML:
    def test_insert_and_statistics(self, catalog: Database):
        catalog.insert("Flights", (140, "Athens"))
        assert catalog.statistics() == {"Flights": 4}

    def test_update_where(self, catalog: Database):
        touched = catalog.update_where(
            "Flights", lambda row: row["dest"] == "Rome", lambda row: {"dest": "Milan"}
        )
        assert touched == 1
        assert catalog.table("Flights").lookup_equal({"dest": "Milan"})

    def test_delete_where_and_truncate(self, catalog: Database):
        assert catalog.delete_where("Flights", lambda row: row["dest"] == "Paris") == 2
        catalog.truncate("Flights")
        assert len(catalog.table("Flights")) == 0


class TestListeners:
    def test_listener_receives_change_kinds(self, catalog: Database):
        seen: list[tuple[str, str]] = []
        catalog.add_listener(lambda table, kind: seen.append((table, kind)))
        catalog.insert("Flights", (150, "Berlin"))
        catalog.update_where("Flights", lambda row: row["fno"] == 150, lambda row: {"dest": "Bern"})
        catalog.delete_where("Flights", lambda row: row["fno"] == 150)
        catalog.create_table(name="Hotels", columns=[("hid", "INT")])
        catalog.drop_table("Hotels")
        kinds = [kind for _table, kind in seen]
        assert kinds == ["insert", "update", "delete", "create", "drop"]

    def test_listener_not_called_for_noop_dml(self, catalog: Database):
        seen: list[str] = []
        catalog.add_listener(lambda table, kind: seen.append(kind))
        catalog.delete_where("Flights", lambda row: False)
        catalog.update_where("Flights", lambda row: False, lambda row: {})
        assert seen == []

    def test_keyed_writes_notify_only_when_rows_changed(self, catalog: Database):
        seen: list[str] = []
        catalog.add_listener(lambda table, kind: seen.append(kind))
        assert catalog.update_by_key("Flights", {"fno": 999}, {"dest": "Bern"}) == 0
        assert catalog.delete_by_key("Flights", {"fno": 999}) == 0
        assert seen == []
        assert catalog.update_by_key("Flights", {"fno": 122}, {"dest": "Bern"}) == 1
        assert catalog.delete_by_key("Flights", {"fno": 122}) == 1
        assert seen == ["update", "delete"]

    def test_remove_listener(self, catalog: Database):
        seen: list[str] = []
        listener = lambda table, kind: seen.append(kind)  # noqa: E731
        catalog.add_listener(listener)
        catalog.remove_listener(listener)
        catalog.insert("Flights", (151, "Oslo"))
        assert seen == []


class TestSnapshots:
    def test_snapshot_restore_round_trip(self, catalog: Database):
        snapshot = catalog.snapshot()
        catalog.insert("Flights", (160, "Madrid"))
        catalog.delete_where("Flights", lambda row: row["fno"] == 122)
        catalog.restore(snapshot)
        fnos = {row["fno"] for row in catalog.table("Flights").scan()}
        assert fnos == {122, 123, 136}

    def test_restore_truncates_tables_created_after_snapshot(self, catalog: Database):
        snapshot = catalog.snapshot()
        catalog.create_table(name="Hotels", columns=[("hid", "INT")])
        catalog.insert("Hotels", (1,))
        catalog.restore(snapshot)
        # the table still exists (DDL is not transactional) but is empty
        assert catalog.has_table("Hotels")
        assert len(catalog.table("Hotels")) == 0


class TestViews:
    @pytest.fixture
    def live(self, catalog: Database) -> list[tuple]:
        rows = [("q1", "pending")]
        catalog.create_view(
            make_schema("Live", [("id", "TEXT"), ("status", "TEXT")], ("id",)), lambda: rows
        )
        return rows

    def test_reads_see_the_rows_of_the_moment(self, catalog: Database, live):
        assert catalog.has_table("live") and "Live" in catalog.table_names()
        assert catalog.schema("LIVE").column_names == ("id", "status")
        live.append(("q2", "answered"))
        assert catalog.table("Live").rows() == [("q1", "pending"), ("q2", "answered")]
        assert catalog.table("Live").find_index(["id"]) is not None
        assert catalog.statistics() == {"Flights": 3, "Live": 2}

    def test_writes_and_ddl_are_refused(self, catalog: Database, live):
        for write in (
            lambda: catalog.insert("Live", ("q9", "pending")),
            lambda: catalog.insert_many("Live", [("q9", "pending")]),
            lambda: catalog.update_by_key("Live", {"id": "q1"}, {"status": "x"}),
            lambda: catalog.update_where("Live", lambda row: True, lambda row: {}),
            lambda: catalog.delete_by_key("Live", {"id": "q1"}),
            lambda: catalog.delete_where("Live", lambda row: True),
            lambda: catalog.truncate("Live"),
            lambda: catalog.drop_table("Live"),
            lambda: catalog.create_table(name="Live", columns=[("x", "INT")],
                                         if_not_exists=True),
        ):
            with pytest.raises(StorageError, match="read-only view"):
                write()
        assert catalog.table("Live").rows() == [("q1", "pending")]

    def test_snapshots_leave_views_alone(self, catalog: Database, live):
        assert [table.name for table in catalog.tables()] == ["Flights"]
        snapshot = catalog.snapshot()
        assert set(snapshot) == {"flights"}
        live.append(("q2", "answered"))
        catalog.restore(snapshot)
        assert len(catalog.table("Live")) == 2

    def test_a_view_cannot_shadow_a_table(self, catalog: Database):
        with pytest.raises(DuplicateTableError):
            catalog.create_view(make_schema("flights", [("x", "INT")]), list)


class TestWriteStamps:
    """Every completed change draws a fresh stamp from the catalog's clock."""

    def stamp(self, catalog: Database) -> int:
        (stamp,) = catalog.stamps(["flights"])
        return stamp

    @pytest.mark.parametrize(
        "change",
        [
            lambda db: db.insert("Flights", (160, "Madrid")),
            lambda db: db.update_by_key("Flights", {"fno": 122}, {"dest": "Oslo"}),
            lambda db: db.update_where("Flights", lambda r: r["dest"] == "Rome", lambda r: {}),
            lambda db: db.delete_by_key("Flights", {"fno": 122}),
            lambda db: db.delete_where("Flights", lambda r: r["dest"] == "Rome"),
            lambda db: db.truncate("Flights"),
            lambda db: db.table("Flights").restore(db.table("Flights").snapshot()),
            lambda db: db.table("Flights").create_index("by_dest", ["dest"]),
        ],
        ids=["insert", "update-key", "update-where", "delete-key", "delete-where",
             "truncate", "restore", "create-index"],
    )
    def test_a_change_takes_a_new_stamp(self, catalog: Database, change):
        before = self.stamp(catalog)
        change(catalog)
        assert self.stamp(catalog) > before

    def test_no_change_keeps_the_stamp(self, catalog: Database):
        before = self.stamp(catalog)
        assert catalog.update_by_key("Flights", {"fno": 999}, {"dest": "Oslo"}) == 0
        assert catalog.delete_where("Flights", lambda row: False) == 0
        assert catalog.insert_many("Flights", []) == []
        catalog.restore(catalog.snapshot())  # a rollback of nothing rewrites nothing
        with pytest.raises(StorageError):  # a duplicate key changes nothing
            catalog.insert_many("Flights", [(200, "Oslo"), (122, "Paris")])
        assert self.stamp(catalog) == before

    def test_a_recreated_table_never_reuses_a_stamp(self, catalog: Database):
        seen = {self.stamp(catalog)}
        for _ in range(3):
            catalog.drop_table("Flights")
            catalog.create_table(name="Flights", columns=[("fno", "INT")])
            catalog.insert("Flights", (1,))
            assert self.stamp(catalog) not in seen
            seen.add(self.stamp(catalog))

    def test_views_and_unknown_tables_have_no_stamp(self, catalog: Database):
        catalog.create_view(make_schema("Live", [("id", "TEXT")]), lambda: [("q1",)])
        assert catalog.stamps(["live"]) is None
        assert catalog.stamps(["flights", "nowhere"]) is None
        assert catalog.stamps([]) == ()
        assert catalog.table("Live").stamp is None
