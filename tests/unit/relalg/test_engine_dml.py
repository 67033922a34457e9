"""Unit tests for DDL and DML execution through the query engine."""

from __future__ import annotations

import pytest

from repro.errors import (
    ConstraintViolationError,
    DuplicateTableError,
    EvaluationError,
    PlanError,
)
from repro.relalg.engine import QueryEngine
from repro.storage.database import Database


@pytest.fixture
def engine() -> QueryEngine:
    engine = QueryEngine(Database())
    engine.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT, price REAL)")
    return engine


class TestCreateTable:
    def test_create_and_describe(self, engine):
        schema = engine.database.schema("Flights")
        assert schema.column_names == ("fno", "dest", "price")
        assert schema.primary_key == ("fno",)

    def test_duplicate_create_rejected(self, engine):
        with pytest.raises(DuplicateTableError):
            engine.execute("CREATE TABLE Flights (x INT)")
        engine.execute("CREATE TABLE IF NOT EXISTS Flights (x INT)")

    def test_drop_table(self, engine):
        engine.execute("DROP TABLE Flights")
        assert not engine.database.has_table("Flights")

    def test_not_null_enforced(self, engine):
        engine.execute("CREATE TABLE Strict (a INT NOT NULL)")
        from repro.errors import TypeMismatchError

        with pytest.raises(TypeMismatchError):
            engine.execute("INSERT INTO Strict VALUES (NULL)")


class TestInsert:
    def test_positional_insert(self, engine):
        result = engine.execute("INSERT INTO Flights VALUES (122, 'Paris', 450.0), (123, 'Rome', 300.0)")
        assert result.affected == 2
        assert len(engine.database.table("Flights")) == 2

    def test_column_list_insert_fills_missing_with_null(self, engine):
        engine.execute("INSERT INTO Flights (fno, dest) VALUES (7, 'Athens')")
        assert engine.query("SELECT price FROM Flights WHERE fno = 7").scalar() is None

    def test_insert_evaluates_expressions(self, engine):
        engine.execute("INSERT INTO Flights VALUES (10 + 1, UPPER('paris'), 2 * 100.0)")
        assert engine.query("SELECT dest FROM Flights WHERE fno = 11").scalar() == "PARIS"

    def test_arity_mismatch_rejected(self, engine):
        with pytest.raises(EvaluationError):
            engine.execute("INSERT INTO Flights VALUES (1, 'Paris')")
        with pytest.raises(EvaluationError):
            engine.execute("INSERT INTO Flights (fno, dest) VALUES (1)")

    def test_primary_key_violation(self, engine):
        engine.execute("INSERT INTO Flights VALUES (122, 'Paris', 450.0)")
        with pytest.raises(ConstraintViolationError):
            engine.execute("INSERT INTO Flights VALUES (122, 'Rome', 1.0)")


class TestUpdateDelete:
    @pytest.fixture(autouse=True)
    def _rows(self, engine):
        engine.execute(
            "INSERT INTO Flights VALUES (122, 'Paris', 450.0), (123, 'Paris', 500.0), (136, 'Rome', 300.0)"
        )

    def test_update_with_expression(self, engine):
        result = engine.execute("UPDATE Flights SET price = price + 50 WHERE dest = 'Paris'")
        assert result.affected == 2
        assert engine.query("SELECT price FROM Flights WHERE fno = 122").scalar() == 500.0

    def test_update_without_where_touches_all(self, engine):
        assert engine.execute("UPDATE Flights SET price = 0.0").affected == 3

    def test_delete_with_where(self, engine):
        assert engine.execute("DELETE FROM Flights WHERE dest = 'Rome'").affected == 1
        assert len(engine.query("SELECT fno FROM Flights")) == 2

    def test_delete_all(self, engine):
        assert engine.execute("DELETE FROM Flights").affected == 3
        assert engine.query("SELECT COUNT(*) FROM Flights").scalar() == 0

    def test_keyed_update_probes_instead_of_scanning(self, engine, monkeypatch):
        table = engine.database.table("Flights")
        visited = []
        original = table.schema.row_as_dict
        monkeypatch.setattr(
            type(table.schema), "row_as_dict",
            lambda schema, row: visited.append(row[0]) or original(row),
        )
        result = engine.execute("UPDATE Flights SET price = price - 1 WHERE fno = 123")
        assert result.affected == 1
        assert visited == [123]
        visited.clear()
        assert engine.execute("DELETE FROM Flights WHERE fno = 136 AND price > 1000").affected == 0
        assert visited == [136]  # the residual conjunct ran on the probed row only

    def test_qualified_columns_resolve_in_dml(self, engine):
        result = engine.execute(
            "UPDATE Flights SET price = Flights.price + 1 WHERE Flights.fno = 122 "
            "AND Flights.dest = 'Paris'"
        )
        assert result.affected == 1
        assert engine.query("SELECT price FROM Flights WHERE fno = 122").scalar() == 451.0


class TestStatementAtomicity:
    """A statement that fails on any row leaves the table as it found it."""

    @pytest.fixture
    def keyed(self, engine):
        engine.execute("CREATE TABLE T (k INT PRIMARY KEY, v INT)")
        engine.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
        return engine

    def test_update_hitting_a_unique_violation_changes_nothing(self, keyed):
        with pytest.raises(ConstraintViolationError):
            keyed.execute("UPDATE T SET k = 4 WHERE k >= 2")
        assert keyed.query("SELECT k, v FROM T ORDER BY k").rows == [(1, 10), (2, 20), (3, 30)]

    def test_multi_row_insert_hitting_a_violation_inserts_nothing(self, keyed):
        with pytest.raises(ConstraintViolationError):
            keyed.execute("INSERT INTO T VALUES (4, 40), (2, 99)")
        with pytest.raises(ConstraintViolationError):
            keyed.execute("INSERT INTO T (k, v) VALUES (5, 50), (5, 51)")
        with pytest.raises(EvaluationError):
            keyed.execute("INSERT INTO T VALUES (6, 60), (7, 1 / 0)")
        assert keyed.query("SELECT COUNT(*) FROM T").scalar() == 3

    def test_update_checks_uniqueness_after_the_whole_statement(self, keyed):
        assert keyed.execute("UPDATE T SET k = k + 1").affected == 3
        assert keyed.query("SELECT k, v FROM T ORDER BY k").rows == [(2, 10), (3, 20), (4, 30)]


class TestProbeAgreesWithFilter:
    """An index-directed WHERE keeps exactly the rows the plain filter keeps."""

    @pytest.fixture(params=[False, True], ids=["pk-only", "secondary-index"])
    def table(self, engine, request):
        engine.execute("CREATE TABLE T (k INT PRIMARY KEY, v INT, d TEXT)")
        engine.execute("INSERT INTO T VALUES (1, 10, 'a'), (2, NULL, 'b'), (3, 30, NULL)")
        if request.param:
            engine.database.table("T").create_index("by_v", ["v"])
            engine.database.table("T").create_index("by_d", ["d"])
        return engine

    def test_equality_with_null_matches_nothing(self, table):
        assert table.query("SELECT k FROM T WHERE v = NULL").rows == []
        assert table.query("SELECT k FROM T WHERE v = NULL OR k = 0").rows == []
        assert table.execute("UPDATE T SET d = 'x' WHERE v = NULL").affected == 0
        assert table.execute("DELETE FROM T WHERE d = NULL").affected == 0

    def test_constant_the_column_rejects_matches_nothing(self, table):
        assert table.query("SELECT k FROM T WHERE d = 5").rows == []
        assert table.execute("UPDATE T SET v = 0 WHERE d = 5").affected == 0
        assert table.execute("DELETE FROM T WHERE d = 5").affected == 0
        assert table.query("SELECT COUNT(*) FROM T").scalar() == 3

    def test_numeric_probe_matches_like_the_filter(self, table):
        assert table.query("SELECT k FROM T WHERE v = 30.0").rows == [(3,)]
        assert table.query("SELECT k FROM T WHERE k = TRUE").rows == [(1,)]
        assert table.execute("UPDATE T SET d = 'z' WHERE k = 3.0").affected == 1


class TestRouting:
    def test_entangled_query_rejected_by_plain_engine(self, engine):
        with pytest.raises(PlanError):
            engine.execute(
                "SELECT 'K', fno INTO ANSWER R WHERE fno IN (SELECT fno FROM Flights) CHOOSE 1"
            )
