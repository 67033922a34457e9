"""WAL + snapshot recovery edge cases (the durability subsystem).

Covers the corners a crash can leave behind: a torn tail record from a crash
mid-append, double replay of the same log, a snapshot cut between a group's
registration and its commit record, a commit record lost to the crash (the
group must simply re-match), and recovery of cancelled query ids (the fresh
process's id counter must not collide with them).
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.config import SystemConfig
from repro.core.coordinator import QueryStatus
from repro.core.durability import (
    DurabilityManager,
    WriteAheadLog,
    load_snapshot,
    read_wal,
)
from repro.core.system import YoutopiaSystem
from repro.errors import StorageError
from repro.service.remote import codec


def booking_sql(traveler: str, companion: str, dest: str = "Paris") -> str:
    return (
        f"SELECT '{traveler}', fno INTO ANSWER Reservation "
        f"WHERE fno IN (SELECT fno FROM Flights WHERE dest = '{dest}') "
        f"AND ('{companion}', fno) IN ANSWER Reservation CHOOSE 1"
    )


def build_system(data_dir, **overrides) -> YoutopiaSystem:
    defaults = dict(seed=0, data_dir=data_dir, fsync_policy="always", snapshot_interval=0)
    defaults.update(overrides)
    system = YoutopiaSystem(config=SystemConfig(**defaults))
    return system


def crash(system: YoutopiaSystem) -> None:
    """Simulate kill -9 in-process: release the WAL handle and data-dir lock
    *without* the clean-shutdown checkpoint (``DurabilityManager.close`` never
    checkpoints; only ``system.close`` does)."""
    system.coordinator.journal = None
    system.coordinator.shutdown()
    system.durability.close()


def load_base_data(system: YoutopiaSystem) -> None:
    system.execute("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
    system.execute(
        "INSERT INTO Flights VALUES (122, 'Paris'), (123, 'Paris'), (136, 'Rome')"
    )
    system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])


# ---------------------------------------------------------------------------
# The log itself
# ---------------------------------------------------------------------------


class TestWriteAheadLog:
    def test_appends_round_trip(self, tmp_path):
        wal = WriteAheadLog(tmp_path / "wal.log", fsync_policy="batch")
        wal.append("submit", {"query_id": "q1"})
        wal.append("cancel", {"query_id": "q1"})
        wal.close()
        records, valid = read_wal(tmp_path / "wal.log")
        assert [(r["lsn"], r["type"]) for r in records] == [(1, "submit"), (2, "cancel")]
        assert valid == (tmp_path / "wal.log").stat().st_size

    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(StorageError):
            WriteAheadLog(tmp_path / "wal.log", fsync_policy="sometimes")

    def test_always_fsyncs_every_record_and_batch_once_per_scope(self, tmp_path):
        always = WriteAheadLog(tmp_path / "a.log", fsync_policy="always")
        for index in range(5):
            always.append("data", {"sql": str(index)})
        assert always.fsync_count == 5
        always.close()

        batch = WriteAheadLog(tmp_path / "b.log", fsync_policy="batch")
        with batch.group_commit():
            for index in range(5):
                batch.append("data", {"sql": str(index)})
        # the whole scope costs one fsync (group commit)
        assert batch.fsync_count == 1
        assert batch.group_commits == 1
        batch.close()

        # the same through the system: every submit_many batch of parked
        # queries is one group commit and at most two fsyncs
        system = build_system(tmp_path / "system", fsync_policy="batch")
        load_base_data(system)
        before = system.durability_stats()
        for batch_index in range(3):
            system.submit_many(
                [booking_sql(f"u{batch_index}-{i}", f"ghost{batch_index}-{i}") for i in range(4)]
            )
        after = system.durability_stats()
        assert system.coordinator.pending_count() == 12
        assert after["wal_group_commits"] - before["wal_group_commits"] == 3
        assert after["wal_fsyncs"] - before["wal_fsyncs"] <= 2 * 3
        system.close()

    def test_single_append_fsyncs_under_another_threads_batch_scope(self, tmp_path):
        """Group-commit deferral is thread-local: other threads keep their
        acknowledge-after-durable guarantee while a batch scope is open."""
        import threading

        wal = WriteAheadLog(tmp_path / "wal.log", fsync_policy="batch")
        in_scope = threading.Event()
        release = threading.Event()

        def batcher() -> None:
            with wal.group_commit():
                wal.append("submit", {"query_id": "a1"})
                in_scope.set()
                release.wait(5)

        thread = threading.Thread(target=batcher)
        thread.start()
        try:
            assert in_scope.wait(5)
            before = wal.fsync_count
            wal.append("submit", {"query_id": "b1"})  # no scope on this thread
            assert wal.fsync_count == before + 1
        finally:
            release.set()
            thread.join(5)
        # b1's fsync already covered a1; the scope-end sync is skipped
        records, _ = read_wal(tmp_path / "wal.log")
        assert [r["data"]["query_id"] for r in records] == ["a1", "b1"]
        wal.close()

    def test_truncated_tail_record_is_ignored_and_repaired(self, tmp_path):
        """A crash mid-append leaves a partial record; it must not poison the log."""
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync_policy="batch")
        wal.append("submit", {"query_id": "q1"})
        wal.append("submit", {"query_id": "q2"})
        wal.close()
        intact_size = path.stat().st_size

        # crash mid-write: a header promising more bytes than were written
        frame = codec.encode_frame(
            {"v": codec.PROTOCOL_VERSION, "lsn": 3, "type": "submit", "data": {}}
        )
        with open(path, "ab") as handle:
            handle.write(frame[: len(frame) - 7])

        records, valid = read_wal(path)
        assert [r["lsn"] for r in records] == [1, 2]
        assert valid == intact_size

        # the manager repairs the torn tail and appends continue cleanly
        manager = DurabilityManager(tmp_path, fsync_policy="batch")
        assert path.stat().st_size == intact_size
        assert manager.wal.append("cancel", {"query_id": "q1"}) == 3
        manager.close()
        records, _ = read_wal(path)
        assert [(r["lsn"], r["type"]) for r in records] == [
            (1, "submit"),
            (2, "submit"),
            (3, "cancel"),
        ]

    def test_failed_append_rolls_back_to_a_record_boundary(self, tmp_path):
        """ENOSPC mid-frame must not leave a torn frame ahead of later records."""
        wal = WriteAheadLog(tmp_path / "wal.log", fsync_policy="batch")
        wal.append("submit", {"query_id": "q1"})

        real_write = wal._file.write

        def failing_write(frame: bytes) -> int:
            real_write(frame[: len(frame) // 2])  # half the frame lands...
            raise OSError(28, "No space left on device")  # ...then the disk fills

        wal._file.write = failing_write
        with pytest.raises(OSError):
            wal.append("submit", {"query_id": "q2"})
        wal._file.write = real_write

        # the partial frame was truncated away, so later appends are readable
        lsn = wal.append("submit", {"query_id": "q3"})
        assert lsn == 2  # the failed append's LSN was reusable
        wal.close()
        records, valid = read_wal(tmp_path / "wal.log")
        assert [r["data"]["query_id"] for r in records] == ["q1", "q3"]
        assert valid == (tmp_path / "wal.log").stat().st_size

    def test_garbage_tail_is_ignored(self, tmp_path):
        path = tmp_path / "wal.log"
        wal = WriteAheadLog(path, fsync_policy="never")
        wal.append("data", {"sql": "CREATE TABLE T (x INT)"})
        wal.close()
        with open(path, "ab") as handle:
            handle.write(b"\xff\xff\xff\xff garbage that is not a frame")
        records, _valid = read_wal(path)
        assert len(records) == 1

    def test_future_format_version_is_an_error_not_a_torn_tail(self, tmp_path):
        """A well-formed record from a newer WAL format must refuse to load —
        truncating it away as 'repair' would silently destroy a valid log."""
        from repro.core.durability import WAL_VERSION

        path = tmp_path / "wal.log"
        frame = codec.encode_frame(
            {"v": WAL_VERSION + 1, "lsn": 1, "type": "submit", "data": {}}
        )
        path.write_bytes(frame)
        with pytest.raises(StorageError, match="format version"):
            read_wal(path)
        with pytest.raises(StorageError, match="format version"):
            DurabilityManager(tmp_path)
        assert path.stat().st_size == len(frame)  # nothing was truncated

    def test_data_dir_is_single_process(self, tmp_path):
        """A second live manager on the same directory must fail fast, not
        truncate the first one's in-flight WAL tail."""
        first = DurabilityManager(tmp_path)
        try:
            with pytest.raises(StorageError, match="already in use"):
                DurabilityManager(tmp_path)
        finally:
            first.close()
        # released on close: the directory is reusable afterwards
        second = DurabilityManager(tmp_path)
        second.close()

    def test_corrupt_snapshot_is_a_hard_error(self, tmp_path):
        """Snapshot writes are atomic, so an unreadable snapshot is real
        corruption — silently discarding it would drop all checkpointed
        state; refusing to start is the only safe answer."""
        (tmp_path / "snapshot.json").write_text('{"last_lsn": 3, "tab', encoding="utf-8")
        with pytest.raises(StorageError, match="unreadable"):
            load_snapshot(tmp_path / "snapshot.json")
        with pytest.raises(StorageError, match="unreadable"):
            DurabilityManager(tmp_path)

    def test_future_snapshot_version_is_a_hard_error(self, tmp_path):
        (tmp_path / "snapshot.json").write_text(
            '{"version": 99, "last_lsn": 1}', encoding="utf-8"
        )
        with pytest.raises(StorageError, match="format version"):
            DurabilityManager(tmp_path)

    def test_missing_snapshot_is_fine(self, tmp_path):
        assert load_snapshot(tmp_path / "snapshot.json") is None
        manager = DurabilityManager(tmp_path)
        assert manager.applied_lsn == 0
        manager.close()


# ---------------------------------------------------------------------------
# Recovery scenarios
# ---------------------------------------------------------------------------


class TestRecovery:
    def test_replay_is_idempotent(self, tmp_path):
        """Replaying the same log twice equals replaying it once."""
        system = build_system(tmp_path)
        load_base_data(system)
        system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        crash(system)  # the WAL is the only surviving state

        records, _ = read_wal(tmp_path / "wal.log")
        assert records  # the crash left a non-trivial log

        recovered = build_system(tmp_path)
        assert recovered.recovery is not None
        assert not recovered.recovery.replay_errors
        first = recovered.statistics()
        assert len(recovered.pending_queries()) == 1

        # a second replay of the very same records applies nothing: every
        # LSN is at or below the already-applied watermark
        report = recovered.durability.replay(recovered, records)
        assert report.records_replayed == 0
        assert report.records_skipped == len(records)
        assert recovered.statistics() == first
        assert len(recovered.pending_queries()) == 1
        flights = recovered.query("SELECT fno FROM Flights")
        assert len(flights.rows) == 3  # the INSERT was not re-applied
        recovered.close()

    @pytest.mark.parametrize(
        "failing",
        ["UPDATE T SET k = 4 WHERE k >= 2", "INSERT INTO T VALUES (5, 50), (1, 99)"],
    )
    def test_failed_statement_leaves_live_state_equal_to_recovered(self, tmp_path, failing):
        """A failing statement is never journaled, so it must change nothing
        live either: the state before it, after it, and after a crash and
        recovery are one and the same."""
        from repro.errors import ConstraintViolationError

        system = build_system(tmp_path)
        system.execute("CREATE TABLE T (k INT PRIMARY KEY, v INT)")
        system.execute("INSERT INTO T VALUES (1, 10), (2, 20), (3, 30)")
        before = system.query("SELECT * FROM T ORDER BY k").rows
        with pytest.raises(ConstraintViolationError):
            system.execute(failing)
        assert system.query("SELECT * FROM T ORDER BY k").rows == before
        crash(system)

        recovered = build_system(tmp_path)
        assert recovered.query("SELECT * FROM T ORDER BY k").rows == before
        recovered.close()

    def test_keyword_identifiers_and_small_floats_survive_a_crash(self, tmp_path):
        """The journal holds pretty-printed SQL, so a quoted keyword column
        and a float that ``repr`` writes with an exponent must re-parse."""
        system = build_system(tmp_path)
        system.execute('CREATE TABLE F (fno INT PRIMARY KEY, "order" INT, w FLOAT)')
        system.execute("INSERT INTO F VALUES (1, 1, 0.00001), (2, 2, 0.5)")
        system.declare_answer_relation("Reservation", ["traveler", "fno"], ["TEXT", "INTEGER"])
        pending = system.submit_entangled(
            "SELECT 'Jerry', fno INTO ANSWER Reservation "
            "WHERE fno IN (SELECT fno FROM F WHERE \"order\" = 1 AND w < 0.0001) "
            "AND fno > 0.00001 AND ('Kramer', fno) IN ANSWER Reservation CHOOSE 1",
            owner="Jerry",
        )
        assert pending.status is QueryStatus.PENDING
        before = system.query('SELECT fno, "order", w FROM F ORDER BY fno').rows
        crash(system)

        recovered = build_system(tmp_path)
        assert recovered.recovery.replay_errors == []
        assert recovered.recovery.pending_recovered == 1
        assert recovered.query('SELECT fno, "order", w FROM F ORDER BY fno').rows == before
        kramer = recovered.submit_entangled(
            "SELECT 'Kramer', fno INTO ANSWER Reservation "
            "WHERE fno IN (SELECT fno FROM F) AND ('Jerry', fno) IN ANSWER Reservation CHOOSE 1",
            owner="Kramer",
        )
        assert kramer.status is QueryStatus.ANSWERED
        recovered.close()

    def test_snapshot_between_registration_and_commit_record(self, tmp_path):
        """A commit in the log tail lands on queries the snapshot holds pending."""
        system = build_system(tmp_path)
        load_base_data(system)
        jerry = system.submit_entangled(booking_sql("Jerry", "Kramer", "Oslo"), owner="Jerry")
        kramer = system.submit_entangled(booking_sql("Kramer", "Jerry", "Oslo"), owner="Kramer")
        assert jerry.status is QueryStatus.PENDING  # no Oslo flights yet

        assert system.checkpoint()  # snapshot: both queries pending
        snapshot = load_snapshot(tmp_path / "snapshot.json")
        assert {r["query_id"] for r in snapshot["requests"]} == {
            jerry.query_id,
            kramer.query_id,
        }
        assert all(r["status"] == "pending" for r in snapshot["requests"])

        system.execute("INSERT INTO Flights VALUES (777, 'Oslo')")
        assert system.retry_pending() == 2  # the match commits into the log tail
        answers = sorted(system.answers("Reservation"))
        records, _ = read_wal(tmp_path / "wal.log")
        assert [r["type"] for r in records] == ["data", "commit"]
        crash(system)

        recovered = build_system(tmp_path)
        assert recovered.recovered
        assert sorted(recovered.answers("Reservation")) == answers
        assert recovered.status(jerry.query_id) is QueryStatus.ANSWERED
        assert recovered.status(kramer.query_id) is QueryStatus.ANSWERED
        assert recovered.pending_queries() == []
        assert (
            recovered.coordinator.request(jerry.query_id).group_query_ids
            == (jerry.query_id, kramer.query_id)
        )
        recovered.close()

    def test_crash_between_match_and_commit_record_rematches(self, tmp_path):
        """Without the commit record the group recovers as pending and re-matches."""
        system = build_system(tmp_path)
        load_base_data(system)
        jerry = system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        kramer = system.submit_entangled(booking_sql("Kramer", "Jerry"), owner="Kramer")
        assert kramer.status is QueryStatus.ANSWERED
        answers = sorted(system.answers("Reservation"))
        crash(system)

        # simulate the crash window: drop the commit record from the log
        records, _ = read_wal(tmp_path / "wal.log")
        with open(tmp_path / "wal.log", "wb") as handle:
            for record in records:
                if record["type"] != "commit":
                    handle.write(codec.encode_frame(record))

        recovered = build_system(tmp_path)
        assert {q.query_id for q in recovered.pending_queries()} == {
            jerry.query_id,
            kramer.query_id,
        }
        assert recovered.retry_pending() == 2  # deterministic re-match (same seed)
        assert sorted(recovered.answers("Reservation")) == answers
        recovered.close()

    def test_cancelled_then_resubmitted_query_id(self, tmp_path):
        """Recovered cancelled ids stay reserved; fresh submissions never collide."""
        system = build_system(tmp_path)
        load_base_data(system)
        jerry = system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        system.cancel(jerry.query_id)
        crash(system)

        recovered = build_system(tmp_path)
        assert recovered.status(jerry.query_id) is QueryStatus.CANCELLED
        assert recovered.pending_queries() == []

        # Jerry resubmits the identical SQL: it must get a *fresh* id (the
        # recovered process's id counter restarts at q1 and would otherwise
        # hand out the cancelled id again).
        retry = recovered.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        assert retry.query_id != jerry.query_id
        assert retry.status is QueryStatus.PENDING
        partner = recovered.submit_entangled(booking_sql("Kramer", "Jerry"), owner="Kramer")
        assert partner.status is QueryStatus.ANSWERED
        assert recovered.status(retry.query_id) is QueryStatus.ANSWERED
        # the cancelled record survives alongside the answered retry
        assert recovered.status(jerry.query_id) is QueryStatus.CANCELLED
        recovered.close()

    def test_builder_query_with_quoted_constant_recovers(self, tmp_path):
        """Programmatic IR records no SQL; the journal renders it with SQL
        literal escaping so recovery can recompile it faithfully."""
        from repro.core.compiler import EntangledQueryBuilder, var

        system = build_system(tmp_path)
        load_base_data(system)
        query = (
            EntangledQueryBuilder(owner="Jerry")
            .head("Reservation", "it's \"J\"", var("fno"))
            .domain("fno", "SELECT fno FROM Flights WHERE dest = 'Paris'")
            .require("Reservation", "K", var("fno"))
            .build()
        )
        request = system.submit_entangled(query)
        assert request.status is QueryStatus.PENDING
        crash(system)

        recovered = build_system(tmp_path)
        (pending,) = recovered.pending_queries()
        assert pending.query_id == request.query_id
        assert pending.heads[0].terms[0].value == "it's \"J\""
        # and it still coordinates
        partner = recovered.submit_entangled(
            "SELECT 'K', fno INTO ANSWER Reservation "
            "WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris') "
            "AND ('it''s \"J\"', fno) IN ANSWER Reservation CHOOSE 1"
        )
        assert partner.status is QueryStatus.ANSWERED
        assert recovered.status(request.query_id) is QueryStatus.ANSWERED
        recovered.close()

    def test_snapshot_interval_checkpoints_and_truncates(self, tmp_path):
        system = build_system(tmp_path, snapshot_interval=4, fsync_policy="batch")
        load_base_data(system)  # 3 records: create, insert, declare
        system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        # the 4th record crossed the interval: a snapshot was cut and the log reset
        assert system.durability.snapshots_taken >= 1
        assert (tmp_path / "snapshot.json").exists()
        records, _ = read_wal(tmp_path / "wal.log")
        assert records == []
        crash(system)

        recovered = build_system(tmp_path, snapshot_interval=4)
        assert len(recovered.pending_queries()) == 1
        assert len(recovered.query("SELECT fno FROM Flights").rows) == 3
        recovered.close()

    def test_recovery_restores_tables_indexes_and_counters(self, tmp_path):
        system = build_system(tmp_path)
        load_base_data(system)
        system.database.table("Flights").create_index("by_dest", ["dest"])
        jerry = system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        kramer = system.submit_entangled(booking_sql("Kramer", "Jerry"), owner="Kramer")
        assert kramer.status is QueryStatus.ANSWERED
        assert system.checkpoint()
        before = system.statistics()
        crash(system)

        recovered = build_system(tmp_path)
        table = recovered.database.table("Flights")
        assert "by_dest" in table.indexes()
        after = recovered.statistics()
        for key in ("queries_registered", "queries_answered", "groups_matched"):
            assert after[key] == before[key], key
        assert recovered.status(jerry.query_id) is QueryStatus.ANSWERED
        envelope = recovered.coordinator.request(jerry.query_id).answer
        assert envelope is not None and envelope.tuples
        recovered.close()

    def test_close_checkpoints_cleanly(self, tmp_path):
        system = build_system(tmp_path)
        load_base_data(system)
        system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        system.close()
        # a clean shutdown leaves a snapshot and an empty log
        records, _ = read_wal(tmp_path / "wal.log")
        assert records == []
        snapshot = load_snapshot(tmp_path / "snapshot.json")
        assert snapshot is not None and snapshot["requests"]

        recovered = build_system(tmp_path)
        assert recovered.recovery.records_replayed == 0
        assert len(recovered.pending_queries()) == 1
        recovered.close()

    def test_batch_commit_record_is_durable_before_answers_are_visible(self, tmp_path):
        """A submit_many that matches inline must fsync the commit record
        even though the batch's submit records share a group-commit scope."""
        system = build_system(tmp_path, fsync_policy="batch")
        load_base_data(system)
        jerry, kramer = system.submit_many(
            [booking_sql("Jerry", "Kramer"), booking_sql("Kramer", "Jerry")]
        )
        assert kramer.status is QueryStatus.ANSWERED
        answers = sorted(system.answers("Reservation"))
        # everything visible is on disk: a crash right now loses nothing
        records, _ = read_wal(tmp_path / "wal.log")
        assert [r["type"] for r in records][-3:] == ["submit", "submit", "commit"]
        assert system.durability.wal._unsynced == 0
        crash(system)

        recovered = build_system(tmp_path)
        assert recovered.status(jerry.query_id) is QueryStatus.ANSWERED
        assert sorted(recovered.answers("Reservation")) == answers
        recovered.close()

    def test_background_checkpoint_failure_does_not_fail_submits(self, tmp_path):
        """A snapshot-write error is recorded, not raised out of submit()."""
        system = build_system(tmp_path, snapshot_interval=2, fsync_policy="batch")
        load_base_data(system)
        # make os.replace(tmp, snapshot.json) fail: the target is a directory
        snapshot_path = system.durability.snapshot_path
        if snapshot_path.exists():
            snapshot_path.unlink()
        snapshot_path.mkdir()
        request = system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        assert request.status is QueryStatus.PENDING  # the submit succeeded
        stats = system.durability_stats()
        assert stats["checkpoint_failures"] >= 1
        assert stats["last_checkpoint_error"]
        assert not snapshot_path.with_suffix(".tmp").exists()  # no stale tmp
        snapshot_path.rmdir()
        system.close()

    def test_submit_append_failure_registers_nothing(self, tmp_path):
        """A failed submit journal append propagates with no half state: the
        query is not in the pool, so a clean resubmit works."""
        system = build_system(tmp_path)
        load_base_data(system)
        original = system.durability.log_submit

        def failing(request):
            raise OSError(28, "No space left on device")

        system.durability.log_submit = failing
        with pytest.raises(OSError):
            system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        assert system.pending_queries() == []
        assert system.coordinator.requests() == []
        system.durability.log_submit = original
        retry = system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        assert retry.status is QueryStatus.PENDING
        system.close()

    def test_cancel_append_failure_keeps_query_cancellable(self, tmp_path):
        """A failed cancel journal append leaves the query cleanly pending
        (still waitable and cancellable), not popped into a zombie."""
        system = build_system(tmp_path)
        load_base_data(system)
        request = system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        original = system.durability.log_cancel

        def failing(query_id):
            raise OSError(28, "No space left on device")

        system.durability.log_cancel = failing
        with pytest.raises(OSError):
            system.cancel(request.query_id)
        assert request.status is QueryStatus.PENDING
        assert [q.query_id for q in system.pending_queries()] == [request.query_id]
        system.durability.log_cancel = original
        system.cancel(request.query_id)  # succeeds once the disk recovered
        assert request.status is QueryStatus.CANCELLED
        system.close()

    def test_failed_declare_is_not_journaled(self, tmp_path):
        """An inconsistent re-declare raises and leaves no phantom record."""
        from repro.errors import EntanglementError

        system = build_system(tmp_path)
        load_base_data(system)
        before, _ = read_wal(tmp_path / "wal.log")
        with pytest.raises(EntanglementError):
            system.declare_answer_relation("Reservation", arity=5)  # arity clash
        after, _ = read_wal(tmp_path / "wal.log")
        assert len(after) == len(before)
        system.close()

    def test_data_append_failure_after_apply_is_recorded_not_raised(self, tmp_path):
        """A WAL failure after a successful statement must not report the
        statement as failed (a retry would double-apply); the durability gap
        is recorded in stats instead."""
        system = build_system(tmp_path)
        load_base_data(system)
        original = system.durability.wal.append

        def failing_append(record_type, data):
            raise OSError(28, "No space left on device")

        system.durability.wal.append = failing_append
        result = system.execute("INSERT INTO Flights VALUES (999, 'Oslo')")
        system.durability.wal.append = original
        assert result.affected == 1  # the statement succeeded for the caller
        assert len(system.query("SELECT fno FROM Flights").rows) == 4
        assert system.durability_stats()["append_failures"] == 1
        system.close()

    def test_close_is_idempotent(self, tmp_path):
        """A second close() must not checkpoint through the closed WAL."""
        system = build_system(tmp_path)
        load_base_data(system)
        with system:
            pass  # __exit__ closes once
        system.close()  # and again, explicitly
        recovered = build_system(tmp_path)
        assert len(recovered.query("SELECT fno FROM Flights").rows) == 3
        recovered.close()

    def test_wal_disabled_stats(self, tmp_path):
        system = YoutopiaSystem(config=SystemConfig(seed=0))
        assert system.durability_stats() == {"enabled": False}
        system.close()

    def test_snapshot_file_is_json(self, tmp_path):
        """The snapshot is plain JSON: inspectable with standard tools."""
        system = build_system(tmp_path)
        load_base_data(system)
        system.checkpoint()
        with open(tmp_path / "snapshot.json", "r", encoding="utf-8") as handle:
            state = json.load(handle)
        assert {t["name"] for t in state["tables"]} >= {"Flights", "Reservation"}
        assert state["answer_relations"] == ["Reservation"]
        system.close()

    def test_data_records_fsync_is_crash_consistent(self, tmp_path):
        """Applied statements are journaled; failing statements are not."""
        system = build_system(tmp_path)
        load_base_data(system)
        records, _ = read_wal(tmp_path / "wal.log")
        kinds = [r["type"] for r in records]
        assert kinds == ["data", "data", "declare"]
        assert "CREATE TABLE" in records[0]["data"]["sql"].upper()

        # a statement that fails to execute leaves no record behind — it
        # would otherwise re-fail on every recovery as a phantom error
        with pytest.raises(Exception):
            system.execute("INSERT INTO Flights VALUES (122, 'Dup')")  # pk clash
        records_after, _ = read_wal(tmp_path / "wal.log")
        assert len(records_after) == len(records)
        system.close()
        assert os.path.exists(tmp_path / "snapshot.json")

    def test_commit_append_failure_still_finalizes_the_group(self, tmp_path):
        """A non-fatal journal failure at commit time must not strand an
        executed group as pending (a later re-match would duplicate its
        answer tuples); the gap is recorded in the durability stats."""
        system = build_system(tmp_path)
        load_base_data(system)
        original = system.durability.log_commit

        def failing_log_commit(*args, **kwargs):
            raise OSError(28, "No space left on device")

        system.durability.log_commit = failing_log_commit
        jerry = system.submit_entangled(booking_sql("Jerry", "Kramer"), owner="Jerry")
        kramer = system.submit_entangled(booking_sql("Kramer", "Jerry"), owner="Kramer")
        system.durability.log_commit = original

        assert jerry.status is QueryStatus.ANSWERED
        assert kramer.status is QueryStatus.ANSWERED
        answers = sorted(system.answers("Reservation"))
        assert len(answers) == 2
        # the pool is clean: a retry sweep finds nothing to re-match
        assert system.retry_pending() == 0
        assert sorted(system.answers("Reservation")) == answers  # no duplicates
        stats = system.durability_stats()
        assert stats["append_failures"] == 1
        assert "No space left" in stats["last_append_error"]
        system.close()
