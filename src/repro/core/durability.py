"""Durable coordination: write-ahead log, snapshots and crash recovery.

The coordination component's promise — "a query is not rejected but waits for
an opportunity to retry" — is only meaningful in production if that wait
survives a process crash.  This module makes the pending pool durable:

* a :class:`WriteAheadLog` journals every coordination state transition as an
  append-only stream of length-prefixed JSON records (the exact framing of
  :mod:`repro.service.remote.codec`, so the on-disk format and the wire
  format share one codec): ``submit``, ``commit`` (a matched group's
  answers), ``cancel``, ``data`` (plain DDL/DML executed through the system)
  and ``declare`` (answer-relation declarations);
* a **snapshot** periodically captures the full recoverable state — table
  contents, answer-relation declarations, every coordination request and the
  statistics counters — after which the log is truncated (checkpointing);
* :class:`DurabilityManager` ties the two together and drives **recovery**:
  load the snapshot, repair a torn log tail (a crash mid-write leaves a
  partial record, which is detected and truncated away), then replay the log
  tail LSN-by-LSN.  Replay is idempotent: records at or below the already-
  applied LSN are skipped, so replaying the same log twice equals replaying
  it once.

Write-ahead discipline and lock ordering
----------------------------------------
Coordinator records (``submit``/``commit``/``cancel``) are appended while the
coordinator still holds its lock, so the log order equals the commit order
and a checkpoint — which takes that lock — can never capture a state that is
"between" a match and its commit record.  The commit record is written
*before* the in-memory request records flip to ``ANSWERED``; a crash between
joint execution and the commit append simply leaves the group pending in the
log, and recovery re-matches it.  Plain-SQL ``data`` records are paired with
their application under the manager's checkpoint lock, which checkpoints also
take first, so a snapshot either contains both the record and its effect or
neither.

Group commit
------------
``fsync_policy`` controls when appended records are forced to disk:
``"always"`` fsyncs every record, ``"batch"`` (the default) fsyncs once per
append — or once per :meth:`WriteAheadLog.group_commit` scope, which
``submit_many`` wraps around a whole batch — and ``"never"`` leaves flushing
to the OS.  The group-commit scope is what keeps WAL-on batch submission
within a small factor of the WAL-off path (the ledger's ``durable-mixed``
workload reports ``durability.fsyncs_per_op``).
"""

from __future__ import annotations

import json
import os
import re
import struct
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional, Sequence, Union

from repro.core import ir
from repro.core.compiler import entangled_to_sql
from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.coordinator import CoordinationRequest
    from repro.core.system import YoutopiaSystem


def _codec():
    """The remote transport's frame codec (lazy import).

    The WAL reuses :mod:`repro.service.remote.codec`'s framing (4-byte
    big-endian length prefix + UTF-8 JSON) so one codec defines both the
    on-wire and the on-disk format.  The import is deferred because the
    ``repro.service`` package itself imports the core at module load time.
    """
    from repro.service.remote import codec

    return codec

_HEADER = struct.Struct(">I")

#: On-disk format version of WAL records and snapshots.  Deliberately
#: independent of the wire codec's ``PROTOCOL_VERSION`` — the byte *framing*
#: is shared, but a network protocol bump must not invalidate durable logs.
WAL_VERSION = 1

#: On-disk format version of the snapshot file (the ``version`` field).
SNAPSHOT_VERSION = 1

#: Valid values of ``SystemConfig.fsync_policy``.
FSYNC_POLICIES = ("always", "batch", "never")

#: Record types journaled by the coordinator and the system facade.
RECORD_TYPES = ("submit", "commit", "cancel", "data", "declare")

SNAPSHOT_FILE = "snapshot.json"
WAL_FILE = "wal.log"
LOCK_FILE = "lock"

_QUERY_ID_PATTERN = re.compile(r"^q(\d+)$")


# ---------------------------------------------------------------------------
# The write-ahead log
# ---------------------------------------------------------------------------


def read_wal(path: Union[str, Path]) -> tuple[list[dict[str, Any]], int]:
    """Read every complete record of a WAL file.

    Returns ``(records, valid_bytes)`` where ``valid_bytes`` is the offset of
    the first incomplete or corrupt record.  A crash mid-append leaves a torn
    tail — a partial header, a body shorter than its declared length, or
    non-JSON garbage — which terminates the scan instead of raising: the
    valid prefix is exactly the durable history.
    """
    codec = _codec()
    records: list[dict[str, Any]] = []
    valid = 0
    path = Path(path)
    if not path.exists():
        return records, valid
    with open(path, "rb") as handle:
        while True:
            header = handle.read(_HEADER.size)
            if len(header) < _HEADER.size:
                break
            (length,) = _HEADER.unpack(header)
            if length > codec.MAX_FRAME_BYTES:
                break
            body = handle.read(length)
            if len(body) < length:
                break
            try:
                payload = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            if not isinstance(payload, dict):
                break
            if payload.get("v") != WAL_VERSION:
                # A complete, well-formed record from another format version
                # is NOT a torn tail: truncating here would destroy a valid
                # log.  Surface it so the operator migrates instead.
                raise StorageError(
                    f"WAL record at offset {valid} has format version "
                    f"{payload.get('v')!r}; this build reads version {WAL_VERSION}"
                )
            records.append(payload)
            valid += _HEADER.size + length
    return records, valid


class WriteAheadLog:
    """An append-only log of length-prefixed JSON records with group commit.

    Thread-safe.  ``append`` assigns monotonically increasing log sequence
    numbers (LSNs); the fsync policy decides when records become durable (see
    the module docstring).  :meth:`group_commit` scopes defer the ``"batch"``
    policy's fsync to the end of the scope, so a whole ``submit_many`` batch
    costs one fsync.
    """

    def __init__(self, path: Union[str, Path], fsync_policy: str = "batch") -> None:
        if fsync_policy not in FSYNC_POLICIES:
            raise StorageError(
                f"unknown fsync policy {fsync_policy!r}; expected one of {FSYNC_POLICIES}"
            )
        self.path = Path(path)
        self.fsync_policy = fsync_policy
        self._lock = threading.RLock()
        # Log-shipping subscribers: called with each appended record *inside*
        # append(), after the record is durable per policy and before the
        # caller is acknowledged (ship-before-ack: an acked record has been
        # handed to every live subscriber).  A subscriber returning False is
        # dropped — the standby disconnected.
        self._subscribers: list[Callable[[dict[str, Any]], bool]] = []
        # Unbuffered: every write() goes straight to the OS, so tell() is a
        # true record boundary and a failed append can be rolled back without
        # fighting a stdio buffer.
        self._file = open(self.path, "ab", buffering=0)
        self._next_lsn = 1
        # Group-commit scope depth is *per thread*: only the thread inside a
        # submit_many batch defers its own fsyncs.  A concurrent single
        # submit from another thread must still fsync before acknowledging,
        # otherwise its record could be lost to a crash that happens before
        # the batching thread's scope-end fsync.
        self._batch = threading.local()
        self._unsynced = 0
        self.records_appended = 0
        self.fsync_count = 0
        self.group_commits = 0

    @property
    def _batch_depth(self) -> int:
        return getattr(self._batch, "depth", 0)

    # -- lsn bookkeeping ---------------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        with self._lock:
            return self._next_lsn - 1

    def set_next_lsn(self, next_lsn: int) -> None:
        """Continue numbering after recovery (``max(applied) + 1``)."""
        with self._lock:
            self._next_lsn = max(self._next_lsn, next_lsn)

    # -- log shipping -----------------------------------------------------------------

    def add_subscriber(self, subscriber: Callable[[dict[str, Any]], bool]) -> None:
        """Stream every future record to ``subscriber`` (under the WAL lock).

        The subscriber runs synchronously inside :meth:`append` — replication
        is *synchronous*: a record is shipped before the appending caller is
        acknowledged, so an acked transition is either on the standby's socket
        or the standby is already gone.  Return ``False`` to unsubscribe.
        """
        with self._lock:
            self._subscribers.append(subscriber)

    def remove_subscriber(self, subscriber: Callable[[dict[str, Any]], bool]) -> None:
        with self._lock:
            try:
                self._subscribers.remove(subscriber)
            except ValueError:
                pass

    @property
    def subscriber_count(self) -> int:
        with self._lock:
            return len(self._subscribers)

    def _ship_locked(self, record: dict[str, Any]) -> None:
        if not self._subscribers:
            return
        kept = []
        for subscriber in self._subscribers:
            try:
                alive = subscriber(record)
            except Exception:  # noqa: BLE001 - a dead standby must not fail appends
                alive = False
            if alive:
                kept.append(subscriber)
        self._subscribers = kept

    # -- appending ---------------------------------------------------------------------

    def append(self, record_type: str, data: dict[str, Any]) -> int:
        """Append one record; returns its LSN.  Durability per fsync policy."""
        with self._lock:
            codec = _codec()
            lsn = self._next_lsn
            record = {"v": WAL_VERSION, "lsn": lsn, "type": record_type, "data": data}
            frame = codec.encode_frame(record)
            offset = self._file.tell()
            try:
                written = self._file.write(frame)
            except OSError:
                # A partial write (e.g. ENOSPC) must not leave a torn frame
                # in the *middle* of the log: later successful appends would
                # sit behind it, and the next restart's tail repair would
                # truncate them away — losing acknowledged records.  Roll
                # the file back to the last record boundary instead.
                self._rollback_to_locked(offset)
                raise
            if written != len(frame):
                self._rollback_to_locked(offset)
                raise StorageError(
                    f"short WAL append ({written} of {len(frame)} bytes written)"
                )
            self._next_lsn += 1
            self.records_appended += 1
            self._unsynced += 1
            if self.fsync_policy == "always":
                self._sync_locked()
            elif self.fsync_policy == "batch":
                if self._batch_depth == 0:
                    self._sync_locked()
                # inside this thread's group-commit scope: defer to scope end
            else:  # "never": hand the bytes to the OS, let it schedule the write
                self._file.flush()
            self._ship_locked(record)
            return lsn

    @contextmanager
    def group_commit(self) -> Iterator[None]:
        """Defer the ``"batch"`` policy's fsync to the end of this scope.

        The deferral is thread-local: appends from *other* threads keep their
        own durability guarantee.  Nested scopes coalesce into the outermost
        one.  ``"always"`` still fsyncs every record; ``"never"`` still never
        does.  A sync by any thread covers everything written before it, so
        the scope-end fsync is skipped when nothing is left unsynced.
        """
        self._batch.depth = self._batch_depth + 1
        try:
            yield
        finally:
            self._batch.depth = self._batch_depth - 1
            if self._batch_depth == 0:
                with self._lock:
                    if self._unsynced > 0 and self.fsync_policy == "batch":
                        self.group_commits += 1
                        self._sync_locked()

    def _rollback_to_locked(self, offset: int) -> None:
        """Best-effort truncate back to the last intact record boundary."""
        try:
            self._file.truncate(offset)
            self._file.seek(offset)
        except OSError:
            pass

    def _sync_locked(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())
        self.fsync_count += 1
        self._unsynced = 0

    def sync(self) -> None:
        """Force everything appended so far to disk (any policy)."""
        with self._lock:
            self._sync_locked()

    # -- truncation and lifecycle ------------------------------------------------------

    def reset(self) -> None:
        """Discard the log contents (after a snapshot); LSNs keep counting."""
        with self._lock:
            self._file.truncate(0)
            self._file.seek(0)
            self._file.flush()
            os.fsync(self._file.fileno())
            self._unsynced = 0

    def close(self) -> None:
        with self._lock:
            if self._file.closed:
                return
            self._file.flush()
            if self.fsync_policy != "never":
                os.fsync(self._file.fileno())
            self._file.close()


# ---------------------------------------------------------------------------
# Snapshots
# ---------------------------------------------------------------------------


def _fsync_dir(path: Union[str, Path]) -> None:
    """Make a directory entry change (rename, create) power-loss durable.

    POSIX only promises rename durability after an fsync on the *directory*;
    both the snapshot rename and the bootstrap markers rely on this barrier.
    """
    try:
        dir_fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def write_snapshot(path: Union[str, Path], state: dict[str, Any]) -> None:
    """Atomically persist a snapshot (temp file + fsync + rename)."""
    path = Path(path)
    tmp = path.with_suffix(".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(state, handle, separators=(",", ":"))
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        # The rename itself must be durable before the caller truncates the
        # WAL: without a directory fsync a power loss can resurrect the old
        # snapshot next to an already-emptied log.
        _fsync_dir(path.parent)
    except Exception:
        try:  # do not leave a stale half-written .tmp behind
            tmp.unlink(missing_ok=True)
        except OSError:
            pass
        raise


def write_durable_marker(path: Union[str, Path]) -> None:
    """Create a marker file whose existence survives power loss.

    Used by the CLI's bootstrap protocol: decisions like "wipe and redo the
    bootstrap" hinge on marker presence, so the file *and* its directory
    entry are fsynced.
    """
    path = Path(path)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("ok\n")
        handle.flush()
        os.fsync(handle.fileno())
    _fsync_dir(path.parent)


def load_snapshot(path: Union[str, Path]) -> Optional[dict[str, Any]]:
    """Load a snapshot; ``None`` only when the file is absent.

    ``write_snapshot`` is atomic (tmp + fsync + rename + directory fsync),
    so an unreadable or version-skewed snapshot is never a benign torn
    write: silently discarding it would drop every checkpointed table,
    request and answer while the server starts "successfully".  Like a WAL
    version mismatch, it is a hard :class:`~repro.errors.StorageError` the
    operator must resolve.
    """
    path = Path(path)
    if not path.exists():
        return None
    try:
        with open(path, "r", encoding="utf-8") as handle:
            state = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise StorageError(
            f"snapshot {path} is unreadable ({exc}); refusing to start over a "
            f"corrupt checkpoint — repair or remove the data directory explicitly"
        ) from exc
    if not isinstance(state, dict) or state.get("version") != SNAPSHOT_VERSION:
        version = state.get("version") if isinstance(state, dict) else None
        raise StorageError(
            f"snapshot {path} has format version {version!r}; this build reads "
            f"version {SNAPSHOT_VERSION}"
        )
    return state


# ---------------------------------------------------------------------------
# Recovery reporting
# ---------------------------------------------------------------------------


@dataclass
class RecoveryReport:
    """What one recovery pass found and rebuilt."""

    snapshot_loaded: bool = False
    snapshot_lsn: int = 0
    records_replayed: int = 0
    records_skipped: int = 0
    replay_errors: list[str] = field(default_factory=list)
    repaired_bytes: int = 0
    pending_recovered: int = 0
    answered_recovered: int = 0
    elapsed_seconds: float = 0.0

    @property
    def has_state(self) -> bool:
        """Whether the data directory held any previous state at all."""
        return self.snapshot_loaded or self.records_replayed > 0

    def as_dict(self) -> dict[str, Any]:
        return {
            "snapshot_loaded": self.snapshot_loaded,
            "snapshot_lsn": self.snapshot_lsn,
            "records_replayed": self.records_replayed,
            "records_skipped": self.records_skipped,
            "replay_errors": len(self.replay_errors),
            "repaired_bytes": self.repaired_bytes,
            "pending_recovered": self.pending_recovered,
            "answered_recovered": self.answered_recovered,
            "elapsed_seconds": self.elapsed_seconds,
        }


# ---------------------------------------------------------------------------
# Serialization helpers (requests and answers)
# ---------------------------------------------------------------------------


def encode_request(request: "CoordinationRequest") -> dict[str, Any]:
    """One coordination request as a JSON-safe, replayable state dict."""
    codec = _codec()
    return {
        "query_id": request.query_id,
        "owner": request.owner,
        "status": request.status.value,
        "error": request.error,
        "sql": entangled_to_sql(request.query),
        "priority": request.query.priority,
        "registered_at": request.registered_at,
        "answered_at": request.answered_at,
        "group": list(request.group_query_ids),
        "answer": None if request.answer is None else codec.encode_answer(request.answer),
    }


def decode_answers(payload: Sequence[dict[str, Any]]) -> list[ir.GroundAnswer]:
    codec = _codec()
    return [
        codec.decode_answer(str(item["query_id"]), item.get("answer") or {})
        for item in payload
    ]


# ---------------------------------------------------------------------------
# The durability manager
# ---------------------------------------------------------------------------


class DurabilityManager:
    """Owns one data directory: the WAL, the snapshot, and recovery.

    Constructed by :class:`~repro.core.system.YoutopiaSystem` when
    ``SystemConfig.data_dir`` is set.  Construction reads (and repairs) any
    existing state but applies nothing; :meth:`recover` replays it into a
    freshly built system, after which the coordinator journals through the
    ``log_*`` methods.
    """

    def __init__(
        self,
        data_dir: Union[str, Path],
        fsync_policy: str = "batch",
        snapshot_interval: int = 1000,
    ) -> None:
        self.data_dir = Path(data_dir)
        self.data_dir.mkdir(parents=True, exist_ok=True)
        self.snapshot_path = self.data_dir / SNAPSHOT_FILE
        self.wal_path = self.data_dir / WAL_FILE
        # One process per data directory: a second system opening the same
        # dir would truncate the first's in-flight WAL tail as "torn" and
        # interleave conflicting LSNs.  An advisory flock fails fast instead.
        self._lock_file = open(self.data_dir / LOCK_FILE, "a+b")
        try:
            import fcntl

            fcntl.flock(self._lock_file.fileno(), fcntl.LOCK_EX | fcntl.LOCK_NB)
        except ImportError:  # pragma: no cover - non-POSIX platform
            pass
        except OSError as exc:
            self._lock_file.close()
            raise StorageError(
                f"data directory {self.data_dir} is already in use by another "
                f"process (lock held on {LOCK_FILE}): {exc}"
            ) from exc
        self.snapshot_interval = max(0, int(snapshot_interval))
        self.snapshots_taken = 0
        self.checkpoint_failures = 0
        self.last_checkpoint_error: Optional[str] = None
        self.append_failures = 0
        self.last_append_error: Optional[str] = None
        self.last_recovery: Optional[RecoveryReport] = None
        self._checkpoint_lock = threading.RLock()
        self._closed = False

        # Read prior state before opening the log for append; a torn tail
        # record (crash mid-write) is truncated away so appends continue from
        # a clean record boundary.
        self._snapshot_state = load_snapshot(self.snapshot_path)
        snapshot_lsn = int((self._snapshot_state or {}).get("last_lsn", 0))
        records, valid_bytes = read_wal(self.wal_path)
        self._repaired_bytes = 0
        if self.wal_path.exists():
            actual = self.wal_path.stat().st_size
            if actual > valid_bytes:
                self._repaired_bytes = actual - valid_bytes
                with open(self.wal_path, "r+b") as handle:
                    handle.truncate(valid_bytes)
        self._tail_records = [
            record for record in records if int(record.get("lsn", 0)) > snapshot_lsn
        ]
        self.applied_lsn = snapshot_lsn
        last_logged = max((int(r.get("lsn", 0)) for r in records), default=0)
        self.wal = WriteAheadLog(self.wal_path, fsync_policy=fsync_policy)
        self.wal.set_next_lsn(max(snapshot_lsn, last_logged) + 1)
        # Checkpoint-due accounting is a watermark against the WAL's own
        # (lock-guarded) append counter — a plain shared counter would drop
        # increments when submit threads and match workers journal
        # concurrently.  The tail records found on disk count toward the
        # next snapshot.
        self._records_at_checkpoint = -len(self._tail_records)

    # -- journaling (called by the coordinator under its locks) ------------------------

    def log_submit(self, request: "CoordinationRequest") -> int:
        return self.wal.append(
            "submit",
            {
                "query_id": request.query_id,
                "owner": request.owner,
                "sql": entangled_to_sql(request.query),
                "priority": request.query.priority,
                "registered_at": request.registered_at,
            },
        )

    def log_commit(
        self,
        group_ids: Sequence[str],
        answers: Sequence[ir.GroundAnswer],
        answered_at: float,
    ) -> int:
        codec = _codec()
        return self.wal.append(
            "commit",
            {
                "group": list(group_ids),
                "answered_at": answered_at,
                "answers": [
                    {"query_id": answer.query_id, "answer": codec.encode_answer(answer)}
                    for answer in answers
                ],
            },
        )

    def log_cancel(self, query_id: str) -> int:
        return self.wal.append("cancel", {"query_id": query_id})

    def group_commit(self):
        """Batch scope for ``submit_many`` (one fsync for the whole batch)."""
        return self.wal.group_commit()

    # -- journaling (called by the system facade, no coordinator locks held) -----------

    def journaled_data(self, sql: str, apply: Callable[[], Any]) -> Any:
        """Apply a plain statement and journal it, atomically vs. checkpoints.

        Apply-then-log: the statement mutates only in-memory state, so the
        record *is* its durability — journaling before a failing apply would
        replay (and re-fail) the statement on every recovery, polluting
        ``replay_errors`` with phantom entries.  The record is durable (per
        policy) before ``execute()`` returns to the caller, which is what
        acknowledge-after-durable requires; the checkpoint lock makes the
        apply+append pair atomic against a concurrent snapshot cut.

        An append failure *after* a successful apply is swallowed and
        recorded (like a commit-record append failure): the statement took
        effect and the next snapshot will capture it — reporting it as the
        statement's failure would invite a double-apply retry.
        """
        with self._checkpoint_lock:
            result = apply()
            try:
                self.wal.append("data", {"sql": sql})
            except Exception as exc:  # noqa: BLE001 - divergence beats a gap
                self.note_append_failure(exc)
            return result

    def journaled_declare(
        self,
        name: str,
        columns: Optional[Sequence[str]],
        types: Optional[Sequence[str]],
        arity: Optional[int],
        apply: Callable[[], Any],
    ) -> Any:
        """Apply-then-log, like :meth:`journaled_data` (and for the same
        reasons: a failing declare must not replay as a phantom error, and
        an append failure after a successful declare is recorded, not
        surfaced as the declare's failure)."""
        with self._checkpoint_lock:
            result = apply()
            try:
                self.wal.append(
                    "declare",
                    {
                        "name": name,
                        "columns": None if columns is None else list(columns),
                        "types": None if types is None else list(types),
                        "arity": arity,
                    },
                )
            except Exception as exc:  # noqa: BLE001 - divergence beats a gap
                self.note_append_failure(exc)
            return result

    # -- checkpointing -----------------------------------------------------------------

    @property
    def records_since_checkpoint(self) -> int:
        return self.wal.records_appended - self._records_at_checkpoint

    def snapshot_due(self) -> bool:
        return (
            self.snapshot_interval > 0
            and self.records_since_checkpoint >= self.snapshot_interval
        )

    @contextmanager
    def checkpoint_scope(self) -> Iterator[None]:
        """Excludes ``data``/``declare`` journaling while a snapshot is cut.

        The coordinator takes this lock *before* its own locks, mirroring the
        journaled-data path (checkpoint lock → coordinator lock via the
        data-change listener), so the two cannot deadlock.
        """
        with self._checkpoint_lock:
            yield

    def install_checkpoint(self, state: dict[str, Any]) -> int:
        """Persist a captured state and truncate the log (locks held by caller)."""
        state["last_lsn"] = self.wal.last_lsn
        write_snapshot(self.snapshot_path, state)
        self.wal.reset()
        self.applied_lsn = max(self.applied_lsn, int(state["last_lsn"]))
        self._records_at_checkpoint = self.wal.records_appended
        self.snapshots_taken += 1
        return int(state["last_lsn"])

    # -- recovery ----------------------------------------------------------------------

    def recover(self, system: "YoutopiaSystem") -> RecoveryReport:
        """Rebuild ``system`` from the snapshot plus the repaired log tail.

        Must run before journaling is attached (the replayed transitions must
        not be re-journaled) and before application traffic starts.
        """
        report = RecoveryReport(repaired_bytes=self._repaired_bytes)
        started = time.perf_counter()
        coordinator = system.coordinator
        # Recovery-internal table writes must not mark the pool dirty or arm
        # retry sweeps; the thread-local executor guard suppresses exactly
        # that (and is per-thread, so other threads are unaffected).
        coordinator._executing.active = True
        try:
            if self._snapshot_state is not None:
                self._apply_snapshot(system, self._snapshot_state, report)
                report.snapshot_loaded = True
                report.snapshot_lsn = int(self._snapshot_state.get("last_lsn", 0))
            self.replay(system, self._tail_records, report)
        finally:
            coordinator._executing.active = False

        # Fresh submissions must not collide with recovered query ids: push
        # the process-wide id counter past everything we rebuilt (including
        # cancelled and rejected ids, which stay registered forever).
        highest = 0
        for request in coordinator.requests():
            match = _QUERY_ID_PATTERN.match(request.query_id)
            if match:
                highest = max(highest, int(match.group(1)))
        if highest:
            ir.advance_query_counter(highest + 1)

        report.pending_recovered = coordinator.pending_count()
        report.answered_recovered = sum(
            1 for request in coordinator.requests() if request.is_answered
        )
        report.elapsed_seconds = time.perf_counter() - started
        self.last_recovery = report
        self._snapshot_state = None
        self._tail_records = []
        return report

    def replay(
        self,
        system: "YoutopiaSystem",
        records: Optional[Sequence[dict[str, Any]]] = None,
        report: Optional[RecoveryReport] = None,
    ) -> RecoveryReport:
        """Apply log records above the already-applied LSN (idempotent).

        ``records=None`` re-reads the log file from disk.  Because every
        record's LSN is compared against ``applied_lsn``, replaying the same
        log twice applies each record exactly once.
        """
        if report is None:
            report = RecoveryReport()
        if records is None:
            records, _valid = read_wal(self.wal_path)
        for record in records:
            lsn = int(record.get("lsn", 0))
            if lsn <= self.applied_lsn:
                report.records_skipped += 1
                continue
            try:
                self._apply_record(system, record)
            except Exception as exc:  # noqa: BLE001 - a bad record must not abort recovery
                report.replay_errors.append(
                    f"lsn {lsn} ({record.get('type')}): {exc}"
                )
            self.applied_lsn = lsn
            report.records_replayed += 1
        return report

    def _apply_record(self, system: "YoutopiaSystem", record: dict[str, Any]) -> None:
        apply_wal_record(system, record)

    def _apply_snapshot(
        self, system: "YoutopiaSystem", state: dict[str, Any], report: RecoveryReport
    ) -> None:
        apply_snapshot_state(system, state, report)

    def subscribe_with_snapshot(
        self,
        system: "YoutopiaSystem",
        subscriber: Callable[[dict[str, Any]], bool],
    ) -> dict[str, Any]:
        """Atomically capture the recoverable state and attach a log subscriber.

        The standby-bootstrap primitive: the checkpoint scope plus the
        coordinator lock block *all* append paths (coordinator records append
        under the coordinator lock; ``data``/``declare`` append under the
        checkpoint lock), so the returned state and the subscription are a
        consistent cut — no record falls between the snapshot and the stream.
        The state carries ``last_lsn``; the subscriber sees every record with
        a higher LSN exactly when it is appended (ship-before-ack).
        """
        with self.checkpoint_scope():
            with system.coordinator._lock:
                state = system.coordinator._capture_state_locked()
                state["last_lsn"] = self.wal.last_lsn
                self.wal.add_subscriber(subscriber)
        return state

    # -- introspection / lifecycle -----------------------------------------------------

    def note_checkpoint_failure(self, exc: Exception) -> None:
        """Record a failed background checkpoint (kept out of caller errors)."""
        self.checkpoint_failures += 1
        self.last_checkpoint_error = f"{type(exc).__name__}: {exc}"

    def note_append_failure(self, exc: Exception) -> None:
        """Record a swallowed journal-append failure (commit records only).

        A commit record that cannot be appended must not abort the already-
        committed joint execution — but the durability gap has to be visible
        somewhere, and this counter (surfaced through ``ServiceStats``) is
        that somewhere.
        """
        self.append_failures += 1
        self.last_append_error = f"{type(exc).__name__}: {exc}"

    @property
    def closed(self) -> bool:
        """Whether :meth:`close` ran (checkpoints must no-op afterwards)."""
        return self._closed

    def stats(self) -> dict[str, Any]:
        """A JSON-safe durability summary (surfaced through ``ServiceStats``)."""
        return {
            "enabled": True,
            "data_dir": str(self.data_dir),
            "fsync_policy": self.wal.fsync_policy,
            "snapshot_interval": self.snapshot_interval,
            "wal_records_appended": self.wal.records_appended,
            "wal_last_lsn": self.wal.last_lsn,
            "wal_fsyncs": self.wal.fsync_count,
            "wal_group_commits": self.wal.group_commits,
            "wal_subscribers": self.wal.subscriber_count,
            "snapshots_taken": self.snapshots_taken,
            "checkpoint_failures": self.checkpoint_failures,
            "last_checkpoint_error": self.last_checkpoint_error,
            "append_failures": self.append_failures,
            "last_append_error": self.last_append_error,
            "records_since_checkpoint": self.records_since_checkpoint,
            "recovery": None if self.last_recovery is None else self.last_recovery.as_dict(),
        }

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self.wal.close()
        self._lock_file.close()  # releases the advisory flock


# ---------------------------------------------------------------------------
# Replay primitives (shared by recovery and WAL-shipping followers)
# ---------------------------------------------------------------------------


def apply_wal_record(system: "YoutopiaSystem", record: dict[str, Any]) -> None:
    """Apply one WAL record to a system (idempotence is the caller's LSN guard).

    Used by :meth:`DurabilityManager.replay` during crash recovery and by a
    WAL-shipping standby (:mod:`repro.cluster.standby`) applying the primary's
    streamed records — one replay semantics for both.
    """
    record_type = record.get("type")
    data = record.get("data") or {}
    coordinator = system.coordinator
    if record_type == "submit":
        coordinator.recover_request(
            {
                "query_id": data["query_id"],
                "owner": data.get("owner"),
                "status": "pending",
                "sql": data.get("sql"),
                "priority": data.get("priority"),
                "registered_at": data.get("registered_at"),
            }
        )
    elif record_type == "commit":
        coordinator.apply_recovered_commit(
            tuple(data.get("group") or ()),
            decode_answers(data.get("answers") or ()),
            float(data.get("answered_at") or 0.0),
        )
    elif record_type == "cancel":
        coordinator.apply_recovered_cancel(str(data["query_id"]))
    elif record_type == "data":
        from repro.sqlparser import parse_statement

        system.engine.execute(parse_statement(str(data["sql"])))
    elif record_type == "declare":
        system.answer_relations.declare(
            str(data["name"]),
            columns=data.get("columns"),
            types=data.get("types"),
            arity=data.get("arity"),
        )
    else:
        raise StorageError(f"unknown WAL record type {record_type!r}")


def apply_snapshot_state(
    system: "YoutopiaSystem", state: dict[str, Any], report: RecoveryReport
) -> None:
    """Rebuild tables, answer relations, requests and counters from a snapshot.

    The snapshot twin of :func:`apply_wal_record`, likewise shared between
    crash recovery and standby bootstrap (the primary hands a joining standby
    this exact state shape via ``subscribe_with_snapshot``).
    """
    from repro.storage.schema import Column, ColumnType, TableSchema

    database = system.database
    for table_state in state.get("tables") or ():
        name = str(table_state["name"])
        columns = tuple(
            Column(
                str(column["name"]),
                ColumnType.from_name(str(column["type"])),
                bool(column.get("nullable", True)),
            )
            for column in table_state.get("columns") or ()
        )
        schema = TableSchema(name, columns, tuple(table_state.get("primary_key") or ()))
        if not database.has_table(name):
            database.create_table(schema)
        table = database.table(name)
        rows = table_state.get("rows") or ()
        if rows:
            table.insert_many(tuple(row) for row in rows)
        for index_state in table_state.get("indexes") or ():
            if index_state["name"] not in table.indexes():
                table.create_index(
                    str(index_state["name"]),
                    tuple(index_state.get("columns") or ()),
                    unique=bool(index_state.get("unique", False)),
                )
    for relation in state.get("answer_relations") or ():
        name = str(relation)
        if database.has_table(name):
            system.answer_relations.declare(
                name, columns=database.schema(name).column_names
            )
    for request_state in state.get("requests") or ():
        try:
            system.coordinator.recover_request(request_state)
        except Exception as exc:  # noqa: BLE001 - keep recovering the rest
            report.replay_errors.append(
                f"snapshot request {request_state.get('query_id')!r}: {exc}"
            )
    counters = state.get("counters")
    if counters:
        system.coordinator.statistics.load({k: int(v) for k, v in counters.items()})
