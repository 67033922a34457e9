"""Shared exception hierarchy for the Youtopia reproduction.

Every subsystem raises exceptions derived from :class:`YoutopiaError` so that
applications built on top of the system (the travel app, the CLI, the admin
interface) can catch a single base class at their outer boundary while still
being able to distinguish failure categories.
"""

from __future__ import annotations


class YoutopiaError(Exception):
    """Base class of every error raised by this package."""


# ---------------------------------------------------------------------------
# Storage layer
# ---------------------------------------------------------------------------


class StorageError(YoutopiaError):
    """Base class for errors raised by :mod:`repro.storage`."""


class SchemaError(StorageError):
    """A schema definition is invalid (duplicate columns, bad types, ...)."""


class UnknownTableError(StorageError):
    """A statement referenced a table that does not exist in the catalog."""

    def __init__(self, name: str) -> None:
        super().__init__(f"unknown table: {name!r}")
        self.table_name = name


class DuplicateTableError(StorageError):
    """CREATE TABLE for a name that already exists."""

    def __init__(self, name: str) -> None:
        super().__init__(f"table already exists: {name!r}")
        self.table_name = name


class UnknownColumnError(StorageError):
    """A statement referenced a column not present in the table schema."""

    def __init__(self, column: str, table: str | None = None) -> None:
        where = f" in table {table!r}" if table else ""
        super().__init__(f"unknown column: {column!r}{where}")
        self.column = column
        self.table = table


class TypeMismatchError(StorageError):
    """A value does not conform to the declared column type."""


class ConstraintViolationError(StorageError):
    """A primary-key / not-null / uniqueness constraint was violated."""


class TransactionError(StorageError):
    """Invalid transaction usage (commit without begin, nested begin, ...)."""


# ---------------------------------------------------------------------------
# SQL front end
# ---------------------------------------------------------------------------


class ParseError(YoutopiaError):
    """The SQL text could not be tokenized or parsed.

    Attributes
    ----------
    line, column:
        1-based position of the offending token in the input text, when known.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None) -> None:
        location = ""
        if line is not None:
            location = f" (line {line}, column {column})" if column is not None else f" (line {line})"
        super().__init__(message + location)
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Relational engine
# ---------------------------------------------------------------------------


class PlanError(YoutopiaError):
    """The planner could not translate an AST into an executable plan."""


class EvaluationError(YoutopiaError):
    """A runtime error occurred while evaluating an expression or plan."""


# ---------------------------------------------------------------------------
# Entangled-query core
# ---------------------------------------------------------------------------


class EntanglementError(YoutopiaError):
    """Base class for errors specific to entangled-query processing."""


class CompilationError(EntanglementError):
    """An entangled SQL statement could not be compiled to the internal IR."""


class SafetyError(EntanglementError):
    """The entangled query violates the safety conditions.

    A query is *safe* when every variable appearing in its head or in an
    answer constraint is range-restricted by a database atom or bound to a
    constant; unsafe queries are rejected at registration time.
    """


class UniquenessError(EntanglementError):
    """The entangled query violates the uniqueness (origin) condition.

    The polynomial matching algorithm relies on every answer-constraint atom
    having an unambiguous *origin*; queries that cannot be analysed this way
    are either rejected or routed to the exhaustive evaluator depending on the
    system's configuration.
    """


class QueryNotPendingError(EntanglementError):
    """An operation referenced a query id that is not (or no longer) pending."""

    def __init__(self, query_id: str) -> None:
        super().__init__(f"no pending entangled query with id {query_id!r}")
        self.query_id = query_id


class QueryAlreadyAnsweredError(QueryNotPendingError):
    """A pending-only operation (e.g. ``cancel``) hit an already-matched query.

    Subclasses :class:`QueryNotPendingError` so existing handlers that treat
    "the query is gone from the pool" generically keep working, while callers
    that care can distinguish "matched and answered" from "never registered /
    already cancelled".
    """

    def __init__(self, query_id: str) -> None:
        # Skip QueryNotPendingError.__init__ to carry the precise message.
        EntanglementError.__init__(
            self,
            f"entangled query {query_id!r} was already matched and answered; "
            f"its group's effects are durable and cannot be cancelled",
        )
        self.query_id = query_id


class CoordinationTimeoutError(EntanglementError):
    """A blocking wait for coordination did not complete within the deadline."""

    def __init__(self, query_id: str, timeout: float) -> None:
        super().__init__(
            f"entangled query {query_id!r} was not coordinated within {timeout:.3f}s"
        )
        self.query_id = query_id
        self.timeout = timeout


class ExecutionError(EntanglementError):
    """Joint execution of a matched query group failed and was rolled back."""


class ScriptError(YoutopiaError):
    """A statement inside a multi-statement script failed.

    Wraps the underlying error (available as ``__cause__`` and ``cause``) and
    records *which* statement failed, so a mid-script failure surfaces with
    positional context instead of a bare engine error.

    Attributes
    ----------
    statement_index:
        0-based index of the failing statement within the script.
    statement_sql:
        The SQL text of the failing statement.
    cause:
        The original :class:`YoutopiaError`.
    """

    def __init__(self, statement_index: int, statement_sql: str, cause: Exception) -> None:
        super().__init__(
            f"statement #{statement_index + 1} of script failed: {cause} "
            f"[statement: {statement_sql}]"
        )
        self.statement_index = statement_index
        self.statement_sql = statement_sql
        self.cause = cause


# ---------------------------------------------------------------------------
# Remote transport
# ---------------------------------------------------------------------------


class ServiceUnavailableError(YoutopiaError):
    """The remote coordination service cannot be reached (or went away).

    Raised by the network clients (:class:`~repro.service.remote.RemoteService`,
    :class:`~repro.service.aio.AsyncRemoteService`) when the TCP connection to
    the :class:`~repro.service.aio.AsyncCoordinationServer` cannot be
    established, is closed by the server, or dies mid-call.  Every RPC in
    flight and every non-terminal handle fails fast with this error — clients
    never hang on a dead connection.

    Attributes
    ----------
    reason:
        A short description of why the service is unavailable.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(f"coordination service unavailable: {reason}")
        self.reason = reason


class ProtocolError(YoutopiaError):
    """A wire-protocol violation between a remote client and the server.

    Raised for malformed frames (bad length prefix, invalid JSON, missing
    envelope fields), protocol-version mismatches, oversized frames, and
    requests for operations the peer does not support.  Unlike
    :class:`ServiceUnavailableError` this signals a *bug or incompatibility*,
    not a liveness problem.
    """


# ---------------------------------------------------------------------------
# Applications
# ---------------------------------------------------------------------------


class ApplicationError(YoutopiaError):
    """Base class for errors raised by the demo applications."""


class UnknownUserError(ApplicationError):
    """The travel application was asked about a user that does not exist."""

    def __init__(self, username: str) -> None:
        super().__init__(f"unknown user: {username!r}")
        self.username = username


class BookingError(ApplicationError):
    """A booking request could not be constructed or submitted."""
