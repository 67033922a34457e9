"""Wire format of the remote coordination service.

Frames are length-prefixed JSON: a 4-byte big-endian payload length followed
by a UTF-8 JSON object.  Three envelope shapes travel over one connection:

========== ==================================================== =============
Shape      Fields                                               Direction
========== ==================================================== =============
request    ``{"v", "id", "op", "args"}``                        client→server
response   ``{"v", "id", "ok", "result"}`` or                   server→client
           ``{"v", "id", "ok": false, "error"}``
push       ``{"v", "push", "data"}``                            server→client
========== ==================================================== =============

``v`` is :data:`PROTOCOL_VERSION`; a peer receiving a higher major version
rejects the frame with :class:`~repro.errors.ProtocolError`.  ``id`` is a
client-assigned correlation number: responses are matched to requests by id,
so many calls can be in flight on one connection.  ``push`` frames carry
unsolicited server notifications (currently ``"done"``: a watched query
reached a terminal state) and have no id.

Errors cross the wire *typed*: :func:`encode_error` records the exception
class name plus its structured attributes (query id, timeout, table name ...)
and :func:`decode_error` reconstructs the same exception type client-side, so
``except CoordinationTimeoutError`` works identically against a remote
service and an in-process one.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import socket
import struct
from typing import Any, Callable, Mapping, Optional

from repro import errors
from repro.errors import ProtocolError

#: Bumped on incompatible changes to the envelope or operation set.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's JSON payload (a defence against garbage length
#: prefixes from a non-protocol peer, not a practical limit).
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_frame(payload: Mapping[str, Any]) -> bytes:
    """Serialise one envelope to its on-wire bytes (length prefix + JSON)."""
    try:
        body = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"payload is not JSON-serialisable: {exc}") from exc
    if len(body) > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"frame of {len(body)} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return _HEADER.pack(len(body)) + body


def _read_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes; ``None`` on EOF before the first byte."""
    chunks: list[bytes] = []
    remaining = count
    while remaining > 0:
        chunk = sock.recv(remaining)
        if not chunk:
            if not chunks:
                return None
            raise ProtocolError(
                f"connection closed mid-frame ({count - remaining} of {count} bytes read)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def decode_frame_length(header: bytes) -> int:
    """Validate a 4-byte length prefix and return the declared body length."""
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise ProtocolError(
            f"declared frame length {length} exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


def decode_frame_body(body: bytes) -> dict[str, Any]:
    """Decode one frame body (the bytes after the length prefix) to its envelope.

    Shared by the socket reader below and the asyncio transport
    (:mod:`repro.service.aio`), which reads the same wire format through
    stream APIs — both ends of either transport speak identical frames.
    """
    try:
        payload = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"frame body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ProtocolError(f"frame must be a JSON object, got {type(payload).__name__}")
    version = payload.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"protocol version mismatch: peer speaks {version!r}, "
            f"this endpoint speaks {PROTOCOL_VERSION}"
        )
    return payload


async def read_frame_async(
    reader: "asyncio.StreamReader", on_bytes: Optional[Callable[[int], None]] = None
) -> Optional[dict[str, Any]]:
    """Read one envelope from an asyncio stream (the coroutine twin of
    :func:`read_frame` — same return/raise contract, same wire format).

    Returns ``None`` on a clean end-of-stream; raises
    :class:`~repro.errors.ProtocolError` for truncated or malformed frames
    and version mismatches; connection failures surface as ``OSError`` /
    ``ConnectionError`` from the stream.
    """
    try:
        header = await reader.readexactly(_HEADER.size)
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ProtocolError(
            f"connection closed mid-header ({len(exc.partial)} of {_HEADER.size} bytes read)"
        ) from exc
    length = decode_frame_length(header)
    try:
        body = await reader.readexactly(length)
    except asyncio.IncompleteReadError as exc:
        raise ProtocolError(
            f"connection closed mid-frame ({len(exc.partial)} of {length} bytes read)"
        ) from exc
    if on_bytes is not None:
        on_bytes(_HEADER.size + length)
    return decode_frame_body(body)


def read_frame(
    sock: socket.socket, on_bytes: Optional[Callable[[int], None]] = None
) -> Optional[dict[str, Any]]:
    """Read one envelope from a socket.

    Returns ``None`` on a clean end-of-stream (the peer closed between
    frames) and raises :class:`~repro.errors.ProtocolError` for truncated or
    malformed frames and version mismatches.  ``on_bytes`` (when given) is
    called with the frame's total wire size — header plus body — so servers
    can account traffic without re-encoding.
    """
    header = _read_exact(sock, _HEADER.size)
    if header is None:
        return None
    length = decode_frame_length(header)
    body = _read_exact(sock, length)
    if body is None:
        raise ProtocolError("connection closed between frame header and body")
    if on_bytes is not None:
        on_bytes(_HEADER.size + length)
    return decode_frame_body(body)


# ---------------------------------------------------------------------------
# Envelopes
# ---------------------------------------------------------------------------


def request_frame(frame_id: int, op: str, args: Mapping[str, Any]) -> dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "id": frame_id, "op": op, "args": dict(args)}


def response_frame(frame_id: int, result: Any) -> dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "id": frame_id, "ok": True, "result": result}


def error_frame(frame_id: int, exc: BaseException) -> dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "id": frame_id, "ok": False, "error": encode_error(exc)}


def push_frame(kind: str, data: Mapping[str, Any]) -> dict[str, Any]:
    return {"v": PROTOCOL_VERSION, "push": kind, "data": dict(data)}


def encode_done_push(record: Any) -> bytes:
    """Encode a ``done`` push for one request record, degrading safely.

    When the full state cannot cross the wire (an answer payload over
    :data:`MAX_FRAME_BYTES`, or a value JSON cannot carry), the push falls
    back to the same state with the answer stripped and the failure noted in
    ``error`` — still correlated by query id, so the watching client resolves
    with a typed error instead of waiting forever for a push that silently
    failed to encode.  Used by both network servers.
    """
    state = encode_request_state(record)
    try:
        return encode_frame(push_frame("done", state))
    except ProtocolError as exc:
        state["answer"] = None
        state["error"] = f"answer could not be delivered: {exc}"
        return encode_frame(push_frame("done", state))


# ---------------------------------------------------------------------------
# Typed error marshalling
# ---------------------------------------------------------------------------

#: Exception classes that may cross the wire, addressed by class name.  The
#: client reconstructs the *same type*, so typed ``except`` clauses behave
#: identically against remote and in-process services.
_MARSHALLED_ERRORS: dict[str, type[Exception]] = {
    cls.__name__: cls
    for cls in (
        errors.YoutopiaError,
        errors.StorageError,
        errors.SchemaError,
        errors.UnknownTableError,
        errors.DuplicateTableError,
        errors.UnknownColumnError,
        errors.TypeMismatchError,
        errors.ConstraintViolationError,
        errors.TransactionError,
        errors.ParseError,
        errors.PlanError,
        errors.EvaluationError,
        errors.EntanglementError,
        errors.CompilationError,
        errors.SafetyError,
        errors.UniquenessError,
        errors.QueryNotPendingError,
        errors.QueryAlreadyAnsweredError,
        errors.CoordinationTimeoutError,
        errors.ExecutionError,
        errors.ScriptError,
        errors.ServiceUnavailableError,
        errors.ProtocolError,
        errors.ApplicationError,
        errors.UnknownUserError,
        errors.BookingError,
    )
}

#: Structured attributes preserved across the wire (when present).
_ERROR_ATTRS = (
    "query_id",
    "timeout",
    "table_name",
    "column",
    "table",
    "line",
    "username",
    "reason",
    "statement_index",
    "statement_sql",
)


def encode_error(exc: BaseException) -> dict[str, Any]:
    """``exception -> {"code", "message", "data"}`` for the error envelope."""
    data: dict[str, Any] = {}
    for attr in _ERROR_ATTRS:
        value = getattr(exc, attr, None)
        if value is not None and isinstance(value, (str, int, float, bool)):
            data[attr] = value
    if isinstance(exc, errors.ScriptError):
        data["cause"] = encode_error(exc.cause)
    code = type(exc).__name__
    if code not in _MARSHALLED_ERRORS:
        # Unknown subclasses degrade to their closest marshalled ancestor.
        for ancestor in type(exc).__mro__:
            if ancestor.__name__ in _MARSHALLED_ERRORS:
                code = ancestor.__name__
                break
        else:
            code = "YoutopiaError"
    return {"code": code, "message": str(exc), "data": data}


def decode_error(payload: Mapping[str, Any]) -> Exception:
    """Reconstruct the typed exception described by an error envelope."""
    code = payload.get("code")
    message = str(payload.get("message", ""))
    data = payload.get("data") or {}
    cls = _MARSHALLED_ERRORS.get(str(code))
    if cls is None:
        return ProtocolError(f"server reported unknown error code {code!r}: {message}")

    # Classes whose constructors rebuild the message from structured fields.
    try:
        if cls is errors.UnknownTableError or cls is errors.DuplicateTableError:
            return cls(data["table_name"])
        if cls is errors.UnknownColumnError:
            return cls(data["column"], data.get("table"))
        if cls is errors.ParseError:
            # The message already carries the rendered location suffix; set
            # the positional attributes without re-appending it.
            parse_error = cls(message)
            parse_error.line = data.get("line")
            parse_error.column = data.get("column")
            return parse_error
        if cls is errors.QueryNotPendingError or cls is errors.QueryAlreadyAnsweredError:
            return cls(data["query_id"])
        if cls is errors.CoordinationTimeoutError:
            return cls(data["query_id"], float(data["timeout"]))
        if cls is errors.ScriptError:
            return cls(
                int(data["statement_index"]),
                str(data.get("statement_sql", "")),
                decode_error(data["cause"]) if "cause" in data else errors.YoutopiaError(message),
            )
        if cls is errors.ServiceUnavailableError:
            return cls(data.get("reason", message))
        if cls is errors.UnknownUserError:
            return cls(data["username"])
        return cls(message)
    except (KeyError, TypeError, ValueError):
        # A peer sent a recognised code with unusable data; keep the message.
        return errors.YoutopiaError(message)


# ---------------------------------------------------------------------------
# Value codecs (request state, answers, relation results)
# ---------------------------------------------------------------------------
#
# These translate the service DTOs to and from JSON-safe structures.  Tuples
# become lists on the wire and are restored client-side; cell values are the
# system's scalar types (str / int / float / bool / None), which JSON carries
# natively.


def encode_answer(answer: Any) -> dict[str, Any]:
    """``ir.GroundAnswer -> JSON`` (binding + per-relation tuple lists)."""
    return {
        "binding": dict(answer.binding),
        "tuples": {
            relation: [list(values) for values in relation_tuples]
            for relation, relation_tuples in answer.tuples.items()
        },
    }


def decode_answer(query_id: str, payload: Mapping[str, Any]) -> Any:
    from repro.core import ir

    return ir.GroundAnswer(
        query_id=query_id,
        binding=dict(payload.get("binding") or {}),
        tuples={
            relation: tuple(tuple(values) for values in relation_tuples)
            for relation, relation_tuples in (payload.get("tuples") or {}).items()
        },
    )


def encode_request_state(record: Any) -> dict[str, Any]:
    """Snapshot one coordination request (record or handle) for the wire."""
    return {
        "query_id": record.query_id,
        "owner": record.owner,
        "status": record.status.value,
        "error": record.error,
        "group": list(record.group_query_ids),
        "registered_at": record.registered_at,
        "answered_at": record.answered_at,
        "sql": record.query.sql,
        "priority": record.query.priority,
        "description": record.query.describe(),
        "answer": None if record.answer is None else encode_answer(record.answer),
    }


def encode_stats(stats: Any, transport: Mapping[str, int]) -> dict[str, Any]:
    """``ServiceStats + a server's transport snapshot -> JSON`` (one source
    of the wire shape for both servers)."""
    payload = {field.name: getattr(stats, field.name) for field in dataclasses.fields(stats)}
    payload["transport"] = dict(transport)
    return payload


def decode_stats(payload: Mapping[str, Any]) -> Any:
    """The inverse of :func:`encode_stats`; an absent or ``None`` block keeps
    its :class:`~repro.service.api.ServiceStats` default."""
    from repro.service.api import ServiceStats

    return ServiceStats(
        **{
            field.name: payload[field.name]
            for field in dataclasses.fields(ServiceStats)
            if payload.get(field.name) is not None
        }
    )


def encode_relation_result(result: Any) -> dict[str, Any]:
    return {
        "command": result.command,
        "columns": list(result.columns),
        "rows": [list(row) for row in result.rows],
        "affected": result.affected,
    }


def decode_relation_result(payload: Mapping[str, Any]) -> Any:
    from repro.service.api import RelationResult

    return RelationResult(
        command=str(payload.get("command", "")),
        columns=tuple(payload.get("columns") or ()),
        rows=tuple(tuple(row) for row in payload.get("rows") or ()),
        affected=int(payload.get("affected", 0)),
    )
