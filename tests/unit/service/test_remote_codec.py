"""Unit tests for the remote wire format (framing + typed error marshalling)."""

from __future__ import annotations

import socket
import struct
import threading

import pytest

from repro import errors
from repro.service.remote import codec


def roundtrip(payload: dict) -> dict:
    """Write one frame through a socketpair and read it back."""
    left, right = socket.socketpair()
    try:
        left.sendall(codec.encode_frame(payload))
        left.shutdown(socket.SHUT_WR)
        return codec.read_frame(right)
    finally:
        left.close()
        right.close()


class TestFraming:
    def test_frame_roundtrip(self):
        payload = codec.request_frame(7, "submit", {"item": {"sql": "SELECT 1", "owner": "K"}})
        assert roundtrip(payload) == payload

    def test_frames_preserve_order_on_one_stream(self):
        left, right = socket.socketpair()
        try:
            for index in range(5):
                left.sendall(codec.encode_frame(codec.response_frame(index, index * 10)))
            left.shutdown(socket.SHUT_WR)
            received = [codec.read_frame(right) for _ in range(5)]
            assert [frame["id"] for frame in received] == list(range(5))
            assert codec.read_frame(right) is None  # clean EOF between frames
        finally:
            left.close()
            right.close()

    def test_partial_delivery_is_reassembled(self):
        """A frame trickling in byte-by-byte still decodes."""
        payload = codec.push_frame("done", {"query_id": "q1", "status": "answered"})
        raw = codec.encode_frame(payload)
        left, right = socket.socketpair()
        try:
            def drip() -> None:
                for offset in range(len(raw)):
                    left.sendall(raw[offset : offset + 1])
                left.shutdown(socket.SHUT_WR)

            writer = threading.Thread(target=drip)
            writer.start()
            assert codec.read_frame(right) == payload
            writer.join(timeout=5.0)
        finally:
            left.close()
            right.close()

    def test_truncated_frame_raises_protocol_error(self):
        raw = codec.encode_frame(codec.response_frame(1, "x"))
        left, right = socket.socketpair()
        try:
            left.sendall(raw[:-3])
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(errors.ProtocolError, match="mid-frame"):
                codec.read_frame(right)
        finally:
            left.close()
            right.close()

    def test_version_mismatch_raises_protocol_error(self):
        frame = codec.response_frame(1, "x")
        frame["v"] = codec.PROTOCOL_VERSION + 1
        with pytest.raises(errors.ProtocolError, match="version mismatch"):
            roundtrip(frame)

    def test_non_json_body_raises_protocol_error(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 4) + b"\xff\xfe\x00\x01")
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(errors.ProtocolError, match="not valid JSON"):
                codec.read_frame(right)
        finally:
            left.close()
            right.close()

    def test_oversized_declared_length_rejected_before_reading(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", codec.MAX_FRAME_BYTES + 1))
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(errors.ProtocolError, match="exceeds"):
                codec.read_frame(right)
        finally:
            left.close()
            right.close()

    def test_non_object_payload_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">I", 2) + b"[]")
            left.shutdown(socket.SHUT_WR)
            with pytest.raises(errors.ProtocolError, match="JSON object"):
                codec.read_frame(right)
        finally:
            left.close()
            right.close()

    def test_unserialisable_payload_raises_protocol_error(self):
        with pytest.raises(errors.ProtocolError, match="JSON-serialisable"):
            codec.encode_frame({"v": codec.PROTOCOL_VERSION, "bad": object()})


class TestErrorMarshalling:
    def marshal(self, exc: BaseException) -> Exception:
        return codec.decode_error(codec.encode_error(exc))

    def test_same_type_and_message_survive(self):
        for original in (
            errors.SafetyError("unsafe variable 'x'"),
            errors.UniquenessError("ambiguous origin"),
            errors.PlanError("expected a plain SELECT"),
            errors.CompilationError("bad head"),
            errors.EvaluationError("division by zero"),
            errors.ProtocolError("bad frame"),
        ):
            decoded = self.marshal(original)
            assert type(decoded) is type(original)
            assert str(decoded) == str(original)

    def test_structured_attributes_survive(self):
        timeout = self.marshal(errors.CoordinationTimeoutError("q7", 1.5))
        assert isinstance(timeout, errors.CoordinationTimeoutError)
        assert timeout.query_id == "q7" and timeout.timeout == 1.5

        not_pending = self.marshal(errors.QueryNotPendingError("q3"))
        assert isinstance(not_pending, errors.QueryNotPendingError)
        assert not_pending.query_id == "q3"

        answered = self.marshal(errors.QueryAlreadyAnsweredError("q4"))
        assert isinstance(answered, errors.QueryAlreadyAnsweredError)
        assert answered.query_id == "q4" and "durable" in str(answered)

        unknown_table = self.marshal(errors.UnknownTableError("Flights"))
        assert isinstance(unknown_table, errors.UnknownTableError)
        assert unknown_table.table_name == "Flights"

        unknown_column = self.marshal(errors.UnknownColumnError("dest", "Flights"))
        assert isinstance(unknown_column, errors.UnknownColumnError)
        assert (unknown_column.column, unknown_column.table) == ("dest", "Flights")

        unavailable = self.marshal(errors.ServiceUnavailableError("gone fishing"))
        assert isinstance(unavailable, errors.ServiceUnavailableError)
        assert unavailable.reason == "gone fishing"

    def test_parse_error_position_survives_without_duplicating_location(self):
        decoded = self.marshal(errors.ParseError("boom", line=3, column=7))
        assert isinstance(decoded, errors.ParseError)
        assert decoded.line == 3 and decoded.column == 7
        assert str(decoded).count("line 3") == 1

    def test_script_error_nests_its_cause(self):
        original = errors.ScriptError(2, "SELECT * FROM Nowhere", errors.UnknownTableError("Nowhere"))
        decoded = self.marshal(original)
        assert isinstance(decoded, errors.ScriptError)
        assert decoded.statement_index == 2
        assert decoded.statement_sql == "SELECT * FROM Nowhere"
        assert isinstance(decoded.cause, errors.UnknownTableError)
        assert decoded.cause.table_name == "Nowhere"

    def test_unknown_subclass_degrades_to_marshalled_ancestor(self):
        class ExoticStorageError(errors.StorageError):
            pass

        decoded = self.marshal(ExoticStorageError("disk on fire"))
        assert type(decoded) is errors.StorageError
        assert "disk on fire" in str(decoded)

    def test_unknown_code_becomes_protocol_error(self):
        decoded = codec.decode_error({"code": "FlyingSaucerError", "message": "??"})
        assert isinstance(decoded, errors.ProtocolError)
        assert "FlyingSaucerError" in str(decoded)

    def test_recognised_code_with_garbage_data_keeps_message(self):
        decoded = codec.decode_error(
            {"code": "CoordinationTimeoutError", "message": "q9 timed out", "data": {}}
        )
        assert isinstance(decoded, errors.YoutopiaError)
        assert "q9 timed out" in str(decoded)


class TestValueCodecs:
    def test_relation_result_roundtrip(self):
        from repro.service.api import RelationResult

        original = RelationResult(
            command="SELECT", columns=("fno", "dest"), rows=((122, "Paris"), (136, None)), affected=0
        )
        decoded = codec.decode_relation_result(codec.encode_relation_result(original))
        assert decoded == original
        assert isinstance(decoded.rows[0], tuple)

    def test_answer_roundtrip(self):
        from repro.core import ir

        original = ir.GroundAnswer(
            query_id="q1",
            binding={"fno": 122},
            tuples={"Reservation": (("Kramer", 122),)},
        )
        decoded = codec.decode_answer("q1", codec.encode_answer(original))
        assert decoded == original
        assert decoded.tuples["Reservation"][0] == ("Kramer", 122)


class TestStatsCodec:
    def test_every_stats_field_and_key_survives_the_wire(self, tmp_path):
        """A durable, tiered, ``priority`` server fills every block; whatever
        ``ServiceStats`` grows later must cross ``encode_stats`` →
        ``decode_stats`` whole, not be dropped by a hand-listed codec."""
        import dataclasses

        from repro.apps.cli import build_server
        from repro.service.api import ServiceStats

        server = build_server(
            port=0,
            seed=0,
            data_dir=str(tmp_path),
            fsync_policy="always",
            match_policy="priority",
            pending_memory_limit=1,
            cold_store="sqlite",
            cluster_node="0/2",
        )
        try:
            service = server.service
            service.execute_script("CREATE TABLE Flights (fno INT PRIMARY KEY, dest TEXT)")
            for owner in ("a", "b"):
                service.submit(
                    f"SELECT '{owner}', fno INTO ANSWER Reservation WHERE fno IN "
                    f"(SELECT fno FROM Flights) AND ('ghost', fno) IN ANSWER Reservation "
                    "CHOOSE 1",
                    owner=owner,
                )
            stats = service.stats()
            transport = server.metrics.snapshot()
        finally:
            server.stop()
        payload = roundtrip(codec.response_frame(1, codec.encode_stats(stats, transport)))
        decoded = codec.decode_stats(payload["result"])
        assert stats.tiering["cold"] == 1 and stats.durability["enabled"]
        for field in dataclasses.fields(ServiceStats):
            sent = transport if field.name == "transport" else getattr(stats, field.name)
            assert getattr(decoded, field.name) == sent, field.name
            if isinstance(sent, dict):
                assert sent, f"{field.name} is empty on a fully configured server"
                assert set(getattr(decoded, field.name)) == set(sent)
