"""Build protocol: framing, envelopes, and their failure modes."""

import io
import json

import pytest

from repro.farm.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    LineTooLongError,
    ProtocolError,
    decode_bytes,
    encode_bytes,
    make_error,
    make_progress,
    make_request,
    make_result,
    read_message,
    validate_request,
    write_message,
)


def roundtrip(message):
    buffer = io.BytesIO()
    write_message(buffer, message)
    buffer.seek(0)
    return read_message(buffer)


class TestFraming:
    def test_roundtrip_preserves_message(self):
        message = make_request("build", {"sources": {"m": "func main"}})
        assert roundtrip(message) == message

    def test_key_order_preserved(self):
        # Module order is link layout order: the wire must not sort it.
        sources = {"zeta": "z", "alpha": "a", "mid": "m"}
        out = roundtrip(make_request("build", {"sources": sources}))
        assert list(out["options"]["sources"]) == ["zeta", "alpha", "mid"]

    def test_one_line_per_message(self):
        buffer = io.BytesIO()
        write_message(buffer, make_progress("r1", "working"))
        write_message(buffer, make_result("r1", {"ok": 1}))
        lines = buffer.getvalue().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["event"] == "progress"
        assert json.loads(lines[1])["event"] == "result"

    def test_eof_returns_none(self):
        assert read_message(io.BytesIO(b"")) is None

    def test_truncated_line_rejected(self):
        with pytest.raises(ProtocolError, match="truncated"):
            read_message(io.BytesIO(b'{"v": 1}'))  # no newline

    def test_bad_json_rejected(self):
        with pytest.raises(ProtocolError, match="undecodable"):
            read_message(io.BytesIO(b"{nope\n"))

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="object"):
            read_message(io.BytesIO(b"[1, 2]\n"))

    def test_oversized_line_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.farm.protocol.MAX_LINE_BYTES", 64)
        with pytest.raises(ProtocolError, match="exceeds"):
            read_message(io.BytesIO(b'{"pad": "%s"}\n' % (b"x" * 100)))

    def test_oversized_outgoing_rejected(self, monkeypatch):
        monkeypatch.setattr("repro.farm.protocol.MAX_LINE_BYTES", 64)
        with pytest.raises(ProtocolError, match="exceeds"):
            write_message(io.BytesIO(), {"pad": "y" * 100})


class TestLineTooLong:
    def test_carries_limit_as_typed_error(self, monkeypatch):
        monkeypatch.setattr("repro.farm.protocol.MAX_LINE_BYTES", 64)
        with pytest.raises(LineTooLongError) as excinfo:
            read_message(io.BytesIO(b'{"pad": "%s"}\n' % (b"x" * 100)))
        assert excinfo.value.limit == 64
        assert isinstance(excinfo.value, ProtocolError)

    def test_oversized_line_is_drained_stream_stays_in_sync(self):
        # The receiver can keep talking after rejecting the line: the
        # next message on the stream parses normally.
        oversized = b'{"pad": "%s"}\n' % (b"y" * 4096)
        stream = io.BytesIO(oversized + b'{"after": true}\n')
        with pytest.raises(LineTooLongError):
            read_message(stream, max_bytes=64)
        assert read_message(stream, max_bytes=64) == {"after": True}

    def test_drain_handles_lines_far_past_the_limit(self):
        # Drain reads are bounded chunks, so a line many multiples of
        # the limit still leaves the stream positioned correctly.
        stream = io.BytesIO(b"z" * (64 * 37) + b"\n" + b'{"v": 1}\n')
        with pytest.raises(LineTooLongError):
            read_message(stream, max_bytes=64)
        assert read_message(stream, max_bytes=64) == {"v": 1}

    def test_eof_inside_oversized_line(self):
        # Peer died mid-flood: drain hits EOF, the error still raises.
        stream = io.BytesIO(b"x" * 300)  # no newline, then EOF
        with pytest.raises(LineTooLongError):
            read_message(stream, max_bytes=64)
        assert read_message(stream, max_bytes=64) is None


class TestEnvelopes:
    def test_request_has_version_and_id(self):
        message = make_request("status")
        assert message["v"] == PROTOCOL_VERSION
        assert message["id"]
        assert message["options"] == {}

    def test_request_ids_unique(self):
        ids = {make_request("ping")["id"] for _ in range(50)}
        assert len(ids) == 50

    def test_error_envelope(self):
        message = make_error("r9", "ServerBusy", "full up", retry=True)
        assert message["ok"] is False
        assert message["error"]["code"] == "ServerBusy"
        assert message["error"]["retry"] is True

    def test_validate_accepts_wellformed(self):
        validate_request(make_request("build", {"sources": {}}))

    @pytest.mark.parametrize("mutate, pattern", [
        (lambda m: m.update(v=99), "version"),
        (lambda m: m.update(id=""), "id"),
        (lambda m: m.pop("id"), "id"),
        (lambda m: m.update(op="explode"), "unknown op"),
        (lambda m: m.update(options=[1]), "options"),
        # An op a previous release served and this one does not.
        pytest.param(lambda m: m.update(op="profile-ingest"), "unknown op",
                     id="removed-op"),
        # Ops that run in the client's own process now.
        pytest.param(lambda m: m.update(op="train"), "unknown op",
                     id="removed-train-op"),
        pytest.param(lambda m: m.update(op="objdump"), "unknown op",
                     id="removed-objdump-op"),
    ])
    def test_validate_rejects_malformed(self, mutate, pattern):
        message = make_request("build")
        mutate(message)
        with pytest.raises(ProtocolError, match=pattern):
            validate_request(message)


class TestBytes:
    def test_base64_roundtrip(self):
        payload = bytes(range(256)) * 3
        assert decode_bytes(encode_bytes(payload)) == payload

    def test_image_survives_json(self):
        payload = b"\x00\xff\x7f binary image"
        line = json.dumps({"image_b64": encode_bytes(payload)})
        assert decode_bytes(json.loads(line)["image_b64"]) == payload
