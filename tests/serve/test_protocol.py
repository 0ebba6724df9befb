"""Wire-protocol tests: JSON-line framing, refusal of malformed and
oversized frames, and the protocol-version check."""

import json
import os
import socket

import pytest

from repro.serve import protocol
from repro.serve.protocol import (
    PROTOCOL_VERSION,
    MessageStream,
    ProtocolError,
    check_protocol,
    connect,
    error_response,
)


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    a, b = MessageStream(left), MessageStream(right)
    yield a, b
    a.close()
    b.close()


def raw_send(stream, data):
    stream._sock.sendall(data)


class TestFraming:
    def test_round_trip_preserves_payload(self, pair):
        a, b = pair
        payload = {"op": "submit", "grid": {"benchmarks": ["system-call"]}, "n": 3}
        a.send(payload)
        assert b.recv() == payload

    def test_messages_are_sorted_json_lines(self, pair):
        a, b = pair
        a.send({"z": 1, "a": 2})
        assert b._reader.readline() == b'{"a": 2, "z": 1}\n'

    def test_consecutive_messages_stay_separate(self, pair):
        a, b = pair
        for n in range(3):
            a.send({"n": n})
        assert [b.recv()["n"] for _ in range(3)] == [0, 1, 2]

    def test_clean_eof_is_none(self, pair):
        a, b = pair
        a.close()
        assert b.recv() is None

    def test_undecodable_line_is_refused(self, pair):
        a, b = pair
        raw_send(a, b"{not json\n")
        with pytest.raises(ProtocolError, match="undecodable"):
            b.recv()

    def test_invalid_utf8_is_refused(self, pair):
        a, b = pair
        raw_send(a, b'{"op": "\xff"}\n')
        with pytest.raises(ProtocolError, match="undecodable"):
            b.recv()

    def test_non_object_message_is_refused(self, pair):
        a, b = pair
        raw_send(a, json.dumps([1, 2]).encode() + b"\n")
        with pytest.raises(ProtocolError, match="not a JSON object"):
            b.recv()

    def test_oversized_message_is_refused(self, pair, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_MESSAGE_BYTES", 16)
        a, b = pair
        a.send({"payload": "x" * 64})
        with pytest.raises(ProtocolError, match="exceeds 16 bytes"):
            b.recv()


class TestVersion:
    def test_same_or_absent_version_is_accepted(self):
        check_protocol({"protocol": PROTOCOL_VERSION}, "daemon")
        check_protocol({}, "daemon")

    def test_version_mismatch_is_refused(self):
        with pytest.raises(ProtocolError, match="daemon speaks protocol 1"):
            check_protocol({"protocol": 1}, "daemon")


class TestConnect:
    def test_no_listener_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            connect(os.fspath(tmp_path / "nothing.sock"), timeout=1.0)

    def test_error_response_shape(self):
        assert error_response(ValueError("bad")) == {"ok": False, "error": "bad"}
