"""Wire protocol for the experiment service.

``repro serve`` and its clients speak newline-delimited JSON over a
local ``AF_UNIX`` stream socket: every message is one JSON object on
one line, requests carry an ``op`` field, responses carry ``ok``
(``True`` with op-specific payload keys, or ``False`` with an
``error`` string).  The framing is deliberately trivial -- any
language that can open a Unix socket and read lines can drive the
service -- and versioned: the daemon reports ``protocol`` in its
``ping`` and service ``status`` answers, and the client's ``ping``
refuses a mismatch loudly rather than mis-parsing the daemon.

Operations (see :mod:`repro.serve.daemon` for semantics):

``ping``
    Liveness + identity: ``{"ok": true, "protocol": 3, "pid": ...}``.
``submit``
    A manifest payload (``manifest``), a bundled/path reference
    resolved daemon-side (``manifest_ref``) or an ad-hoc grid table
    (``grid``, optionally ``name``d); answers the assigned ``job`` id
    and expanded ``cells`` and ``slices`` counts.
``status``
    One job (``job``, plus its telemetry ``rows`` if ``rows`` is set)
    or the whole service (queue depth, draining flag, per-state
    counts, per-job summaries).
``wait``
    Block until a job reaches a terminal state (optional ``timeout``
    seconds; ``0`` answers at once); answers the final job summary
    plus its telemetry ``rows``: one per unique cell of each slice,
    with ``submitted`` (specs sharing the cell), ``status``/``error``
    and ``source``, so a client can tell warm ``dataset`` cells from
    executed ones.
``drain``
    Begin graceful shutdown: finish in-flight work, cancel the queue,
    exit 0 (completed slices' dataset rows are already stored).
"""

import json
import os
import socket

#: Bump when the message vocabulary changes incompatibly.
PROTOCOL_VERSION = 3

#: Default rendezvous path, alongside the default dataset directory.
DEFAULT_SOCKET = ".repro-serve.sock"

#: Hard cap on one message line (a submit ships a whole manifest
#: payload; 32 MiB is orders of magnitude above any real grid).
MAX_MESSAGE_BYTES = 32 * 1024 * 1024


class ProtocolError(ValueError):
    """Malformed frame, oversized message, or version mismatch."""


class MessageStream:
    """One connected socket, framed as JSON-object lines.

    Used symmetrically by the daemon's connection handlers and the
    client; owns the socket and its buffered reader.
    """

    def __init__(self, sock):
        self._sock = sock
        self._reader = sock.makefile("rb")

    def send(self, payload):
        """Send one message (a JSON-serialisable dict)."""
        line = json.dumps(payload, sort_keys=True) + "\n"
        self._sock.sendall(line.encode("utf-8"))

    def recv(self):
        """The next message as a dict, or ``None`` on a clean EOF."""
        line = self._reader.readline(MAX_MESSAGE_BYTES + 1)
        if not line:
            return None
        if len(line) > MAX_MESSAGE_BYTES:
            raise ProtocolError("message exceeds %d bytes" % MAX_MESSAGE_BYTES)
        try:
            payload = json.loads(line.decode("utf-8"))
        except (UnicodeDecodeError, ValueError) as exc:
            raise ProtocolError("undecodable message: %s" % exc) from None
        if not isinstance(payload, dict):
            raise ProtocolError("message is not a JSON object")
        return payload

    def close(self):
        try:
            self._reader.close()
        except OSError:
            pass
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def connect(socket_path, timeout=None):
    """A :class:`MessageStream` connected to a serving daemon.

    Raises ``OSError`` (connection refused / no such socket) when no
    daemon is listening at ``socket_path``.
    """
    sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    if timeout is not None:
        sock.settimeout(timeout)
    try:
        sock.connect(os.fspath(socket_path))
    except OSError:
        sock.close()
        raise
    return MessageStream(sock)


def error_response(message):
    return {"ok": False, "error": str(message)}


def check_protocol(payload, side):
    """Refuse a peer speaking a different protocol revision."""
    version = payload.get("protocol")
    if version is not None and version != PROTOCOL_VERSION:
        raise ProtocolError(
            "%s speaks protocol %r, this build speaks %d"
            % (side, version, PROTOCOL_VERSION)
        )
