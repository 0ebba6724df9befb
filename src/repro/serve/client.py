"""Client for a running ``repro serve`` daemon.

:class:`ServeClient` is what ``repro submit`` / ``repro status`` /
``repro wait`` are built on: each call opens one connection to the
daemon's Unix socket, sends one request and reads one response
(per-request connections keep the client trivially safe to share and
the daemon free of half-dead streams; ``wait`` holds its single
connection open while the daemon blocks on the job).

Failures split into two kinds so callers can react differently:

- ``OSError`` -- no daemon at the socket path (connection refused,
  missing socket): the service is down;
- :class:`ServeError` -- the daemon answered ``ok: false`` (bad
  manifest, unknown job, draining): the service is up, the request
  was refused.
"""

from repro.serve.protocol import (
    DEFAULT_SOCKET,
    ProtocolError,
    check_protocol,
    connect,
)


class ServeError(Exception):
    """The daemon refused the request (``ok: false``)."""


class ServeClient:
    """One daemon endpoint, addressed by socket path."""

    def __init__(self, socket_path=DEFAULT_SOCKET, timeout=10.0):
        self.socket_path = socket_path
        #: Per-request socket timeout for everything except ``wait``,
        #: which blocks daemon-side for as long as the job takes.
        self.timeout = timeout

    def request(self, op, socket_timeout=None, **fields):
        """One request/response round trip; the response dict on
        success, :class:`ServeError` on an ``ok: false`` answer.

        ``socket_timeout`` bounds the transport; a payload ``timeout``
        field (``wait``) bounds the daemon-side wait instead.
        """
        payload = dict(fields, op=op)
        with connect(self.socket_path, timeout=socket_timeout) as stream:
            stream.send(payload)
            response = stream.recv()
        if response is None:
            raise ServeError("daemon closed the connection mid-request")
        if not response.get("ok"):
            raise ServeError(response.get("error") or "request refused")
        return response

    # -- operations --------------------------------------------------------
    def ping(self):
        response = self.request("ping", socket_timeout=self.timeout)
        check_protocol(response, "daemon at %s" % self.socket_path)
        return response

    def submit(self, manifest=None, manifest_ref=None, grid=None, name=None):
        """Submit one experiment; returns ``{"job", "cells", ...}``."""
        fields = {}
        if manifest is not None:
            fields["manifest"] = manifest
        if manifest_ref is not None:
            fields["manifest_ref"] = str(manifest_ref)
        if grid is not None:
            fields["grid"] = grid
        if name is not None:
            fields["name"] = str(name)
        return self.request("submit", socket_timeout=self.timeout, **fields)

    def status(self, job=None, rows=False):
        fields = {}
        if job is not None:
            fields["job"] = job
            if rows:
                fields["rows"] = True
        return self.request("status", socket_timeout=self.timeout, **fields)

    def wait(self, job, timeout=None):
        """Block until ``job`` finishes; its final summary + rows.

        ``timeout`` bounds the wait daemon-side; the socket itself
        stays unbounded so a long queue does not look like a dead
        daemon.
        """
        fields = {"job": job}
        if timeout is not None:
            fields["timeout"] = float(timeout)
        return self.request("wait", socket_timeout=None, **fields)

    def drain(self):
        return self.request("drain", socket_timeout=self.timeout)

    def is_up(self):
        """Liveness probe: ``True`` iff a compatible daemon answers."""
        try:
            self.ping()
        except (OSError, ServeError, ProtocolError):
            return False
        return True
