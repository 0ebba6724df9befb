"""The long-lived experiment service (``repro serve``).

One daemon process owns one persistent warm worker pool and one result
dataset; ``repro submit``/``status``/``wait`` clients talk to it over
a local Unix socket.  See :mod:`repro.serve.daemon` for the execution
model (one FIFO queue of work slices) and :mod:`repro.serve.protocol`
for the wire format.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ExperimentService, ServiceError
from repro.serve.protocol import DEFAULT_SOCKET, PROTOCOL_VERSION, ProtocolError

__all__ = [
    "DEFAULT_SOCKET",
    "ExperimentService",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeClient",
    "ServeError",
    "ServiceError",
]
