"""repro.aserve — the probe server and its clients.

The network half of serving, over the stores of :mod:`repro.serve`: a
versioned struct-packed binary frame format
(:mod:`~repro.aserve.frames`), the asyncio probe server that answers
them (:mod:`~repro.aserve.server`), a pipelined
async client with a blocking probe-protocol facade
(:mod:`~repro.aserve.client`), and a zero-copy
mmap fast path for local stores (:mod:`~repro.aserve.local`).  See
docs/SERVING.md for the frame layout and the version-negotiation state
machine.
"""

from pathlib import Path

from .client import AsyncProbeClient, BinaryProbeClient, EventLoopThread
from .frames import BINARY_VERSION, FrameError
from .local import LocalProbeClient
from .server import AsyncProbeServer

__all__ = [
    "AsyncProbeClient",
    "AsyncProbeServer",
    "BINARY_VERSION",
    "BinaryProbeClient",
    "EventLoopThread",
    "FrameError",
    "LocalProbeClient",
    "connect",
]


def connect(endpoint, **kwargs):
    """Probe client for an endpoint string, fastest transport first.

    An existing local path selects the zero-copy
    :class:`LocalProbeClient` (no socket at all); ``host:port`` selects
    the pipelined :class:`BinaryProbeClient`.  Keyword arguments pass
    through to the chosen constructor.
    """
    endpoint = str(endpoint)
    if Path(endpoint).exists():
        return LocalProbeClient(endpoint, **kwargs)
    host, _, port = endpoint.rpartition(":")
    if host and port.isdigit():
        return BinaryProbeClient(host, int(port), **kwargs)
    raise ValueError(
        f"endpoint {endpoint!r} is neither an existing paged-store path "
        f"nor host:port"
    )
