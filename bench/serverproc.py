"""The server subprocess of the serve workloads.

``python bench/serverproc.py STORE CACHE_BYTES`` serves one paged store
through ``AsyncProbeServer(ProbeService.from_paged(...))`` on an
ephemeral loopback port, prints ``host port`` once it is accepting, and
drains cleanly on SIGINT/SIGTERM.  It goes through the library's public
constructors rather than the ``repro serve`` CLI so that a later change
to the CLI's flags cannot silently change what is being measured.

The event loop runs on the server's own thread and the main thread only
waits for the signal: an interrupt then never lands inside a request
handler, and ``shutdown()`` drains in-flight frames before the exit.
"""

from __future__ import annotations

import signal
import sys
import threading

from repro.aserve.server import AsyncProbeServer
from repro.serve.service import ProbeService


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: serverproc.py STORE CACHE_BYTES", file=sys.stderr)
        return 2
    service = ProbeService.from_paged(argv[1], cache_bytes=int(argv[2]))
    stop = threading.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: stop.set())
    try:
        with AsyncProbeServer(service) as server:
            print(server.host, server.port, flush=True)
            stop.wait()
    finally:
        service.close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
