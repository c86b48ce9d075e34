"""The probe server: binary frames over TCP.

One :class:`AsyncProbeServer` wraps one
:class:`~repro.serve.service.ProbeService` and answers the binary frames
of :mod:`repro.aserve.frames`.  A payload whose first byte is not
:data:`~repro.aserve.frames.BINARY_VERSION` (``0xB1``) — an empty frame,
a JSON opener, any other byte — is refused with one error frame on the
reserved sequence id 0 and the connection is closed — never a hang.

Every connection is a coroutine on one event loop: ten thousand idle
connections cost ten thousand small objects, not ten thousand stacks.
Requests on one connection are answered in arrival order, which is what
makes client-side pipelining pay: a client may write hundreds of frames
before reading the first response.

The listener is bound eagerly in the constructor (``port=0`` picks an
ephemeral port readable before start), :meth:`~AsyncProbeServer.start`
runs the loop on a background thread,
:meth:`~AsyncProbeServer.serve_forever` runs it on the calling thread
until ``KeyboardInterrupt``, and shutdown drains in-flight frames,
closes every connection, and joins the loop.
"""

from __future__ import annotations

import asyncio
import contextlib
import socket
import threading

from ..obs import NULL_METRICS
from ..serve.protocol import MAX_MESSAGE_BYTES
from . import frames

__all__ = ["AsyncProbeServer"]

#: Seconds granted to in-flight connection handlers at shutdown.
_DRAIN_SECONDS = 5.0


class AsyncProbeServer:
    """Serve one :class:`ProbeService` over TCP on an asyncio event loop.

    Connections are isolated: a malformed frame or a raising handler
    produces an error response (or a counted disconnect) for that client
    only.  ``max_connections`` caps concurrently served connections —
    beyond it, a connection is refused on sequence id 0 and closed.
    ``max_inflight`` caps concurrently executing requests across all
    connections — past it a request is shed with an error frame carrying
    :data:`~repro.aserve.frames.FLAG_OVERLOADED` and the connection
    survives.  ``faults`` optionally carries a
    :class:`~repro.resilience.FaultPlan`; the drop-conn, latency,
    blackhole and crash-shard injectors all apply (latency is awaited,
    so injected delays overlap across connections instead of blocking
    the loop).  ``metrics`` is
    typically ``registry.scoped("aserve.server")``.
    """

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0,
                 metrics=None, max_message_bytes: int = MAX_MESSAGE_BYTES,
                 max_connections: int | None = None, faults=None,
                 max_inflight: int | None = None):
        self.service = service
        self._metrics = NULL_METRICS if metrics is None else metrics
        self._max_message_bytes = int(max_message_bytes)
        self._max_connections = (
            None if max_connections is None else int(max_connections)
        )
        self._max_inflight = (
            None if max_inflight is None else int(max_inflight)
        )
        self._inflight = 0
        self._drop = getattr(faults, "connection_drop", None)
        self._latency = getattr(faults, "latency", None)
        self._blackhole = getattr(faults, "blackhole", None)
        self._crash = getattr(faults, "shard_crash", None)
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(1024)
        self.host, self.port = self._listener.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._stop: asyncio.Event | None = None
        self._writers: set = set()
        self._tasks: set = set()

    @property
    def address(self) -> tuple:
        """``(host, port)`` of the bound listener."""
        return (self.host, self.port)

    # ------------------------------------------------------------ lifecycle

    def start(self) -> "AsyncProbeServer":
        """Run the event loop on a background thread and return once the
        server is accepting connections."""
        ready = threading.Event()
        self._thread = threading.Thread(
            target=self._run_loop, args=(ready,),
            name=f"aserve-{self.port}", daemon=True,
        )
        self._thread.start()
        ready.wait()
        return self

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until
        ``KeyboardInterrupt`` or :meth:`shutdown`; returns after a clean
        drain either way."""
        self._loop = asyncio.new_event_loop()
        try:
            main = self._loop.create_task(self._main(None))
            try:
                self._loop.run_until_complete(main)
            except KeyboardInterrupt:
                # SIGINT landed between frames: resume the suspended main
                # task just long enough to drain and close cleanly.
                self._loop.run_until_complete(self._finish(main))
        finally:
            self._loop.close()

    def shutdown(self) -> None:
        """Stop accepting, drain in-flight frames, join the loop thread
        (background-thread servers only); safe to call repeatedly."""
        loop, thread = self._loop, self._thread
        if loop is None or self._stop is None:
            self._listener.close()  # constructed but never started
            return
        if thread is not None and thread.is_alive():
            loop.call_soon_threadsafe(self._stop.set)
            thread.join()

    def __enter__(self) -> "AsyncProbeServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()

    def _run_loop(self, ready: threading.Event) -> None:
        self._loop = asyncio.new_event_loop()
        try:
            self._loop.run_until_complete(self._main(ready))
        finally:
            self._loop.close()

    async def _finish(self, main_task) -> None:
        self._stop.set()
        await main_task

    async def _main(self, ready: threading.Event | None) -> None:
        self._stop = asyncio.Event()
        server = await asyncio.start_server(
            self._serve_connection, sock=self._listener
        )
        if ready is not None:
            ready.set()
        try:
            await self._stop.wait()
        finally:
            server.close()
            await self._drain_connections()
            await server.wait_closed()

    async def _drain_connections(self) -> None:
        # Closing the transports feeds EOF to every connection handler
        # parked on a read; they exit on their own within the grace
        # period, which is what "the event loop drains" means.
        for writer in list(self._writers):
            writer.close()
        tasks = [t for t in self._tasks if not t.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=_DRAIN_SECONDS)

    # ---------------------------------------------------------- connections

    async def _serve_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        try:
            self._metrics.inc("connections")
            if self._drop is not None and self._drop.drop_on_accept():
                # Injected fault: sever this connection before serving it.
                self._metrics.inc("faults.connections_dropped")
                return
            sock = writer.get_extra_info("socket")
            if sock is not None:
                # asyncio does not set NODELAY on sockets accepted from a
                # pre-bound listener; without it Nagle holds the second of
                # two small responses until the client's delayed ACK
                # (~40ms), destroying pipelined throughput.
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if (self._max_connections is not None
                    and len(self._writers) >= self._max_connections):
                self._metrics.inc("connections_rejected")
                await self._refuse(writer, "server at capacity "
                                   f"({self._max_connections} connections)")
                return
            self._writers.add(writer)
            self._tasks.add(task)
            await self._connection_loop(reader, writer)
        except (ConnectionError, OSError):
            self._metrics.inc("client_disconnects")
        except Exception as exc:  # noqa: BLE001 — a connection handler must
            # never take down the event loop: the failure is refused on
            # sequence id 0, counted, and only this connection is dropped.
            with contextlib.suppress(ConnectionError, OSError):
                await self._refuse(writer, f"{type(exc).__name__}: {exc}")
            self._metrics.inc("errors")
        finally:
            self._writers.discard(writer)
            self._tasks.discard(task)
            writer.close()

    async def _connection_loop(self, reader, writer) -> None:
        sever_after = (
            self._drop.sever_after() if self._drop is not None else None
        )
        answered = 0
        while True:
            try:
                head = await reader.readexactly(frames.LENGTH.size)
            except asyncio.IncompleteReadError as exc:
                if exc.partial:  # torn prefix, not a clean EOF
                    self._metrics.inc("client_disconnects")
                return
            except (ConnectionError, OSError):
                self._metrics.inc("client_disconnects")
                return
            (length,) = frames.LENGTH.unpack(head)
            if length > self._max_message_bytes:
                # Rejected from the prefix alone — no payload buffered.
                self._metrics.inc("errors")
                await self._refuse(writer, f"frame of {length} bytes exceeds "
                                   f"limit ({self._max_message_bytes})")
                return
            try:
                payload = await reader.readexactly(length)
            except (asyncio.IncompleteReadError, ConnectionError, OSError):
                self._metrics.inc("client_disconnects")
                return
            try:
                keep = await self._answer(payload, writer)
            except (ConnectionError, OSError):
                self._metrics.inc("client_disconnects")
                return
            if not keep:
                return
            answered += 1
            if sever_after is not None and answered >= sever_after:
                # Injected fault: hang up mid-session so pipelined
                # clients exercise reconnect and replay.
                self._metrics.inc("faults.connections_severed")
                return

    async def _answer(self, payload: bytes, writer) -> bool:
        """Answer one frame; returns whether the connection survives."""
        if payload[:1] != frames.VERSION_BYTE:
            # No binary header, so no sequence id to answer on and no
            # reason to trust the rest of the stream.
            self._metrics.inc("errors")
            await self._refuse(writer, "empty frame" if not payload else
                               f"unknown protocol version byte "
                               f"0x{payload[0]:02x}")
            return False
        if self._blackhole is not None and self._blackhole.swallow():
            # Injected fault: read the frame, never answer — the
            # silence only a client timeout escapes.
            self._metrics.inc("faults.requests_blackholed")
            return True
        if self._max_inflight is not None \
                and self._inflight >= self._max_inflight:
            await self._shed(payload, writer)
            self._metrics.inc("overloads")
            return True
        self._inflight += 1
        try:
            await self._answer_binary(payload, writer)
        finally:
            self._inflight -= 1
        if self._crash is not None:
            self._crash.answered()
        return True

    async def _refuse(self, writer, message: str) -> None:
        """Refuse the whole connection: one error frame on the reserved
        sequence id 0, which no request carries.  The caller closes."""
        writer.write(frames.pack_frame(frames.encode_error(0, 0, message)))
        await writer.drain()

    async def _shed(self, payload: bytes, writer) -> None:
        """Answer one shed request with an overload error frame; the
        connection stays usable for later, admitted requests."""
        writer.write(frames.pack_frame(frames.encode_error(
            frames.peek_seq(payload), frames.peek_opcode(payload),
            f"server overloaded ({self._max_inflight} requests in flight)",
            flags=frames.FLAG_OVERLOADED,
        )))
        await writer.drain()

    async def _answer_binary(self, payload: bytes, writer) -> None:
        try:
            if self._latency is not None:
                delay = self._latency.delay_seconds()
                if delay:
                    self._metrics.inc("faults.latency_injected")
                    await asyncio.sleep(delay)
            self._metrics.inc("frames_binary")
            request = frames.decode_request(payload)
            self._metrics.inc("requests")
            self._metrics.inc(f"op.{frames.OP_NAMES[request.opcode]}")
            response = self._dispatch(request)
        except frames.FrameError as exc:
            # The length prefix already delimited this frame, so the
            # stream is still in sync: answer an error frame and keep
            # the connection.
            self._metrics.inc("errors")
            response = frames.encode_error(
                frames.peek_seq(payload), frames.peek_opcode(payload),
                str(exc),
            )
        except Exception as exc:  # noqa: BLE001 — isolation: one bad
            # request answers an error frame, never kills the connection.
            self._metrics.inc("errors")
            response = frames.encode_error(
                frames.peek_seq(payload), frames.peek_opcode(payload),
                f"{type(exc).__name__}: {exc}",
            )
        writer.write(frames.pack_frame(response))
        await writer.drain()

    # ------------------------------------------------------------- dispatch

    def _dispatch(self, request: frames.Request) -> bytes:
        service, seq, op = self.service, request.seq, request.opcode
        if op == frames.OP_PING:
            return frames.encode_pong(seq)
        if op == frames.OP_PROBE:
            return frames.encode_value(
                seq, service.probe(request.db, int(request.index))
            )
        if op == frames.OP_PROBE_MANY:
            values = service.probe_packed(
                request.directory, request.db_slots, request.indices
            )
            return frames.encode_values(seq, values)
        if op == frames.OP_DEPTH_OF:
            return frames.encode_depth(
                seq, service.depth_of(request.db, int(request.index))
            )
        if op == frames.OP_BEST_MOVE:
            value, moves = service.best_moves(request.board)
            return frames.encode_best_move_result(seq, value, moves)
        if op == frames.OP_INFO:
            info = {
                "game": service.game_name,
                "rules": service.rules,
                "backend": service.backend_kind,
                "ids": service.ids(),
                "positions": {
                    str(i): service.positions(i) for i in service.ids()
                },
            }
            store = getattr(service.backend, "store", None)
            if store is not None:
                info["codec"] = store.codec
            return frames.encode_json_body(seq, op, info)
        return frames.encode_json_body(seq, frames.OP_STATS, service.stats())
