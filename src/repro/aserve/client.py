"""The probe client: pipelined async core plus a blocking facade.

:class:`AsyncProbeClient` is the async core: one connection, many
requests in flight.  Each request takes a sequence id, lands in a
``seq → Future`` table, and a single reader task resolves futures as
response frames arrive — so N concurrent ``await``\\ s on one connection
cost one round trip, not N.  A semaphore bounds the in-flight window.

:class:`BinaryProbeClient` wraps the async core behind the blocking,
duck-typed **probe protocol** that
:class:`~repro.serve.service.ProbeService` also speaks (``probe`` /
``probe_many`` / ``depth_of`` / ``best_move`` / ``__contains__`` /
``ids`` / …), so ``repro.db.query``, ``repro.db.search`` and the cluster
:class:`~repro.cluster.router.ShardRouter` run over the network
unchanged.  Transport failures of idempotent requests are replayed over
a fresh connection within :class:`~repro.resilience.ReconnectPolicy`
bounds, and exhaustion surfaces as
:class:`~repro.serve.client.ProbeTransportError` — the type the router
fails over on.

:class:`EventLoopThread` is the sync/async bridge: one daemon thread
running one event loop, shareable between many facades (the router puts
every shard's client on a single loop — scatter-gather without a thread
per shard).
"""

from __future__ import annotations

import asyncio
import threading

import numpy as np

from ..db.store import DatabaseSet
from ..obs import NULL_METRICS
from ..resilience import ReconnectPolicy
from ..serve.client import (
    ProbeError,
    ProbeOverloadedError,
    ProbeTransportError,
)
from ..serve.protocol import MAX_MESSAGE_BYTES
from ..serve.service import split_positions
from . import frames

__all__ = ["AsyncProbeClient", "BinaryProbeClient", "EventLoopThread"]

#: Default bound on pipelined in-flight requests per connection.
DEFAULT_MAX_INFLIGHT = 128


class EventLoopThread:
    """One asyncio event loop on a daemon thread.

    The bridge between blocking callers and the async client: coroutines
    are submitted with :meth:`submit` (a ``concurrent.futures.Future``)
    or run to completion with :meth:`run`.  One instance can host any
    number of clients — the router's binary fan-out drives every shard
    from a single instance.
    """

    def __init__(self, name: str = "aserve-loop"):
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_forever, name=name, daemon=True
        )
        self._thread.start()

    def _run_forever(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The hosted event loop."""
        return self._loop

    def submit(self, coro):
        """Schedule a coroutine; returns a ``concurrent.futures.Future``."""
        return asyncio.run_coroutine_threadsafe(coro, self._loop)

    def run(self, coro):
        """Run a coroutine to completion and return its result."""
        return self.submit(coro).result()

    def close(self) -> None:
        """Stop the loop and join the thread; safe to call repeatedly."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()


class AsyncProbeClient:
    """Async pipelined client for the binary probe protocol.

    Construct with :meth:`connect` (must run on the event loop).  Any
    number of request coroutines may be awaited concurrently; the
    in-flight window is bounded by ``max_inflight``.  Transport loss, or
    a refusal on the reserved sequence id 0, fails every pending request
    with :class:`~repro.serve.client.ProbeTransportError`; an error frame
    for one sequence id fails only that request, with
    :class:`~repro.serve.client.ProbeError`.
    """

    def __init__(self, reader, writer, host: str, port: int,
                 timeout: float = 30.0, metrics=None,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self._reader = reader
        self._writer = writer
        self._metrics = NULL_METRICS if metrics is None else metrics
        self._pending: dict = {}
        self._seq = 0
        self._window = asyncio.Semaphore(max_inflight)
        self._inflight_peak = 0
        self._closed = False
        self._lost: ProbeTransportError | None = None
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop()
        )

    @classmethod
    async def connect(cls, host: str, port: int, timeout: float = 30.0,
                      metrics=None,
                      max_inflight: int = DEFAULT_MAX_INFLIGHT
                      ) -> "AsyncProbeClient":
        """Open a connection and start the response reader task."""
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host, port), timeout
            )
        except (OSError, asyncio.TimeoutError) as exc:
            raise ProbeTransportError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        return cls(reader, writer, host, port, timeout=timeout,
                   metrics=metrics, max_inflight=max_inflight)

    @property
    def closed(self) -> bool:
        """Whether the connection is gone (closed or transport-lost)."""
        return self._closed

    # ------------------------------------------------------------ the wire

    async def _read_loop(self) -> None:
        try:
            while True:
                head = await self._reader.readexactly(frames.LENGTH.size)
                (length,) = frames.LENGTH.unpack(head)
                if length > MAX_MESSAGE_BYTES:
                    raise frames.FrameError(
                        f"response frame of {length} bytes exceeds limit"
                    )
                response = frames.decode_response(
                    await self._reader.readexactly(length)
                )
                if response.seq == 0:
                    # No request carries seq 0: an error frame on it is a
                    # connection-scoped refusal (capacity, oversized or
                    # unknown frame), always followed by a close — a
                    # transport failure, so routers fail over.
                    raise ProbeTransportError(
                        f"server rejected the connection: {response.error}"
                    )
                future = self._pending.pop(response.seq, None)
                if future is not None and not future.done():
                    if response.error is not None:
                        exc_type = (ProbeOverloadedError if response.overloaded
                                    else ProbeError)
                        future.set_exception(exc_type(response.error))
                    else:
                        future.set_result(response)
        except ProbeTransportError as exc:
            self._fail_all(exc)
        except frames.FrameError as exc:
            # A frame we cannot decode desynchronizes the stream: no
            # pending seq can be trusted any more.
            self._fail_all(ProbeTransportError(
                f"unreadable response from {self.host}:{self.port}: {exc}"
            ))
        except (asyncio.IncompleteReadError, ConnectionError, OSError) as exc:
            self._fail_all(ProbeTransportError(
                f"connection to {self.host}:{self.port} lost: {exc}"
            ))
        except asyncio.CancelledError:
            self._fail_all(ProbeTransportError("client closed"))
            raise

    def _fail_all(self, exc: ProbeTransportError) -> None:
        self._closed = True
        self._lost = exc
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)

    async def _request(self, build) -> frames.Response:
        """Send one frame (``build(seq) -> payload``) and await its
        response; the semaphore held across the round trip is the
        pipelining window."""
        if self._closed:
            raise self._lost or ProbeTransportError("connection is closed")
        async with self._window:
            # 1 .. 2**32 - 1: sequence id 0 is the server's refusal.
            self._seq = self._seq % 0xFFFFFFFF + 1
            seq = self._seq
            future = asyncio.get_running_loop().create_future()
            self._pending[seq] = future
            inflight = len(self._pending)
            if inflight > self._inflight_peak:
                self._inflight_peak = inflight
                self._metrics.set_gauge("inflight_peak", inflight)
            self._metrics.inc("requests")
            try:
                self._writer.write(frames.pack_frame(build(seq)))
                await self._writer.drain()
                return await asyncio.wait_for(future, self.timeout)
            except asyncio.TimeoutError as exc:
                # First: since Python 3.11 this is the builtin TimeoutError,
                # an OSError subclass the next clause would swallow.
                raise ProbeTransportError(
                    f"request to {self.host}:{self.port} timed out "
                    f"after {self.timeout}s"
                ) from exc
            except (ConnectionError, OSError) as exc:
                raise ProbeTransportError(
                    f"send to {self.host}:{self.port} failed: {exc}"
                ) from exc
            finally:
                self._pending.pop(seq, None)

    # ------------------------------------------------------------- requests

    async def ping(self) -> bool:
        """Round-trip liveness check."""
        await self._request(frames.encode_ping)
        return True

    async def probe(self, db_id, index: int) -> int:
        """Exact value of one position."""
        response = await self._request(
            lambda seq: frames.encode_probe(seq, db_id, index)
        )
        return int(response.value)

    async def probe_many(self, positions) -> np.ndarray:
        """Values for ``[(db_id, index), ...]`` in request order."""
        return await self.probe_packed(*split_positions(positions))

    async def probe_packed(self, directory, db_slots, indices) -> np.ndarray:
        """Values for a batch already split into parallel arrays (the
        zero-Python-per-probe path; see
        :func:`~repro.aserve.frames.encode_probe_many_packed`)."""
        response = await self._request(
            lambda seq: frames.encode_probe_many_packed(
                seq, directory, db_slots, indices
            )
        )
        values = response.values
        if values.shape[0] != len(indices):
            raise ProbeTransportError(
                f"probe_many answered {values.shape[0]} values for "
                f"{len(indices)} probes"
            )
        return values

    async def depth_of(self, db_id, index: int):
        """Distance for one position, ``None`` when not served."""
        response = await self._request(
            lambda seq: frames.encode_depth_of(seq, db_id, index)
        )
        return response.depth

    async def best_move(self, board) -> dict:
        """Server-side best move: ``{"value", "pits", "moves"}``."""
        response = await self._request(
            lambda seq: frames.encode_best_move(seq, board)
        )
        moves = [
            {"pit": int(m["pit"]), "captures": int(m["captures"]),
             "value": int(m["value"])}
            for m in response.moves
        ]
        return {
            "value": int(response.value),
            "pits": [m["pit"] for m in moves],
            "moves": moves,
        }

    async def info(self) -> dict:
        """Server metadata (game, rules, ids, positions, backend)."""
        response = await self._request(frames.encode_info)
        obj = dict(response.obj)
        obj["ids"] = [DatabaseSet._parse_id(str(i)) for i in obj["ids"]]
        return obj

    async def stats(self) -> dict:
        """Server-side cache and service counters."""
        response = await self._request(frames.encode_stats)
        return response.obj

    async def close(self) -> None:
        """Cancel the reader, close the transport; idempotent."""
        self._closed = True
        self._reader_task.cancel()
        try:
            await self._reader_task
        except asyncio.CancelledError:
            pass  # the cancellation we just requested
        except ProbeTransportError:
            pass  # reader already failed every pending future
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # the peer may already be gone; the connection is closed


class BinaryProbeClient:
    """Blocking facade over :class:`AsyncProbeClient`.

    Satisfies the duck-typed probe protocol of
    :class:`~repro.serve.service.ProbeService`, so query/search/router
    code runs over the network unchanged.  Adds the pipelining surface:
    :meth:`pipeline` floods many batches down one connection
    concurrently, and :meth:`submit_probe_packed` dispatches without
    blocking (the router's scatter primitive).

    ``reconnect=False`` is fail-fast: no replays, and once the
    connection is lost every later call raises
    :class:`~repro.serve.client.ProbeTransportError` instead of opening
    a new one.  ``loop_thread`` shares one :class:`EventLoopThread`
    between clients; by default the client owns a private one and closes
    it with :meth:`close`.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0,
                 policy: ReconnectPolicy | None = None,
                 reconnect: bool = True, metrics=None, loop_thread=None,
                 max_inflight: int = DEFAULT_MAX_INFLIGHT):
        self.host = host
        self.port = int(port)
        self.timeout = timeout
        self.policy = policy if policy is not None else ReconnectPolicy()
        self.reconnect = reconnect
        self.metrics = metrics if metrics is not None else NULL_METRICS
        #: Connections re-established after a drop (not the initial one).
        self.reconnects = 0
        self._max_inflight = int(max_inflight)
        self._owns_loop = loop_thread is None
        self._loop = loop_thread if loop_thread is not None else (
            EventLoopThread(name=f"aserve-client-{host}-{port}")
        )
        self._async: AsyncProbeClient | None = None
        self._closed = False
        self._info: dict | None = None
        self._loop.run(self._connect())

    # ----------------------------------------------------------------- wire

    async def _connect(self) -> None:
        attempts = max(self.policy.connect_attempts, 1)
        last: ProbeTransportError | None = None
        for attempt in range(1, attempts + 1):
            try:
                self._async = await AsyncProbeClient.connect(
                    self.host, self.port, timeout=self.timeout,
                    metrics=self.metrics, max_inflight=self._max_inflight,
                )
                return
            except ProbeTransportError as exc:
                last = exc
                self._async = None
                if attempt < attempts:
                    await asyncio.sleep(self.policy.backoff(attempt))
        raise ProbeTransportError(
            f"cannot connect to {self.host}:{self.port} after "
            f"{attempts} attempts: {last}"
        ) from last

    def set_timeout(self, seconds: float) -> None:
        """Adjust the per-request timeout, live connection included —
        the router's deadline machinery caps each attempt to the
        remaining call budget through this hook."""
        seconds = float(seconds)
        if seconds <= 0:
            raise ValueError("timeout must be positive")
        self.timeout = seconds
        if self._async is not None:
            self._async.timeout = seconds

    async def _drop(self) -> None:
        client, self._async = self._async, None
        if client is not None:
            await client.close()

    async def _live(self) -> AsyncProbeClient:
        """The open connection, re-established first when it was lost
        (counted on ``reconnects``) — unless reconnecting is off."""
        if self._closed:
            raise ProbeError("client is closed")
        if self._async is None or self._async.closed:
            if not self.reconnect:
                raise ProbeTransportError(
                    f"connection to {self.host}:{self.port} lost and "
                    "reconnect is disabled"
                )
            await self._drop()
            await self._connect()
            self.reconnects += 1
            self.metrics.inc("reconnects")
        return self._async

    async def _replay(self, factory):
        """Await ``factory(async_client)``; transport failures of these
        idempotent lookups are replayed over a fresh connection within
        the policy's bounds."""
        replays = self.policy.request_replays if self.reconnect else 0
        for attempt in range(replays + 1):
            client = await self._live()
            try:
                return await factory(client)
            except ProbeTransportError:
                await self._drop()
                if attempt >= replays or self._closed:
                    raise
                await asyncio.sleep(self.policy.backoff(attempt + 1))
        raise AssertionError("unreachable")  # pragma: no cover

    def _submit(self, factory):
        """Start :meth:`_replay` on the loop: a
        ``concurrent.futures.Future`` of its result."""
        if self._closed:
            raise ProbeError("client is closed")
        return self._loop.submit(self._replay(factory))

    def _call(self, factory):
        """Run :meth:`_replay` on the loop and block for its result."""
        return self._submit(factory).result()

    # ------------------------------------------------------------- metadata

    def ping(self) -> bool:
        """Round-trip liveness check."""
        return self._call(lambda c: c.ping())

    def info(self) -> dict:
        """Server metadata (cached: game, rules, ids, positions)."""
        if self._info is None:
            self._info = self._call(lambda c: c.info())
        return self._info

    def stats(self) -> dict:
        """Server-side cache and service counters."""
        return self._call(lambda c: c.stats())

    @property
    def game_name(self) -> str:
        """Game of the served databases."""
        return self.info()["game"]

    @property
    def rules(self) -> str:
        """Rule string of the served databases."""
        return self.info()["rules"]

    def ids(self) -> list:
        """Database ids of the served set."""
        return list(self.info()["ids"])

    def __contains__(self, db_id) -> bool:
        return db_id in self.info()["ids"]

    def positions(self, db_id) -> int:
        """Position count of one served database."""
        return int(self.info()["positions"][str(db_id)])

    # ---------------------------------------------------------------- probes

    def probe(self, db_id, index: int) -> int:
        """Exact value of one position."""
        return self._call(lambda c: c.probe(db_id, index))

    def probe_many(self, positions) -> np.ndarray:
        """Values for ``[(db_id, index), ...]`` in request order."""
        positions = list(positions)
        return self._call(lambda c: c.probe_many(positions))

    def probe_packed(self, directory, db_slots, indices) -> np.ndarray:
        """Values for a pre-split batch (parallel arrays)."""
        return self._call(
            lambda c: c.probe_packed(directory, db_slots, indices)
        )

    def pipeline(self, batches) -> list:
        """Send every batch concurrently over the one connection.

        All batches are in flight at once (bounded by the client's
        ``max_inflight`` window); returns their value arrays in input
        order.  This is the pipelined path the benchmark sweeps.
        """
        batches = [list(batch) for batch in batches]

        async def run(client):
            return list(await asyncio.gather(
                *(client.probe_many(batch) for batch in batches)
            ))

        return self._call(run)

    def submit_probe_packed(self, directory, db_slots, indices):
        """Dispatch one pre-split batch without blocking; returns a
        ``concurrent.futures.Future`` of the value array.

        The future runs the same reconnect-and-replay as the blocking
        calls, so a dropped connection costs a scatter no more than it
        costs :meth:`probe_packed`; the caller (the router) fails over
        only once the policy is exhausted.
        """
        return self._submit(
            lambda c: c.probe_packed(directory, db_slots, indices)
        )

    def depth_of(self, db_id, index: int):
        """Distance for one position, ``None`` when not served."""
        return self._call(lambda c: c.depth_of(db_id, index))

    def best_move(self, board) -> dict:
        """Server-side best move: ``{"value", "pits", "moves"}``."""
        board = [int(x) for x in np.asarray(board).reshape(12)]
        return self._call(lambda c: c.best_move(board))

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Close the connection (and the loop thread when owned); safe
        to call any number of times."""
        if self._closed:
            return
        self._closed = True
        self._loop.run(self._drop())
        if self._owns_loop:
            self._loop.close()

    def __enter__(self) -> "BinaryProbeClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
