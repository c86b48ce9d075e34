"""Scatter-gather routing of probes across a sharded serving cluster.

A :class:`ShardRouter` owns a pool of pipelined
:class:`~repro.aserve.client.BinaryProbeClient` instances (one per
endpoint it has talked to, all sharing **one**
:class:`~repro.aserve.client.EventLoopThread`) and speaks the same probe
protocol as
:class:`~repro.serve.service.ProbeService` (``probe`` / ``probe_many``
/ ``best_moves`` / ``__contains__`` / ``depth_of``), so
``repro.db.query`` and ``repro.db.search`` run over a whole cluster
exactly as they run over one server or an in-memory array.

Routing is owner-computes, like the solver itself: every global
position ``(db, index)`` has exactly one owning shard under the
partition recorded in the shard manifest, and the router sends each
probe only to its owner (``partition.owner_of``), translated to the
owner's dense local slot (``partition.to_local``).  A batch is routed
as arrays, never position by position: split once into parallel arrays,
mapped through the partitions per distinct database, ordered by one
``np.lexsort`` on (shard, database, paged block of the local slot) so
each shard's block cache is touched sequentially, cut into per-shard
slices, dispatched as concurrent futures on the shared event loop (no
thread per shard), and merged back in request order with one indexed
assignment per shard.

Failure handling is health-aware (:mod:`repro.cluster.health`): every
endpoint carries a circuit breaker.  Transport failures inside one
endpoint are absorbed by the client's own reconnect machinery; when
that is exhausted (:class:`~repro.serve.client.ProbeTransportError`),
the router records a breaker failure, counts ``cluster.failovers``, and
replays the sub-batch on the next-healthiest endpoint — safe because
every probe operation is an idempotent pure lookup.  A tripped breaker
demotes its endpoint to the back of the candidate order rather than
banishing it, and after the reset window the next call probes it back:
a killed-then-restarted primary is *reinstated*, not remembered as dead
forever.  Application rejections (error frames) are re-raised without
failover: a replica holds the same data and would reject identically.
An overload shed (:class:`~repro.serve.client.ProbeOverloadedError`) is
in between — the router fails over immediately but records *no*
breaker failure, because a load-shedding server is alive and protecting
itself.

Calls can carry a ``deadline`` (seconds): each failover attempt's
socket timeout is capped to the remaining budget and the call fails
with a loud ProbeError (counted on ``cluster.deadline_exceeded``) when
the budget runs out, instead of letting retries stack timeouts.
``hedge_after_ms`` additionally arms hedged reads on the batched path:
a sub-batch whose primary has not answered within the hedge delay gets
a second future on the next-healthiest replica (counted on
``cluster.hedges``) and the first success wins
(``cluster.hedge_wins``) — idempotent lookups make the duplicate
harmless.

One router instance is not safe for concurrent calls from multiple
threads.  Inside one call every attempt is a future on the shared loop
that checks its client out of the pool, and every outcome — a hedge
loser's included — is settled on the caller's thread.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import FIRST_COMPLETED, Future, wait
from concurrent.futures import TimeoutError as FutureTimeoutError
from contextlib import suppress

import numpy as np

from ..obs import NULL_METRICS
from ..serve.client import (
    ProbeError,
    ProbeOverloadedError,
    ProbeTransportError,
)
from ..serve.service import check_range, split_positions
from .health import EndpointHealth
from .manifest import ShardManifest
from .topology import ClusterTopology, ShardEndpoint

__all__ = ["ShardRouter"]

#: Default seconds a tripped endpoint breaker stays open before the
#: router probes it back with real traffic.
DEFAULT_BREAKER_RESET_SECONDS = 5.0


def _normalize_endpoints(endpoints) -> list:
    """Per-shard endpoint lists from a topology or raw address tuples."""
    if isinstance(endpoints, ClusterTopology):
        endpoints = endpoints.endpoints
    groups = []
    for group in endpoints:
        normalized = []
        for e in group:
            if isinstance(e, ShardEndpoint):
                normalized.append(e)
            else:
                host, port = e[0], e[1]
                normalized.append(ShardEndpoint(host=str(host), port=int(port)))
        if not normalized:
            raise ValueError("every shard needs at least one endpoint")
        groups.append(normalized)
    return groups


class _PairsClient:
    """Adapter for a client that only speaks ``probe_many(pairs)``: the
    router's packed calls become a pair list, and the non-blocking
    submit answers synchronously — a completed future, or the failure
    raised — so an adapted client is never hedged.  Every other
    attribute is the wrapped client's."""

    def __init__(self, client):
        self._client = client

    def __getattr__(self, name):
        return getattr(self._client, name)

    def probe_packed(self, directory, db_slots, local):
        return self._client.probe_many(list(zip(
            map(directory.__getitem__, db_slots.tolist()), local.tolist()
        )))

    def submit_probe_packed(self, directory, db_slots, local):
        future: Future = Future()
        future.set_result(self.probe_packed(directory, db_slots, local))
        return future


class ShardRouter:
    """Route probes to their owning shards; fail over on endpoint health.

    ``client_factory(host, port)`` defaults to a pipelined
    :class:`~repro.aserve.client.BinaryProbeClient` (all shards sharing
    one event-loop thread); tests inject fakes here to pin routing
    decisions without sockets.  A custom client needs ``probe``,
    ``close`` and either ``probe_packed`` plus ``submit_probe_packed``
    or just ``probe_many(pairs)``, which the router adapts.

    Health knobs:

    ``breaker_threshold``
        Consecutive transport failures that trip an endpoint's circuit
        breaker open (default 1 — one surfaced failure is already an
        exhausted reconnect policy).
    ``breaker_reset_seconds``
        How long a tripped endpoint is demoted before the router probes
        it back with real traffic and, on success, reinstates it.
    ``deadline``
        Per-call wall-clock budget in seconds, shared across failover
        attempts (each attempt's socket timeout is capped to what is
        left).  ``None`` disables it.
    ``hedge_after_ms``
        Hedged reads on the batched path: mirror a sub-batch to the next
        replica when the primary is slower than this.  ``None`` (the
        default) disables hedging; clients without a second endpoint are
        never hedged.
    ``clock``
        Monotonic-seconds source, injectable so breaker and deadline
        tests advance time without sleeping.
    """

    def __init__(self, manifest: ShardManifest, endpoints, metrics=None,
                 policy=None, timeout: float = 30.0, client_factory=None,
                 breaker_threshold: int = 1,
                 breaker_reset_seconds: float = DEFAULT_BREAKER_RESET_SECONDS,
                 deadline: float | None = None,
                 hedge_after_ms: float | None = None,
                 clock=time.monotonic):
        if deadline is not None and float(deadline) <= 0:
            raise ValueError("deadline must be positive")
        if hedge_after_ms is not None and float(hedge_after_ms) < 0:
            raise ValueError("hedge_after_ms must be >= 0")
        self.manifest = manifest
        self._endpoints = _normalize_endpoints(endpoints)
        if len(self._endpoints) != manifest.n_shards:
            raise ValueError(
                f"topology has {len(self._endpoints)} shards, manifest "
                f"expects {manifest.n_shards}"
            )
        self._metrics = NULL_METRICS if metrics is None else metrics
        self._policy = policy
        self._timeout = timeout
        self._deadline = None if deadline is None else float(deadline)
        self._hedge_after_ms = (
            None if hedge_after_ms is None else float(hedge_after_ms)
        )
        self._clock = clock
        self._loop_thread = None
        self._factory = (self._binary_factory if client_factory is None
                         else client_factory)
        self._health = EndpointHealth(
            [len(group) for group in self._endpoints],
            threshold=breaker_threshold,
            reset_seconds=breaker_reset_seconds,
            clock=clock, metrics=self._metrics,
        )
        # Per-endpoint idle-client pool: an attempt checks its client
        # out, so a slow hedged request can never share a socket with
        # the next batch.  {shard: {endpoint_index: client}}
        self._clients: list = [{} for _ in range(manifest.n_shards)]
        self._client_lock = threading.Lock()
        # Attempts a race left in flight: [(shard, attempt)].
        self._stragglers: list = []
        self._game = None
        self._metrics.set_gauge("cluster.shards", manifest.n_shards)
        self._metrics.set_gauge(
            "cluster.endpoints",
            sum(len(group) for group in self._endpoints),
        )

    @classmethod
    def from_topology(cls, topology, manifest=None, **kwargs) -> "ShardRouter":
        """Build a router from a topology file/object; the manifest is
        loaded from the topology's recorded cluster directory unless
        passed explicitly."""
        if not isinstance(topology, ClusterTopology):
            topology = ClusterTopology.load(topology)
        if manifest is None:
            manifest = ShardManifest.load(topology.cluster_dir)
        return cls(manifest, topology, **kwargs)

    def _binary_factory(self, host: str, port: int):
        """Pipelined binary client; every shard shares one event-loop
        thread, so the router's fan-out needs no thread per shard."""
        from ..aserve.client import BinaryProbeClient, EventLoopThread

        with self._client_lock:
            if self._loop_thread is None:
                self._loop_thread = EventLoopThread(name="shard-router-loop")
            loop_thread = self._loop_thread
        return BinaryProbeClient(
            host, port, timeout=self._timeout, policy=self._policy,
            metrics=self._metrics.scoped("aserve.client"),
            loop_thread=loop_thread,
        )

    # ------------------------------------------------------------ endpoints

    @property
    def n_shards(self) -> int:
        """Shard count of the routed cluster."""
        return self.manifest.n_shards

    def active_endpoint(self, shard: int) -> ShardEndpoint:
        """The endpoint the next request to this shard will try first
        (the healthiest candidate under the breaker ordering)."""
        return self._endpoints[shard][self._health.candidates(shard)[0]]

    def health_snapshot(self) -> list:
        """Circuit-breaker states, shaped like the topology:
        ``[[state per endpoint] per shard]``."""
        return self._health.snapshot()

    def _take_client(self, shard: int, endpoint: int):
        """Check the endpoint's idle client out of the pool, building a
        fresh one when none is parked there (construction may raise
        :class:`ProbeTransportError` — the caller classifies it)."""
        with self._client_lock:
            client = self._clients[shard].pop(endpoint, None)
        if client is None:
            address = self._endpoints[shard][endpoint]
            client = self._factory(address.host, address.port)
            if not hasattr(client, "submit_probe_packed"):
                client = _PairsClient(client)
        return client

    def _return_client(self, shard: int, endpoint: int, client) -> None:
        """Park a healthy client back in the pool.  If a newer client
        already occupies the slot (this one was slow and got replaced),
        close the returner instead of stacking connections."""
        with self._client_lock:
            occupied = endpoint in self._clients[shard]
            if not occupied:
                self._clients[shard][endpoint] = client
        if occupied:
            client.close()

    # ----------------------------------------------------------- attempts

    def _time_left(self, shard: int, deadline_at, last=None):
        """Remaining per-call budget in seconds (None without a
        deadline); raises a loud ProbeError once the budget is spent."""
        if deadline_at is None:
            return None
        remaining = deadline_at - self._clock()
        if remaining <= 0:
            self._metrics.inc("cluster.deadline_exceeded")
            raise ProbeError(
                f"shard {shard}: deadline of {self._deadline}s exceeded "
                f"(last: {last})"
            ) from (last if isinstance(last, BaseException) else None)
        return remaining

    def _checkout(self, shard: int, endpoint: int, deadline_at):
        """Take one endpoint's client, its timeout capped to the call's
        remaining budget; a failed connect counts against the breaker."""
        remaining = self._time_left(shard, deadline_at)
        try:
            client = self._take_client(shard, endpoint)
        except ProbeTransportError:
            self._metrics.inc("cluster.shard_errors")
            self._health.breaker(shard, endpoint).record_failure()
            raise
        if remaining is not None:
            client.set_timeout(min(self._timeout, remaining))
        return client

    def _settle(self, shard: int, endpoint: int, client, call):
        """Finish one attempt: ``call()`` yields its result, and the
        breaker and the pool learn how it went.  Every outcome returns
        the client to the pool or closes it; the classified failure is
        re-raised."""
        breaker = self._health.breaker(shard, endpoint)
        try:
            result = call()
        except ProbeOverloadedError:
            # The endpoint is alive and shedding load: hand the client
            # back, leave the breaker alone, let the caller fail over.
            self._metrics.inc("cluster.overloads")
            self._return_client(shard, endpoint, client)
            raise
        except ProbeTransportError:
            self._metrics.inc("cluster.shard_errors")
            breaker.record_failure()
            client.close()
            raise
        except ProbeError:
            # Application rejection: the endpoint answered, so it is
            # healthy — the *request* is what failed.
            breaker.record_success()
            self._return_client(shard, endpoint, client)
            raise
        breaker.record_success()
        self._return_client(shard, endpoint, client)
        return result

    def _sequential(self, shard: int, op, candidates, deadline_at,
                    already: int = 0, last=None):
        """Try ``op`` on each candidate endpoint in order.  ``already``
        counts endpoints a caller burned before handing over (a
        scatter's raced attempts), so the exhaustion message still names
        the full endpoint count."""
        total = already + len(candidates)
        for i, endpoint in enumerate(candidates):
            try:
                client = self._checkout(shard, endpoint, deadline_at)
                return self._settle(shard, endpoint, client,
                                    lambda: op(client))
            except (ProbeOverloadedError, ProbeTransportError) as exc:
                last = exc
            # A plain ProbeError (application rejection, deadline)
            # propagates: no replica would answer differently.
            if i < len(candidates) - 1:
                self._metrics.inc("cluster.failovers")
        raise ProbeError(
            f"shard {shard}: all {total} endpoints failed "
            f"(last: {last})"
        ) from last

    def _on_shard(self, shard: int, op):
        """Run ``op(client)`` against a shard, failing over through the
        breaker-ordered endpoint list.  Each endpoint is tried at most
        once per call."""
        return self._sequential(
            shard, op, self._health.candidates(shard), self._start_call()
        )

    def _start_call(self):
        """Settle what earlier calls left in flight; this call's
        deadline as a clock reading (``None`` without one)."""
        self._settle_stragglers()
        return (None if self._deadline is None
                else self._clock() + self._deadline)

    def _untried(self, shard: int, attempts: list) -> list:
        """The shard's candidates, in health order, that no attempt of
        this sub-batch has used."""
        tried = {endpoint for endpoint, _, _ in attempts}
        return [e for e in self._health.candidates(shard) if e not in tried]

    def _submit(self, shard: int, endpoint: int, batch, deadline_at):
        """Check one endpoint's client out and send it a sub-batch
        without blocking: an ``(endpoint, client, future)`` attempt.  A
        failed checkout has no client and an already-failed future (the
        checkout counted it against the breaker)."""
        client = None
        try:
            client = self._checkout(shard, endpoint, deadline_at)
            future = client.submit_probe_packed(*batch)
        except ProbeError as exc:
            future = Future()
            future.set_exception(exc)
        return endpoint, client, future

    def _outcome(self, shard: int, attempt):
        """The values of a finished attempt, settled through its
        breaker and the pool; re-raises the classified failure."""
        endpoint, client, future = attempt
        if client is None:
            return future.result()
        return self._settle(shard, endpoint, client, future.result)

    def _race(self, shard: int, attempts: list, deadline_at):
        """Wait on a sub-batch's attempts until one succeeds:
        ``(winning endpoint, values)``.  A plain ProbeError propagates
        at once; when every attempt failed in transport or overload the
        last such failure is raised.  Attempts still in flight when the
        race ends (a hedge loser, a deadline overrun) become
        stragglers."""
        pending, last = list(attempts), None
        try:
            while pending:
                futures = [future for _, _, future in pending]
                timeout = self._time_left(
                    shard, deadline_at, last=last or "attempts still in flight"
                )
                if len(futures) > 1:
                    wait(futures, timeout, FIRST_COMPLETED)
                else:
                    # Block on the one future itself: the waiter wait()
                    # installs cost ~5 % of a 2-shard 1024-probe batch
                    # (loopback shards, 2-vCPU host).
                    with suppress(FutureTimeoutError):
                        futures[0].exception(timeout)
                for attempt in [a for a in pending if a[2].done()]:
                    pending.remove(attempt)
                    try:
                        return attempt[0], self._outcome(shard, attempt)
                    except (ProbeOverloadedError, ProbeTransportError) as exc:
                        last = exc
            raise last
        finally:
            self._stragglers.extend((shard, a) for a in pending)

    def _settle_stragglers(self, closing: bool = False) -> None:
        """Settle the attempts earlier races left in flight, on the
        caller's thread: a finished one records its breaker outcome and
        pools or closes its client; when ``closing``, an unfinished
        one's client is closed.  Never run this from a future's
        done-callback: that runs on the loop thread, where closing a
        client blocks on its own loop."""
        unfinished = []
        for shard, attempt in self._stragglers:
            if attempt[2].done():
                try:
                    self._outcome(shard, attempt)
                except ProbeError:
                    pass  # counted by the settle; its race is over
            elif closing:
                attempt[1].close()
            else:
                unfinished.append((shard, attempt))
        self._stragglers = unfinished

    # ------------------------------------------------------------- metadata

    @property
    def game_name(self) -> str:
        """Game of the routed cluster (from the manifest)."""
        return self.manifest.game

    @property
    def rules(self) -> str:
        """Rule string of the routed cluster (from the manifest)."""
        return self.manifest.rules

    def ids(self) -> list:
        """Database ids of the routed cluster."""
        return self.manifest.ids()

    def __contains__(self, db_id) -> bool:
        return db_id in self.manifest

    def positions(self, db_id) -> int:
        """Global position count of one database."""
        return self.manifest.positions(db_id)

    def stats(self) -> dict:
        """Topology plus the healthiest endpoint's stats per shard."""
        per_shard = []
        for shard in range(self.n_shards):
            endpoint = self.active_endpoint(shard)
            stats = self._on_shard(shard, lambda c: c.stats())
            per_shard.append(
                {"endpoint": f"{endpoint.host}:{endpoint.port}", **stats}
            )
        return {
            "shards": self.n_shards,
            "endpoints": sum(len(g) for g in self._endpoints),
            "per_shard": per_shard,
        }

    # ---------------------------------------------------------------- probes

    def _route(self, directory, db_slots, indices) -> list:
        """Pure routing of a split batch: one ``(shard, slots, db_slots,
        locals)`` per owning shard.

        ``slots`` are the request positions of the shard's probes,
        ordered by the shard's storage locality — database (as text),
        then paged block of the local slot, ties in request order —
        and ``db_slots`` / ``locals`` run parallel to it.  An unknown
        database raises :class:`KeyError` and an index outside its
        database :class:`IndexError`, before any client is taken.
        """
        shards = np.empty(indices.shape[0], dtype=np.int64)
        local = np.empty(indices.shape[0], dtype=np.int64)
        for slot, db_id in enumerate(directory):
            mask = db_slots == slot
            idx = indices[mask]
            check_range(db_id, idx, self.manifest.positions(db_id))
            part = self.manifest.partition_for(db_id)
            shards[mask] = part.owner_of(idx)
            local[mask] = part.to_local(idx)
        by_text = sorted(range(len(directory)),
                         key=lambda slot: str(directory[slot]))
        rank = np.empty(len(directory), dtype=np.intp)
        rank[by_text] = np.arange(len(directory))
        order = np.lexsort(
            (local // self.manifest.block_positions, rank[db_slots], shards)
        )
        shards, db_slots, local = shards[order], db_slots[order], local[order]
        cuts = (np.flatnonzero(np.diff(shards)) + 1).tolist()
        return [
            (int(shards[a]), order[a:b], db_slots[a:b], local[a:b])
            for a, b in zip([0, *cuts], [*cuts, order.shape[0]])
        ]

    def probe(self, db_id, index: int) -> int:
        """Exact value of global position ``index`` of ``db_id``."""
        self._metrics.inc("cluster.probes")
        ((shard, _, _, local),) = self._route(
            [db_id], np.zeros(1, dtype=np.intp),
            np.asarray([index], dtype=np.int64),
        )
        local = int(local[0])
        return int(
            self._on_shard(shard, lambda c: c.probe(db_id, local))
        )

    def probe_many(self, positions) -> np.ndarray:
        """Values for ``[(db_id, index), ...]`` in request order.

        Scatter: the batch is split into parallel arrays once, routed
        as arrays (:meth:`_route`) and every owning shard's slice goes
        out through :meth:`_scatter` as a future on the shared event
        loop.  Gather: each shard's answers land in the output at their
        original request slots.
        """
        directory, db_slots, indices = split_positions(positions)
        self._metrics.inc("cluster.batches")
        self._metrics.inc("cluster.probes", int(indices.shape[0]))
        out = np.empty(indices.shape[0], dtype=np.int16)
        if not indices.shape[0]:
            return out
        routed = self._route(directory, db_slots, indices)
        self._metrics.inc("cluster.fanouts", len(routed))
        self._scatter(directory, routed, out)
        return out

    def _scatter(self, directory, routed: list, out: np.ndarray) -> None:
        """Every shard's sub-batch goes out as a future on the shared
        event loop (no scatter threads).  With ``hedge_after_ms`` the
        router waits up to the hedge delay, then gives each sub-batch
        whose primary is still in flight one backup future on the next
        candidate; the first success wins.  A transport failure records
        a breaker failure and an overload shed does not; both replay
        the sub-batch through the untried candidates.  Every sub-batch
        is resolved before the first rejection is raised."""
        deadline_at = self._start_call()
        flights = []
        for shard, slots, sub_slots, local in routed:
            batch = (directory, sub_slots, local)
            primary = self._submit(shard, self._health.candidates(shard)[0],
                                   batch, deadline_at)
            flights.append((shard, slots, batch, [primary]))
        if self._hedge_after_ms is not None:
            wait([attempts[0][2] for *_, attempts in flights],
                 timeout=self._hedge_after_ms / 1000.0)
            for shard, _, batch, attempts in flights:
                backups = self._untried(shard, attempts)
                if backups and not attempts[0][2].done():
                    self._metrics.inc("cluster.hedges")
                    attempts.append(
                        self._submit(shard, backups[0], batch, deadline_at)
                    )
        first_error = None
        for shard, slots, batch, attempts in flights:
            try:
                out[slots] = self._gather(shard, batch, attempts,
                                          deadline_at)
            except ProbeError as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error

    def _gather(self, shard: int, batch, attempts: list, deadline_at):
        """One sub-batch's values: the race of its attempts, then
        sequential failover through the untried candidates."""
        try:
            winner, values = self._race(shard, attempts, deadline_at)
        except (ProbeOverloadedError, ProbeTransportError) as exc:
            rest = self._untried(shard, attempts)
            failovers = len(attempts) - 1 + (1 if rest else 0)
            if failovers:
                self._metrics.inc("cluster.failovers", failovers)
            return self._sequential(
                shard, lambda c: c.probe_packed(*batch), rest, deadline_at,
                already=len(attempts), last=exc,
            )
        if winner != attempts[0][0]:
            self._metrics.inc("cluster.hedge_wins")
        return values

    def depth_of(self, db_id, index: int):
        """Distances are not routed; always ``None`` — the same answer
        a paged shard server gives."""
        return None

    # ------------------------------------------------------------ best move

    @property
    def game(self):
        """The capture game, reconstructed from manifest metadata."""
        if self._game is None:
            from ..games.registry import capture_game_for

            self._game = capture_game_for(self)
        return self._game

    def evaluate_moves(self, board: np.ndarray):
        """Exact evaluation of every legal move (probes are batched and
        scatter-gathered like any other batch)."""
        from ..db.query import evaluate_moves

        self._metrics.inc("cluster.best_move_queries")
        return evaluate_moves(self.game, self, board)

    def best_moves(self, board: np.ndarray):
        """(position value, optimal moves) over the cluster — the same
        logic as the in-memory path, probing through the router."""
        from ..db.query import best_moves

        self._metrics.inc("cluster.best_move_queries")
        return best_moves(self.game, self, board)

    # ------------------------------------------------------------ lifecycle

    def close(self) -> None:
        """Settle or close every straggler, close every pooled client
        (and the shared event loop); safe to call repeatedly."""
        self._settle_stragglers(closing=True)
        with self._client_lock:
            pools = [dict(pool) for pool in self._clients]
            for pool in self._clients:
                pool.clear()
            loop_thread, self._loop_thread = self._loop_thread, None
        for pool in pools:
            for client in pool.values():
                client.close()
        if loop_thread is not None:
            loop_thread.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
