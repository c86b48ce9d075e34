"""The distributed retrograde-analysis worker (one per simulated processor).

Each worker owns a partition of the database under construction and runs
the paper's algorithm:

1. **Scan** its owned positions: compute each position's best exit
   against the (replicated) smaller databases and its internal out-degree.
   In ``csr`` mode the internal edges are then exchanged so that every
   worker holds the *predecessor* lists of its owned positions.
2. **Propagate**: every value level (threshold ``t = 1..n``) is seeded
   from the exits and then propagated in a *single* asynchronous pass —
   exactly as the original single-pass algorithm carried position values
   in its update messages.  Finalizing an owned position generates its
   predecessors (charged as un-moving in ``unmove`` mode, read from the
   routing table on the host); updates to local parents apply directly,
   remote ones are routed through the **message-combining buffers**.
   Partial buffers are force-flushed only after a short idle linger, so
   combining survives the lulls between dependency waves.
3. Detect global quiescence with Safra's token ring; the coordinator
   (rank 0) then moves everyone to the assemble phase.
4. **Assemble**: harvest the per-threshold labels into values and
   broadcast the shard so every machine holds the full database for the
   next stone count (the broadcast carries timing/bytes; the canonical
   value arrays are collected by the driver).

A step runs on Python ints from start to end: its routing (usually one
or two slots) reads lists, packets carry lists, and the apply is the
kernel's :func:`~repro.core.kernel.apply_updates_scalar` on memoryviews
of the worker's state — the vectorised kernel's rule at the size of a
step (≈ 4 updates).  CPU time is charged through the
:class:`~repro.simnet.costs.CostModel` so the simulated clock reflects a
1995 C implementation rather than this Python one.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

import numpy as np

from ...simnet.rts import Actor, Context, Message
from ..combining import CombiningBuffers
from ..graph import DatabaseGraph
from ..kernel import apply_updates_scalar, seed_thresholds
from ..partition import Partition
from ..termination import SafraState, Token
from ..values import LOSS, status_values

if TYPE_CHECKING:
    from .driver import ParallelConfig

__all__ = ["RAWorker", "KIND_DEC", "KIND_WIN", "pack_kind"]

#: Update kinds carried in packets.
KIND_DEC = 0  # child became WIN: decrement the parent's counter
KIND_WIN = 1  # child became LOSS: the parent has a winning move

_PHASE_INIT = "init"
_PHASE_RUN = "run"
_PHASE_ASSEMBLE = "assemble"
_PHASE_DONE = "done"

#: Simulated sizes (bytes) of control messages and per-item payloads.
_CTRL_BYTES = 16
_EDGE_BYTES = 8

#: ``LOSS`` as a Python int, for status bytes read through a memoryview.
_LOSS = int(LOSS)


def pack_kind(threshold: np.ndarray, kind: np.ndarray) -> np.ndarray:
    """Pack (threshold, kind) into the one-byte tag carried per update;
    a receiver reads ``tag >> 1`` and ``tag & 1``."""
    return (np.asarray(threshold, dtype=np.uint8) << np.uint8(1)) | np.asarray(
        kind, dtype=np.uint8
    )


class RAWorker(Actor):
    """One SPMD worker; see the module docstring for the protocol.

    ``predecessor_mode`` changes only what the simulated node is charged
    for: ``unmove`` pays run-time un-moving per parent, ``csr`` pays the
    up-front edge exchange and a cheap lookup per parent.  On the host
    both read the parents from one routing table built from the reverse
    graph, which the tests check edge for edge against un-moving."""

    def __init__(
        self,
        rank: int,
        graph: DatabaseGraph,
        partition: Partition,
        bound: int,
        config: ParallelConfig,
        lower_values_bytes: int = 0,
    ):
        self.rank = rank
        self.graph = graph
        self.partition = partition
        self.bound = bound
        self.config = config
        self.size = partition.n_parts
        self.lower_values_bytes = lower_values_bytes

        self.own_global = partition.local_indices(rank)
        self.n_local = int(self.own_global.shape[0])
        # Owned slices of the (host-precomputed) scan results; the scan
        # phase charges the simulated cost of producing them.
        self.best_exit = graph.best_exit[self.own_global].astype(np.int32)
        self.out_degree = graph.out_degree[self.own_global].astype(np.int32)
        # The kernel's (bound, n_local) state, threshold t in row t - 1.
        self.status = self.counts = self.loss_eligible = self.values = None

        #: Frontier of freshly finalized (threshold, [local slot, ...]) batches.
        self.frontier: deque = deque()
        #: Every owned slot's parents as (owner, slot on owner).
        self._routes = self._routing_table()
        self.buffers = CombiningBuffers(self.size, config.combining_capacity)
        self.safra = SafraState(rank, self.size)

        self.phase = _PHASE_INIT
        self._scan_done = 0
        self._edges_expected = self.size - 1
        self._edges_received = 0
        self._values_expected = self.size - 1
        self._values_received = 0
        self._timer_armed = False
        # Coordinator-only state.
        self._init_done = 0
        self._assemble_done = 0
        self._token_outstanding = False

    # --------------------------------------------------------------- hooks

    def on_start(self, ctx: Context) -> None:
        if self.n_local == 0:
            # Degenerate shard: jump straight to the exchange/end of scan.
            self._finish_scan(ctx)

    def has_local_work(self) -> bool:
        if self.phase == _PHASE_INIT:
            return self._scan_done < self.n_local
        if self.phase == _PHASE_RUN:
            return bool(self.frontier)
        return False

    def on_idle(self, ctx: Context) -> None:
        if self.phase == _PHASE_INIT:
            self._scan_step(ctx)
        elif self.phase == _PHASE_RUN and self.frontier:
            self._process_batch(ctx)
        self._after_step(ctx)

    def on_message(self, ctx: Context, msg: Message) -> None:
        handler = _HANDLERS.get(msg.tag)
        if handler is None:
            raise RuntimeError(f"rank {self.rank}: unknown message {msg.tag}")
        handler(self, ctx, msg)
        self._after_step(ctx)

    def on_timer(self, ctx: Context) -> None:
        """Linger expired: a genuine lull.  Ship the partial buffers,
        release a held token, and (coordinator) probe for termination."""
        self._timer_armed = False
        if self.phase != _PHASE_RUN or self.frontier:
            return
        self._send_packets(ctx, self.buffers.flush_all())
        if self.safra.held_token is not None:
            self._dispose_token(ctx, self.safra.release())
        if (
            self.rank == 0
            and self.phase == _PHASE_RUN
            and not self.frontier
            and not self._token_outstanding
        ):
            self._start_token_round(ctx)

    def _after_step(self, ctx: Context) -> None:
        """Idle-state bookkeeping shared by every step kind.

        With frontier work pending nothing happens (the idle loop runs).
        Otherwise: pending buffers arm the flush linger; with everything
        drained a held token moves on immediately and the coordinator
        schedules its next termination probe."""
        if self.phase != _PHASE_RUN:
            return
        if self.frontier:
            if self._timer_armed:
                ctx.cancel_timer()
                self._timer_armed = False
            return
        if self.buffers.total_pending:
            if not self._timer_armed:
                ctx.set_timer(self.config.flush_linger)
                self._timer_armed = True
            return
        if self.safra.held_token is not None:
            self._dispose_token(ctx, self.safra.release())
        if (
            self.rank == 0
            and self.phase == _PHASE_RUN
            and not self.frontier
            and not self._token_outstanding
            and not self._timer_armed
        ):
            ctx.set_timer(self.config.token_interval)
            self._timer_armed = True

    # ---------------------------------------------------------------- scan

    def _scan_step(self, ctx: Context) -> None:
        stop = min(self._scan_done + self.config.scan_batch, self.n_local)
        n = stop - self._scan_done
        ctx.charge(n * self.config.costs.scan_position)
        ctx.stats.bump("positions_scanned", n)
        self._scan_done = stop
        if self._scan_done >= self.n_local:
            self._finish_scan(ctx)

    def _finish_scan(self, ctx: Context) -> None:
        if self.config.predecessor_mode == "csr":
            self._exchange_edges(ctx)
        else:
            self._send_init_done(ctx)

    def _exchange_edges(self, ctx: Context) -> None:
        """Ship every discovered internal edge to the owner of its child —
        the distributed graph transpose that the ``csr`` variant pays for
        up front (size-only messages; the host holds the actual arrays)."""
        _, children = self.graph.forward.neighbors_of(self.own_global)
        owners = self.partition.owner_of(children)
        per_dest = np.bincount(owners, minlength=self.size)
        for dest in range(self.size):
            if dest == self.rank:
                continue
            ctx.send(
                dest,
                "EDGES",
                payload=int(per_dest[dest]),
                size_bytes=max(_CTRL_BYTES, int(per_dest[dest]) * _EDGE_BYTES),
            )
        ctx.stats.bump("edges_shipped", int(per_dest.sum() - per_dest[self.rank]))
        self.phase = "await_edges"
        self._check_edges_complete(ctx)

    def _msg_edges(self, ctx: Context, msg: Message) -> None:
        self._edges_received += 1
        # Insert the received parent links into the local reverse shard.
        ctx.charge(int(msg.payload) * self.config.costs.update_apply)
        self._check_edges_complete(ctx)

    def _check_edges_complete(self, ctx: Context) -> None:
        if (
            self.phase == "await_edges"
            and self._edges_received >= self._edges_expected
        ):
            self._send_init_done(ctx)

    def _send_init_done(self, ctx: Context) -> None:
        self.phase = "await_phase"
        if self.rank == 0:
            self._note_init_done(ctx)
        else:
            ctx.send(0, "INIT_DONE", size_bytes=_CTRL_BYTES)

    def _msg_init_done(self, ctx: Context, msg: Message) -> None:
        self._note_init_done(ctx)

    def _note_init_done(self, ctx: Context) -> None:
        self._init_done += 1
        if self._init_done >= self.size:
            ctx.broadcast("PHASE", payload="run", size_bytes=_CTRL_BYTES)
            self._begin_run(ctx)

    # --------------------------------------------------------------- phase

    def _msg_phase(self, ctx: Context, msg: Message) -> None:
        if msg.payload == "run":
            self._begin_run(ctx)
        else:
            self._begin_assemble(ctx)

    def _begin_run(self, ctx: Context) -> None:
        """Seed every threshold's initial labels from the exits and enter
        the single propagation phase."""
        self.phase = _PHASE_RUN
        self.safra.reset()
        self._token_outstanding = False
        state = seed_thresholds(self.best_exit, self.out_degree, range(1, self.bound + 1))
        self.status, self.counts, self.loss_eligible = state
        # Indexing these views reads and writes the arrays as Python ints.
        self._flat_state = [memoryview(a.reshape(-1)) for a in state]
        self._extend_frontier(np.flatnonzero(self.status).tolist())
        ctx.charge(
            self.bound * self.n_local * self.config.costs.threshold_init_position
        )
        ctx.stats.bump("thresholds_run", self.bound)

    def _begin_assemble(self, ctx: Context) -> None:
        self.values = status_values(self.status)
        ctx.charge(
            self.bound * self.n_local * self.config.costs.value_assemble_position
        )
        self.phase = _PHASE_ASSEMBLE
        # Broadcast this worker's value shard (one byte per position on the
        # wire, as the 1995 implementation packed them).
        ctx.broadcast(
            "VALUES", payload=self.rank, size_bytes=max(_CTRL_BYTES, self.n_local)
        )
        ctx.stats.bump("values_broadcast_bytes", self.n_local)
        self._check_assemble_complete(ctx)

    def _msg_values(self, ctx: Context, msg: Message) -> None:
        self._values_received += 1
        ctx.charge(msg.size_bytes * self.config.costs.marshal_per_byte)
        self._check_assemble_complete(ctx)

    def _check_assemble_complete(self, ctx: Context) -> None:
        if (
            self.phase == _PHASE_ASSEMBLE
            and self._values_received >= self._values_expected
        ):
            self.phase = "await_done"
            if self.rank == 0:
                self._note_assemble_done(ctx)
            else:
                ctx.send(0, "ASSEMBLE_DONE", size_bytes=_CTRL_BYTES)

    def _msg_assemble_done(self, ctx: Context, msg: Message) -> None:
        self._note_assemble_done(ctx)

    def _note_assemble_done(self, ctx: Context) -> None:
        self._assemble_done += 1
        if self._assemble_done >= self.size:
            ctx.broadcast("DB_DONE", size_bytes=_CTRL_BYTES)
            self.phase = _PHASE_DONE

    def _msg_db_done(self, ctx: Context, msg: Message) -> None:
        self.phase = _PHASE_DONE

    # --------------------------------------------------------- propagation

    def _routing_table(self) -> tuple:
        """``(ptr, owners, slots)``: the parents of owned slot ``i`` are
        entries ``ptr[i]:ptr[i + 1]`` of two flat lists, their owners and
        their slots on those owners, read once from the host-side
        transposed graph.  It stands in for the node's predecessor
        generator in every mode; the charges say which one it models."""
        reverse = self.graph.reverse
        _, parents = reverse.neighbors_of(self.own_global)
        degree = reverse.indptr[self.own_global + 1] - reverse.indptr[self.own_global]
        return (
            [0, *np.cumsum(degree).tolist()],
            self.partition.owner_of(parents).tolist(),
            self.partition.to_local(parents).tolist(),
        )

    def _parents(self, slots: list, base: int):
        """Every parent edge of the children ``base + slots`` (flat state
        indices) as three lists: the parent's owner, its slot there, and
        whether the child is a LOSS (so the parent wins)."""
        status = self._flat_state[0]
        ptr, all_owners, all_slots = self._routes
        owners, parent_slots, wins = [], [], []
        for slot in slots:
            a, b = ptr[slot], ptr[slot + 1]
            owners += all_owners[a:b]
            parent_slots += all_slots[a:b]
            wins += [status[base + slot] == _LOSS] * (b - a)
        return owners, parent_slots, wins

    def _generate_cost(self) -> float:
        if self.config.predecessor_mode == "csr":
            return self.config.costs.update_generate_fast
        return self.config.costs.update_generate

    def _process_batch(self, ctx: Context) -> None:
        threshold, slots = self.frontier.popleft()
        work_batch = self.config.work_batch
        if len(slots) > work_batch:
            self.frontier.appendleft((threshold, slots[work_batch:]))
            slots = slots[:work_batch]
        base = (threshold - 1) * self.n_local
        owners, parent_slots, wins = self._parents(slots, base)
        n_parents = len(owners)
        ctx.charge(
            len(slots) * self.config.costs.threshold_init_position
            + n_parents * self._generate_cost()
        )
        ctx.stats.bump("updates_generated", n_parents)
        # Local parents are flat state indices; remote ones carry their
        # slot on the owner and the pack_kind tag.
        rank, tag = self.rank, threshold << 1
        local, local_win, dests, positions, kinds = [], [], [], [], []
        for owner, slot, win in zip(owners, parent_slots, wins):
            if owner == rank:
                local.append(base + slot)
                local_win.append(win)
            else:
                dests.append(owner)
                positions.append(slot)
                kinds.append(tag | win)
        if local:
            self._apply_updates(ctx, local, local_win)
            ctx.stats.bump("updates_local", len(local))
        if dests:
            self._send_packets(ctx, self.buffers.append(dests, positions, kinds))

    def _apply_updates(self, ctx: Context, flat: list, win: list):
        """Apply updates at ``flat = (threshold - 1) * n_local + slot``
        (``win``: from a LOSS child), lists of Python ints, in one pass
        over all their thresholds with the kernel's
        :func:`~repro.core.kernel.apply_updates_scalar`."""
        ctx.charge(len(flat) * self.config.costs.update_apply)
        ctx.stats.bump("updates_applied", len(flat))
        new_win, new_loss = apply_updates_scalar(*self._flat_state, flat, win)
        if new_win or new_loss:
            self._extend_frontier(new_win, new_loss)

    def _extend_frontier(self, *done: list):
        """Queue sorted lists of flat indices by threshold, ascending;
        within a threshold, the lists in argument order (WINs before
        LOSSes)."""
        batches: dict = {}
        for i, d in enumerate(done):
            for flat in d:
                row, slot = divmod(flat, self.n_local)
                batches.setdefault((row, i), []).append(slot)
        for row, i in sorted(batches):
            self.frontier.append((row + 1, batches[row, i]))

    def _send_packets(self, ctx: Context, ready) -> None:
        for dest, packet in ready:
            ctx.send(dest, "UPDATE", payload=packet, size_bytes=packet.size_bytes)
            self.safra.on_app_send()
            ctx.stats.bump("packets_sent")
            ctx.stats.bump("updates_sent", packet.n_updates)

    def _msg_update(self, ctx: Context, msg: Message) -> None:
        self.safra.on_app_receive()
        n, kinds = self.n_local, msg.payload.kinds
        # A tag is ``threshold << 1 | kind``; threshold t is row t - 1.
        flat = [p + ((k >> 1) - 1) * n for p, k in zip(msg.payload.positions, kinds)]
        self._apply_updates(ctx, flat, [k & 1 for k in kinds])

    # --------------------------------------------------------- termination

    def _start_token_round(self, ctx: Context) -> None:
        self._token_outstanding = True
        token = self.safra.start_round()
        ctx.send(self.safra.next_rank(), "TOKEN", payload=token,
                 size_bytes=_CTRL_BYTES)
        ctx.stats.bump("token_rounds")

    def _msg_token(self, ctx: Context, msg: Message) -> None:
        token: Token = msg.payload
        if self.frontier or self.buffers.total_pending:
            self.safra.hold(token)
            return
        self._dispose_token(ctx, token)

    def _dispose_token(self, ctx: Context, token: Token) -> None:
        if self.rank == 0:
            self._token_outstanding = False
            if self.phase == _PHASE_RUN and self.safra.coordinator_check(token):
                ctx.broadcast("PHASE", payload="assemble", size_bytes=_CTRL_BYTES)
                self._begin_assemble(ctx)
            # Otherwise a fresh round starts from the idle bookkeeping.
        else:
            ctx.send(
                self.safra.next_rank(),
                "TOKEN",
                payload=self.safra.forward(token),
                size_bytes=_CTRL_BYTES,
            )

    # ------------------------------------------------------------- results

    def local_values(self) -> tuple[np.ndarray, np.ndarray]:
        """(global indices, values) of this worker's shard."""
        return self.own_global, self.values

    #: Construction-state bytes per position of the modeled 1995 layout:
    #: value, best exit, out-degree, status byte, 16-bit counter, plus
    #: amortized frontier-queue and bookkeeping entries.
    MODELED_BYTES_PER_POSITION = 12

    def memory_modeled_bytes(self) -> int:
        """Memory a 1995 C implementation would hold on this node:
        :data:`MODELED_BYTES_PER_POSITION` of construction state per owned
        position, 4 bytes per reverse edge in ``csr`` mode, plus the
        replicated smaller databases at one byte per position."""
        per_pos = self.MODELED_BYTES_PER_POSITION * self.n_local
        edges = 0
        if self.config.predecessor_mode == "csr":
            rev = self.graph.reverse
            edges = 4 * int(
                (rev.indptr[self.own_global + 1] - rev.indptr[self.own_global]).sum()
            )
        return per_pos + edges + self.lower_values_bytes


#: Message tag -> handler: ``TAG`` is served by ``RAWorker._msg_tag``.
_HANDLERS = {
    name[len("_msg_"):].upper(): handler
    for name, handler in vars(RAWorker).items()
    if name.startswith("_msg_")
}
