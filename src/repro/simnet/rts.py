"""SPMD runtime system over the simulated cluster.

Each of the P processors runs one :class:`Actor` (the application code).
The runtime mirrors the structure of a 1995 message-passing runtime
(Amoeba-style): a node is either asleep, or executing a *step* — handling
one incoming message or one slice of local work.  During a step the actor
charges CPU time (:meth:`Context.charge`) and posts messages, which leave
the node when the step's CPU work completes and then contend for the
shared Ethernet.

Scheduling rules (all deterministic):

* message delivery wakes a sleeping node at ``max(arrival, busy_until)``;
* after a step the node immediately schedules another one if its inbox is
  non-empty or the actor reports pending local work;
* a node with no inbox and no local work sleeps — simulation time never
  advances by polling, so an empty event queue means global quiescence.
"""

from __future__ import annotations

import weakref
from collections import deque
from dataclasses import dataclass, field

from ..obs import NULL_METRICS
from .costs import CostModel, DEFAULT_COSTS
from .engine import Simulator
from .ethernet import Ethernet, EthernetConfig

__all__ = ["Message", "Actor", "Context", "NodeStats", "SPMDRuntime"]


@dataclass
class Message:
    """An application message; ``size_bytes`` is its simulated wire size."""

    src: int
    dst: int  # < 0 means broadcast
    tag: str
    payload: object
    size_bytes: int


@dataclass
class NodeStats:
    """Per-node counters accumulated by the runtime."""

    cpu_seconds: float = 0.0
    steps: int = 0
    msgs_sent: int = 0
    msgs_received: int = 0
    bytes_sent: int = 0
    counters: dict = field(default_factory=dict)

    def bump(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Actor:
    """Application code run on one simulated processor.  Subclass and
    override; every callback receives a :class:`Context`."""

    def on_start(self, ctx: "Context") -> None:
        """Called once at time 0."""

    def on_message(self, ctx: "Context", msg: Message) -> None:
        """Handle one delivered message."""

    def on_idle(self, ctx: "Context") -> None:
        """Perform one slice of local work (only called when
        :meth:`has_local_work` returned True)."""

    def on_timer(self, ctx: "Context") -> None:
        """Handle an expired timer set with :meth:`Context.set_timer`."""

    def has_local_work(self) -> bool:
        return False


class Context:
    """Per-step API handed to actor callbacks."""

    def __init__(self, runtime: "SPMDRuntime", rank: int):
        self._runtime = runtime
        self.rank = rank
        self.size = runtime.n_nodes
        self._charged = 0.0
        self._outbox: list[Message] = []

    @property
    def now(self) -> float:
        return self._runtime.sim.now

    @property
    def stats(self) -> NodeStats:
        return self._runtime.node_stats[self.rank]

    def charge(self, seconds: float) -> None:
        """Account ``seconds`` of CPU work to this step."""
        if seconds < 0:
            raise ValueError("cannot charge negative time")
        self._charged += seconds

    def send(self, dst: int, tag: str, payload=None, size_bytes: int = 16) -> None:
        """Post a message; it departs when this step's CPU work is done.

        The fixed per-message software overhead and the per-byte marshal
        cost are charged automatically — this is the cost that message
        combining amortizes.
        """
        costs = self._runtime.costs
        self.charge(costs.msg_overhead_send + costs.marshal_per_byte * size_bytes)
        self._outbox.append(Message(self.rank, dst, tag, payload, size_bytes))

    def broadcast(self, tag: str, payload=None, size_bytes: int = 16) -> None:
        """Post a broadcast (single transmission, received by everyone)."""
        costs = self._runtime.costs
        self.charge(costs.msg_overhead_send + costs.marshal_per_byte * size_bytes)
        self._outbox.append(Message(self.rank, -1, tag, payload, size_bytes))

    def set_timer(self, delay: float) -> None:
        """Arm (or re-arm) this node's single timer: :meth:`Actor.on_timer`
        fires ``delay`` simulated seconds after the current step ends.
        Setting a new timer cancels the previous one."""
        self._runtime._arm_timer(self.rank, delay)

    def cancel_timer(self) -> None:
        self._runtime._cancel_timer(self.rank)


class _Node:
    __slots__ = (
        "rank", "actor", "inbox", "busy_until", "scheduled",
        "timer_seq", "timer_due",
    )

    def __init__(self, rank: int, actor: Actor):
        self.rank = rank
        self.actor = actor
        self.inbox: deque = deque()
        self.busy_until = 0.0
        self.scheduled = False
        self.timer_seq = 0  # bumping invalidates in-flight timer events
        self.timer_due = False


class SPMDRuntime:
    """P simulated processors, one Ethernet segment, one actor each."""

    def __init__(
        self,
        actors: list[Actor],
        costs: CostModel = DEFAULT_COSTS,
        ethernet_config: EthernetConfig | None = None,
        node_speeds=None,
        metrics=None,
    ):
        """``node_speeds[r]`` is a per-node slowdown factor (1.0 = the
        reference machine, 2.0 = half speed) applied to every CPU charge —
        the Amoeba processor pools were heterogeneous, and the algorithm's
        static partitioning makes that imbalance visible."""
        self.n_nodes = len(actors)
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if node_speeds is None:
            node_speeds = [1.0] * self.n_nodes
        if len(node_speeds) != self.n_nodes:
            raise ValueError("need one speed factor per node")
        if any(s <= 0 for s in node_speeds):
            raise ValueError("speed factors must be positive")
        self.node_speeds = list(node_speeds)
        self.sim = Simulator()
        self.costs = costs
        self.ethernet = Ethernet(self.sim, self.n_nodes, ethernet_config)
        # Weak, so no runtime <-> Ethernet cycle: a finished run dies by refcount.
        deliver = weakref.WeakMethod(self._deliver)
        self.ethernet.attach(lambda dst, msg: deliver()(dst, msg))
        self._nodes = [_Node(r, a) for r, a in enumerate(actors)]
        self.node_stats = [NodeStats() for _ in actors]
        #: Metrics registry fed by the runtime and the Ethernet model
        #: (``simnet.`` prefix).  All quantities are simulated, hence
        #: deterministic; the null default makes instrumentation free.
        self.metrics = metrics if metrics is not None else NULL_METRICS

    # -------------------------------------------------------------- driving

    def run(self, max_events: int | None = None) -> float:
        """Start every actor, run to quiescence, return the makespan."""
        for node in self._nodes:
            self._execute(node, kind="start", msg=None)
        self.sim.run(max_events=max_events)
        if self.metrics.enabled:
            self._record_metrics()
        return self.makespan

    def _record_metrics(self) -> None:
        """Aggregate runtime and Ethernet measurements into the registry
        (per-tag send counts are bumped as messages leave the nodes)."""
        m = self.metrics
        m.inc("simnet.runs")
        m.inc("simnet.steps", sum(s.steps for s in self.node_stats))
        m.inc("simnet.msgs_sent", sum(s.msgs_sent for s in self.node_stats))
        m.inc(
            "simnet.msgs_received",
            sum(s.msgs_received for s in self.node_stats),
        )
        m.inc("simnet.bytes_sent", sum(s.bytes_sent for s in self.node_stats))
        m.observe("simnet.makespan_seconds", self.makespan)
        m.observe(
            "simnet.cpu_seconds_total",
            sum(s.cpu_seconds for s in self.node_stats),
        )
        eth = self.ethernet.stats
        m.inc("simnet.ethernet.frames", eth.frames)
        m.inc("simnet.ethernet.contended_frames", eth.contended_frames)
        m.inc("simnet.ethernet.payload_bytes", eth.payload_bytes)
        m.inc("simnet.ethernet.wire_bytes", eth.wire_bytes)
        m.inc("simnet.ethernet.broadcasts", eth.broadcasts)
        m.observe("simnet.ethernet.busy_seconds", eth.busy_seconds)
        m.observe("simnet.ethernet.contention_seconds", eth.contention_seconds)

    @property
    def makespan(self) -> float:
        return max(n.busy_until for n in self._nodes)

    # ------------------------------------------------------------ internals

    def _deliver(self, dst: int, msg: Message) -> None:
        node = self._nodes[dst]
        node.inbox.append(msg)
        self._ensure_scheduled(node)

    def _ensure_scheduled(self, node: _Node) -> None:
        if not node.scheduled:
            node.scheduled = True
            self.sim.schedule_at(
                max(self.sim.now, node.busy_until), self._step, node
            )

    def _step(self, node: _Node) -> None:
        node.scheduled = False
        if node.inbox:
            msg = node.inbox.popleft()
            self._execute(node, kind="message", msg=msg)
        elif node.timer_due:
            node.timer_due = False
            self._execute(node, kind="timer", msg=None)
        elif node.actor.has_local_work():
            self._execute(node, kind="idle", msg=None)
        if node.inbox or node.timer_due or node.actor.has_local_work():
            self._ensure_scheduled(node)

    # -------------------------------------------------------------- timers

    def _arm_timer(self, rank: int, delay: float) -> None:
        node = self._nodes[rank]
        node.timer_seq += 1
        node.timer_due = False
        self.sim.schedule(delay, self._fire_timer, node, node.timer_seq)

    def _cancel_timer(self, rank: int) -> None:
        node = self._nodes[rank]
        node.timer_seq += 1
        node.timer_due = False

    def _fire_timer(self, node: _Node, seq: int) -> None:
        if seq != node.timer_seq:
            return  # superseded or cancelled
        node.timer_due = True
        self._ensure_scheduled(node)

    def _execute(self, node: _Node, kind: str, msg: Message | None) -> None:
        ctx = Context(self, node.rank)
        stats = self.node_stats[node.rank]
        if kind == "message":
            ctx.charge(self.costs.msg_overhead_recv)
            stats.msgs_received += 1
            node.actor.on_message(ctx, msg)
        elif kind == "idle":
            node.actor.on_idle(ctx)
        elif kind == "timer":
            node.actor.on_timer(ctx)
        else:
            node.actor.on_start(ctx)
        start = max(self.sim.now, node.busy_until)
        charged = ctx._charged * self.node_speeds[node.rank]
        node.busy_until = start + charged
        stats.cpu_seconds += charged
        stats.steps += 1
        for out in ctx._outbox:
            stats.msgs_sent += 1
            stats.bytes_sent += out.size_bytes
            if self.metrics.enabled:
                # Per-tag traffic breakdown (what Tracer.render_tags shows,
                # now on the shared registry).
                self.metrics.inc("simnet.sent." + out.tag)
            self.sim.schedule_at(
                node.busy_until, self.ethernet.transmit, out.src, out.dst,
                out.size_bytes, out,
            )
        if kind == "start" and (node.inbox or node.actor.has_local_work()):
            self._ensure_scheduled(node)
