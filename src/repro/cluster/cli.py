"""``repro cluster`` — split, launch, and probe a sharded cluster.

Subcommands (all flags documented in docs/CLUSTER.md):

split
    Partition a database archive (or paged store) into per-shard page
    files plus a ``cluster.json`` shard manifest.
up
    Launch every shard server (plus optional replicas), write the
    ``topology.json`` endpoint map, and supervise until SIGINT.
probe
    Route queries through a :class:`~repro.cluster.router.ShardRouter`
    built from a topology file: single probes, best moves, stats, or a
    verified random sweep.
"""

from __future__ import annotations

import sys
from pathlib import Path

__all__ = ["add_arguments", "run"]


def add_arguments(parser) -> None:
    """Attach the ``split | up | probe`` subcommands to the ``cluster``
    subparser."""
    sub = parser.add_subparsers(dest="cluster_command", required=True)

    split = sub.add_parser(
        "split",
        help="partition a store into per-shard paged files + manifest",
    )
    split.add_argument("store", help="source archive (.npz) or paged store")
    split.add_argument("out_dir", help="cluster directory to create")
    split.add_argument("--shards", type=int, required=True,
                       help="number of shards to split into")
    split.add_argument("--partition", default="cyclic",
                       choices=["block", "cyclic", "hash"])
    split.add_argument("--block-positions", type=int, default=None,
                       help="positions per compressed block (default 4096)")
    split.add_argument("--level", type=int, default=6,
                       help="zlib compression level (1-9)")
    split.add_argument("--codec", default="zlib",
                       choices=["zlib", "raw", "packed", "packed+zlib"],
                       help="per-block encoding for every shard file "
                            "(propagated to the manifest)")

    up = sub.add_parser(
        "up", help="launch shard servers and write the topology file"
    )
    up.add_argument("cluster_dir", help="directory written by cluster split")
    up.add_argument("--replicas", type=int, default=0,
                    help="extra servers per shard for failover")
    up.add_argument("--host", default="127.0.0.1")
    up.add_argument("--cache-kb", type=int, default=65536,
                    help="block cache budget in KiB (paged stores)")
    up.add_argument("--topology-out", default=None, metavar="PATH",
                    help="write the endpoint map here "
                         "(default: CLUSTER_DIR/topology.json)")
    up.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write the topology path here once all shards are serving "
             "(for scripts/CI)",
    )
    up.add_argument(
        "--auto-restart", action="store_true",
        help="supervise the shard servers: detect dead or unresponsive "
             "endpoints and respawn them on their original ports "
             "(docs/CLUSTER.md, Failure model & recovery)",
    )
    up.add_argument(
        "--max-restarts", type=int, default=5, metavar="N",
        help="flap detector: give up on an endpoint after N restarts "
             "within a minute (with --auto-restart)",
    )
    up.add_argument(
        "--health-interval", type=float, default=1.0, metavar="SECONDS",
        help="seconds between supervisor liveness passes "
             "(with --auto-restart)",
    )
    up.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="per-server overload budget: past N concurrently executing "
             "requests a server sheds load with an OVERLOADED error "
             "frame instead of queueing",
    )
    up.add_argument(
        "--inject-fault", action="append", default=None, metavar="SPEC",
        help="deterministic fault injection on shard primaries, e.g. "
             "crash-shard:shard=0,after=100 or latency:ms=50,every=10 "
             "(repeatable; docs/RESILIENCE.md)",
    )
    up.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="write supervisor metrics as JSON here on shutdown",
    )

    probe = sub.add_parser("probe", help="query a running cluster")
    probe.add_argument("--topology", required=True, metavar="PATH",
                       help="topology file written by cluster up")
    probe.add_argument("--db", default=None, help="database id to probe")
    probe.add_argument("--index", type=int, default=None,
                       help="position index to probe (with --db)")
    probe.add_argument("--board", default=None,
                       help="12 comma-separated pit counts: ask the "
                            "cluster for the best move")
    probe.add_argument("--stats", action="store_true",
                       help="print per-shard endpoint statistics")
    probe.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="per-call wall-clock budget shared across failover "
             "attempts; the call fails loudly when it runs out",
    )
    probe.add_argument(
        "--hedge-after-ms", type=float, default=None, metavar="MS",
        help="hedged reads: mirror a batched sub-call to the next "
             "replica when the primary is slower than this",
    )


def _cmd_split(args) -> int:
    from ..analysis.report import format_bytes
    from .manifest import split_store

    from ..serve.pagedstore import DEFAULT_BLOCK_POSITIONS

    try:
        summary = split_store(
            args.store,
            args.out_dir,
            n_shards=args.shards,
            partition=args.partition,
            block_positions=args.block_positions or DEFAULT_BLOCK_POSITIONS,
            level=args.level,
            codec=args.codec,
        )
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot split {args.store}: {exc}", file=sys.stderr)
        return 2
    print(
        f"split {summary['databases']} databases "
        f"({summary['positions']:,} positions) into {summary['shards']} "
        f"{summary['partition']}-partitioned shards "
        f"(codec {summary['codec']})"
    )
    for name, nbytes in zip(summary["shard_files"], summary["shard_bytes"]):
        print(f"  {name}: {format_bytes(nbytes)}")
    print(f"manifest written to {summary['manifest']}")
    return 0


def _cmd_up(args) -> int:
    import json

    from ..obs import MetricsRegistry
    from ..resilience.checkpoint import atomic_write_text
    from ..resilience.faults import FaultSpecError
    from .launch import ClusterLaunchError, launch_cluster

    try:
        supervisor = launch_cluster(
            args.cluster_dir,
            replicas=args.replicas,
            host=args.host,
            cache_kb=args.cache_kb,
            fault_specs=args.inject_fault,
            max_inflight=args.max_inflight,
        )
    except (ClusterLaunchError, FaultSpecError, ValueError, OSError) as exc:
        print(f"cluster failed to start: {exc}", file=sys.stderr)
        return 1
    topology = supervisor.topology
    out = Path(args.topology_out) if args.topology_out else Path(args.cluster_dir)
    topology_path = topology.save(out)
    for shard, group in enumerate(topology.endpoints):
        roles = ["primary"] + [f"replica{i}" for i in range(1, len(group))]
        listing = ", ".join(
            f"{role} {e.host}:{e.port} (pid {e.pid})"
            for role, e in zip(roles, group)
        )
        print(f"shard {shard}: {listing}")
    print(f"topology written to {topology_path}", flush=True)
    if args.ready_file:
        # Atomic so a watcher never reads a half-written path.
        atomic_write_text(Path(args.ready_file), f"{topology_path}\n")
    registry = MetricsRegistry()
    monitor = None
    if args.auto_restart:
        from .supervise import ClusterMonitor, RestartPolicy

        def report(kind, shard, endpoint, detail):
            print(f"supervisor: {kind} shard {shard} "
                  f"endpoint {endpoint}: {detail}", flush=True)

        monitor = ClusterMonitor(
            supervisor,
            policy=RestartPolicy(max_restarts=args.max_restarts),
            health_interval=args.health_interval,
            metrics=registry,
            topology_path=topology_path,
            on_event=report,
        ).start()
        print(f"supervising {topology.n_endpoints} endpoints "
              f"(health interval {args.health_interval}s, "
              f"max {args.max_restarts} restarts/min)", flush=True)
    try:
        while True:
            import time

            time.sleep(0.2)
    except KeyboardInterrupt:
        pass
    if monitor is not None:
        monitor.stop()
    supervisor.shutdown()
    if args.metrics_out:
        atomic_write_text(
            Path(args.metrics_out),
            json.dumps(registry.snapshot(), indent=2, sort_keys=True) + "\n",
        )
    print("cluster stopped")
    return 0


def _cmd_probe(args) -> int:
    from ..db.store import DatabaseSet
    from ..serve.client import ProbeError
    from .router import ShardRouter

    asked = args.stats or args.board is not None or args.db is not None
    if not asked:
        print("nothing to do: pass --db/--index, --board, or --stats",
              file=sys.stderr)
        return 2
    if (args.db is None) != (args.index is None):
        print("--db and --index go together", file=sys.stderr)
        return 2
    try:
        with ShardRouter.from_topology(
            args.topology,
            deadline=args.deadline, hedge_after_ms=args.hedge_after_ms,
        ) as router:
            if args.db is not None:
                db_id = DatabaseSet._parse_id(args.db)
                value = router.probe(db_id, args.index)
                print(f"db {db_id} index {args.index}: value {value:+d}")
            if args.board is not None:
                board = [int(x) for x in args.board.split(",")]
                if len(board) != 12:
                    print("board must have 12 pit counts", file=sys.stderr)
                    return 2
                value, moves = router.best_moves(board)
                print(f"value for the mover: {value:+d}")
                for move in moves:
                    print(f"  optimal: pit {move.pit} "
                          f"(captures {move.captures})")
            if args.stats:
                stats = router.stats()
                print(f"shards = {stats['shards']}, "
                      f"endpoints = {stats['endpoints']}")
                for shard, entry in enumerate(stats["per_shard"]):
                    line = ", ".join(
                        f"{key}={entry[key]}" for key in sorted(entry)
                    )
                    print(f"  shard {shard}: {line}")
    except (ProbeError, ValueError, OSError, IndexError, KeyError) as exc:
        print(f"cluster probe failed: {exc}", file=sys.stderr)
        return 1
    return 0


def run(args) -> int:
    """Dispatch a parsed ``repro cluster`` invocation."""
    return {
        "split": _cmd_split,
        "up": _cmd_up,
        "probe": _cmd_probe,
    }[args.cluster_command](args)
