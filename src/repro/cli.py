"""Command-line interface: ``python -m repro <command>``.

Commands
--------
solve
    Build endgame databases — awari (with rule variants) or kalah-nt —
    sequentially or on the simulated cluster, optionally saving them to
    an ``.npz`` archive.
stats
    Print Table-1-style statistics for a database archive.
verify
    Run the Bellman and replay certificates on an archive.
query
    Evaluate a position: exact value and the optimal move(s).
metrics
    Render the run manifest written by ``solve --metrics-out``.
page
    Convert an ``.npz`` archive to the paged serving format.
serve
    Serve a database (paged or ``.npz``) over TCP.
probe
    Query a running probe server (value, best move, stats).
cluster
    Sharded serving: split a store into per-shard page files, launch
    shard servers plus replicas, probe through the scatter-gather
    router (see docs/CLUSTER.md).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analysis.report import Table, format_bytes, format_seconds
from .core.parallel.driver import ParallelConfig
from .core.verify import check_bellman, replay_certificate
from .db.query import best_moves
from .db.stats import set_stats
from .db.store import DatabaseSet

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Parallel retrograde analysis (Bal & Allis, SC '95).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="build endgame databases")
    solve.add_argument("--stones", type=int, required=True)
    solve.add_argument("--game", default="awari",
                       help="awari | awari-slam-allowed | awari-no-feed | kalah")
    solve.add_argument("--procs", type=int, default=1)
    solve.add_argument("--combine", type=int, default=256,
                       help="combining buffer capacity in updates (1 = off)")
    solve.add_argument("--partition", default="cyclic",
                       choices=["block", "cyclic", "hash"])
    solve.add_argument("--mode", default="unmove", choices=["unmove", "csr"],
                       help="how the simulated cluster finds parents: charge "
                            "run-time un-moving or an up-front edge exchange "
                            "(only with --procs > 1)")
    solve.add_argument("--out", default=None, help="save archive here (.npz)")
    solve.add_argument(
        "--metrics-out",
        default=None,
        metavar="RUN_JSON",
        help="write a run manifest (config + metrics registry) here",
    )
    solve.add_argument(
        "--workers", type=int, default=1,
        help="solve on N real cores with a supervised process pool "
             "(multiproc backend; incompatible with --procs)",
    )
    solve.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="crash-safe checkpoint directory; an interrupted run "
             "resumes from it (see docs/RESILIENCE.md)",
    )
    solve.add_argument(
        "--scan-chunk", type=int, default=1 << 15,
        help="positions per scan chunk for --workers fan-out",
    )
    solve.add_argument(
        "--shm-debug", action="store_true",
        help="enable the ShmArena race detector for --workers fan-outs: "
             "workers record their claimed regions and the parent "
             "raises on any overlap",
    )
    solve.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="deterministic fault injection, e.g. kill-worker:chunk=2, "
             "kill-worker:threshold=3 (kills the task whose threshold "
             "slice holds 3), corrupt-checkpoint:db=4 "
             "(repeatable; see docs/RESILIENCE.md)",
    )
    solve.add_argument(
        "--fault-state-dir", default=None, metavar="DIR",
        help="directory for once-only fault flags (share it with a "
             "resumed run so a fired fault stays fired)",
    )

    stats = sub.add_parser("stats", help="database statistics (Table 1)")
    stats.add_argument("archive")

    verify = sub.add_parser("verify", help="Bellman + replay certificates")
    verify.add_argument("archive")
    verify.add_argument("--samples", type=int, default=30)

    query = sub.add_parser("query", help="evaluate one position")
    query.add_argument("archive")
    query.add_argument(
        "--board",
        required=True,
        help="12 comma-separated pit counts, mover's pits first",
    )

    model = sub.add_parser(
        "model", help="analytic runtime prediction (no simulation)"
    )
    model.add_argument("--stones", type=int, default=13)
    model.add_argument("--procs", type=int, default=64)
    model.add_argument("--combine", type=int, default=256)

    metrics = sub.add_parser(
        "metrics", help="render a run manifest (see solve --metrics-out)"
    )
    metrics.add_argument("manifest", help="run manifest JSON path")

    page = sub.add_parser(
        "page", help="convert an .npz archive to the paged serving format"
    )
    page.add_argument("archive", help="input DatabaseSet archive (.npz)")
    page.add_argument("out", help="output paged store path")
    page.add_argument(
        "--block-positions", type=int, default=None,
        help="positions per compressed block (default 4096)",
    )
    page.add_argument("--level", type=int, default=6,
                      help="zlib compression level (1-9)")
    page.add_argument(
        "--codec", choices=("zlib", "raw", "packed", "packed+zlib"),
        default="zlib",
        help="per-block encoding: zlib compresses, raw stores bare "
             "int16 for zero-copy mmap readers, packed bit-packs values "
             "at the bound-derived width (packed+zlib compresses the "
             "packed blocks on top); see docs/SERVING.md",
    )

    serve = sub.add_parser(
        "serve", help="serve a database over TCP (paged store or .npz)"
    )
    serve.add_argument("store", help="paged store path, or .npz to serve "
                                     "from memory")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="TCP port (0 = ephemeral, printed on startup)")
    serve.add_argument("--cache-kb", type=int, default=65536,
                       help="block cache budget in KiB (paged stores)")
    serve.add_argument(
        "--ready-file", default=None, metavar="PATH",
        help="write 'host port' here once listening (for scripts/CI)",
    )
    serve.add_argument(
        "--inject-fault", action="append", default=[], metavar="SPEC",
        help="deterministic fault injection, e.g. drop-conn:every=50, "
             "latency:ms=200,every=3, blackhole:after=10 or "
             "crash-shard:after=50 (repeatable; see docs/RESILIENCE.md)",
    )
    serve.add_argument(
        "--fault-state-dir", default=None, metavar="DIR",
        help="directory for once-only fault flag files; hand a respawned "
             "server the same dir so a fired crash-shard stays fired",
    )
    serve.add_argument(
        "--max-connections", type=int, default=None, metavar="N",
        help="refuse connections beyond N with an error frame on "
             "sequence id 0 (default: unlimited)",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="shed requests beyond N concurrently executing with an "
             "OVERLOADED error frame (default: unlimited; docs/CLUSTER.md)",
    )

    probe = sub.add_parser("probe", help="query a running probe server")
    probe.add_argument("--host", default="127.0.0.1")
    probe.add_argument("--port", type=int, default=None)
    probe.add_argument(
        "--endpoint", default=None, metavar="HOST:PORT|PATH",
        help="probe endpoint: host:port picks the binary TCP client, an "
             "existing paged-store path picks the zero-copy mmap client "
             "(alternative to --host/--port)",
    )
    probe.add_argument("--db", default=None, help="database id to probe")
    probe.add_argument("--index", type=int, default=None,
                       help="position index to probe (with --db)")
    probe.add_argument("--board", default=None,
                       help="12 comma-separated pit counts: ask the server "
                            "for the best move")
    probe.add_argument("--stats", action="store_true",
                       help="print server/cache statistics")

    cluster = sub.add_parser(
        "cluster",
        help="sharded serving cluster: split | up | probe "
             "(docs/CLUSTER.md)",
    )
    from .cluster.cli import add_arguments as _cluster_arguments

    _cluster_arguments(cluster)

    staticcheck = sub.add_parser(
        "staticcheck",
        help="run the repo's invariant checkers (docs/STATICCHECK.md)",
    )
    from .staticcheck.cli import add_arguments as _staticcheck_arguments

    _staticcheck_arguments(staticcheck)
    return parser


def _cmd_solve(args) -> int:
    from .core.parallel.driver import ParallelSolver
    from .core.sequential import SequentialSolver
    from .games.registry import capture_game
    from .obs import MetricsRegistry, NULL_METRICS

    game = capture_game(args.game)
    metrics = MetricsRegistry() if args.metrics_out else NULL_METRICS
    faults = None
    if args.inject_fault:
        from .resilience.faults import FaultPlan, FaultSpecError

        try:
            faults = FaultPlan.from_specs(
                args.inject_fault, state_dir=args.fault_state_dir
            )
        except FaultSpecError as exc:
            print(f"bad --inject-fault spec: {exc}", file=sys.stderr)
            return 2
        if faults.worker_kill is not None and args.workers <= 1:
            print("kill-worker faults need --workers > 1", file=sys.stderr)
            return 2
    if args.procs > 1 and args.workers > 1:
        print("--procs (simulated cluster) and --workers (real cores) "
              "are mutually exclusive", file=sys.stderr)
        return 2
    if args.workers > 1 or args.checkpoint_dir:
        return _solve_resilient(args, game, metrics, faults)
    if args.procs > 1:
        config = ParallelConfig(
            n_procs=args.procs,
            combining_capacity=args.combine,
            partition=args.partition,
            predecessor_mode=args.mode,
        )
        solver = ParallelSolver(game, config, metrics=metrics)
        values, stats = solver.solve(args.stones)
        total = stats[-1]
        print(
            f"solved {args.game} up to {args.stones} stones on {args.procs} "
            f"simulated processors"
        )
        print(
            f"  largest database: {format_seconds(total.makespan_seconds)} "
            f"simulated, {total.packets_sent} packets, combining factor "
            f"{total.combining_factor:.1f}"
        )
        rules = game.rules.describe() if hasattr(game, "rules") else ""
        dbs = DatabaseSet(game_name=game.name, values=values, rules=rules)
    else:
        solver = SequentialSolver(game, metrics=metrics)
        values, report = solver.solve(args.stones)
        rules = game.rules.describe() if hasattr(game, "rules") else ""
        dbs = DatabaseSet(game_name=game.name, values=values, rules=rules)
        print(
            f"solved {args.game} up to {args.stones} stones sequentially "
            f"({dbs.total_positions:,} positions, "
            f"{report.wall_seconds:.1f}s wall)"
        )
    if args.out:
        dbs.save(args.out)
        print(f"saved to {args.out} ({format_bytes(dbs.memory_bytes())})")
    if args.metrics_out:
        from .obs import RunManifest

        manifest = RunManifest.from_registry(
            metrics,
            game=game.name,
            command="solve",
            rules=dbs.rules,
            config={
                "stones": args.stones,
                "game": args.game,
                "procs": args.procs,
                "combine": args.combine,
                "partition": args.partition,
                "mode": args.mode,
            },
        )
        manifest.save(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


def _solve_resilient(args, game, metrics, faults) -> int:
    """``repro solve`` on the fault-tolerant path: supervised multiproc
    workers and/or crash-safe checkpointing through the pipeline."""
    from .core.pipeline import PipelineConfig, PipelineRunner

    backend = "multiproc" if args.workers > 1 else "sequential"
    config = PipelineConfig(
        backend=backend,
        checkpoint_dir=args.checkpoint_dir,
        workers=args.workers if args.workers > 1 else None,
        scan_chunk=args.scan_chunk,
        shm_debug=args.shm_debug,
        faults=faults,
    )
    runner = PipelineRunner(game, config, metrics=metrics)
    values, status = runner.run(args.stones)
    rules = game.rules.describe() if hasattr(game, "rules") else ""
    dbs = DatabaseSet(game_name=game.name, values=values, rules=rules)
    solved, resumed = len(status.solved), len(status.resumed)
    where = (f"on {args.workers} workers" if backend == "multiproc"
             else "sequentially")
    print(
        f"solved {args.game} up to {args.stones} stones {where} "
        f"({dbs.total_positions:,} positions, {solved} built, "
        f"{resumed} resumed, {status.wall_seconds:.1f}s wall)"
    )
    if args.checkpoint_dir:
        print(f"checkpoints in {args.checkpoint_dir}")
    if args.out:
        dbs.save(args.out)
        print(f"saved to {args.out} ({format_bytes(dbs.memory_bytes())})")
    if args.metrics_out:
        from .obs import RunManifest

        manifest = RunManifest.from_registry(
            metrics,
            game=game.name,
            command="solve",
            rules=dbs.rules,
            config={
                "stones": args.stones,
                "game": args.game,
                "backend": backend,
                "workers": args.workers,
                "checkpoint_dir": args.checkpoint_dir,
                "scan_chunk": args.scan_chunk,
                "shm_debug": bool(args.shm_debug),
                "inject_fault": list(args.inject_fault),
            },
        )
        manifest.save(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 0


def _cmd_stats(args) -> int:
    dbs = DatabaseSet.load(args.archive)
    table = Table(
        f"database statistics — {dbs.game_name} ({dbs.rules})",
        ["db", "positions", "wins", "draws", "losses", "win%", "draw%"],
    )
    for st in set_stats(dbs):
        table.add(
            st.db_id,
            f"{st.positions:,}",
            f"{st.wins:,}",
            f"{st.draws:,}",
            f"{st.losses:,}",
            f"{100 * st.win_fraction:.2f}",
            f"{100 * st.draw_fraction:.2f}",
        )
    table.show()
    return 0


def _cmd_verify(args) -> int:
    from .games.registry import capture_game_for

    dbs = DatabaseSet.load(args.archive)
    game = capture_game_for(dbs)
    failures = 0
    for db_id in dbs.ids():
        report = check_bellman(game, db_id, dbs.values)
        status = "ok" if report.ok else f"{report.violations} VIOLATIONS"
        print(f"db {db_id}: bellman {status} ({report.checked:,} positions)")
        failures += report.violations
    if failures:
        print("skipping replay: bellman check already failed")
        return 1
    top = max(dbs.ids())
    if top >= 1:
        try:
            replayed = replay_certificate(game, dbs, top, samples=args.samples)
        except AssertionError as exc:
            print(f"replay FAILED: {exc}")
            return 1
        print(f"db {top}: replayed {replayed} optimal lines, all matched")
    return 0


def _cmd_query(args) -> int:
    from .games.registry import capture_game_for

    dbs = DatabaseSet.load(args.archive)
    game = capture_game_for(dbs)
    board = np.array([int(x) for x in args.board.split(",")], dtype=np.int16)
    if board.shape != (12,):
        print("board must have 12 pit counts", file=sys.stderr)
        return 2
    if int(board.sum()) not in dbs:
        print(
            f"no database for {int(board.sum())} stones in this archive",
            file=sys.stderr,
        )
        return 2
    print(game.engine.board_to_string(board))
    value, moves = best_moves(game, dbs, board)
    print(f"value for the mover: {value:+d}")
    if not moves:
        print("terminal position (no legal move)")
    for m in moves:
        print(f"  optimal: pit {m.pit} (captures {m.captures})")
    return 0


def _cmd_model(args) -> int:
    from .analysis.calibration import sequential_seconds
    from .analysis.model import ModelInput, predict
    from .games.awari_index import AwariIndexer

    size = AwariIndexer(args.stones).count
    # Notification rate and wave count fitted on the solved benchmark
    # databases (see analysis.calibration); constants below match the
    # measured awari averages.
    notifications = 1.3 * size * args.stones
    waves = 55.0
    pred = predict(
        ModelInput(
            size=size,
            thresholds=args.stones,
            notifications=notifications,
            n_procs=args.procs,
            combining_capacity=args.combine,
            waves=waves,
        )
    )
    print(
        f"awari {args.stones}-stone database "
        f"({size:,} positions, modeled 1995 cluster):"
    )
    print(f"  sequential       : {format_seconds(pred.t_sequential)}")
    print(f"  on {args.procs:>3} processors: {format_seconds(pred.t_parallel)} "
          f"(speedup {pred.speedup:.1f})")
    print(f"  compute/P        : {format_seconds(pred.t_compute)}")
    print(f"  message CPU /P   : {format_seconds(pred.t_message_cpu)}")
    print(f"  shared wire      : {format_seconds(pred.t_wire)}")
    print(f"  combining factor : {pred.combining_factor:.1f}")
    return 0


def _cmd_metrics(args) -> int:
    from .obs import RunManifest

    try:
        man = RunManifest.load(args.manifest)
    except (OSError, ValueError) as exc:
        print(f"cannot read manifest: {exc}", file=sys.stderr)
        return 2
    header = f"run manifest — {man.game}"
    if man.command:
        header += f" ({man.command})"
    print(header)
    if man.rules:
        print(f"  rules: {man.rules}")
    for key in sorted(man.config):
        print(f"  {key} = {man.config[key]}")
    if man.seed is not None:
        print(f"  seed = {man.seed}")
    print()

    counters = man.metrics.get("counters", {})
    gauges = man.metrics.get("gauges", {})
    if "parallel.updates_sent" in counters:
        # Table-3-style communication summary for parallel runs.
        updates = counters.get("parallel.updates_sent", 0)
        packets = counters.get("parallel.packets_sent", 0)
        factor = gauges.get(
            "parallel.combining_factor", updates / packets if packets else 0.0
        )
        table = Table(
            "communication summary (Table 3)",
            ["updates", "packets", "factor", "bytes", "frames", "ctrl-msgs"],
        )
        table.add(
            f"{int(updates):,}",
            f"{int(packets):,}",
            f"{factor:.1f}",
            format_bytes(counters.get("parallel.bytes_sent", 0)),
            f"{int(counters.get('simnet.ethernet.frames', 0)):,}",
            f"{int(counters.get('parallel.control_messages', 0)):,}",
        )
        table.show()

    if counters:
        table = Table("counters", ["name", "value"], widths=[44, 16])
        for name, value in counters.items():
            table.add(name, f"{value:,}" if isinstance(value, int) else value)
        table.show()
    if gauges:
        table = Table("gauges", ["name", "value"], widths=[44, 16])
        for name, value in gauges.items():
            table.add(name, f"{value:.3f}")
        table.show()
    hists = man.metrics.get("histograms", {})
    if hists:
        table = Table(
            "histograms", ["name", "count", "mean", "max"], widths=[44, 8, 14, 14]
        )
        for name, h in hists.items():
            table.add(name, h["count"], f"{h['mean']:.4g}", f"{h['max']:.4g}")
        table.show()
    if man.timers:
        table = Table(
            "timers (wall clock)",
            ["name", "count", "total", "mean"],
            widths=[44, 8, 12, 12],
        )
        for name, h in man.timers.items():
            table.add(
                name,
                h["count"],
                format_seconds(h["total"]),
                format_seconds(h["mean"]),
            )
        table.show()
    return 0


def _cmd_page(args) -> int:
    from .serve.pagedstore import DEFAULT_BLOCK_POSITIONS, write_paged

    block_positions = args.block_positions or DEFAULT_BLOCK_POSITIONS
    try:
        dbs = DatabaseSet.load(args.archive)
    except (OSError, KeyError, ValueError) as exc:
        print(f"cannot read archive: {exc}", file=sys.stderr)
        return 2
    summary = write_paged(
        dbs, args.out, block_positions=block_positions, level=args.level,
        codec=args.codec,
    )
    print(
        f"paged {summary['databases']} databases "
        f"({summary['positions']:,} positions, codec {args.codec}) "
        f"to {args.out}"
    )
    print(
        f"  {format_bytes(summary['value_bytes'])} int16 values -> "
        f"{format_bytes(summary['stored_bytes'])} stored in "
        f"{block_positions}-position blocks "
        f"(stored ratio {summary['stored_ratio']:.1f}x, file "
        f"{format_bytes(summary['file_bytes'])})"
    )
    return 0


def _cmd_serve(args) -> int:
    from pathlib import Path

    from .aserve.server import AsyncProbeServer
    from .serve.service import ProbeService

    faults = None
    if args.inject_fault:
        from .resilience.faults import FaultPlan, FaultSpecError

        try:
            faults = FaultPlan.from_specs(
                args.inject_fault, state_dir=args.fault_state_dir
            )
        except FaultSpecError as exc:
            print(f"bad --inject-fault spec: {exc}", file=sys.stderr)
            return 2
    if args.store.endswith(".npz"):
        service = ProbeService.from_database_set(DatabaseSet.load(args.store))
    else:
        service = ProbeService.from_paged(
            args.store, cache_bytes=args.cache_kb * 1024
        )
    server = AsyncProbeServer(service, host=args.host, port=args.port,
                              faults=faults,
                              max_connections=args.max_connections,
                              max_inflight=args.max_inflight)
    describe = f"{service.game_name} ({service.backend_kind}"
    if service.backend_kind == "paged":
        describe += f", cache {format_bytes(args.cache_kb * 1024)}"
    describe += ")"
    if faults is not None and faults.connection_drop is not None:
        drop = faults.connection_drop
        parts = [f"every={drop.every}" if drop.every else "",
                 f"after={drop.after}" if drop.after else ""]
        describe += f" [chaos: drop {' '.join(p for p in parts if p)}]"
    print(f"serving {describe} on {server.host}:{server.port}", flush=True)
    if args.ready_file:
        # Atomic so a watcher never reads a half-written host/port line.
        from .resilience.checkpoint import atomic_write_text

        atomic_write_text(Path(args.ready_file), f"{server.host} {server.port}\n")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    server.shutdown()
    service.close()
    print("server stopped")
    return 0


def _cmd_cluster(args) -> int:
    from .cluster.cli import run

    return run(args)


def _cmd_staticcheck(args) -> int:
    from .staticcheck.cli import run

    return run(args)


def _make_probe_client(args):
    """Build the client `repro probe` asked for: mmap for a local-path
    --endpoint, the pipelined binary client for a TCP endpoint."""
    if args.endpoint is not None:
        from .aserve import connect

        return connect(args.endpoint)
    from .aserve.client import BinaryProbeClient

    return BinaryProbeClient(args.host, args.port)


def _cmd_probe(args) -> int:
    from .serve.client import ProbeError

    asked = args.stats or args.board is not None or args.db is not None
    if not asked:
        print("nothing to do: pass --db/--index, --board, or --stats",
              file=sys.stderr)
        return 2
    if (args.db is None) != (args.index is None):
        print("--db and --index go together", file=sys.stderr)
        return 2
    if args.endpoint is None and args.port is None:
        print("pass --port (with optional --host) or --endpoint",
              file=sys.stderr)
        return 2
    try:
        with _make_probe_client(args) as client:
            if args.db is not None:
                db_id = DatabaseSet._parse_id(args.db)
                value = client.probe(db_id, args.index)
                print(f"db {db_id} index {args.index}: value {value:+d}")
            if args.board is not None:
                board = [int(x) for x in args.board.split(",")]
                if len(board) != 12:
                    print("board must have 12 pit counts", file=sys.stderr)
                    return 2
                answer = client.best_move(board)
                print(f"value for the mover: {answer['value']:+d}")
                for move in answer["moves"]:
                    print(f"  optimal: pit {move['pit']} "
                          f"(captures {move['captures']})")
            if args.stats:
                stats = client.stats()
                for key in sorted(stats):
                    print(f"  {key} = {stats[key]}")
    except (ProbeError, OSError, ValueError) as exc:
        print(f"probe failed: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    """Parse arguments and dispatch to the subcommand handlers."""
    args = _build_parser().parse_args(argv)
    handler = {
        "solve": _cmd_solve,
        "stats": _cmd_stats,
        "verify": _cmd_verify,
        "query": _cmd_query,
        "model": _cmd_model,
        "metrics": _cmd_metrics,
        "page": _cmd_page,
        "serve": _cmd_serve,
        "probe": _cmd_probe,
        "cluster": _cmd_cluster,
        "staticcheck": _cmd_staticcheck,
    }[args.command]
    return handler(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
