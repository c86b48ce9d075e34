#!/usr/bin/env python
"""Watch the distributed protocol at work.

Attaches a message tracer to a small 4-processor run and prints the
opening of the event log, the packet-flow matrix and the traffic
breakdown by message type — the update packets doing the real work, the
Safra tokens detecting quiescence, and the phase broadcasts in between.

Run:  python examples/protocol_trace.py
"""

from repro.core.graph import build_database_graph
from repro.core.parallel.driver import ParallelConfig
from repro.core.parallel.worker import RAWorker
from repro.core.partition import make_partition
from repro.core.sequential import SequentialSolver
from repro.games.awari_db import AwariCaptureGame
from repro.simnet.rts import SPMDRuntime
from repro.simnet.trace import Tracer

STONES = 4
PROCS = 4


def main() -> None:
    game = AwariCaptureGame()
    values, _ = SequentialSolver(game).solve(STONES - 1)
    graph = build_database_graph(game, STONES, values)
    partition = make_partition("cyclic", graph.size, PROCS)
    cfg = ParallelConfig(combining_capacity=64)
    workers = [RAWorker(r, graph, partition, STONES, cfg) for r in range(PROCS)]
    runtime = SPMDRuntime(workers, costs=cfg.costs)
    tracer = Tracer().attach(runtime)
    makespan = runtime.run()

    print(f"{STONES}-stone database on {PROCS} simulated processors "
          f"({makespan:.2f}s simulated)\n")
    print("first events:")
    print(tracer.render_log(limit=18))
    print("\npackets sent (row = source, column = destination):")
    print(tracer.render_flow())
    print("\ntraffic by message type:")
    print(tracer.render_tags())


if __name__ == "__main__":
    main()
