#!/usr/bin/env python
"""Long-running database builds with checkpoint/resume.

The paper's 20-hour computations could not afford to restart from
scratch.  The pipeline runner writes every finished database (plus a
manifest) to disk; a second invocation resumes where the first stopped —
even with a different solver backend.

Run:  python examples/checkpointed_build.py
"""

import tempfile
from pathlib import Path

from repro.core.pipeline import PipelineConfig, PipelineRunner
from repro.games import AwariCaptureGame


def main() -> None:
    game = AwariCaptureGame()
    with tempfile.TemporaryDirectory() as tmp:
        ckpt = str(Path(tmp) / "awari-build")

        # First session: build up to 4 stones with the threshold solver,
        # then "get interrupted".
        cfg = PipelineConfig(backend="sequential", checkpoint_dir=ckpt)
        _, first = PipelineRunner(game, cfg).run(4)
        print(f"session 1: solved {first.solved} in {first.wall_seconds:.1f}s")

        # Second session: extend to 5 stones on the simulated cluster —
        # the checkpoints interoperate because all backends produce
        # identical databases.
        cfg2 = PipelineConfig(backend="parallel", checkpoint_dir=ckpt)
        values, second = PipelineRunner(game, cfg2).run(5)
        print(
            f"session 2: resumed {second.resumed}, solved {second.solved} "
            f"in {second.wall_seconds:.1f}s"
        )
        total = sum(v.shape[0] for v in values.values())
        print(f"final: {len(values)} databases, {total:,} positions")
        print(f"checkpoint dir held: "
              f"{sorted(p.name for p in Path(ckpt).iterdir())}")


if __name__ == "__main__":
    main()
