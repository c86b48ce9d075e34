"""Clean fixture: nothing for any rule to find."""
from pathlib import Path

from repro.resilience.checkpoint import atomic_write_text


def persist(path: Path, text: str, metrics) -> None:
    atomic_write_text(path, text)
    metrics.inc("pipeline.databases_solved")


def read_back(path: Path) -> str:
    with open(path) as handle:
        return handle.read()
