"""Value semantics and status encodings shared by all RA solvers.

Retrograde analysis runs as a *least-fixpoint* label propagation with
three states per position:

* ``UNKNOWN`` — not yet decided (positions left UNKNOWN at the fixpoint
  are the draws of the run);
* ``WIN`` — the mover reaches the run's objective;
* ``LOSS`` — the mover cannot avoid the opponent's objective.

For capture-difference games the objective is parameterized by a
threshold ``t >= 1``: WIN means ``value >= t`` and LOSS means
``value <= -t`` (see :func:`repro.core.kernel.seed_thresholds`).  For classic
win/draw/loss games the labels are the final answer.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "UNKNOWN",
    "WIN",
    "LOSS",
    "NO_EXIT",
    "assemble_values",
    "check_nested_thresholds",
    "exit_values",
    "status_values",
]

#: Position not yet finalized (drawn if still UNKNOWN at the fixpoint).
UNKNOWN = np.uint8(0)
#: Mover achieves the objective.
WIN = np.uint8(1)
#: Mover cannot avoid the opponent achieving the objective.
LOSS = np.uint8(2)

#: Sentinel for "no exit move" in best-exit arrays.  Any real exit value
#: of an n-stone database lies in [-n, n] with n <= 48, so -32768 is safe.
NO_EXIT = np.int16(-32768)


def assemble_values(win_sets: list[np.ndarray], loss_sets: list[np.ndarray]) -> np.ndarray:
    """Combine per-threshold labels into capture-difference values.

    ``win_sets[t-1]`` / ``loss_sets[t-1]`` are bool arrays for threshold
    ``t`` (t = 1..n).  ``value = max{t : win_t}``, ``-max{t : loss_t}``,
    or 0 when the position is drawn at every threshold.
    """
    if len(win_sets) == 0:
        raise ValueError("need at least one threshold")
    size = win_sets[0].shape[0]
    values = np.zeros(size, dtype=np.int16)
    # Iterate ascending so larger thresholds overwrite smaller ones.
    for t, (w, l) in enumerate(zip(win_sets, loss_sets), start=1):
        values[w] = t
        values[l] = -t
    return values


def exit_values(best_exit: np.ndarray) -> np.ndarray:
    """Values of a single-valued database (value bound 0): each
    position's best exit, or 0 where it has none (:data:`NO_EXIT`)."""
    values = best_exit.astype(np.int16)
    values[values == NO_EXIT] = 0
    return values


def status_values(status: np.ndarray) -> np.ndarray:
    """:func:`assemble_values` read straight off ``(T, n)`` status rows,
    row ``t-1`` holding threshold ``t``'s labels."""
    values = np.zeros(status.shape[1], dtype=np.int16)
    for t, row in enumerate(status, start=1):
        values[row == WIN] = t
        values[row == LOSS] = -t
    return values


def check_nested_thresholds(
    win_sets: list[np.ndarray], loss_sets: list[np.ndarray]
) -> None:
    """Assert the soundness invariant ``W_{t+1} ⊆ W_t`` and ``L_{t+1} ⊆ L_t``.

    Forcing at least ``t+1`` stones trivially forces at least ``t``; a
    violation means a solver bug.  Raises ``AssertionError``.
    """
    for t in range(1, len(win_sets)):
        if (win_sets[t] & ~win_sets[t - 1]).any():
            raise AssertionError(f"W_{t+1} not contained in W_{t}")
        if (loss_sets[t] & ~loss_sets[t - 1]).any():
            raise AssertionError(f"L_{t+1} not contained in L_{t}")
