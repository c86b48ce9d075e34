"""Calibration of the simulated cluster against the paper's headline.

The abstract gives three absolute anchors:

* the large (13-stone) awari database took **~40 hours on one machine**;
* the same database took **50 minutes on 64 processors** (speedup 48);
* an even larger database would have needed **> 600 MB** of memory on a
  uniprocessor.

:data:`CLUSTER_1995` fixes the hardware constants (10 Mbit/s shared
Ethernet, ~5 MIPS MC68030-class nodes, millisecond-class message software
overhead — see :mod:`repro.simnet.costs` for the per-operation
derivations).  The functions here convert measured operation counts into
simulated seconds with those constants and extrapolate small-database
measurements to the paper's 13-stone workload, so EXPERIMENTS.md can
report paper-vs-model side by side.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..simnet.costs import DEFAULT_COSTS, CostModel
from ..simnet.ethernet import EthernetConfig

__all__ = [
    "Cluster",
    "CLUSTER_1995",
    "sequential_seconds",
    "extrapolate_ops",
    "PAPER_HEADLINE",
]


@dataclass(frozen=True)
class Cluster:
    """A named hardware configuration."""

    name: str
    costs: CostModel
    ethernet: EthernetConfig


#: The reconstruction of the paper's Ethernet-based processor pool.
CLUSTER_1995 = Cluster(
    name="1995 Ethernet pool",
    costs=DEFAULT_COSTS,
    ethernet=EthernetConfig(),
)

#: Headline numbers quoted in the abstract.
PAPER_HEADLINE = {
    "sequential_hours": 40.0,
    "parallel_minutes": 50.0,
    "processors": 64,
    "speedup": 48.0,
    "memory_wall_mbytes": 600.0,
}

#: The abstract's second claim: "an even larger database (computed in 20
#: hours) would have required over 600 MByte of internal memory on a
#: uniprocessor and would compute for many weeks."  Under the calibrated
#: model this matches the 19-stone database (see EXPERIMENTS.md).
PAPER_SECOND_HEADLINE = {
    "parallel_hours": 20.0,
    "memory_wall_mbytes": 600.0,
    "sequential": "many weeks",
    "reconstructed_stones": 19,
}


def sequential_seconds(
    size: int,
    thresholds: int,
    notifications: int,
    costs: CostModel = DEFAULT_COSTS,
) -> float:
    """Simulated uniprocessor time for one database.

    This is exactly the CPU work the parallel workers charge, summed —
    the fair baseline for speedup (same cost constants, no messaging).
    """
    return (
        size * costs.scan_position
        + thresholds
        * size
        * (costs.threshold_init_position + costs.value_assemble_position)
        + notifications * (costs.update_generate + costs.update_apply)
    )


def extrapolate_ops(sizes, notifications, target_size: int, target_bound: int):
    """Predict (notifications) for a larger database by fitting the
    per-position notification rate.

    Awari's internal out-degree is nearly constant across stone counts,
    so ``notifications ≈ rate × size × bound``; the rate is fit on the
    measured databases (least squares through the origin).
    """
    sizes = np.asarray(sizes, dtype=np.float64)
    notifications = np.asarray(notifications, dtype=np.float64)
    if sizes.size == 0:
        raise ValueError("need at least one measured database")
    rate = float((notifications * sizes).sum() / (sizes * sizes).sum())
    return rate * target_size, rate


def headline_table(measured_reports, costs: CostModel = DEFAULT_COSTS):
    """Extrapolate measured sequential reports to the 13-stone headline.

    ``measured_reports`` are :class:`~repro.core.sequential.DatabaseReport`
    objects for awari databases.  Returns a dict with the model's 13-stone
    sequential hours next to the paper's 40.
    """
    from ..games.awari_index import AwariIndexer

    sizes = [r.size * r.thresholds for r in measured_reports if r.thresholds]
    notifs = [r.parent_notifications for r in measured_reports if r.thresholds]
    target_size = AwariIndexer(13).count
    pred_notifs, rate = extrapolate_ops(sizes, notifs, target_size * 13, 13)
    seconds = sequential_seconds(target_size, 13, pred_notifs, costs)
    return {
        "target_positions": target_size,
        "predicted_notifications": pred_notifs,
        "notification_rate": rate,
        "sequential_hours_model": seconds / 3600.0,
        "sequential_hours_paper": PAPER_HEADLINE["sequential_hours"],
    }


def second_headline_table(measured_reports, costs: CostModel = DEFAULT_COSTS):
    """Model the abstract's "even larger database" claim.

    Reconstructed as the 19-stone database: predicts the 64-processor
    compute time, the sequential time ("many weeks") and the uniprocessor
    memory footprint (> 600 MB) using the fitted notification rate and
    the 12-byte/position construction layout.
    """
    from ..core.parallel.worker import RAWorker
    from ..games.awari_index import AwariIndexer

    stones = PAPER_SECOND_HEADLINE["reconstructed_stones"]
    sizes = [r.size * r.thresholds for r in measured_reports if r.thresholds]
    notifs = [r.parent_notifications for r in measured_reports if r.thresholds]
    top = AwariIndexer(stones).count
    pred_notifs, _ = extrapolate_ops(sizes, notifs, top * stones, stones)
    seq_seconds = sequential_seconds(top, stones, pred_notifs, costs)
    lower = sum(AwariIndexer(k).count for k in range(stones))
    uni_bytes = RAWorker.MODELED_BYTES_PER_POSITION * top + lower
    return {
        "stones": stones,
        "positions": top,
        "sequential_weeks_model": seq_seconds / (7 * 24 * 3600.0),
        "parallel_hours_model": seq_seconds / 64 / 3600.0,
        "parallel_hours_paper": PAPER_SECOND_HEADLINE["parallel_hours"],
        "memory_mbytes_model": uni_bytes / 1e6,
        "memory_mbytes_paper": PAPER_SECOND_HEADLINE["memory_wall_mbytes"],
    }
