"""Seeded probe batches for the serve workloads.

The program under test receives only these generated inputs; the seed
never reaches it.  A pool of distinct batches is drawn once per run and
the closed loop cycles through it, so input generation stays out of the
timed interval and the expected answers can be looked up per pool batch.

Two position distributions, both size-weighted across databases (a
searcher lands in big databases more often than in tiny ones):

* ``hot``  — index = floor(u² · size): a skew toward low indices.  With
  a cache that holds the whole store the skew only decides how fast the
  cache warms; every request is answered from resident blocks.
* ``uniform`` — index uniform over the database: with a cache of 5 % of
  the store, nearly every touched block is a miss.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = ["Batch", "make_batches", "digest"]

SKEWS = ("hot", "uniform")


@dataclass
class Batch:
    """One ``probe_many`` request and its oracle answer."""

    positions: list  # [(db_id, index), ...] — what the client is handed
    db_ids: np.ndarray  # (n,) int64, parallel to ``positions``
    indices: np.ndarray  # (n,) int64
    expected: np.ndarray  # (n,) int16, from the fixture arrays


def make_batches(values: dict, seed: int, count: int, size: int,
                 skew: str) -> list:
    """``count`` batches of ``size`` probes over the databases in
    ``values`` (``{db_id: int16 array}``), deterministically from ``seed``."""
    if skew not in SKEWS:
        raise ValueError(f"unknown skew {skew!r}; use one of {SKEWS}")
    rng = np.random.default_rng(seed)
    ids = np.asarray(sorted(values), dtype=np.int64)
    sizes = np.asarray([values[int(i)].shape[0] for i in ids], dtype=np.int64)
    weights = sizes / sizes.sum()
    batches = []
    for _ in range(count):
        slot = rng.choice(ids.shape[0], size=size, p=weights)
        u = rng.random(size)
        if skew == "hot":
            u = u * u
        indices = np.minimum((u * sizes[slot]).astype(np.int64),
                             sizes[slot] - 1)
        db_ids = ids[slot]
        expected = np.empty(size, dtype=np.int16)
        for db_id in np.unique(db_ids):
            mask = db_ids == db_id
            expected[mask] = values[int(db_id)][indices[mask]]
        positions = list(zip(db_ids.tolist(), indices.tolist()))
        batches.append(Batch(positions, db_ids, indices, expected))
    return batches


def digest(batches) -> str:
    """SHA-256 over every batch's (db, index) records — two runs with the
    same seed must agree on it, two seeds must not."""
    h = hashlib.sha256()
    for batch in batches:
        h.update(np.ascontiguousarray(batch.db_ids, dtype="<i8").tobytes())
        h.update(np.ascontiguousarray(batch.indices, dtype="<i8").tobytes())
    return h.hexdigest()
