"""Inputs come from the seed and from nothing else."""

import numpy as np
import pytest

from bench import inputs


@pytest.fixture
def values():
    rng = np.random.default_rng(0)
    return {db: rng.integers(-db, db + 1, size=50 * (db + 1)).astype(np.int16)
            for db in range(5)}


def test_same_seed_same_batches(values):
    a = inputs.make_batches(values, seed=11, count=8, size=32, skew="hot")
    b = inputs.make_batches(values, seed=11, count=8, size=32, skew="hot")
    assert inputs.digest(a) == inputs.digest(b)
    assert a[3].positions == b[3].positions


def test_different_seed_or_skew_different_batches(values):
    a = inputs.make_batches(values, seed=11, count=8, size=32, skew="hot")
    b = inputs.make_batches(values, seed=12, count=8, size=32, skew="hot")
    c = inputs.make_batches(values, seed=11, count=8, size=32, skew="uniform")
    assert len({inputs.digest(a), inputs.digest(b), inputs.digest(c)}) == 3


def test_batches_are_in_range_and_carry_the_oracle_answer(values):
    for skew in ("hot", "uniform"):
        for batch in inputs.make_batches(values, 5, 4, 64, skew):
            assert len(batch.positions) == 64
            for (db_id, index), want in zip(batch.positions, batch.expected):
                assert isinstance(db_id, int) and isinstance(index, int)
                assert 0 <= index < values[db_id].shape[0]
                assert values[db_id][index] == want


def test_hot_skew_prefers_low_indices(values):
    big = {0: np.zeros(100_000, dtype=np.int16)}
    hot = inputs.make_batches(big, 1, 4, 1000, "hot")
    flat = inputs.make_batches(big, 1, 4, 1000, "uniform")
    assert np.median(np.concatenate([b.indices for b in hot])) < 0.6 * np.median(
        np.concatenate([b.indices for b in flat]))


def test_unknown_skew_is_rejected(values):
    with pytest.raises(ValueError):
        inputs.make_batches(values, 1, 1, 1, "zipf")
