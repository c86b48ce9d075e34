"""Unit tests for the value/status helpers."""

import numpy as np
import pytest

from repro.core.values import (
    LOSS,
    NO_EXIT,
    UNKNOWN,
    WIN,
    assemble_values,
    check_nested_thresholds,
    status_values,
)


class TestStatusArray:
    def test_labels_distinct(self):
        assert len({int(UNKNOWN), int(WIN), int(LOSS)}) == 3

    def test_no_exit_below_any_value(self):
        assert NO_EXIT < -48


class TestAssembleValues:
    def test_single_threshold(self):
        w = np.array([True, False, False])
        l = np.array([False, True, False])
        v = assemble_values([w], [l])
        assert v.tolist() == [1, -1, 0]

    def test_higher_threshold_wins(self):
        w1 = np.array([True, True, False, False])
        l1 = np.array([False, False, True, True])
        w2 = np.array([True, False, False, False])
        l2 = np.array([False, False, True, False])
        v = assemble_values([w1, w2], [l1, l2])
        assert v.tolist() == [2, 1, -2, -1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            assemble_values([], [])


class TestStatusValues:
    def test_rows_read_like_assembled_sets(self):
        status = np.array([[WIN, LOSS, UNKNOWN, WIN], [WIN, UNKNOWN, UNKNOWN, UNKNOWN]])
        v = status_values(status.astype(np.uint8))
        assert v.tolist() == assemble_values(status == WIN, status == LOSS).tolist()
        assert v.tolist() == [2, -1, 0, 1]

    def test_no_rows_is_all_draws(self):
        assert status_values(np.zeros((0, 3), dtype=np.uint8)).tolist() == [0, 0, 0]

    def test_two_dimensional_sets_accepted(self):
        w = np.array([[True, False, False], [True, False, False]])
        l = np.array([[False, True, False], [False, False, False]])
        assert assemble_values(w, l).tolist() == [2, -1, 0]
        with pytest.raises(ValueError):
            assemble_values(w[:0], l[:0])


class TestNesting:
    def test_accepts_nested(self):
        w1 = np.array([True, True])
        w2 = np.array([True, False])
        l1 = np.array([False, False])
        l2 = np.array([False, False])
        check_nested_thresholds([w1, w2], [l1, l2])

    def test_rejects_win_violation(self):
        w1 = np.array([False, True])
        w2 = np.array([True, False])  # W_2 not within W_1
        l = np.array([False, False])
        with pytest.raises(AssertionError, match="W_2"):
            check_nested_thresholds([w1, w2], [l, l])

    def test_rejects_loss_violation(self):
        w = np.array([False, False])
        l1 = np.array([True, False])
        l2 = np.array([False, True])
        with pytest.raises(AssertionError, match="L_2"):
            check_nested_thresholds([w, w], [l1, l2])
