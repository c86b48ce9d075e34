"""The vectorized pit-major rules against a stone-by-stone reference.

``naive_move`` is deliberately the slowest possible reading of the rules
(one board, one stone at a time, the capture chain walked pit by pit); it
shares no code and no trick with :meth:`AwariGame.move_from`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games.awari import AwariGame, AwariRules, GrandSlam

ALL_RULES = [
    AwariRules(grand_slam=gs, must_feed=mf) for gs in GrandSlam for mf in (True, False)
]


def naive_move(board, pit, rules):
    """``(legal, captured, successor)`` of one move on one board."""
    b = [int(v) for v in board]
    in_hand, b[pit] = b[pit], 0
    if in_hand == 0:
        return False, 0, None
    pos = pit
    while in_hand:
        pos = (pos + 1) % 12
        if pos != pit:
            b[pos] += 1
            in_hand -= 1
    if rules.must_feed and sum(board[6:]) == 0 and sum(b[6:]) == 0:
        return False, 0, None
    taken = []
    while pos >= 6 and b[pos] in (2, 3):
        taken.append(pos)
        pos -= 1
    captured = sum(b[k] for k in taken)
    if captured and captured == sum(b[6:]):
        if rules.grand_slam is GrandSlam.FORBIDDEN:
            return False, 0, None
        if rules.grand_slam is GrandSlam.CAPTURE_NOTHING:
            taken, captured = [], 0
    for k in taken:
        b[k] = 0
    return True, captured, b[6:] + b[:6]


@st.composite
def board(draw):
    """A board of 0..14 stones, all compositions reachable."""
    n = draw(st.integers(0, 14))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=11, max_size=11)))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


batches = st.lists(board(), min_size=1, max_size=12)


def assert_matches_reference(rules, boards, pits, legal, captured, successors):
    for row, (b, pit) in enumerate(zip(boards, pits)):
        want_legal, want_captured, want_successor = naive_move(b, pit, rules)
        assert bool(legal[row]) == want_legal, (b, pit)
        if want_legal:
            assert int(captured[row]) == want_captured, (b, pit)
            assert successors[row].tolist() == want_successor, (b, pit)


@pytest.mark.parametrize("rules", ALL_RULES, ids=AwariRules.describe)
class TestAgainstNaiveReference:
    @given(batches)
    @settings(max_examples=120, deadline=None)
    def test_move_from_every_pit(self, rules, boards):
        game = AwariGame(rules)
        pit_major = np.ascontiguousarray(np.array(boards, dtype=np.int16).T)
        for pit in range(6):
            legal, captured, successors = game.move_from(pit_major, pit)
            assert_matches_reference(
                rules, boards, [pit] * len(boards), legal, captured, successors.T
            )
        assert not (pit_major != np.array(boards).T).any()  # input untouched

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_apply_move_with_a_pit_per_row(self, rules, data):
        boards = data.draw(batches)
        pits = data.draw(
            st.lists(st.integers(0, 5), min_size=len(boards), max_size=len(boards))
        )
        out = AwariGame(rules).apply_move(np.array(boards), np.array(pits))
        assert out.boards.shape == (len(boards), 12)
        assert_matches_reference(
            rules, boards, pits, out.legal, out.captured, out.boards
        )

    def test_grand_slam_and_long_chain(self, rules):
        # Pit 5 sows 6 stones onto 1,2,1,2,1,2 -> 2,3,2,3,2,3: the whole
        # side is capturable.  With a 4 in pit 8 the chain stops there.
        boards = [
            [0, 0, 0, 0, 0, 6, 1, 2, 1, 2, 1, 2],
            [0, 0, 0, 0, 0, 6, 1, 2, 3, 2, 1, 2],
        ]
        out = AwariGame(rules).apply_move(np.array(boards), np.array([5, 5]))
        assert_matches_reference(
            rules, boards, [5, 5], out.legal, out.captured, out.boards
        )
        assert int(out.captured[1]) == 8
