"""Hand-checked cases for the benchmark's own AUROC.

Run with ``python -m pytest perfbench``.
"""

import numpy as np
import pytest

from auroc import auroc, average_ranks, offdiag_auroc


def test_average_ranks_ties_share_their_mean_rank():
    np.testing.assert_array_equal(average_ranks([3.0, 1.0, 3.0, 2.0]),
                                  [3.5, 1.0, 3.5, 2.0])
    np.testing.assert_array_equal(average_ranks([5.0, 5.0, 5.0]), [2.0, 2.0, 2.0])


def test_hand_computed_case():
    # pairs (pos, neg): (0.8,0.1) win, (0.8,0.4) win, (0.35,0.1) win,
    # (0.35,0.4) loss -> 3 of 4
    assert auroc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1]) == pytest.approx(0.75)


def test_hand_computed_case_with_a_tie_across_classes():
    # pairs: (0.5,0.5) tie = 1/2, (0.5,0.2) win, (0.9,0.5) win, (0.9,0.2) win
    assert auroc([0.5, 0.9, 0.5, 0.2], [1, 1, 0, 0]) == pytest.approx(3.5 / 4)


def test_all_tied_scores_give_one_half():
    assert auroc(np.full(7, 0.3), [1, 0, 0, 1, 0, 0, 0]) == 0.5


def test_perfect_and_inverted_rankings():
    labels = np.array([0, 1, 0, 1, 1, 0])
    scores = labels + np.linspace(0.0, 0.5, labels.size)
    assert auroc(scores, labels) == 1.0
    assert auroc(-scores, labels) == 0.0


def test_offdiag_ignores_the_diagonal():
    adjacency = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    scores = adjacency.astype(float)
    np.fill_diagonal(scores, -5.0)  # would rank the self loops last
    assert offdiag_auroc(scores, adjacency) == 1.0


def test_rejects_a_single_class():
    with pytest.raises(ValueError):
        auroc([0.1, 0.2], [1, 1])
