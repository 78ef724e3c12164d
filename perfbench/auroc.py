"""Rank AUROC kept inside the benchmark, so that scoring the fit does not
depend on the code under measurement.

``auroc(scores, labels)`` is the Mann-Whitney statistic: the probability that
a random positive outscores a random negative, with tied scores given their
averaged rank (a tie counts one half).
"""

from __future__ import annotations

import numpy as np


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``; each group of ties gets its mean rank."""
    values = np.asarray(values, dtype=np.float64).ravel()
    order = np.argsort(values, kind="mergesort")
    sorted_vals = values[order]
    # start index of every run of equal values in sorted order
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])
    ends = np.r_[starts[1:], values.size]
    mean_rank = (starts + ends + 1) / 2.0  # mean of ranks starts+1 .. ends
    ranks = np.empty(values.size)
    ranks[order] = np.repeat(mean_rank, ends - starts)
    return ranks


def auroc(scores, labels) -> float:
    """Area under the ROC curve of ``scores`` against binary ``labels``."""
    scores = np.asarray(scores, dtype=np.float64).ravel()
    labels = np.asarray(labels).ravel()
    if scores.shape != labels.shape:
        raise ValueError(f"{scores.size} scores but {labels.size} labels")
    if not np.isin(labels, (0, 1)).all():
        raise ValueError("labels must be 0 or 1")
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    pos = labels == 1
    n_pos = int(pos.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("AUROC needs at least one positive and one negative")
    rank_sum = average_ranks(scores)[pos].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def offdiag_auroc(mask_mean: np.ndarray, adjacency: np.ndarray) -> float:
    """AUROC of an (N, N) gate matrix against the truth, self loops excluded.

    Entry [i, j] scores "j causes i", the convention of both the masks and
    ``GroundTruthGraph.adjacency``.
    """
    mask_mean = np.asarray(mask_mean)
    adjacency = np.asarray(adjacency)
    n = adjacency.shape[0]
    if mask_mean.shape != (n, n) or adjacency.shape != (n, n):
        raise ValueError(f"need two ({n}, {n}) matrices, got {mask_mean.shape}")
    off = ~np.eye(n, dtype=bool)
    return auroc(mask_mean[off], adjacency[off])
