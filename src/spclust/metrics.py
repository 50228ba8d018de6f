"""External clustering quality metrics: purity and NMI."""

import math

import numpy as np

from .errors import LengthMismatch


def contingency_table(pred, truth) -> np.ndarray:
    """Count matrix with one row per predicted cluster, one column per class.

    Row/column order follows first appearance in the label sequences.
    """
    pred = list(pred)
    truth = list(truth)
    if len(pred) != len(truth):
        raise LengthMismatch(f"label lengths differ: {len(pred)} vs {len(truth)}")
    if not pred:
        raise ValueError("label sequences must be nonempty")
    row_of, col_of = {}, {}
    rows = [row_of.setdefault(p, len(row_of)) for p in pred]
    cols = [col_of.setdefault(t, len(col_of)) for t in truth]
    counts = np.zeros((len(row_of), len(col_of)), dtype=np.int64)
    np.add.at(counts, (rows, cols), 1)
    return counts


def purity(pred, truth) -> float:
    """Fraction of points whose cluster's majority class matches their own.

    Splitting a cluster can only raise purity, so a heavily
    over-segmented but homogeneous clustering still scores 1.0.
    """
    counts = contingency_table(pred, truth)
    return float(counts.max(axis=1).sum() / counts.sum())


def nmi(pred, truth) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    Natural-log entropies. Two degenerate partitions (both one cluster)
    agree perfectly and score 1.0; if only one side is degenerate the
    partitions differ and the score is 0.0.
    """
    counts = contingency_table(pred, truth).astype(float)
    n = counts.sum()
    p_row, p_col = counts.sum(axis=1) / n, counts.sum(axis=0) / n
    h_row, h_col = _entropy(p_row), _entropy(p_col)
    if h_row == 0.0 and h_col == 0.0:
        return 1.0
    if h_row == 0.0 or h_col == 0.0:
        return 0.0
    p_joint = counts / n
    mask = p_joint > 0
    info = float((p_joint[mask] * np.log(p_joint[mask] / np.outer(p_row, p_col)[mask])).sum())
    return info / math.sqrt(h_row * h_col)


def _entropy(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())
