"""Reference computations the tests check the library against.

Nothing in spclust calls these: the oracles evaluate the defining
formulas directly, with full retention of their inputs, and so serve as
references for the streaming paths rather than as streaming operations.
folded drives the engine's own closed-form merge over given windows.
"""

import math

import numpy as np

from spclust import linalg
from spclust.engine import SpcModel, SpcParams, decay_norms
from spclust.typicality import Structure, _check_fuzzifier, _typicality_of_dsq


def batch_footprint(points, m: float, gamma: float = 0.0, beta: float = 0.0) -> Structure:
    """Direct damped-window statistics over an in-memory point list.

    Evaluates the defining sums literally: the damped mean (decay rate
    gamma per step), the damped scatter of each point about the running
    mean at its own arrival time, and the damped average typicality
    (decay rate beta) of all points against the final mean and scatter.

    Note the one-point scatter is the zero matrix here, whereas the
    streaming path seeds new structures with identity spread.
    """
    _check_fuzzifier(m)
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    n, dim = pts.shape
    if n < 1:
        raise ValueError("batch footprint needs at least one point")

    decay = math.exp(-gamma)
    mean_acc = np.zeros(dim)
    scatter_acc = np.zeros((dim, dim))
    norm = 0.0
    for t in range(n):
        mean_acc = decay * mean_acc + pts[t]
        norm = decay * norm + 1.0
        running_mu = mean_acc / norm
        delta = pts[t] - running_mu
        scatter_acc = decay * scatter_acc + np.outer(delta, delta)

    g = decay_norms([n], gamma)[0]
    mu = mean_acc / g
    sigma = scatter_acc / g

    # Weight pass: typicality of every point against the final mu/sigma.
    deltas = pts - mu
    zero_rows = ~np.any(deltas, axis=1)
    if zero_rows.all():
        d_sq = np.zeros(n)
    else:
        d_sq = linalg.solve_norm_sq_many(linalg.cholesky(sigma)[1], deltas)
        d_sq[zero_rows] = 0.0
    u = _typicality_of_dsq(d_sq, m)
    w_weights = np.exp(-beta * np.arange(n - 1, -1, -1, dtype=float))
    w = float(w_weights @ u) / decay_norms([n], beta)[0]

    return Structure(mu=mu, sigma=sigma, weight=w, age=n)


def is_psd(a: np.ndarray, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue of symmetric a is >= -tol."""
    a = np.asarray(a, dtype=float)
    if a.size == 0:
        return True
    return bool(np.linalg.eigvalsh(a)[0] >= -tol)


def folded(windows, gamma: float = 0.0, beta: float = 0.0) -> SpcModel:
    """A model holding one structure per window, each folded by the engine
    from that window's points in arrival order.

    The budget exceeds all the points, so every point enters as a
    singleton of weight 1 and merge_structures folds it into the
    structure of the points before it. That structure is the older one in
    every merge (the first merge is a tie of ages, which the smaller id
    wins), so it keeps the lead role and ends as the engine's damped sum
    over its window, comparable with batch_footprint.
    """
    model = SpcModel(SpcParams(max_structures=sum(map(len, windows)) + 1,
                               gamma=gamma, beta=beta))
    for window in windows:
        points = np.asarray(window, dtype=float)
        model.update(points[0])
        for x in points[1:]:
            model.update(x)
            model.merge_structures(*model.ids()[-2:])
    return model
