"""Reference computations the tests check the library against.

Nothing in spclust calls these: the oracles evaluate the defining
formulas directly, with full retention of their inputs, and so serve as
references for the streaming paths rather than as streaming operations.
folded drives the engine's own closed-form merge over given windows;
replay streams points through the engine with or without reads between
updates.
"""

import copy
import itertools
import math

import numpy as np

from spclust import linalg
from spclust.clustering import pairwise_structure_distances
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


READS = ("distances", "snapshot", "factors", "spreads")


def replay(points, params: SpcParams, merges=(), reads: bool = False):
    """Stream points through a new model; after each update yields the model
    and its state (ids, distances(), weights, ages).

    After update t, for t in merges, merge_structures fuses the two oldest
    structures. With reads, one public read (READS in turn) runs after every
    update and every merge, and check_complete checks that it left the
    distance matrix complete. Without, the model itself is never read: its
    state is read from a deep copy, so any distance column left waiting
    stays waiting in the replayed model. The copy is a model of its own
    (SpcModel.__setstate__ remakes its column views over its own tables):
    the reads complete its distance columns, never the replayed model's.
    """
    model = SpcModel(params)
    turn = itertools.count()

    def read():
        if reads:
            getattr(model, READS[next(turn) % len(READS)])()
            check_complete(model)

    for t, x in enumerate(points):
        model.update(x)
        read()
        if t in merges and len(model) > 1:
            model.merge_structures(*model.ids()[:2])
            read()
        state = model if reads else copy.deepcopy(model)
        spreads = state.spreads()
        yield model, (state.ids(), state.distances(), np.array([w for *_, w, _ in spreads]),
                      [age for *_, age in spreads])


def check_complete(model: SpcModel) -> None:
    """Assert that the engine's own distance matrix holds every pair's distance:
    up to d = 3 bit for bit pairwise_structure_distances', from d = 4 to 1e-12."""
    n = len(model)
    engine = np.triu(model._dist[:n, :n], 1)  # before factors() could complete it
    expected = np.triu(pairwise_structure_distances(model.factors(), model.params.m), 1)
    if model.dim <= linalg.CLOSED_FORM_MAX_DIM:
        assert engine.tobytes() == expected.tobytes()
    else:
        np.testing.assert_allclose(engine, expected, rtol=1e-12, atol=0.0)
