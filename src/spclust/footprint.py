"""Damped-window sufficient statistics for one structure.

A footprint stores un-normalized damped sums (mean, scatter, weight
accumulators) and divides by the closed-form window normalizer only when
a normalized view is needed. This is the damped-window generalization of
the classic sum / sum-of-squares running statistics and is the stable
way to compose merges: accumulators only ever get shifted and added.

The mean/scatter accumulators age by one per absorbed point; the weight
accumulator has its own clock that advances on every weight update, since
a structure's weight is refreshed for every incoming stream point while
its mean and scatter change only through merges.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import DimensionMismatch
from .typicality import Structure, _check_fuzzifier, _typicality_of_dsq


@dataclass(frozen=True)
class DecayRates:
    """Per-timestep exponential decay: gamma for mean/scatter, beta for weight."""

    gamma: float = 0.0
    beta: float = 0.0

    def __post_init__(self):
        if self.gamma < 0.0 or self.beta < 0.0:
            raise ValueError(f"decay rates must be nonnegative, got {self}")


@dataclass
class Footprint:
    """Un-normalized damped sums describing one structure.

    mean_acc and scatter_acc are damped sums referenced to ``age`` steps;
    weight_acc is a damped sum of typicality weights referenced to
    ``weight_age`` steps. Instances are treated as immutable values: every
    operation returns a new footprint.
    """

    mean_acc: np.ndarray
    scatter_acc: np.ndarray
    weight_acc: float
    age: int
    weight_age: int

    @property
    def dim(self) -> int:
        return self.mean_acc.shape[0]


def decay_norm(steps: int, rate: float) -> float:
    """Damped-window normalizer: sum of e^(-rate * k) for k = 0..steps-1.

    Closed form (1 - e^(-rate*steps)) / (1 - e^(-rate)), evaluated with
    expm1 so it degrades gracefully to ``steps`` as rate -> 0.
    """
    if steps < 1:
        raise ValueError(f"window length must be >= 1, got {steps}")
    if rate == 0.0:
        return float(steps)
    return math.expm1(-rate * steps) / math.expm1(-rate)


def new_singleton(x: np.ndarray) -> Footprint:
    """Footprint of a brand-new structure: mean at x, identity spread, weight 1."""
    x = np.asarray(x, dtype=float)
    return Footprint(
        mean_acc=x.copy(),
        scatter_acc=np.eye(x.shape[0]),
        weight_acc=1.0,
        age=1,
        weight_age=1,
    )


def normalize(f: Footprint, rates: DecayRates) -> Structure:
    """Normalized view: divide each accumulator by its window normalizer."""
    g = decay_norm(f.age, rates.gamma)
    b = decay_norm(f.weight_age, rates.beta)
    return Structure(
        mu=f.mean_acc / g,
        sigma=f.scatter_acc / g,
        weight=f.weight_acc / b,
        age=f.age,
    )


def merge_footprints(f1: Footprint, f2: Footprint, rates: DecayRates) -> Footprint:
    """Combine two footprints, with f1 the older structure by convention.

    f2's accumulators are taken as the most recent window, so f1's are
    shifted back by f2's window length before adding. The scatter produced
    here is the pooled form, valid when both means agree; callers merging
    structures with different means replace it with a covariance union.
    """
    if f1.dim != f2.dim:
        raise DimensionMismatch(f"cannot merge dims {f1.dim} and {f2.dim}")
    shift_ms = math.exp(-rates.gamma * f2.age)
    shift_w = math.exp(-rates.beta * f2.weight_age)
    return Footprint(
        mean_acc=shift_ms * f1.mean_acc + f2.mean_acc,
        scatter_acc=shift_ms * f1.scatter_acc + f2.scatter_acc,
        weight_acc=shift_w * f1.weight_acc + f2.weight_acc,
        age=f1.age + f2.age,
        weight_age=f1.weight_age + f2.weight_age,
    )


def batch_footprint(points, rates: DecayRates, m: float) -> Structure:
    """Direct damped-window statistics over an in-memory point list.

    Evaluates the defining sums literally: the damped mean, the damped
    scatter of each point about the running mean at its own arrival time,
    and the damped average typicality of all points against the final
    mean and scatter. Full retention of the point list makes this a
    statistics oracle for the incremental paths, not a streaming
    operation.

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

    decay = math.exp(-rates.gamma)
    mean_acc = np.zeros(dim)
    scatter_acc = np.zeros((dim, dim))
    norm = 0.0
    for t in range(n):
        mean_acc = decay * mean_acc + pts[t]
        norm = decay * norm + 1.0
        running_mu = mean_acc / norm
        delta = pts[t] - running_mu
        scatter_acc = decay * scatter_acc + np.outer(delta, delta)

    g = decay_norm(n, rates.gamma)
    mu = mean_acc / g
    sigma = scatter_acc / g

    # Weight pass: typicality of every point against the final mu/sigma.
    deltas = pts - mu
    zero_rows = ~np.any(deltas, axis=1)
    if zero_rows.all():
        d_sq = np.zeros(n)
    else:
        d_sq = linalg.solve_norm_sq_many(linalg.cholesky(sigma), deltas)
        d_sq[zero_rows] = 0.0
    u = _typicality_of_dsq(d_sq, m)
    w_weights = np.exp(-rates.beta * np.arange(n - 1, -1, -1, dtype=float))
    w = float(w_weights @ u) / decay_norm(n, rates.beta)

    return Structure(mu=mu, sigma=sigma, weight=w, age=n)
