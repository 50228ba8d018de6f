"""Online streaming engine: bounded structure store and per-point updates.

Every incoming point first becomes its own structure. While the store is
within budget (the burn-in phase) nothing else happens. Once over budget,
all weights absorb the new point's typicality, underweight structures
are pruned (merged into their best-fitting peer when one is close enough
on the log-typicality scale, deleted otherwise), and while the store is
over budget the two most similar structures are merged.

Each structure is a damped-window footprint. Its mean and weight are
un-normalized damped sums (accumulators), divided by the closed-form
window normalizers decay_norms only for the normalized view; a merge
shifts the older structure's accumulators back by the younger one's
window length and adds the younger one's, the damped sum over both
windows in closed form. The mean window is the structure's age, one
step per absorbed point; the weight window advances on every weight
update. Spreads are kept normalized: a merge takes the covariance union
of the two padded spreads and pools the damped scatters only when that
union fails (fusion.merge, which also decides the form a spread is
stored in). So every spread dominates the identity and has a Cholesky
factor; a merge that raises does so before it changes anything.

The store keeps N + 1 slots: stacked means, mean and weight accumulators,
ages, weight ages and ids as arrays (weights are derived when read), a
dense pairwise distance matrix, and per slot its spread (a
fusion.Spread). Slots stay in ascending-id order: new structures
(singletons and merge results) take the next id and append, removals
compact in one pass. numpy's first-minimum rule is the tie-break
everywhere: the closest pair is the least (distance, smaller id, larger
id); a pruned structure goes to the lowest id among equally typical
targets; prune candidates run in (weight, id) order, each as one row
against the whole store the previous one left, the candidates still
pending (itself included) masked as infinitely far.

Each slot's distances to the earlier slots are computed once, when it
is filled; a singleton's row also gives the new point's typicality in
every structure for the weight update. Up to d = 3 the factors are
stacked and one call of linalg.solve_norm_sq's closed form gives a
whole row in both directions, bit for bit what structure_distance
computes pair by pair. From d = 4 each spread's own norm_sq gives them.
The offline DBSCAN reads this same matrix through distances(). The
typicality transforms read an inf or NaN squared distance (an offset that
overflows) as infinitely far: update and merge_structures ignore numpy's
overflow warnings, and a merge whose spread overflows raises ValueError.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fusion, linalg
from .errors import DimensionMismatch, UnknownIdentifier
from .typicality import Structure, _nlt_of_dsq, _typicality_of_dsq

_SIGNS = np.array([[1.0], [-1.0]])  # delta and -delta: both directions of a row


def decay_norms(steps: list[int], rate: float) -> list[float]:
    """Damped-window normalizer of each window length k in steps, the sum of e^(-rate * j)
    over j < k: expm1(-rate * k) / expm1(-rate), or k at rate 0."""
    if min(steps, default=1) < 1:
        raise ValueError(f"window length must be >= 1, got {min(steps)}")
    if rate == 0.0:
        return [float(k) for k in steps]
    denom = math.expm1(-rate)
    return [math.expm1(-rate * k) / denom for k in steps]


@dataclass(frozen=True)
class SpcParams:
    """Full parameter set of the streaming engine and the offline step.

    max_structures is the structure budget (burn-in length); gamma and
    beta are the mean/scatter and weight decay rates per timestep; m is
    the typicality fuzzifier; epsilon and min_pts drive DBSCAN over the
    structure distance; w_min is the prune threshold; nlt_max is the
    largest negative-log-typicality at which a pruned structure is still
    absorbed by a peer instead of deleted.
    """

    max_structures: int = 30
    gamma: float = 0.0
    beta: float = 0.0
    m: float = 1.5
    epsilon: float = 0.95
    w_min: float = 0.01
    nlt_max: float = 3.0
    min_pts: int = 2

    def __post_init__(self):
        if self.max_structures < 2:
            raise ValueError("max_structures must be >= 2")
        if not (self.gamma >= 0.0 and self.beta >= 0.0):
            raise ValueError("decay rates must be nonnegative")
        if not 1.0 < self.m < math.inf:
            raise ValueError("fuzzifier m must be finite and > 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.w_min < 1.0:
            raise ValueError("w_min must lie in (0, 1)")
        if not self.nlt_max > 0.0:
            raise ValueError("nlt_max must be positive")
        if self.min_pts < 1:
            raise ValueError("min_pts must be >= 1")


@dataclass
class Diagnostics:
    """Counters describing what the engine did to stay within budget."""

    merges: int = 0
    prunes: int = 0
    deletions: int = 0
    cu_fallbacks: int = 0

    def as_dict(self) -> dict:
        return asdict(self)


class SpcModel:
    """Mutable model state: ordered structure store plus the stream clock.

    Single writer: update and merge_structures need exclusive access.
    snapshot, factors and distances are read-only and safe between updates.
    """

    def __init__(self, params: SpcParams):
        self.params = params
        self.clock = 0
        self.dim: int | None = None
        self.diagnostics = Diagnostics()
        self.retired_age = 0
        self._next_id = 0
        self._n = 0
        cap = params.max_structures + 1
        self._ids = np.zeros(cap, dtype=np.int64)
        self._weight_acc = np.zeros(cap)
        self._age = np.zeros(cap, dtype=np.int64)
        self._weight_age = np.zeros(cap, dtype=np.int64)
        # upper triangle only: the diagonal and lower triangle stay inf
        self._dist = np.full((cap, cap), math.inf)
        self._sigmas: list[fusion.Spread] = []  # per slot
        # stacked means and mean accumulators, (N + 1, d) from the first point
        self._mu = self._mean_acc = np.zeros((cap, 0))
        # set with the first point for d <= 3: the factors in the closed-form
        # kernel's layout, (d, d, 2, N + 1): [..., 0, k] is slot k's factor,
        # [..., 1, :s] slot s's while its row is made
        self._chol: np.ndarray | None = None

    def __len__(self) -> int:
        return self._n

    def ids(self) -> list[int]:
        return self._ids[:self._n].tolist()

    def snapshot(self) -> list[Structure]:
        """Normalized copies of all structures, ordered by identifier: the
        spreads() with each mean copied and each spread built by dense()."""
        return [Structure(mu.copy(), spread.dense(), weight, age)
                for mu, spread, weight, age in self.spreads()]

    def spreads(self) -> list[tuple[np.ndarray, fusion.Spread, float, int]]:
        """(mean, spread, weight, age) of every structure, ordered by identifier.

        A read-only copy of each mean, and the engine's own fusion.Spread,
        neither copied nor built: all unit singletons share fusion.unit(dim),
        and later updates replace spreads, never change them.
        """
        mus = self._mu[:self._n].copy()
        mus.setflags(write=False)
        return list(zip(mus, self._sigmas, self._weights().tolist(), self._age[:self._n].tolist()))

    def factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(mean, lower Cholesky factor) of every structure, ordered by identifier.

        The means of spreads(). Of a dense spread the factor is the engine's
        own read-only array; a low-rank spread is built and factored here.
        """
        return [(mu, spread.factor()) for mu, spread, *_ in self.spreads()]

    def distances(self) -> np.ndarray:
        """Symmetric copy of the distance matrix in id order, zero diagonal.

        From d = 4 an entry can differ in the last bit from the pair-by-pair
        clustering.pairwise_structure_distances (one many-column solve).
        """
        upper = np.triu(self._dist[:self._n, :self._n], 1)
        return upper + upper.T

    def sq_distance_rows(self, points: np.ndarray):
        """Squared Mahalanobis distances of (n, d) points, one row per structure.

        A generator over the structures in id order, so a caller holds one
        row at a time. Each row goes through the kernel of the engine's own
        distance rows: up to d = 3 the closed form on the stored factor, bit
        for bit what decision_distance computes point by point; from d = 4
        fusion.norm_sq, a plain squared norm under a unit singleton. No
        spread is built or factored, and a point whose offset overflows is
        infinitely far.
        """
        if self._chol is not None:
            points = np.ascontiguousarray(points.T)  # the closed form's (d, n) layout
        for k in range(self._n):
            yield self._point_dsq(points, k)

    @np.errstate(over="ignore", invalid="ignore")
    def update(self, x) -> None:
        """Consume one stream point."""
        x = np.array(x, dtype=float, ndmin=1)
        if x.ndim != 1 or not x.size:
            raise DimensionMismatch(f"expected a nonempty vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("stream point must be finite")
        if self.dim is None:
            self.dim = x.shape[0]
            cap = self.params.max_structures + 1
            self._mu = np.zeros((cap, self.dim))
            self._mean_acc = np.zeros((cap, self.dim))
            if self.dim <= linalg.CLOSED_FORM_MAX_DIM:
                self._chol = np.zeros((self.dim, self.dim, 2, cap))
        elif x.shape[0] != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.shape[0]}")

        self.clock += 1
        # the singleton's distance row already holds x's typicality in every
        # earlier structure
        typicality = self._append(x, x, fusion.unit(self.dim), 1.0, 1, 1)
        if self._n <= self.params.max_structures:
            return

        self._update_weights(typicality)
        self._prune()
        while self._n > self.params.max_structures:
            self._merge(*self._closest_pair())

    @np.errstate(over="ignore", invalid="ignore")
    def merge_structures(self, ident_a: int, ident_b: int) -> None:
        """Merge two structures selected by identifier.

        Raises NotPositiveDefinite if the merged spread has no Cholesky
        factor. A merge that raises leaves the model as it was.
        """
        if ident_a == ident_b:
            raise ValueError("cannot merge a structure with itself")
        self._merge(self._slot(ident_a), self._slot(ident_b))

    # -- internals ---------------------------------------------------------

    def _slot(self, ident: int) -> int:
        hits = np.flatnonzero(self._ids[:self._n] == ident)
        if not hits.size:
            raise UnknownIdentifier(f"no structure with identifier {ident}")
        return int(hits[0])

    def _append(self, mean_acc, mu, sigma, weight_acc, age, weight_age) -> np.ndarray:
        """Fill the next slot (no weight: _weights derives it) and its column
        of distances to every earlier slot; returns the typicality of the new
        mean in each earlier structure.
        """
        s = self._n
        self._sigmas.append(sigma)
        self._mu[s] = mu
        self._mean_acc[s] = mean_acc
        if self._chol is not None:
            self._chol[:, :, 0, s] = sigma.factor()
        self._ids[s] = self._next_id
        self._next_id += 1
        self._weight_acc[s] = weight_acc
        self._age[s] = age
        self._weight_age[s] = weight_age
        self._n = s + 1
        self._dist[s, :s + 1] = math.inf
        self._dist[:s, s], typicality = self._distance_row(s)
        return typicality

    def _drop(self, *slots: int) -> None:
        """Remove slots, moving the kept ones down in one pass to keep id order."""
        keep = list(range(self._n))
        for k in sorted(slots, reverse=True):
            del keep[k]
            del self._sigmas[k]
        # slots below the first dropped one stay where they are
        n, lo = len(keep), min(slots)
        self._n = n
        keep = np.array(keep[lo:], dtype=np.intp)
        for arr in (self._ids, self._weight_acc, self._age, self._weight_age,
                    self._mu, self._mean_acc):
            arr[lo:n] = arr[keep]
        if self._chol is not None:
            self._chol[..., lo:n] = self._chol.take(keep, -1)
        # rows, then columns: the kept block stays upper triangular
        self._dist[lo:n] = self._dist.take(keep, 0)
        self._dist[:n, lo:n] = self._dist[:n].take(keep, 1)

    def _distance_row(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Structure distance of slot s to each earlier slot, and the
        typicality of slot s's mean in each of them.

        The distance is one minus the product of each mean's typicality in
        the other structure, as in typicality.structure_distance. Up to
        d = 3 one closed-form call takes both directions, the earlier
        factors against delta and slot s's factor against -delta (exact).
        """
        if self._chol is not None:
            chols = self._chol[..., :s]
            chols[:, :, 1] = self._chol[:, :, 0, s, None]
            delta = self._mu[s] - self._mu[:s]
            dsq = linalg.solve_norm_sq(chols, delta.T[:, None] * _SIGNS)
        else:
            new_in_old = self._dsq_at(self._mu[s], s)
            old_in_new = fusion.norm_sq(self._sigmas[s], self._mu[:s] - self._mu[s])
            dsq = np.stack((new_in_old, old_in_new))
        u_new, u_old = _typicality_of_dsq(dsq, self.params.m)
        return 1.0 - u_old * u_new, u_new

    def _dsq_at(self, point: np.ndarray, n: int) -> np.ndarray:
        """Squared Mahalanobis distance of point under each of the first n
        slots' spreads, read through views of that slot prefix (no gathered
        copies); a slot's value has the same bits whatever n is."""
        deltas = point - self._mu[:n]
        if self._chol is not None:
            return linalg.solve_norm_sq(self._chol[:, :, 0, :n], deltas.T)
        return fusion.norm_sq_rows(self._sigmas[:n], deltas)

    @np.errstate(over="ignore", invalid="ignore")
    def _point_dsq(self, points: np.ndarray, k: int) -> np.ndarray:
        """Squared Mahalanobis distance of each point under slot k's spread, inf
        where the offset overflows; up to d = 3 the points come as a (d, n) array."""
        if self._chol is not None:
            dsq = linalg.solve_norm_sq(self._chol[:, :, 0, k], points - self._mu[k, :, None])
        else:
            dsq = fusion.norm_sq(self._sigmas[k], points - self._mu[k])
        dsq[np.isnan(dsq)] = math.inf
        return dsq

    def _update_weights(self, typicality: np.ndarray) -> None:
        """Fold x's typicality into every weight; the newest slot is x itself."""
        n = self._n
        self._weight_acc[:n] *= math.exp(-self.params.beta)
        self._weight_acc[:n - 1] += typicality
        self._weight_acc[n - 1] += 1.0
        self._weight_age[:n] += 1

    def _weights(self) -> np.ndarray:
        """Each slot's weight accumulator over its window's normalizer, at most
        one: a damped average of typicalities is at most one, and the recursive
        sum and the closed-form normalizer can round one ulp apart."""
        norms = decay_norms(self._weight_age[:self._n].tolist(), self.params.beta)
        return np.minimum(1.0, self._weight_acc[:self._n] / norms)

    def _prune(self) -> None:
        weight = self._weights()
        low = np.flatnonzero(weight < self.params.w_min)
        if not low.size:
            return
        # slots are in id order, so a stable sort by weight orders by (weight, id)
        candidates = self._ids[low[np.argsort(weight[low], kind="stable")]]
        for i in range(candidates.size):
            # this candidate and the later ones: never a target
            pending = np.searchsorted(self._ids[:self._n], candidates[i:])
            cand = int(pending[0])
            nlt = _nlt_of_dsq(self._dsq_at(self._mu[cand], self._n), self.params.m)
            nlt[pending] = math.inf
            best = int(np.argmin(nlt))  # the first minimum: the lowest id
            self.diagnostics.prunes += 1
            if nlt[best] < self.params.nlt_max:
                self._merge(cand, best)
            else:
                self.retired_age += int(self._age[cand])
                self.diagnostics.deletions += 1
                self._drop(cand)

    def _closest_pair(self) -> tuple[int, int]:
        n = self._n
        return divmod(int(np.argmin(self._dist[:n, :n])), n)

    def _merge(self, a: int, b: int) -> None:
        """Replace two slots with their fusion (older plays the lead role)."""
        older, younger = sorted((a, b), key=lambda k: (-self._age[k], self._ids[k]))
        gamma = self.params.gamma
        beta = self.params.beta
        age_old, age_new = int(self._age[older]), int(self._age[younger])
        wage_old, wage_new = int(self._weight_age[older]), int(self._weight_age[younger])

        shift = math.exp(-gamma * age_new)
        mean_acc = shift * self._mean_acc[older] + self._mean_acc[younger]
        weight_acc = (math.exp(-beta * wage_new) * float(self._weight_acc[older])
                      + float(self._weight_acc[younger]))
        age = age_old + age_new
        norm_old, norm_new, g = decay_norms([age_old, age_new, age], gamma)
        mu = mean_acc / g
        # raises before any state changes
        sigma, pooled = fusion.merge(self._sigmas[older], self._sigmas[younger],
                                     self._mu[older], self._mu[younger], mu,
                                     shift, norm_old, norm_new, g)
        self.diagnostics.cu_fallbacks += pooled
        self.diagnostics.merges += 1

        self._drop(a, b)
        self._append(mean_acc, mu, sigma, weight_acc, age, wage_old + wage_new)

