"""Online streaming engine: bounded structure store and per-point updates.

Every incoming point first becomes its own structure. While the store is
within budget (the burn-in phase) nothing else happens. Once over budget,
all structure weights absorb the new point's typicality, underweight
structures are pruned (merged into their best-fitting peer when one is
close enough on the log-typicality scale, deleted otherwise), and if the
store is still over budget the two most similar structures are merged.

Each structure is a damped-window footprint. Its mean and weight are
kept as un-normalized damped sums (accumulators) and divided by the
closed-form window normalizer decay_norm only for the normalized view.
This is the damped-window generalization of classic running sums and
the stable way to compose merges: accumulators only ever get shifted
and added. A merge shifts the older structure's accumulators back by the
younger one's window length and adds the younger one's, which is the
damped sum over both windows in closed form. Spreads are kept
normalized instead: a merge takes the covariance union of the two padded
spreads, a rank-one update of the older one when it absorbs a unit
singleton from d = 32 on, and pools the damped scatters only when that
union fails. The two sums keep separate clocks: the mean (and spread)
window is the structure's age, one step per absorbed point, while the
weight window advances on every weight update, since a structure's
weight is refreshed for every incoming stream point while its mean and
spread change only through merges.

Every spread dominates the identity: singletons start there, a union
dominates both padded inputs and pooling is a convex combination. So
every spread has a Cholesky factor; a merge whose spread does not factor
raises before it changes anything.

The store keeps N + 1 slots: stacked means, weight accumulators,
weights, ages, weight ages and ids as arrays, a dense pairwise distance
matrix, and per slot its mean and lower Cholesky factor (both
read-only), mean accumulator and spread. Slots stay in ascending-id
order: new structures (singletons and merge results, which always take
the next id) append, removals compact. numpy's first-minimum rule then
is the tie-break everywhere: the closest pair is the first minimum of
the distance matrix's upper triangle in row-major order, i.e. the least
(distance, smaller id, larger id); a pruned structure goes to the lowest
id among equally typical targets; prune candidates run in (weight, id)
order, each against the store the previous one left.

Means and spreads change only through merges, so each slot's factor and
its distances to the earlier slots are computed once, when it is
filled; a singleton's distance row also gives the new point's
typicality in every structure for the weight update. Up to d = 3 the
factors are stacked too (a singleton's is the identity) and one call of
linalg.solve_norm_sq's closed form per direction gives a whole row, bit
for bit what structure_distance computes pair by pair. From d = 4 each
slot keeps its own arithmetic: a dot product for unit singletons and
triangular solves otherwise. Squared distances become typicalities
through typicality's one elementwise transform, a whole row per call.
The offline DBSCAN reads this same matrix through distances().
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fusion, linalg
from .errors import DimensionMismatch, UnknownIdentifier
from .typicality import Structure, _nlt_of_dsq, _typicality_of_dsq

# below this dimension the dense union is as cheap as the rank-one one
_FAST_UNION_MIN_DIM = 32


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
        if self.gamma < 0.0 or self.beta < 0.0:
            raise ValueError("decay rates must be nonnegative")
        if not self.m > 1.0:
            raise ValueError("fuzzifier m must be > 1")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.w_min < 1.0:
            raise ValueError("w_min must lie in (0, 1)")
        if self.nlt_max <= 0.0:
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
        self._weight = np.zeros(cap)
        self._age = np.zeros(cap, dtype=np.int64)
        self._weight_age = np.zeros(cap, dtype=np.int64)
        # upper triangle only: the diagonal and lower triangle stay inf
        self._dist = np.full((cap, cap), math.inf)
        # per slot: mean and lower factor (both read-only), mean
        # accumulator and spread
        self._mus: list[np.ndarray] = []
        self._mean_accs: list[np.ndarray] = []
        self._sigmas: list[np.ndarray] = []
        self._chols: list[np.ndarray] = []
        # set with the first point: stacked means, and for d <= 3 the factors
        # stacked along a trailing slot axis, (d, d, N + 1), the layout the
        # closed-form kernel takes
        self._mu: np.ndarray | None = None
        self._chol: np.ndarray | None = None

    def __len__(self) -> int:
        return self._n

    def ids(self) -> list[int]:
        return self._ids[:self._n].tolist()

    def snapshot(self) -> list[Structure]:
        """Normalized copies of all structures, ordered by identifier.

        Every mean and spread is copied; factors() is the read-only view
        without copies.
        """
        return [
            Structure(mu=self._mus[k].copy(), sigma=self._sigmas[k].copy(),
                      weight=float(self._weight[k]), age=int(self._age[k]))
            for k in range(self._n)
        ]

    def factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(mean, lower Cholesky factor) of every structure, ordered by identifier.

        The engine's own cached arrays, marked read-only, not copies; they
        stay valid after later updates, which replace a structure's arrays
        rather than mutate them.
        """
        return list(zip(self._mus, self._chols))

    def distances(self) -> np.ndarray:
        """Symmetric copy of the distance matrix in id order, zero diagonal.

        From d = 4 an entry can differ in the last bit from the pair-by-pair
        clustering.pairwise_structure_distances (one many-column solve).
        """
        upper = np.triu(self._dist[:self._n, :self._n], 1)
        return upper + upper.T

    def update(self, x) -> None:
        """Consume one stream point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1 or not x.size:
            raise DimensionMismatch(f"expected a nonempty vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("stream point must be finite")
        if self.dim is None:
            self.dim = x.shape[0]
            cap = self.params.max_structures + 1
            self._mu = np.zeros((cap, self.dim))
            if self.dim <= linalg.CLOSED_FORM_MAX_DIM:
                self._chol = np.zeros((self.dim, self.dim, cap))
        elif x.shape[0] != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.shape[0]}")

        self.clock += 1
        # the singleton's distance row already holds x's typicality in every
        # earlier structure
        typicality = self._add_singleton(x)
        if self._n <= self.params.max_structures:
            return

        self._update_weights(typicality)
        self._prune()
        while self._n > self.params.max_structures:
            self._merge(*self._closest_pair())

    def merge_structures(self, ident_a: int, ident_b: int) -> None:
        """Merge two structures selected by identifier.

        Raises NotPositiveDefinite, and leaves the model as it was, if the
        merged spread has no Cholesky factor.
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

    def _add_singleton(self, x: np.ndarray) -> np.ndarray:
        # shared read-only identity: nothing downstream mutates a spread
        # in place, and snapshot() hands out copies
        x = x.copy()
        unit = fusion.unit_spread(x.shape[0])
        return self._append(x, x, unit, unit, 1.0, 1, 1, 1.0)

    def _append(self, mean_acc, mu, sigma, chol, weight_acc, age, weight_age,
                weight) -> np.ndarray:
        """Fill the next slot and its column of distances to every earlier slot.

        Returns the typicality of the new mean in each earlier structure.
        """
        s = self._n
        mu.setflags(write=False)
        self._mus.append(mu)
        self._mean_accs.append(mean_acc)
        self._sigmas.append(sigma)
        self._chols.append(chol)
        self._mu[s] = mu
        if self._chol is not None:
            self._chol[..., s] = chol
        self._ids[s] = self._next_id
        self._next_id += 1
        self._weight_acc[s] = weight_acc
        self._weight[s] = weight
        self._age[s] = age
        self._weight_age[s] = weight_age
        self._n = s + 1
        self._dist[s, :s + 1] = math.inf
        if not s:
            return np.empty(0)
        self._dist[:s, s], typicality = self._distance_row(s)
        return typicality

    def _drop(self, *slots: int) -> None:
        """Remove slots, shifting the later ones down to keep id order."""
        for k in sorted(slots, reverse=True):
            n = self._n - 1
            for arr in (self._ids, self._weight_acc, self._weight, self._age,
                        self._weight_age, self._mu):
                arr[k:n] = arr[k + 1:n + 1]
            if self._chol is not None:
                self._chol[..., k:n] = self._chol[..., k + 1:n + 1]
            self._dist[k:n, :n + 1] = self._dist[k + 1:n + 1, :n + 1]
            self._dist[:n, k:n] = self._dist[:n, k + 1:n + 1]
            for per_slot in (self._mus, self._mean_accs, self._sigmas, self._chols):
                del per_slot[k]
            self._n = n

    def _distance_row(self, s: int) -> tuple[np.ndarray, np.ndarray]:
        """Structure distance of slot s to each earlier slot, and the
        typicality of slot s's mean in each of them.

        The distance is one minus the product of each mean's typicality in
        the other structure, as in typicality.structure_distance.
        """
        m = self.params.m
        new_in_old = self._dsq_at(self._mu[s], np.arange(s))
        old_from_new = self._mu[:s] - self._mu[s]
        if self._chol is not None:
            old_in_new = _closed_form_dsq(old_from_new, self._chol[..., s:s + 1])
        else:
            old_in_new = _dsq_many(self._chols[s], old_from_new)
        u_new, u_old = _typicality_of_dsq(np.stack((new_in_old, old_in_new)), m)
        return 1.0 - u_old * u_new, u_new

    def _dsq_at(self, point: np.ndarray, slots) -> np.ndarray:
        """Squared Mahalanobis distance of point under each listed slot's spread."""
        deltas = point - self._mu[slots]
        if self._chol is not None:
            return _closed_form_dsq(deltas, self._chol[..., slots])
        return np.array([_dsq(self._chols[k], delta) for k, delta in zip(slots, deltas)])

    def _update_weights(self, typicality: np.ndarray) -> None:
        """Fold x's typicality into every weight; the newest slot is x itself."""
        n = self._n
        beta = self.params.beta
        self._weight_acc[:n] *= math.exp(-beta)
        self._weight_acc[:n - 1] += typicality
        self._weight_acc[n - 1] += 1.0
        self._weight_age[:n] += 1
        norms = [decay_norm(age, beta) for age in self._weight_age[:n].tolist()]
        # a damped average of typicalities is at most one; the recursive
        # sum and the closed-form normalizer can round one ulp apart
        self._weight[:n] = np.minimum(1.0, self._weight_acc[:n] / norms)

    def _prune(self) -> None:
        m = self.params.m
        weight = self._weight[:self._n]
        low = np.flatnonzero(weight < self.params.w_min)
        if not low.size:
            return
        # slots are in id order, so a stable sort by weight orders by (weight, id)
        candidates = self._ids[low[np.argsort(weight[low], kind="stable")]].tolist()
        for ident in candidates:
            cand = self._slot(ident)
            targets = np.flatnonzero(~np.isin(self._ids[:self._n], candidates))
            best = None
            if targets.size:
                nlt = _nlt_of_dsq(self._dsq_at(self._mu[cand], targets), m)
                k = int(np.argmin(nlt))
                if nlt[k] < self.params.nlt_max:
                    best = int(targets[k])
            self.diagnostics.prunes += 1
            if best is not None:
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
        mean_acc = shift * self._mean_accs[older] + self._mean_accs[younger]
        weight_acc = (math.exp(-beta * wage_new) * float(self._weight_acc[older])
                      + float(self._weight_acc[younger]))
        age = age_old + age_new
        g = decay_norm(age, gamma)
        mu = mean_acc / g

        mu_old, mu_new = self._mus[older], self._mus[younger]
        sigma_old, sigma_new = self._sigmas[older], self._sigmas[younger]
        sigma = None
        if age_new == 1 and self.dim >= _FAST_UNION_MIN_DIM:
            # the younger is a unit singleton and the older spread is >= I
            sigma = fusion.union_absorbing_unit(
                fusion.pad_covariance(sigma_old, mu_old, mu), mu - mu_new)
        if sigma is None:
            sigma = fusion.fuse(mu_old, sigma_old, mu_new, sigma_new, mu)
        pooled = sigma is None
        if pooled:
            # the union failed on a degenerate spread: pool the damped scatters
            sigma = (shift * (sigma_old * decay_norm(age_old, gamma))
                     + sigma_new * decay_norm(age_new, gamma)) / g
        # raises on a spread without a factor while nothing has changed yet
        chol = linalg.cholesky(sigma)
        chol.setflags(write=False)
        self.diagnostics.cu_fallbacks += pooled
        self.diagnostics.merges += 1

        self._drop(a, b)
        weight_age = wage_old + wage_new
        weight = min(1.0, weight_acc / decay_norm(weight_age, beta))
        self._append(mean_acc, mu, sigma, chol, weight_acc, age, weight_age, weight)


def _closed_form_dsq(deltas: np.ndarray, chols: np.ndarray) -> np.ndarray:
    """Row-wise delta_k' (L_k L_k')^-1 delta_k for d <= 3 from (d, d, n) factors.

    A single factor (d, d, 1) serves every row. A delta that overflows
    (means near the float limit) gives NaN through 0 * inf in the
    substitution; it is infinitely far.
    """
    out = linalg.solve_norm_sq(chols, deltas.T)
    out[np.isnan(out)] = math.inf
    return out


def _dsq(chol: np.ndarray, delta: np.ndarray) -> float:
    """delta' Sigma^-1 delta of one delta under one d >= 4 structure's factor."""
    if chol is fusion.unit_spread(delta.shape[0]):
        return float(delta @ delta)
    return linalg.solve_norm_sq(chol, delta)


def _dsq_many(chol: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Row-wise delta' Sigma^-1 delta of d >= 4 deltas under one factor.

    One triangular solve with many right-hand sides (one einsum for a unit
    singleton) instead of a call per delta.
    """
    if chol is fusion.unit_spread(deltas.shape[1]):
        return np.einsum("ij,ij->i", deltas, deltas)
    return linalg.solve_norm_sq_many(chol, deltas)
