"""Online streaming engine: bounded structure store and per-point updates.

Every incoming point first becomes its own structure. While the store is
within budget (the burn-in phase) nothing else happens. Once over budget,
all weights absorb the new point's typicality, underweight structures
are pruned (merged into their best-fitting peer when one is close enough
on the log-typicality scale, deleted otherwise), and while the store is
over budget the two most similar structures are merged.

Each structure is a damped-window footprint. Its mean and weight are
un-normalized damped sums (accumulators), divided by the closed-form
window normalizer decay_norm only for the normalized view; a merge
shifts the older structure's accumulators back by the younger one's
window length and adds the younger one's, the damped sum over both
windows in closed form. The mean window is the structure's age, one
step per absorbed point; the weight window advances on every weight
update. Spreads are kept normalized: a merge takes the covariance union
of the two padded spreads (at d = 2 in closed form, fusion.fuse) and
pools the damped scatters only when that union fails. So every spread
dominates the identity and has a Cholesky factor; below d = 32 a merge
whose spread does not factor raises before it changes anything.

From d = 32 every spread is I + S diag(lam - 1) S' with S (d x k)
orthonormal, every lam > 1 and k <= age - 1, and a merge runs the union
on the projections onto the span of both bases and the offset between
the means (fusion.union_absorbing_unit). There the store keeps (S, lam)
and no dense spread or factor; snapshot() and factors() build those on
demand.

The store keeps N + 1 slots: stacked means, weight accumulators,
weights, ages, weight ages and ids as arrays, a dense pairwise distance
matrix, and per slot its mean (read-only), mean accumulator and spread,
below d = 32 with its read-only lower Cholesky factor. Slots stay in
ascending-id order: new structures (singletons and merge results) take
the next id and append, removals compact in one pass. numpy's
first-minimum rule is the tie-break everywhere: the closest pair is the
least (distance, smaller id, larger id); a pruned structure goes to the
lowest id among equally typical targets; prune candidates run in
(weight, id) order, each against the store the previous one left.

Each slot's factor and its distances to the earlier slots are computed
once, when it is filled; a singleton's row also gives the new point's
typicality in every structure for the weight update. Up to d = 3 the
factors are stacked and one call of linalg.solve_norm_sq's closed form
gives a whole row in both directions, bit for bit what
structure_distance computes pair by pair. From d = 4 each slot keeps its
own triangular solves, from d = 32 linalg.low_rank_norm_sq, O(dk) per
distance. The offline DBSCAN reads this same matrix through distances().
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fusion, linalg
from .errors import DimensionMismatch, UnknownIdentifier
from .typicality import Structure, _nlt_of_dsq, _typicality_of_dsq

# From this dimension up spreads are kept as identity plus low rank. By
# measured ingest the low-rank form is faster at every d while k << d
# (1.7x at d = 64 to 15x at d = 512). Once structures reach k = d it is
# no faster than the dense path at any d measured, 4-48 (README has the
# ratios), and from d = 128 3-4x slower than the old rank-one union.
_LOW_RANK_MIN_DIM = 32

_SIGNS = np.array([[1.0], [-1.0]])  # delta and -delta: both directions of a row


def decay_norm(steps: int, rate: float) -> float:
    """Damped-window normalizer: sum of e^(-rate * k) for k = 0..steps-1.

    Closed form (1 - e^(-rate*steps)) / (1 - e^(-rate)), evaluated with
    expm1 so it degrades gracefully to ``steps`` as rate -> 0.
    """
    return decay_norms([steps], rate)[0]


def decay_norms(steps: list[int], rate: float) -> list[float]:
    """decay_norm of each window length in steps, with expm1(-rate) taken once."""
    if min(steps) < 1:
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
        self._low_rank = False
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
        # per slot: mean (read-only), mean accumulator, spread and factor;
        # below d = 32 the spread is a dense array with a read-only lower
        # factor, from d = 32 a fusion.LowRankSpread without one (None)
        self._mus: list[np.ndarray] = []
        self._mean_accs: list[np.ndarray] = []
        self._sigmas: list = []
        self._chols: list[np.ndarray] = []
        # set with the first point: stacked means, and for d <= 3 the factors
        # in the closed-form kernel's layout, (d, d, 2, N + 1): [..., 0, k] is
        # slot k's factor, [..., 1, :s] slot s's while its row is made
        self._mu: np.ndarray | None = None
        self._chol: np.ndarray | None = None

    def __len__(self) -> int:
        return self._n

    def ids(self) -> list[int]:
        return self._ids[:self._n].tolist()

    def snapshot(self) -> list[Structure]:
        """Normalized copies of all structures, ordered by identifier.

        Every mean and spread is copied; from d = 32 each spread is built
        from its low-rank form by the call.
        """
        return [
            Structure(mu=self._mus[k].copy(), sigma=self._dense_sigma(k),
                      weight=float(self._weight[k]), age=int(self._age[k]))
            for k in range(self._n)
        ]

    def factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(mean, lower Cholesky factor) of every structure, ordered by identifier.

        Below d = 32 these are the engine's own read-only arrays, valid
        after later updates, which replace arrays rather than mutate them.
        From d = 32 each call factors the spreads snapshot() builds.
        """
        if not self._low_rank:
            return list(zip(self._mus, self._chols))
        chols = [linalg.cholesky(self._dense_sigma(k)) for k in range(self._n)]
        for chol in chols:
            chol.setflags(write=False)
        return list(zip(self._mus, chols))

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
        row at a time. Below d = 32 each row is a many-column solve against
        the cached factor, from d = 32 the low-rank kernel the engine's own
        distances use; no spread is built or factored.
        """
        for k in range(self._n):
            deltas = points - self._mus[k]
            if self._low_rank:
                yield self._sigmas[k].norm_sq(deltas)
            else:
                yield linalg.solve_norm_sq_many(self._chols[k], deltas)

    def update(self, x) -> None:
        """Consume one stream point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1 or not x.size:
            raise DimensionMismatch(f"expected a nonempty vector, got shape {x.shape}")
        if not np.isfinite(x).all():
            raise ValueError("stream point must be finite")
        if self.dim is None:
            self.dim = x.shape[0]
            cap = self.params.max_structures + 1
            self._mu = np.zeros((cap, self.dim))
            self._low_rank = self.dim >= _LOW_RANK_MIN_DIM
            if self.dim <= linalg.CLOSED_FORM_MAX_DIM:
                self._chol = np.zeros((self.dim, self.dim, 2, cap))
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

        Below d = 32 raises NotPositiveDefinite if the merged spread has no
        Cholesky factor. A merge that raises leaves the model as it was.
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
        x = x.copy()
        if self._low_rank:
            return self._append(x, x, fusion.LowRankSpread.unit(x.shape[0]), None,
                                1.0, 1, 1, 1.0)
        # shared read-only identity: nothing downstream mutates a spread
        # in place, and snapshot() hands out copies
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
            self._chol[:, :, 0, s] = chol
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
        """Remove slots, moving the kept ones down in one pass to keep id order."""
        keep = list(range(self._n))
        for k in sorted(slots, reverse=True):
            del keep[k]
            for per_slot in (self._mus, self._mean_accs, self._sigmas, self._chols):
                del per_slot[k]
        # slots below the first dropped one stay where they are
        n, lo = len(keep), min(slots)
        self._n = n
        keep = np.array(keep[lo:], dtype=np.intp)
        for arr in (self._ids, self._weight_acc, self._weight, self._age,
                    self._weight_age, self._mu):
            arr[lo:n] = arr[keep]
        if self._chol is not None:
            self._chol[..., lo:n] = self._chol.take(keep, -1)
        # rows, then columns: the kept block stays upper triangular
        self._dist[lo:n] = self._dist.take(keep, 0)
        self._dist[:n, lo:n] = self._dist[:n].take(keep, 1)

    # offsets that overflow (means near the float limit) are infinitely far
    @np.errstate(over="ignore", invalid="ignore")
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
            dsq = _closed_form_dsq(delta.T[:, None] * _SIGNS, chols)
        else:
            new_in_old = self._dsq_at(self._mu[s], np.arange(s))
            old_from_new = self._mu[:s] - self._mu[s]
            old_in_new = (self._sigmas[s].norm_sq(old_from_new) if self._low_rank
                          else _dsq_many(self._chols[s], old_from_new))
            dsq = np.stack((new_in_old, old_in_new))
        u_new, u_old = _typicality_of_dsq(dsq, self.params.m)
        return 1.0 - u_old * u_new, u_new

    @np.errstate(over="ignore", invalid="ignore")
    def _dsq_at(self, point: np.ndarray, slots) -> np.ndarray:
        """Squared Mahalanobis distance of point under each listed slot's spread."""
        deltas = point - self._mu[slots]
        if self._chol is not None:
            return _closed_form_dsq(deltas.T, self._chol[:, :, 0, slots])
        if self._low_rank:
            return fusion.norm_sq_rows([self._sigmas[k] for k in slots], deltas)
        return np.concatenate([_dsq_many(self._chols[k], deltas[i:i + 1])
                               for i, k in enumerate(slots)])

    def _dense_sigma(self, slot: int) -> np.ndarray:
        """A new dense copy of one slot's spread."""
        if self._low_rank:
            return self._sigmas[slot].dense()
        return self._sigmas[slot].copy()

    def _update_weights(self, typicality: np.ndarray) -> None:
        """Fold x's typicality into every weight; the newest slot is x itself."""
        n = self._n
        beta = self.params.beta
        self._weight_acc[:n] *= math.exp(-beta)
        self._weight_acc[:n - 1] += typicality
        self._weight_acc[n - 1] += 1.0
        self._weight_age[:n] += 1
        norms = decay_norms(self._weight_age[:n].tolist(), beta)
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

        # when the union fails on a degenerate spread, the damped scatters
        # are pooled
        chol = None
        if self._low_rank:
            sigma = fusion.union_absorbing_unit(sigma_old, sigma_new, mu_old, mu_new, mu)
            pooled = sigma is None
            if pooled:
                sigma = fusion.pool_projected(sigma_old, sigma_new, mu_new - mu_old,
                                              shift * decay_norm(age_old, gamma) / g,
                                              decay_norm(age_new, gamma) / g)
        else:
            sigma = fusion.fuse(mu_old, sigma_old, mu_new, sigma_new, mu)
            pooled = sigma is None
            if pooled:
                sigma = (shift * (sigma_old * decay_norm(age_old, gamma))
                         + sigma_new * decay_norm(age_new, gamma)) / g
            # raises before any state changes; keeps the spread it factors, jittered or not
            sigma, chol = linalg.factored(sigma)
            chol.setflags(write=False)
        self.diagnostics.cu_fallbacks += pooled
        self.diagnostics.merges += 1

        self._drop(a, b)
        weight_age = wage_old + wage_new
        weight = min(1.0, weight_acc / decay_norm(weight_age, beta))
        self._append(mean_acc, mu, sigma, chol, weight_acc, age, weight_age, weight)


def _closed_form_dsq(deltas: np.ndarray, chols: np.ndarray) -> np.ndarray:
    """delta' (L L')^-1 delta for d <= 3 over the trailing axes of (d, ...) deltas
    and (d, d, ...) factors; an overflowing delta (NaN via 0 * inf) is infinitely far."""
    out = linalg.solve_norm_sq(chols, deltas)
    out[np.isnan(out)] = math.inf
    return out


def _dsq_many(chol: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Row-wise delta' Sigma^-1 delta of d >= 4 deltas under one factor: one
    triangular solve with many right-hand sides, one einsum for a unit singleton."""
    if chol is fusion.unit_spread(deltas.shape[1]):
        return np.einsum("ij,ij->i", deltas, deltas)
    return linalg.solve_norm_sq_many(chol, deltas)
