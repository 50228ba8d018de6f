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

The store keeps N + 1 slots, each structure one row of two tables: an int64
table of [id, age, weight age] and a float table of [weight accumulator |
mean | mean accumulator | up to d = 3 the spread's lower Cholesky factor]
(weights are derived when read), plus a dense pairwise distance matrix and
per slot its spread (a fusion.Spread). Slots stay in ascending-id order:
new structures (singletons and merge results) take the next id and append a
row to each table; removals shift the later rows down in place. numpy's
first-minimum rule is the tie-break everywhere: the closest pair is the
least (distance, smaller id, larger id); a pruned structure goes to the
lowest id among equally typical targets; prune candidates run in (weight,
id) order, each as one row against the whole store the previous one left,
the candidates still pending (itself included) masked as infinitely far.

Each slot's distances to the earlier slots are computed once: from d = 4
when it is filled, by each spread's own norm_sq; up to d = 3 with the next
slot's, in one call of linalg.solve_norm_sq's closed form over the stored
factors, bit for bit what structure_distance computes pair by pair. A
singleton's column also gives the new point's typicality in every
structure for the weight update. The closest-pair search and the reads
(spreads, distances) first complete a waiting column. The offline DBSCAN
reads this same matrix through distances(). The typicality transforms
read an inf or NaN squared distance (an offset that overflows) as
infinitely far: update and merge_structures ignore numpy's overflow
warnings, and a merge whose spread overflows raises ValueError.
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import fusion, linalg
from .errors import DimensionMismatch, UnknownIdentifier
from .typicality import Structure, _check_fuzzifier, _nlt_of_dsq, _typicality_of_dsq


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
        if not (isinstance(self.max_structures, (int, np.integer)) and self.max_structures >= 2):
            raise ValueError(f"max_structures must be an integer >= 2, got {self.max_structures}")
        if not (self.gamma >= 0.0 and self.beta >= 0.0):
            raise ValueError("decay rates must be nonnegative")
        _check_fuzzifier(self.m)
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.w_min < 1.0:
            raise ValueError("w_min must lie in (0, 1)")
        if not self.nlt_max > 0.0:
            raise ValueError("nlt_max must be positive")
        if not (isinstance(self.min_pts, (int, np.integer)) and self.min_pts >= 1):
            raise ValueError(f"min_pts must be an integer >= 1, got {self.min_pts}")


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

    Single writer, reads included: snapshot, factors, spreads and distances
    change no result but complete the waiting distance columns.
    """

    def __init__(self, params: SpcParams):
        self.params = params
        self.clock = 0
        self.dim: int | None = None
        self.diagnostics = Diagnostics()
        self.retired_age = 0
        self._next_id = 0
        self._empty_store(0)

    def _empty_store(self, dim: int) -> None:
        """N + 1 empty slots for structures of dimension dim; made again when
        the first point fixes dim."""
        cap = self.params.max_structures + 1
        # one row per slot in each table, and a view of each column
        self._ints = np.zeros((cap, 3), dtype=np.int64)  # [id, age, weight age]
        chol = dim * dim if dim <= linalg.CLOSED_FORM_MAX_DIM else 0  # up to d = 3, row by row
        self._floats = np.zeros((cap, 1 + 2 * dim + chol))  # [weight acc | mean | mean acc | chol]
        self._views(dim)
        # upper triangle only: on and below the diagonal stays inf through _drop's shifts
        self._dist = np.full((cap, cap), math.inf)
        self._sigmas: list[fusion.Spread] = []  # per slot
        self._n = self._done = 0  # the slots from _done on wait for their distance columns

    def _views(self, dim: int) -> None:
        """The column views of the two tables; up to d = 3 _chol[:, :, k] is slot k's factor."""
        f, w = self._floats, 1 + 2 * dim
        self._ids, self._age, self._weight_age = self._ints.T
        self._weight_acc, self._mu, self._mean_acc = f[:, 0], f[:, 1:1 + dim], f[:, 1 + dim:w]
        self._chol = f[:, w:].reshape(-1, dim, dim).transpose(1, 2, 0) if f.shape[1] > w else None

    def __getstate__(self) -> dict:
        """The state without the column views: a pickle or deep copy holds each table once."""
        views = ("_ids", "_age", "_weight_age", "_weight_acc", "_mu", "_mean_acc", "_chol")
        return {k: v for k, v in self.__dict__.items() if k not in views}

    def __setstate__(self, state: dict) -> None:
        """Restore a deep copy or an unpickled model: its views alias its own tables, its
        unit singletons (age 1) share fusion.unit(dim) and its dense factors are read-only."""
        self.__dict__.update(state)
        self._views(self.dim or 0)
        ages = self._age[:self._n].tolist()
        self._sigmas = [fusion.unit(self.dim) if a == 1 else s for s, a in zip(self._sigmas, ages)]
        for chol in (s.chol for s in self._sigmas if isinstance(s, fusion.DenseSpread)):
            chol.setflags(write=False)

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
        self._columns()
        mus = self._mu[:self._n].copy()
        mus.setflags(write=False)
        # a weight is at most one, as a damped average of typicalities is; the
        # recursive sum and the closed-form normalizer can round one ulp apart
        norms = decay_norms(self._weight_age[:self._n].tolist(), self.params.beta)
        weights = np.minimum(1.0, self._weight_acc[:self._n] / norms).tolist()
        return list(zip(mus, self._sigmas, weights, self._age[:self._n].tolist()))

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
        self._columns()
        upper = np.triu(self._dist[:self._n, :self._n], 1)
        return upper + upper.T

    def sq_distance_rows(self, points: np.ndarray):
        """Squared Mahalanobis distances of (n, d) points, one row per structure.

        A generator over the structures in id order, so a caller holds one
        row at a time. Each row goes through the kernel of the engine's own
        distance columns: up to d = 3 the closed form on the stored factor, bit
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
            self._empty_store(self.dim)
        elif x.shape[0] != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.shape[0]}")

        self.clock += 1
        self._append(fusion.unit(self.dim), 1, 1, 1.0, x, x)
        # the singleton's distance column holds x's typicality in every earlier structure
        typicality = self._columns()
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

    def _append(self, sigma, age, weight_age, weight_acc, mu, mean_acc) -> None:
        """Fill the next slot, one row of each table (no weight: spreads derives
        it); its column of distances to the earlier slots waits for _columns.
        """
        s = self._n
        self._sigmas.append(sigma)
        self._ints[s] = self._next_id, age, weight_age
        self._weight_acc[s], self._mu[s], self._mean_acc[s] = weight_acc, mu, mean_acc
        if self._chol is not None:
            self._chol[:, :, s] = sigma.factor()
        self._next_id += 1
        self._n = s + 1

    def _drop(self, *slots: int) -> None:
        """Remove slots, highest first, shifting each later row down one in place."""
        for k in sorted(slots, reverse=True):
            n = self._n = self._n - 1
            del self._sigmas[k]
            self._done -= k < self._done  # one complete slot fewer
            if k < n:  # the last slot moves no row
                self._ints[k:n] = self._ints[k + 1:n + 1]
                self._floats[k:n] = self._floats[k + 1:n + 1]
                # rows, then columns: on or below the diagonal, inf only receives inf
                self._dist[k:n] = self._dist[k + 1:n + 1]
                self._dist[:n, k:n] = self._dist[:n, k + 1:n + 1]

    def _columns(self) -> np.ndarray | None:
        """Fill the distance column of each waiting slot p, up to d = 3 two to a closed-form
        call, both directions from delta = mu_p - mu_k (every kernel gives -delta's bits);
        returns the typicality of the newest slot's mean in each earlier structure."""
        typicality = None
        while (lo := self._done) < self._n:
            hi = min(self._n, lo + (2 if self._chol is not None else 1))
            if self._chol is not None:
                with np.errstate(over="ignore", invalid="ignore"):  # update's rule, for reads too
                    chols = np.empty((self.dim, self.dim, 2, hi - lo, hi - 1))  # pairs (k, lo + j)
                    chols[:, :, 0] = self._chol[:, :, None, :hi - 1]  # [..., 0, j, k]: slot k's
                    chols[:, :, 1] = self._chol[:, :, lo:hi, None]  # [..., 1, j, k]: slot lo + j's
                    delta = self._mu[lo:hi].T[..., None] - self._mu[:hi - 1].T[:, None]
                    dsq = linalg.solve_norm_sq(chols, delta[:, None])
            else:  # only update and merge_structures, which ignore overflow, get here
                deltas = self._mu[lo] - self._mu[:lo]
                dsq = np.stack((fusion.norm_sq_rows(self._sigmas[:lo], deltas),
                                fusion.norm_sq(self._sigmas[lo], deltas)))[:, None]
            u_new, u_old = _typicality_of_dsq(dsq, self.params.m)
            dist = 1.0 - u_old * u_new
            for j, p in enumerate(range(lo, hi)):
                self._dist[:p, p] = dist[j, :p]
            self._done, typicality = hi, u_new[-1]  # complete once written
        return typicality

    @np.errstate(over="ignore", invalid="ignore")
    def _point_dsq(self, points: np.ndarray, k: int) -> np.ndarray:
        """Squared Mahalanobis distance of each point under slot k's spread, inf
        where the offset overflows; up to d = 3 the points come as a (d, n) array."""
        if self._chol is not None:
            dsq = linalg.solve_norm_sq(self._chol[:, :, k], points - self._mu[k, :, None])
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

    def _prune_candidates(self) -> np.ndarray:
        """Slots of weight below w_min in (weight, id) order. A normalizer grows with its
        window, so a weight is at least the accumulator over the longest window's (at beta = 0
        its own): only slots under w_min there, plus a margin for expm1, take exact weights."""
        acc, ages, beta = self._weight_acc[:self._n], self._weight_age[:self._n], self.params.beta
        bound = ages if beta == 0.0 else decay_norms([int(ages.max())], beta)[0]
        slots = np.flatnonzero(acc / bound < self.params.w_min * (1.0 + 1e-12))
        if not slots.size:
            return slots
        weight = acc[slots] / decay_norms(ages[slots].tolist(), beta)
        low = weight < self.params.w_min
        # slots are in id order, so a stable sort by weight orders by (weight, id)
        return slots[low][np.argsort(weight[low], kind="stable")]

    def _prune(self) -> None:
        candidates = self._ids[self._prune_candidates()]
        for i in range(candidates.size):
            # this candidate and the later ones: never a target
            pending = np.searchsorted(self._ids[:self._n], candidates[i:])
            cand, n = int(pending[0]), self._n
            deltas = self._mu[cand] - self._mu[:n]  # cand's mean under every slot's spread
            dsq = (fusion.norm_sq_rows(self._sigmas[:n], deltas) if self._chol is None
                   else linalg.solve_norm_sq(self._chol[:, :, :n], deltas.T))
            nlt = _nlt_of_dsq(dsq, self.params.m)
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
        self._columns()
        return divmod(int(np.argmin(self._dist[:self._n, :self._n])), self._n)

    def _merge(self, a: int, b: int) -> None:
        """Replace two slots with their fusion; the older (greater age, then smaller id) leads."""
        rows = self._ints[a].tolist(), self._ints[b].tolist()  # [id, age, weight age]
        older, younger = (b, a) if (rows[1][1], rows[0][0]) > (rows[0][1], rows[1][0]) else (a, b)
        (_, age_old, wage_old), (_, age_new, wage_new) = rows if older == a else rows[::-1]
        w_old, w_new = float(self._weight_acc[older]), float(self._weight_acc[younger])

        shift = math.exp(-self.params.gamma * age_new)
        mean_acc = shift * self._mean_acc[older] + self._mean_acc[younger]
        weight_acc = math.exp(-self.params.beta * wage_new) * w_old + w_new
        age = age_old + age_new
        norm_old, norm_new, g = decay_norms([age_old, age_new, age], self.params.gamma)
        mu = mean_acc / g
        # raises before any state changes
        sigma, pooled = fusion.merge(self._sigmas[older], self._sigmas[younger],
                                     self._mu[older], self._mu[younger], mu,
                                     shift, norm_old, norm_new, g)
        self.diagnostics.cu_fallbacks += pooled
        self.diagnostics.merges += 1

        self._drop(a, b)
        self._append(sigma, age, wage_old + wage_new, weight_acc, mu, mean_acc)
        if self._chol is None:  # from d = 4 a column's bits depend on its BLAS call
            self._columns()

