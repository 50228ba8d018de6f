"""Online streaming engine: bounded structure store and per-point updates.

Every incoming point first becomes its own structure. While the store is
within budget (the burn-in phase) nothing else happens. Once over budget,
all structure weights absorb the new point's typicality, underweight
structures are pruned (merged into their best-fitting peer when one is
close enough on the log-typicality scale, deleted otherwise), and if the
store is still over budget the two most similar structures are merged.

Structure means and spreads change only through merges, never per point,
so per-structure Cholesky factors and pairwise distances are cached and
invalidated only when a merge or deletion touches them. An _Entry is the
one live form of a structure: merges fuse the entries' normalized
(mean, spread) pairs directly, and the offline step reads the cached
means and factors through factors() instead of copying and refactoring.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fusion, linalg
from .errors import DimensionMismatch, NotPositiveDefinite, UnknownIdentifier
from .footprint import DecayRates, decay_norm
from .typicality import Structure, _nlt_of_dsq, _typicality_of_dsq


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

    @property
    def rates(self) -> DecayRates:
        return DecayRates(gamma=self.gamma, beta=self.beta)


@dataclass
class Diagnostics:
    """Counters describing what the engine did to stay within budget."""

    merges: int = 0
    prunes: int = 0
    deletions: int = 0
    cu_fallbacks: int = 0

    def as_dict(self) -> dict:
        return {
            "merges": self.merges,
            "prunes": self.prunes,
            "deletions": self.deletions,
            "cu_fallbacks": self.cu_fallbacks,
        }


class _Entry:
    """One live structure plus the caches keyed to its immutable mean/spread.

    mu and chol are read-only: factors() hands them out without copying.
    A unit singleton's spread is the shared identity, which is also its
    factor.
    """

    __slots__ = ("id", "mean_acc", "sigma", "weight_acc", "age", "weight_age",
                 "mu", "chol", "weight", "unit_cov")

    def __init__(self, ident, mean_acc, mu, sigma, weight_acc, age, weight_age):
        self.id = ident
        self.mean_acc = mean_acc
        self.sigma = sigma
        self.weight_acc = weight_acc
        self.age = age
        self.weight_age = weight_age
        self.mu = mu
        mu.setflags(write=False)
        self.unit_cov = sigma is fusion.unit_spread(mu.shape[0])
        if self.unit_cov:
            self.chol = sigma
        else:
            try:
                self.chol = linalg.cholesky(sigma)
                self.chol.setflags(write=False)
            except NotPositiveDefinite:
                self.chol = None  # degenerate spread: treat as zero reach
        self.weight = 1.0

    def refresh_weight(self, beta: float) -> None:
        # a damped average of typicalities is at most one; the recursive
        # sum and the closed-form normalizer can round one ulp apart
        self.weight = min(1.0, self.weight_acc / decay_norm(self.weight_age, beta))

    def dsq(self, point: np.ndarray) -> float:
        """Squared Mahalanobis distance of a point under this structure."""
        delta = point - self.mu
        if self.unit_cov:
            return float(delta @ delta)
        if self.chol is None:
            return math.inf if np.any(delta) else 0.0
        if not np.any(delta):
            return 0.0
        return linalg.solve_norm_sq(self.chol, delta)

    def dsq_many(self, points: np.ndarray) -> np.ndarray:
        deltas = points - self.mu
        if self.unit_cov:
            return np.einsum("ij,ij->i", deltas, deltas)
        if self.chol is None:
            out = np.full(points.shape[0], math.inf)
            out[~np.any(deltas, axis=1)] = 0.0
            return out
        return linalg.solve_norm_sq_many(self.chol, deltas)


class SpcModel:
    """Mutable model state: ordered structure store plus the stream clock.

    Single writer: update and merge_structures need exclusive access.
    snapshot and factors are read-only and safe to run between updates.
    """

    def __init__(self, params: SpcParams):
        self.params = params
        self.clock = 0
        self.dim: int | None = None
        self.diagnostics = Diagnostics()
        self.retired_age = 0
        self._entries: list[_Entry] = []
        self._next_id = 0
        self._dist: dict[tuple[int, int], float] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def ids(self) -> list[int]:
        return [e.id for e in self._entries]

    def snapshot(self) -> list[Structure]:
        """Normalized read-only views of all structures, ordered by identifier."""
        return [
            Structure(mu=e.mu.copy(), sigma=e.sigma.copy(), weight=e.weight, age=e.age)
            for e in self._entries
        ]

    def factors(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(mean, lower Cholesky factor) of every structure, ordered by identifier.

        The engine's own cached arrays, marked read-only, not copies; they
        stay valid after later updates, which replace entries rather than
        mutate them. Raises NotPositiveDefinite if a spread has no factor.
        """
        out = []
        for e in self._entries:
            if e.chol is None:
                raise NotPositiveDefinite(f"spread of structure {e.id} is not positive-definite")
            out.append((e.mu, e.chol))
        return out

    def update(self, x) -> None:
        """Consume one stream point."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        if x.ndim != 1:
            raise DimensionMismatch(f"expected a vector, got shape {x.shape}")
        if not np.all(np.isfinite(x)):
            raise ValueError("stream point must be finite")
        if self.dim is None:
            self.dim = x.shape[0]
        elif x.shape[0] != self.dim:
            raise DimensionMismatch(f"expected dim {self.dim}, got {x.shape[0]}")

        self.clock += 1
        self._add_singleton(x)
        if len(self._entries) <= self.params.max_structures:
            return

        self._update_weights(x)
        self._prune()
        while len(self._entries) > self.params.max_structures:
            a, b = self._closest_pair()
            self._merge_entries(a, b)

    def merge_structures(self, ident_a: int, ident_b: int) -> None:
        """Merge two structures selected by identifier."""
        if ident_a == ident_b:
            raise ValueError("cannot merge a structure with itself")
        self._merge_entries(self._find(ident_a), self._find(ident_b))

    # -- internals ---------------------------------------------------------

    def _find(self, ident: int) -> _Entry:
        for e in self._entries:
            if e.id == ident:
                return e
        raise UnknownIdentifier(f"no structure with identifier {ident}")

    def _add_singleton(self, x: np.ndarray) -> None:
        # shared read-only identity: nothing downstream mutates a spread
        # in place, and snapshot() hands out copies
        x = x.copy()
        entry = _Entry(self._next_id, x, x, fusion.unit_spread(x.shape[0]), 1.0, 1, 1)
        self._next_id += 1
        self._register(entry)

    def _register(self, entry: _Entry) -> None:
        if self._entries:
            self._add_distances(entry)
        self._entries.append(entry)

    def _add_distances(self, entry: _Entry) -> None:
        m = self.params.m
        others = self._entries
        mus = np.stack([o.mu for o in others])
        dsq_theirs_in_new = entry.dsq_many(mus)
        for o, d_in_new in zip(others, dsq_theirs_in_new):
            d_in_old = o.dsq(entry.mu)
            dist = 1.0 - _typicality_of_dsq(float(d_in_new), m) * _typicality_of_dsq(d_in_old, m)
            self._dist[(min(o.id, entry.id), max(o.id, entry.id))] = dist

    def _remove(self, entry: _Entry) -> None:
        self._entries.remove(entry)
        ident = entry.id
        for other in self._entries:
            self._dist.pop((min(other.id, ident), max(other.id, ident)), None)

    def _update_weights(self, x: np.ndarray) -> None:
        m = self.params.m
        beta = self.params.beta
        decay = math.exp(-beta)
        for e in self._entries:
            u = _typicality_of_dsq(e.dsq(x), m)
            e.weight_acc = decay * e.weight_acc + u
            e.weight_age += 1
            e.refresh_weight(beta)

    def _prune(self) -> None:
        w_min = self.params.w_min
        m = self.params.m
        candidates = sorted(
            (e for e in self._entries if e.weight < w_min),
            key=lambda e: (e.weight, e.id),
        )
        if not candidates:
            return
        candidate_ids = {e.id for e in candidates}
        for cand in candidates:
            best = None
            best_nlt = math.inf
            for target in self._entries:
                if target.id in candidate_ids or target.id == cand.id:
                    continue
                val = _nlt_of_dsq(target.dsq(cand.mu), m)
                if val < best_nlt:
                    best = target
                    best_nlt = val
            self.diagnostics.prunes += 1
            if best is not None and best_nlt < self.params.nlt_max:
                self._merge_entries(cand, best)
            else:
                self._remove(cand)
                self.retired_age += cand.age
                self.diagnostics.deletions += 1

    def _closest_pair(self) -> tuple[_Entry, _Entry]:
        (id_a, id_b), _ = min(self._dist.items(), key=lambda kv: (kv[1], kv[0]))
        return self._find(id_a), self._find(id_b)

    def _merge_entries(self, a: _Entry, b: _Entry) -> None:
        """Replace two structures with their fusion (older plays the lead role)."""
        older, younger = sorted((a, b), key=lambda e: (-e.age, e.id))
        gamma = self.params.gamma
        beta = self.params.beta

        shift = math.exp(-gamma * younger.age)
        mean_acc = shift * older.mean_acc + younger.mean_acc
        weight_acc = math.exp(-beta * younger.weight_age) * older.weight_acc + younger.weight_acc
        age = older.age + younger.age
        g = decay_norm(age, gamma)
        mu = mean_acc / g

        sigma = fusion.fuse(older.mu, older.sigma, younger.mu, younger.sigma, mu)
        if sigma is None:
            # the union failed on a degenerate spread: pool the damped scatters
            sigma = (shift * (older.sigma * decay_norm(older.age, gamma))
                     + younger.sigma * decay_norm(younger.age, gamma)) / g
            self.diagnostics.cu_fallbacks += 1
        self.diagnostics.merges += 1

        self._remove(a)
        self._remove(b)
        entry = _Entry(self._next_id, mean_acc, mu, sigma, weight_acc, age,
                       older.weight_age + younger.weight_age)
        self._next_id += 1
        entry.refresh_weight(beta)
        self._register(entry)
