"""Conservative fusion of two (mean, covariance) pairs with unequal means.

Pooling two covariances is only meaningful when the means agree. When
they differ, each covariance is first padded by the outer product of its
mean's offset from the fused candidate mean, and the padded pair is
combined with a covariance union: whiten one against the other, clamp
the whitened eigenvalues at one, and transform back. The result
dominates both padded inputs in the Loewner order, so the fused
structure's reach covers everything either constituent could explain.

fuse works on dense normalized (mean, spread) pairs, the form the
streaming engine keeps below d = 32; the fused mean comes from the
caller's damped accumulators. From d = 32 the engine keeps every spread
as a LowRankSpread, I + B diag(lam - 1) B', and union_absorbing_unit
merges two of them by running covariance_union on their projections onto
the few directions where the padded spreads differ from the identity;
pool_projected is its pooled fallback on the same projection.
"""

from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

_UNIT_SPREADS: dict[int, np.ndarray] = {}


def unit_spread(dim: int) -> np.ndarray:
    """The shared read-only identity spread (and factor) of unit singletons."""
    cached = _UNIT_SPREADS.get(dim)
    if cached is None:
        cached = np.eye(dim)
        cached.setflags(write=False)
        _UNIT_SPREADS[dim] = cached
    return cached


def pad_covariance(sigma: np.ndarray, mu: np.ndarray, mu_candidate: np.ndarray) -> np.ndarray:
    """sigma plus the outer product of (mu_candidate - mu)."""
    sigma = np.asarray(sigma, dtype=float)
    mu = np.asarray(mu, dtype=float)
    mu_candidate = np.asarray(mu_candidate, dtype=float)
    if mu.shape != mu_candidate.shape or sigma.shape[0] != mu.shape[0]:
        raise DimensionMismatch(
            f"incompatible shapes {sigma.shape}, {mu.shape}, {mu_candidate.shape}"
        )
    offset = mu_candidate - mu
    return sigma + np.outer(offset, offset)


def covariance_union(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Smallest-in-practice covariance dominating both u1 and u2.

    Computes L Q max(Lam, I) Q' L' with L the Cholesky factor of u2 and
    (Q, Lam) the eigendecomposition of the whitened matrix L^-1 u1 L^-T.
    Not symmetric in its arguments; by convention u2 (the factored side)
    is the older structure's padded covariance.
    """
    u1 = np.asarray(u1, dtype=float)
    u2 = np.asarray(u2, dtype=float)
    if u1.shape != u2.shape:
        raise DimensionMismatch(f"incompatible shapes {u1.shape} and {u2.shape}")

    # Exact shortcuts: if one input dominates the other outright, the union
    # equals it, and a plain Cholesky success on the difference certifies
    # that cheaply. They hand an input back as it is, so they need u2 to
    # factor without jitter; with u2 > 0, u1 - u2 > 0 implies u1 > 0. A u2
    # that factors only with linalg.cholesky's jitter (a near-singular
    # padded spread, or one indefinite by less than the jitter) is whitened
    # against the jittered factor, so the union dominates u2 plus the
    # jitter; a u2 that does not factor even so raises.
    try:
        chol_old = linalg.cholesky(u2, jitter=False)
    except NotPositiveDefinite:
        chol_old = linalg.cholesky(u2)
    else:
        if linalg.is_pd(u2 - u1):
            return u2.copy()
        if linalg.is_pd(u1 - u2):
            return u1.copy()

    half = linalg.solve_triangular(chol_old, u1)
    whitened = linalg.solve_triangular(chol_old, half.T)
    whitened = 0.5 * (whitened + whitened.T)
    q, lam = linalg.sym_eigen(whitened)
    transform = chol_old @ q
    fused = (transform * np.maximum(lam, 1.0)) @ transform.T
    return 0.5 * (fused + fused.T)


class LowRankSpread(NamedTuple):
    """The spread I + basis diag(lam - 1) basis'.

    basis is (d, k) with orthonormal columns and every lam exceeds one; a
    unit singleton has k = 0.
    """

    basis: np.ndarray
    lam: np.ndarray

    @classmethod
    def unit(cls, dim: int) -> "LowRankSpread":
        return cls(np.empty((dim, 0)), np.empty(0))

    def dense(self) -> np.ndarray:
        """The d x d spread, bitwise symmetric."""
        return _identity_plus(self.basis, self.lam - 1.0)

    def norm_sq(self, deltas: np.ndarray) -> np.ndarray:
        """Row-wise delta' spread^-1 delta for (n, d) deltas, O(ndk)."""
        return linalg.low_rank_norm_sq(self.basis, self.lam, deltas)

    def projected(self, q: np.ndarray) -> np.ndarray:
        """q' spread q for orthonormal columns q whose span contains the basis."""
        return _identity_plus(q.T @ self.basis, self.lam - 1.0)


def norm_sq_rows(spreads: list[LowRankSpread], deltas: np.ndarray) -> np.ndarray:
    """Row i of (n, d) deltas under spreads[i], for n spreads.

    The rows under unit singletons (k = 0), where the form is the plain
    squared norm, take one call together: most rows of a singleton's
    distance row are of that kind, and a call per row costs more than
    the arithmetic.
    """
    out = np.einsum("ij,ij->i", deltas, deltas)
    for row, spread in enumerate(spreads):
        if spread.lam.size:
            out[row] = spread.norm_sq(deltas[row:row + 1])[0]
    return out


# Eigenvalues of a merged projection within RANK_TOL * (largest eigenvalue)
# of one are taken as one: outside the true span every eigenvalue is
# exactly one, and the dense arithmetic on the projection perturbs it by
# rounding, up to 1e-13 of the largest on hostile d = 33 streams (scales
# 1e-8 to 1e100, duplicate and collinear points).
RANK_TOL = 1e-12


def union_absorbing_unit(old: LowRankSpread, new: LowRankSpread, mu_old: np.ndarray,
                         mu_new: np.ndarray, mu: np.ndarray) -> LowRankSpread | None:
    """Covariance union of two low-rank spreads padded to their fused mean mu.

    mu is a convex combination of mu_old and mu_new, so both padding
    offsets lie along mu_new - mu_old, and both padded spreads equal the
    identity outside the span of the two bases and that offset.
    covariance_union therefore runs on the projections onto an orthonormal
    basis of that span, at most k_old + k_new + 1 columns, which is exact;
    the merged spread keeps the eigenvalues of the result above one (by
    more than RANK_TOL relative to the largest). The
    older structure is the factored side, as in fuse. Returns None when
    the union fails on a degenerate spread, so the caller can pool.

    One path serves every merge from d = 32 up. The name is that of the
    rank-one union it replaced, which absorbed only unit singletons; the
    benchmark's tracer looks the function up by it.
    """
    q = _span_basis(old, new, mu_new - mu_old)
    p_old, p_new = q.T @ (mu - mu_old), q.T @ (mu - mu_new)
    padded_old = old.projected(q) + np.outer(p_old, p_old)
    padded_new = new.projected(q) + np.outer(p_new, p_new)
    try:
        return _from_projection(q, covariance_union(padded_new, padded_old))
    except (NotPositiveDefinite, NoConvergence):
        return None


def pool_projected(old: LowRankSpread, new: LowRankSpread, offset: np.ndarray,
                   w_old: float, w_new: float) -> LowRankSpread:
    """w_old * old + w_new * new, for weights summing to one, on the same
    projection as union_absorbing_unit; offset is mu_new - mu_old.

    Outside the span both spreads are the identity, and so is the pool.
    """
    q = _span_basis(old, new, offset)
    return _from_projection(q, w_old * old.projected(q) + w_new * new.projected(q))


def _span_basis(old: LowRankSpread, new: LowRankSpread, offset: np.ndarray) -> np.ndarray:
    return linalg.orthonormal_basis(np.column_stack((old.basis, new.basis, offset)))


def _from_projection(q: np.ndarray, small: np.ndarray) -> LowRankSpread:
    """I + q (small - I) q' in low-rank form."""
    vec, lam = linalg.sym_eigen(small)
    k = int(np.count_nonzero(lam > 1.0 + RANK_TOL * lam[0]))
    return LowRankSpread(q @ vec[:, :k], lam[:k].copy())


def _identity_plus(b: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """I + b diag(scale) b', bitwise symmetric."""
    outer = (b * scale) @ b.T
    out = 0.5 * (outer + outer.T)
    out.flat[::out.shape[0] + 1] += 1.0
    return out


def fuse(mu_old: np.ndarray, sigma_old: np.ndarray, mu_new: np.ndarray,
         sigma_new: np.ndarray, mu: np.ndarray) -> np.ndarray | None:
    """Covariance union of two structures padded to their fused mean mu.

    The first structure is the older one by convention; its padded spread
    is the factored side of the union. Returns None when the union fails
    on a degenerate spread, so the caller can fall back to pooling.
    """
    padded_old = pad_covariance(sigma_old, mu_old, mu)
    padded_new = pad_covariance(sigma_new, mu_new, mu)
    try:
        return covariance_union(padded_new, padded_old)
    except (NotPositiveDefinite, NoConvergence):
        return None
