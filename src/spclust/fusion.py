"""Conservative fusion of two (mean, covariance) pairs with unequal means,
and the two forms in which the engine stores a spread.

Pooling two covariances is only meaningful when the means agree. When
they differ, each covariance is first padded by the outer product of its
mean's offset from the fused candidate mean, and the padded pair is
combined with a covariance union: whiten one against the other, clamp
the whitened eigenvalues at one, and transform back. The result
dominates both padded inputs in the Loewner order, so the fused
structure's reach covers everything either constituent could explain.

Below LOW_RANK_MIN_DIM a stored spread is a DenseSpread (the d x d
spread and its read-only lower Cholesky factor), from it a LowRankSpread
I + B diag(lam - 1) B', B (d x k) orthonormal, every lam > 1, k <= age - 1.
unit(d) is the unit singletons' spread in the form for d; merge fuses two
stored spreads: dense ones through fuse (at d = 2 in Python floats,
_union_2x2; covariance_union is the general path and the oracle),
low-rank ones through union_absorbing_unit, covariance_union on the few
directions where the padded spreads differ from the identity. When the
union fails, the damped scatters are pooled.
"""

import functools
import math
from typing import NamedTuple

import numpy as np

from . import linalg
from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

# From this dimension up spreads are kept as identity plus low rank. By
# measured ingest the low-rank form is faster at every d while k << d
# (1.7x at d = 64 to 15x at d = 512). Once structures reach k = d it is
# no faster than the dense path at any d measured, 4-48 (README has the
# ratios), and from d = 128 3-4x slower than the old rank-one union.
LOW_RANK_MIN_DIM = 32


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
    m, chol_old = linalg.cholesky(u2)
    if m is u2:
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


class DenseSpread(NamedTuple):
    """A d x d spread and its read-only lower Cholesky factor."""

    sigma: np.ndarray
    chol: np.ndarray

    def dense(self) -> np.ndarray:
        """A new copy of the spread."""
        return self.sigma.copy()

    def factor(self) -> np.ndarray:
        """The stored factor."""
        return self.chol

    def norm_sq(self, deltas: np.ndarray) -> np.ndarray:
        """Row-wise delta' spread^-1 delta for (n, d) deltas, one triangular solve."""
        return linalg.solve_norm_sq_many(self.chol, deltas)


class LowRankSpread(NamedTuple):
    """The spread I + basis diag(lam - 1) basis'.

    basis is (d, k) with orthonormal columns and every lam exceeds one; a
    unit singleton has k = 0.
    """

    basis: np.ndarray
    lam: np.ndarray

    def dense(self) -> np.ndarray:
        """The d x d spread, bitwise symmetric; a unit singleton's is np.eye."""
        if not self.lam.size:
            return np.eye(self.basis.shape[0])
        return _identity_plus(self.basis, self.lam - 1.0)

    def factor(self) -> np.ndarray:
        """A new read-only lower Cholesky factor of dense()."""
        chol = linalg.cholesky(self.dense())[1]
        chol.setflags(write=False)
        return chol

    def norm_sq(self, deltas: np.ndarray) -> np.ndarray:
        """Row-wise delta' spread^-1 delta for (n, d) deltas, O(ndk)."""
        return linalg.low_rank_norm_sq(self.basis, self.lam, deltas)

    def projected(self, q: np.ndarray) -> np.ndarray:
        """q' spread q for orthonormal columns q whose span contains the basis."""
        return _identity_plus(q.T @ self.basis, self.lam - 1.0)


Spread = DenseSpread | LowRankSpread


@functools.cache
def unit(dim: int) -> Spread:
    """The identity spread of unit singletons in the form for dim, one read-only
    object per dim: `spread is unit(dim)` tells a unit singleton."""
    if dim >= LOW_RANK_MIN_DIM:
        spread = LowRankSpread(np.empty((dim, 0)), np.empty(0))
    else:
        eye = np.eye(dim)
        spread = DenseSpread(eye, eye)
    for arr in spread:
        arr.setflags(write=False)
    return spread


def norm_sq(spread: Spread, deltas: np.ndarray) -> np.ndarray:
    """spread.norm_sq(deltas), under a unit singleton one einsum."""
    if spread is unit(deltas.shape[1]):
        return np.einsum("ij,ij->i", deltas, deltas)
    return spread.norm_sq(deltas)


def norm_sq_rows(spreads: list[Spread], deltas: np.ndarray) -> np.ndarray:
    """Row i of (n, d) deltas under spreads[i], for n spreads.

    The rows under unit singletons, where the form is the plain squared
    norm, take one call together: most rows of a singleton's distance
    row are of that kind, and a call per row costs more than the
    arithmetic.
    """
    one = unit(deltas.shape[1])
    out = np.einsum("ij,ij->i", deltas, deltas)
    for row, spread in enumerate(spreads):
        if spread is not one:
            out[row] = spread.norm_sq(deltas[row:row + 1])[0]
    return out


def merge(old: Spread, new: Spread, mu_old: np.ndarray, mu_new: np.ndarray,
          mu: np.ndarray, shift: float, n_old: float, n_new: float,
          g: float) -> tuple[Spread, bool]:
    """(spread, pooled): the older structure's spread merged with the younger's at mu.

    pooled: the union failed and the damped scatters were pooled, the older
    ones shifted by shift; n_old, n_new and g are the window normalizers of
    the two ages and their sum. A dense spread is factored here, so a spread
    with no factor raises NotPositiveDefinite before the caller changes state.
    """
    if isinstance(old, LowRankSpread):
        spread = union_absorbing_unit(old, new, mu_old, mu_new, mu)
        if spread is not None:
            return spread, False
        return pool_projected(old, new, mu_new - mu_old, shift * n_old / g, n_new / g), True
    sigma = fuse(mu_old, old.sigma, mu_new, new.sigma, mu)
    pooled = sigma is None
    if pooled:
        sigma = (shift * (old.sigma * n_old) + new.sigma * n_new) / g
    # keeps the spread it factors, jittered or not
    sigma, chol = linalg.cholesky(sigma)
    chol.setflags(write=False)
    return DenseSpread(sigma, chol), pooled


# Eigenvalues of a merged projection within RANK_TOL * (largest eigenvalue)
# of one are taken as one: outside the true span every eigenvalue is
# exactly one, and the dense arithmetic on the projection perturbs it by
# rounding, up to 1e-13 of the largest on hostile d = 33 streams (scales
# 1e-8 to 1e100, duplicate and collinear points).
RANK_TOL = 1e-12


def union_absorbing_unit(old: LowRankSpread, new: LowRankSpread, mu_old: np.ndarray,
                         mu_new: np.ndarray, mu: np.ndarray) -> LowRankSpread | None:
    """Covariance union of two low-rank spreads padded to their fused mean mu.

    Both padding offsets lie along mu_new - mu_old, so both padded spreads
    equal the identity outside the span of the two bases and that offset;
    covariance_union runs exactly on the projections onto that span, at
    most k_old + k_new + 1 columns, and the merged spread keeps the
    eigenvalues above one by more than RANK_TOL relative to the largest.
    The older structure is the factored side, as in fuse. Returns None
    when the union fails on a degenerate spread, so the caller can pool.
    It serves every merge of low-rank spreads; the benchmark's tracer
    looks it up by the name of the singleton union it replaced.
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
    args = [np.asarray(v, dtype=float) for v in (mu_old, sigma_old, mu_new, sigma_new, mu)]
    if [v.shape for v in args] == [(2,), (2, 2), (2,), (2, 2), (2,)]:
        low = _union_2x2(*[v.tolist() for v in args])
        if low is not None:
            return np.array([[low[0], low[1]], [low[1], low[2]]])
    padded_old = pad_covariance(sigma_old, mu_old, mu)
    padded_new = pad_covariance(sigma_new, mu_new, mu)
    try:
        return covariance_union(padded_new, padded_old)
    except (NotPositiveDefinite, NoConvergence):
        return None


def _union_2x2(mu_old, s_old, mu_new, s_new, mu) -> tuple | None:
    """fuse at d = 2 in Python floats: the union's lower triangle, or None.

    The padding rounds as pad_covariance does. The factor L of the padded
    old spread u2 and the dominance tests repeat LAPACK's unblocked
    Cholesky, so they decide as covariance_union does. Otherwise only one
    eigenvalue hi of W = L^-1 u1 L^-T exceeds one, and with its unit
    eigenvector v (as LAPACK dlaev2 forms them) the union L Q max(Lam, I)
    Q' L' is u2 + (hi - 1) (L v)(L v)'. None where u2 does not factor
    outright or a value is not finite, for covariance_union to handle.
    """
    (m0, m1), (o0, o1), (n0, n1) = mu, mu_old, mu_new
    d0, d1, e0, e1 = m0 - o0, m1 - o1, m0 - n0, m1 - n1
    u2 = a, b, c = s_old[0][0] + d0 * d0, s_old[1][0] + d1 * d0, s_old[1][1] + d1 * d1
    u1 = p, q, r = s_new[0][0] + e0 * e0, s_new[1][0] + e1 * e0, s_new[1][1] + e1 * e1
    chol = _chol_2x2(a, b, c)
    if chol is None or not math.isfinite(p + q + r + a + b + c):
        return None
    if _chol_2x2(a - p, b - q, c - r):
        return u2
    if _chol_2x2(p - a, q - b, r - c):
        return u1
    l00, l10, l11 = chol
    # W by forward substitution: X = L^-1 u1, then L^-1 X'
    x00, x01 = p / l00, q / l00
    x10, x11 = (q - l10 * x00) / l11, (r - l10 * x01) / l11
    w00, w11 = x00 / l00, (x11 - l10 * (x10 / l00)) / l11
    w01 = 0.5 * (x10 / l00 + (x01 - l10 * w00) / l11)
    rt = math.hypot(w00 - w11, 2.0 * w01)
    hi = 0.5 * (w00 + w11 + rt)
    if not math.isfinite(hi):
        return None
    if hi <= 1.0:
        return u2
    h = 0.5 * (abs(w00 - w11) + rt)  # v is (1, t) or (t, 1) over its norm; h = 0 iff W = hi I
    if not h:
        return u1
    t = w01 / h
    v0, v1 = (1.0, t) if w00 >= w11 else (t, 1.0)
    y0, y1 = l00 * v0, l10 * v0 + l11 * v1
    k = (hi - 1.0) / (1.0 + t * t)
    fused = a + k * y0 * y0, b + k * y0 * y1, c + k * y1 * y1
    return fused if math.isfinite(sum(fused)) else None


def _chol_2x2(a: float, b: float, c: float) -> tuple | None:
    """Lower factor (l00, l10, l11) of [[a, b], [b, c]] as dpotf2 forms it, or None."""
    if a > 0.0:
        l00 = math.sqrt(a)
        l10 = b * (1.0 / l00)  # dpotf2 scales the column by the reciprocal pivot
        c -= l10 * l10
        if c > 0.0:
            return l00, l10, math.sqrt(c)
    return None
