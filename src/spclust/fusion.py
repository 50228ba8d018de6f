"""Conservative fusion of two (mean, covariance) pairs with unequal means.

Pooling two covariances is only meaningful when the means agree. When
they differ, each covariance is first padded by the outer product of its
mean's offset from the fused candidate mean, and the padded pair is
combined with a covariance union: whiten one against the other, clamp
the whitened eigenvalues at one, and transform back. The result
dominates both padded inputs in the Loewner order, so the fused
structure's reach covers everything either constituent could explain.

fuse works on normalized (mean, spread) pairs, which is the form the
streaming engine keeps; the fused mean comes from the caller's damped
accumulators. union_absorbing_unit absorbs a unit singleton through a
rank-one union instead of a dense eigendecomposition, but only into a
spread that dominates the identity; the engine, whose spreads all do,
chooses between the two.
"""

import numpy as np
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

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
    # that cheaply. u2 is factored first, so an indefinite u2 raises; with
    # u2 > 0, u1 - u2 > 0 implies u1 > 0.
    chol_old = linalg.cholesky(u2)
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


def union_absorbing_unit(u2: np.ndarray, offset: np.ndarray) -> np.ndarray | None:
    """covariance_union(I + offset offset', u2) without a dense eigensolve.

    Requires u2 to dominate the identity (u2 - I positive semidefinite),
    which is not checked: the whitened matrix is then an identity-like
    base plus one rank-one bump, so at most one eigenvalue can exceed the
    clamp; that eigenpair is found with a Lanczos solve against the
    Cholesky factor. Returns None when the factorization or the iteration
    fails, in which case the caller should use the dense path.
    """
    dim = u2.shape[0]
    if dim < 2:
        return None

    try:
        chol_old = linalg.cholesky(u2)
    except NotPositiveDefinite:
        return None
    q = linalg.solve_triangular(chol_old, offset)

    def matvec(v):
        # base term L^-1 L^-T v: same spectrum as u2^-1, so the spread
        # floor bounds all but the rank-one bump below one
        y = linalg.solve_triangular(chol_old.T, v, lower=False)
        y = linalg.solve_triangular(chol_old, y)
        return y + q * (q @ v)

    start = q if np.any(q) else np.ones(dim)
    op = LinearOperator((dim, dim), matvec=matvec, dtype=float)
    try:
        lam, vec = eigsh(op, k=1, which="LA", v0=start, tol=1e-11, maxiter=5000)
    except ArpackError:
        return None
    bump = float(lam[0]) - 1.0
    if bump <= 0.0:
        return u2.copy()
    # scaling z first keeps the outer product bitwise symmetric
    z = (chol_old @ vec[:, 0]) * np.sqrt(bump)
    return u2 + np.outer(z, z)


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
