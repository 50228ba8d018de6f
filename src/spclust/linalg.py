"""Dense symmetric positive-definite kernels used by every other module.

All routines work on plain ``numpy`` arrays. Covariance-like inputs are
expected to be symmetric; LAPACK only reads one triangle, so slight
asymmetry from accumulated rounding is tolerated. Explicit matrix
inversion is never performed: a quadratic form goes through a triangular
solve, or for a spread of the form I + B diag(lam - 1) B' with orthonormal
B through its closed-form inverse (low_rank_norm_sq).

LAPACK is called directly (dpotrf, dtrtrs, dsyevr) with the arguments
and workspace sizes that scipy.linalg's cholesky, solve_triangular and
eigh pass, so results are bitwise the same without the wrapper overhead
that dominates on the tiny matrices of streaming merges; the QR behind
orthonormal_basis (dgeqrf, dorgqr) is called directly too.
"""

import numpy as np
from scipy.linalg import lapack

from .errors import DimensionMismatch, NoConvergence, NotPositiveDefinite

# Jitter added when a covariance fails to factor outright: scales with the
# mean diagonal so it is meaningful for badly conditioned but nonzero
# matrices, with an absolute floor for the all-zero case.
REG_LAMBDA = 1e-9
REG_FLOOR = 1e-30

# Largest dimension for which solve_norm_sq unrolls the substitution and
# accepts stacked arguments.
CLOSED_FORM_MAX_DIM = 3


def cholesky(a: np.ndarray, jitter: bool = True) -> np.ndarray:
    """Lower-triangular factor L with L @ L.T == a.

    Tries the factorization as-is first, so positive-definite inputs are
    reproduced exactly. If that fails, retries once with a small
    trace-scaled diagonal jitter (near-singular structure covariances,
    e.g. from merges of identical points), unless jitter is False;
    factored() also returns the matrix factored. Raises
    NotPositiveDefinite if no factorization succeeds.
    """
    return factored(a, jitter)[1]


def factored(a: np.ndarray, jitter: bool = True) -> tuple[np.ndarray, np.ndarray]:
    """(m, L) with L @ L.T == m: m is a, or a plus the jitter when a alone does not factor."""
    a = _finite(a)
    chol = _potrf(a)
    if chol is not None:
        return a, chol
    dim = a.shape[0]
    if jitter:
        a = _finite(a + REG_LAMBDA * (np.trace(a) / dim + REG_FLOOR) * np.eye(dim))
        chol = _potrf(a)
    if chol is None:
        raise NotPositiveDefinite(
            f"matrix of dim {dim} is not positive-definite"
            + (" after regularization" if jitter else "")
        )
    return a, chol


def is_pd(a: np.ndarray) -> bool:
    """True iff a plain (unjittered) Cholesky factorization of a succeeds."""
    return _potrf(np.asarray(a, dtype=float)) is not None


def _potrf(a: np.ndarray) -> np.ndarray | None:
    """Lower factor of symmetric a, or None if a is not positive-definite."""
    chol, info = lapack.dpotrf(a, lower=1, clean=1)
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dpotrf")
    return chol if info == 0 else None


def solve_triangular(a: np.ndarray, b: np.ndarray, lower: bool = True) -> np.ndarray:
    """x with a @ x == b for triangular a; b is a vector or a matrix of columns.

    Mirrors scipy.linalg.solve_triangular: a C-ordered a is passed to
    LAPACK as the transposed system of its Fortran view.
    """
    if b.size == 0:
        return np.empty_like(b, dtype=float)
    if a.flags.f_contiguous:
        x, info = lapack.dtrtrs(a, b, lower=lower)
    else:
        x, info = lapack.dtrtrs(a.T, b, lower=not lower, trans=1)
    if info > 0:
        raise np.linalg.LinAlgError(f"singular triangular matrix at diagonal {info - 1}")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dtrtrs")
    return x


def sym_eigen(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix.

    Returns (Q, lam) with orthonormal eigenvector columns and eigenvalues
    sorted in descending order, so a == Q @ diag(lam) @ Q.T.
    """
    a = _finite(a)
    # the workspace scipy.linalg.eigh asks for; the routine's default
    # size changes the result bits from n = 40 up
    lwork, liwork, info = lapack.dsyevr_lwork(a.shape[0], lower=1)
    if info != 0:
        raise ValueError(f"dsyevr workspace query failed: {info}")
    lam, q, _, _, info = lapack.dsyevr(a, compute_v=1, lower=1,
                                       lwork=int(lwork), liwork=int(liwork))
    if info != 0:
        raise NoConvergence(f"eigendecomposition failed for dim {a.shape[0]}")
    return np.ascontiguousarray(q[:, ::-1]), lam[::-1]


def solve_norm_sq(chol_lower: np.ndarray, delta: np.ndarray):
    """Squared norm of L^-1 @ delta, i.e. delta' (LL')^-1 delta.

    Unrolled forward substitution for the tiny dimensions that dominate
    streaming workloads; LAPACK otherwise. Up to d = 3 the arguments may
    also carry a trailing stack axis, (d, d, n) factors against (d, n)
    deltas (either may broadcast): elementwise arithmetic in the same
    order then gives the n values bit for bit, as an array.
    """
    d = delta.shape[0]
    if d > CLOSED_FORM_MAX_DIM:
        return float(solve_norm_sq_many(chol_lower, delta[None])[0])
    y0 = delta[0] / chol_lower[0, 0]
    out = y0 * y0
    if d > 1:
        y1 = (delta[1] - chol_lower[1, 0] * y0) / chol_lower[1, 1]
        out = out + y1 * y1
    if d > 2:
        y2 = (delta[2] - chol_lower[2, 0] * y0 - chol_lower[2, 1] * y1) / chol_lower[2, 2]
        out = out + y2 * y2
    return out if out.ndim else float(out)


def solve_norm_sq_many(chol_lower: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Row-wise delta' (LL')^-1 delta for an (n, d) array of deltas."""
    y = solve_triangular(chol_lower, deltas.T)
    return np.einsum("ij,ij->j", y, y)


def low_rank_norm_sq(basis: np.ndarray, lam: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Row-wise delta' (I + B diag(lam - 1) B')^-1 delta for (n, d) deltas.

    B = basis is (d, k) with orthonormal columns. With c = B' delta the
    form is ||r||^2 + sum_i c_i^2 / lam_i, where the residual r = delta - B c
    is formed directly: subtracting ||c||^2 from ||delta||^2 instead
    would leave rounding of order eps ||delta||^2 where the answer, for a
    delta inside the span, is as small as ||delta||^2 / max(lam).
    O(ndk), no factorization.
    """
    c = deltas @ basis
    r = deltas - c @ basis.T
    return np.einsum("ij,ij->i", r, r) + (c * c) @ (1.0 / lam)


def orthonormal_basis(a: np.ndarray) -> np.ndarray:
    """min(d, n) orthonormal columns whose span contains the columns of (d, n) a.

    Householder QR (dgeqrf, dorgqr): the columns are orthonormal to
    rounding even when a is rank-deficient, and then also span directions
    a does not reach.
    """
    qr, tau, _, info = lapack.dgeqrf(_finite(a))
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dgeqrf")
    q, _, info = lapack.dorgqr(qr[:, :tau.shape[0]], tau)
    if info != 0:
        raise ValueError(f"illegal value in argument {-info} of dorgqr")
    return q


def mahalanobis_sq(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> float:
    """(x - mu)' sigma^-1 (x - mu) via Cholesky solve, never inversion.

    An exactly-zero deviation short-circuits to 0 so the center of a
    degenerate (even all-zero) covariance is still handled.
    """
    x = np.asarray(x, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if x.shape != mu.shape:
        raise DimensionMismatch(f"incompatible shapes {x.shape} and {mu.shape}")
    delta = x - mu
    if not np.any(delta):
        return 0.0
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape[0] != delta.shape[0]:
        raise DimensionMismatch(f"incompatible shapes {sigma.shape} and {delta.shape}")
    return solve_norm_sq(cholesky(sigma), delta)


def _finite(a) -> np.ndarray:
    """a as a float array; raises ValueError on infs and NaNs, as scipy does."""
    a = np.asarray(a, dtype=float)
    if not np.isfinite(a).all():
        raise ValueError("array must not contain infs or NaNs")
    return a
