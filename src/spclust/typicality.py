"""Possibilistic typicality and the distances derived from it.

Typicality maps a squared Mahalanobis distance into (0, 1] through
1 / (1 + d^(2/(m-1))), where the fuzzifier m > 1 controls how fast
membership falls off with distance. Unlike probabilities, typicalities
of one point across several structures need not sum to one.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg

# Exponentiated distances beyond this are treated as "completely atypical":
# typicality 0 exactly, with the log-scale distance pinned at NLT_CEILING
# (about -log of the smallest normal double) so orderings stay sane. So is a
# NaN squared distance (inf - inf or 0 * inf of an offset that overflows).
_OVERFLOW = 1e300
NLT_CEILING = 709.0


@dataclass
class Structure:
    """Normalized view of one stream structure.

    mu/sigma are the damped mean and covariance-like spread, weight is the
    damped average typicality of recent points in [0, 1], and age counts
    the points absorbed since creation.
    """

    mu: np.ndarray
    sigma: np.ndarray
    weight: float
    age: int


def _check_fuzzifier(m: float) -> None:
    if not 1.0 < m < np.inf:
        raise ValueError(f"fuzzifier must be finite and > 1, got {m}")


def _powered(d_sq, m: float) -> np.ndarray:
    """d_sq^(1/(m-1)) elementwise as exp(log(d_sq)/(m-1)); 0 maps to 0.

    The one transform behind every typicality: numpy's exp and log give
    the same bits for a scalar, a single element and any slice of a
    batch, so a value computed alone equals the same value computed
    within an array.
    """
    with np.errstate(divide="ignore", over="ignore"):
        return np.exp(np.log(d_sq) / (m - 1.0))


def _typicality_of_dsq(d_sq, m: float) -> np.ndarray:
    """Typicality elementwise over squared distances (NaN: 0)."""
    z = _powered(d_sq, m)
    return np.where(z <= _OVERFLOW, 1.0 / (1.0 + z), 0.0)


def _nlt_of_dsq(d_sq, m: float) -> np.ndarray:
    """Negative log typicality elementwise over squared distances (NaN: NLT_CEILING)."""
    z = _powered(d_sq, m)
    return np.where(z <= _OVERFLOW, np.log1p(z), NLT_CEILING)


def typicality_spherical(d_sq: float, eta: float, m: float) -> float:
    """Typicality from a squared distance and a scalar scale parameter.

    Equals the full covariance form when sigma = eta * I and d_sq is a
    squared Euclidean distance; eta is the squared distance at which
    typicality crosses 1/2.
    """
    _check_fuzzifier(m)
    if not eta > 0.0:
        raise ValueError(f"scale eta must be positive, got {eta}")
    if not d_sq >= 0.0:
        raise ValueError(f"squared distance must be nonnegative, got {d_sq}")
    return float(_typicality_of_dsq(d_sq / eta, m))


def typicality(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray, m: float) -> float:
    """Typicality of point x in a structure with mean mu and spread sigma."""
    _check_fuzzifier(m)
    return float(_typicality_of_dsq(linalg.mahalanobis_sq(x, mu, sigma), m))


def nlt(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray, m: float) -> float:
    """Negative natural log of typicality: 0 at the mean, growing without bound.

    Computed as log1p of the exponentiated distance so tiny typicalities
    do not underflow; the overflow guard returns NLT_CEILING.
    """
    _check_fuzzifier(m)
    return float(_nlt_of_dsq(linalg.mahalanobis_sq(x, mu, sigma), m))


def structure_distance(s1: Structure, s2: Structure, m: float) -> float:
    """Symmetric dissimilarity of two structures in [0, 1).

    One minus the product of each mean's typicality in the other
    structure; both factors are computed once, so swapping the arguments
    gives bit-identical results.
    """
    u12 = typicality(s2.mu, s1.mu, s1.sigma, m)
    u21 = typicality(s1.mu, s2.mu, s2.sigma, m)
    return 1.0 - u12 * u21


def decision_distance(s: Structure, x: np.ndarray, m: float) -> float:
    """Distance of an arbitrary point to a structure for label assignment.

    One minus squared typicality: zero exactly at the mean, strictly
    increasing in the Mahalanobis distance.
    """
    u = typicality(x, s.mu, s.sigma, m)
    return 1.0 - u * u
