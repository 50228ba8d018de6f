"""Single-pass possibilistic stream clustering.

An unbounded point stream is summarized by a fixed budget of structures
(damped mean, covariance-like spread, weight, age). New points enter as
singleton structures; the budget is kept by merging the most compatible
structures under a Mahalanobis-typicality distance, with covariance
union producing conservative merged spreads. A crisp clustering of the
structures is available at any time via DBSCAN over the typicality
distance, and arbitrary points can then be labeled by their nearest
structure.
"""

from .clustering import ClusterLabels, assign_points, get_clustering
from .engine import Diagnostics, SpcModel, SpcParams
from .errors import (DimensionMismatch, LengthMismatch, MissingColumn, NoConvergence,
                     NotPositiveDefinite, ParseError, SpcError, UnknownIdentifier)
from .fusion import covariance_union, fuse, pad_covariance
from .datasets import (LabeledPoint, StreamSpec, build_stream, gen_gaussian_highdim,
                       gen_overlapping_triangle, gen_sine_waves, gen_two_circles, load_csv,
                       reorder)
from .metrics import contingency_table, nmi, purity
from .typicality import (Structure, decision_distance, nlt, structure_distance, typicality,
                         typicality_spherical)

__version__ = "0.1.0"
