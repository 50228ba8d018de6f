"""Stream sources: labeled CSV ingestion and synthetic dataset generators.

Every generator is a pure function of its parameters and seed, and each
documents its arrival order, since the engine is order-sensitive. A
stream is a list in arrival order, so a point's arrival index is its
position; the ``order`` argument of load_csv and reorder() can list the
same points in another arrival pattern, copying or re-stamping none.
"""

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg
from .errors import MissingColumn, ParseError

ORDER_MODES = ("as-is", "shuffled", "round-robin-by-class", "sequential-by-class")

# Default sine mix: amplitude, frequency, phase, vertical offset per class.
# Offsets keep the waves from ever intersecting at the default noise level.
SINE_CLASSES = (
    (1.0, 1.0, 0.0, 0.0),
    (2.0, 0.6, 0.0, 6.0),
    (3.0, 0.3, 0.0, 14.0),
)

TRIANGLE_VERTICES = ((0.0, 0.0), (10.0, 0.0), (5.0, 8.0))


@dataclass
class LabeledPoint:
    """One stream element: feature vector and class id."""

    x: np.ndarray
    label: int


@dataclass(frozen=True)
class StreamSpec:
    """Declarative description of a stream: source, its parameters, the
    arrival order, and the seed that makes everything reproducible."""

    source: str
    params: tuple = ()
    order: str = "as-is"
    seed: int = 0

    def __post_init__(self):
        if self.source not in SOURCES:
            raise ValueError(f"unknown source {self.source!r}, expected one of {tuple(SOURCES)}")
        if self.order not in ORDER_MODES:
            raise ValueError(f"unknown order {self.order!r}, expected one of {ORDER_MODES}")


def build_stream(spec: StreamSpec) -> list[LabeledPoint]:
    """Materialize the stream a StreamSpec describes."""
    points = SOURCES[spec.source](seed=spec.seed, **dict(spec.params))
    return reorder(points, spec.order, spec.seed)


def _stamp(vectors, labels) -> list[LabeledPoint]:
    return [LabeledPoint(x=np.asarray(v, dtype=float), label=int(c))
            for v, c in zip(vectors, labels)]


def reorder(points: list[LabeledPoint], order: str, seed: int = 0) -> list[LabeledPoint]:
    """The same points, listed in one of the arrival-order modes."""
    if order not in ORDER_MODES:
        raise ValueError(f"unknown order {order!r}, expected one of {ORDER_MODES}")
    if order == "as-is":
        return list(points)
    if order == "shuffled":
        rng = np.random.default_rng(seed)
        return [points[i] for i in rng.permutation(len(points))]
    by_class: dict[int, list[LabeledPoint]] = {}
    for p in points:
        by_class.setdefault(p.label, []).append(p)
    groups = [by_class[c] for c in sorted(by_class)]
    if order == "sequential-by-class":
        return [p for g in groups for p in g]
    # round-robin-by-class
    return [g[i] for i in range(max(map(len, groups))) for g in groups if i < len(g)]


def load_csv(path, feature_columns=None, label_column=None, order: str = "as-is",
             seed: int = 0, delimiter: str = ",") -> list[LabeledPoint]:
    """Read a labeled point stream from a delimited text file.

    Columns may be addressed by 0-based index or, when the file has a
    header row, by name. With no explicit columns the last column is the
    label and the rest are features. String labels are interned to dense
    ids in first-seen order.
    """
    path = Path(path)
    with path.open(newline="") as fh:
        rows = [row for row in csv.reader(fh, delimiter=delimiter) if row]
    if not rows:
        raise ParseError(f"{path} contains no rows")

    header = None
    if not any(_is_float(cell) for cell in rows[0]):
        header = [c.strip() for c in rows[0]]
        rows = rows[1:]
        if not rows:
            raise ParseError(f"{path} contains only a header")

    width = len(rows[0])
    label_idx = _resolve_column(label_column if label_column is not None else width - 1,
                                header, width)
    if feature_columns is None:
        feature_idx = [i for i in range(width) if i != label_idx]
    else:
        feature_idx = [_resolve_column(c, header, width) for c in feature_columns]

    vectors, labels = [], []
    label_ids: dict[str, int] = {}
    for r, row in enumerate(rows):
        if len(row) != width:
            raise ParseError(f"{path}: ragged row of width {len(row)}, expected {width}",
                             row=r)
        try:
            vectors.append([float(row[c]) for c in feature_idx])
        except ValueError:
            bad = next(c for c in feature_idx if not _is_float(row[c]))
            raise ParseError(f"{path}: non-numeric feature {row[bad]!r}",
                             row=r, column=bad) from None
        key = row[label_idx].strip()
        labels.append(label_ids.setdefault(key, len(label_ids)))

    return reorder(_stamp(vectors, labels), order, seed)


def _is_float(cell: str) -> bool:
    try:
        float(cell)
        return True
    except ValueError:
        return False


def _resolve_column(col, header, width) -> int:
    if isinstance(col, int):
        if not 0 <= col < width:
            raise MissingColumn(f"column index {col} out of range for width {width}")
        return col
    if header is None:
        raise MissingColumn(f"column {col!r} addressed by name but file has no header")
    try:
        return header.index(col)
    except ValueError:
        raise MissingColumn(f"no column named {col!r} in header {header}") from None


def gen_sine_waves(n_per_class: int = 400, noise_std: float = 0.15,
                   seed: int = 0) -> list[LabeledPoint]:
    """The SINE_CLASSES waves drifting rightward, sampled round-robin.

    Point i of class (a, f, phi, b) sits at (x_i, a*sin(f*x_i + phi) + b)
    plus vertical noise, with x_i marching across [0, 4 pi], so the stream
    is nonstationary: arrivals move steadily toward larger x. The 4 pi
    span keeps the drift per arrival slow enough that a decayed structure
    can always be folded into a longer-lived neighbor instead of being
    dropped with its history.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    xs = np.linspace(0.0, 4.0 * math.pi, n_per_class)
    vectors, labels = [], []
    for i in range(n_per_class):
        for c, (amp, freq, phase, offset) in enumerate(SINE_CLASSES):
            y = amp * math.sin(freq * xs[i] + phase) + offset
            if noise_std > 0.0:
                y += noise_std * rng.standard_normal()
            vectors.append((xs[i], y))
            labels.append(c)
    return _stamp(vectors, labels)


@np.errstate(over="ignore", invalid="ignore")  # an overflowing covariance is refused below
def gen_overlapping_triangle(n_per_class: int = 300, seed: int = 0,
                             long_std: float = 2.0) -> list[LabeledPoint]:
    """Three strongly correlated Gaussians arranged as a triangle.

    Each class sits on a vertex of TRIANGLE_VERTICES with its covariance
    elongated along the direction of the opposite edge (long_std by
    long_std/10), which leaves sparse bridges of points between the
    clusters. Classes arrive sequentially; points within a class arrive
    in random order.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    means = [np.asarray(v, dtype=float) for v in TRIANGLE_VERTICES]
    edge_covariances = []
    long_std = np.float64(long_std)  # ** as a float's (libm pow), but inf on overflow
    short_std = long_std / 10.0
    for i in range(3):
        a, b = means[(i + 1) % 3], means[(i + 2) % 3]
        axis = (b - a) / np.linalg.norm(b - a)
        perp = np.array([-axis[1], axis[0]])
        edge_covariances.append(long_std**2 * np.outer(axis, axis)
                                + short_std**2 * np.outer(perp, perp))
    if not np.isfinite(edge_covariances).all():
        raise ValueError(f"edge covariances must be finite, got long_std={long_std}")
    if not all(map(linalg.is_pd, edge_covariances)):  # squares that underflow, or zero
        raise ValueError(f"edge covariances must be positive-definite, got long_std={long_std}")
    rng = np.random.default_rng(seed)
    vectors = []
    for mean, cov in zip(means, edge_covariances):
        pts = rng.multivariate_normal(mean, cov, size=n_per_class, method="cholesky")
        vectors.extend(pts[rng.permutation(n_per_class)])
    return _stamp(vectors, np.repeat(np.arange(3), n_per_class))


@np.errstate(over="ignore", invalid="ignore")  # an overflowing point is refused below
def gen_gaussian_highdim(n_clusters: int = 16, dim: int = 1024, n_points: int = 1024,
                         separation: float = 10.0, cluster_std: float = 0.02,
                         seed: int = 0) -> list[LabeledPoint]:
    """Equal-size spherical Gaussians in high dimension, shuffled arrival.

    Cluster centers are redrawn, at most 10,000 times, until every pair is
    at least separation * cluster_std * sqrt(dim) apart. The default cluster_std
    keeps within-cluster squared distances of order one, the scale at
    which identity-spread structures see meaningful typicality.
    """
    if n_clusters < 1:
        raise ValueError("n_clusters must be >= 1")
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if n_points % n_clusters != 0:
        raise ValueError("n_points must be divisible by n_clusters")
    if not 0.0 <= separation < math.inf:
        raise ValueError(f"separation must be finite and >= 0, got {separation}")
    if not 0.0 <= cluster_std < math.inf:
        raise ValueError(f"cluster_std must be finite and >= 0, got {cluster_std}")
    per = n_points // n_clusters
    rng = np.random.default_rng(seed)
    floor = separation * cluster_std * math.sqrt(dim)
    scale = floor / math.sqrt(2.0 * dim) * 2.0
    for _ in range(10_000):
        centers = scale * rng.standard_normal((n_clusters, dim))
        sq = ((centers[:, None, :] - centers[None, :, :]) ** 2).sum(-1)
        if math.isfinite(scale) and np.isinf(sq).any():  # an infinite scale is refused below
            raise ValueError(f"squared center offsets must be finite, got separation={separation!r}"
                             f" and cluster_std={cluster_std!r}")
        sq[np.diag_indices_from(sq)] = np.inf
        if np.sqrt(sq.min()) >= floor:
            break
    else:
        raise ValueError(f"10,000 draws of n_clusters={n_clusters} centers in dim={dim} never "
                         f"had every pair floor={floor} apart")
    # cluster by cluster, one draw: the same values as a draw per cluster
    labels = np.repeat(np.arange(n_clusters), per)
    vectors = centers[labels] + cluster_std * rng.standard_normal((n_points, dim))
    if not np.isfinite(vectors).all():
        raise ValueError(f"points must be finite, got cluster_std={cluster_std!r}")
    order = rng.permutation(n_points)
    return _stamp(vectors[order], labels[order])


def gen_two_circles(n_per_class: int = 250, seed: int = 0) -> list[LabeledPoint]:
    """Uniform samples inside the near-touching unit discs at (0, 0) and
    (2.1, 0), round-robin arrival."""
    if n_per_class < 1:
        raise ValueError("n_per_class must be >= 1")
    rng = np.random.default_rng(seed)
    per_class = []
    for center in ((0.0, 0.0), (2.1, 0.0)):
        r = np.sqrt(rng.random(n_per_class))
        theta = 2.0 * math.pi * rng.random(n_per_class)
        per_class.append(np.column_stack([center[0] + r * np.cos(theta),
                                          center[1] + r * np.sin(theta)]))
    # round-robin: point i of class 0, then point i of class 1
    return _stamp(np.stack(per_class, axis=1).reshape(-1, 2), [0, 1] * n_per_class)


# Every stream source by name; build_stream passes its seed and the spec's params.
SOURCES = {"csv": load_csv, "two-circles": gen_two_circles, "sine-waves": gen_sine_waves,
           "overlapping-triangle": gen_overlapping_triangle,
           "gaussian-highdim": gen_gaussian_highdim}
