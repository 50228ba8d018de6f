"""Decision digests: one hash per stream of everything the engine decides.

A characterization test (test_engine.TestDecisionDigests) holds the
engine to the digests committed in decision_digests.json. Each stream of
the matrix is ingested, clustered and assigned, and its digest hashes
the structure ids, the diagnostics, retired_age, the DBSCAN labels and
the assigned labels of the stream's points. Spreads and distances are
not hashed: they may move by ulps where no decision changes.

The matrix covers every kernel of the engine: the closed form up to
d = 3, dense spreads up to d = 31 and low-rank spreads from d = 32, at
scales 1e-8, 1 and 1e8, with duplicate points (zero-distance ties),
decay, and prunes and deletions at scale 1. After it come the streams of
the benchmark's three workloads at seeds 0 and 7919: the drifting sine
waves prune in about one update in fourteen.

A change that moves a digest breaks the rule that the clustering does
not change; regenerate the file only where a change means to move
decisions, and say which streams moved and why. To regenerate, from the
repository root, with the library to take the digests from on the path:

    PYTHONPATH=src python tests/decision_digests.py
"""

import hashlib
import json
import os
from pathlib import Path

# set before numpy is first imported: the spreads behind the decisions
# depend on the BLAS thread count
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

from spclust.clustering import assign_points, get_clustering  # noqa: E402
from spclust.datasets import StreamSpec, build_stream  # noqa: E402
from spclust.engine import SpcModel, SpcParams  # noqa: E402

DIMS = (1, 2, 3, 4, 5, 8, 16, 31, 32, 33, 40, 64)
SCALES = (1e-8, 1.0, 1e8)
BUDGETS = (4, 12)
N_POINTS = 180
PATH = Path(__file__).with_suffix(".json")

# the workloads of bench/workloads.py, copied so that the tests do not
# import the harness: source, stream parameters and engine parameters
BENCH_STREAMS = {
    "sine-drift-2d": ("sine-waves", {"n_per_class": 600},
                      {"max_structures": 30, "gamma": 0.1, "beta": 0.05, "m": 1.4}),
    "triangle-grid": ("overlapping-triangle", {}, {"max_structures": 30}),
    "gauss-512d": ("gaussian-highdim", {"n_clusters": 16, "dim": 512, "n_points": 256},
                   {"max_structures": 50}),
}
BENCH_SEEDS = (0, 7919)


def stream_key(dim: int, scale: float, budget: int) -> str:
    return f"d={dim} scale={scale:g} budget={budget}"


def matrix() -> list[tuple[int, float, int]]:
    return [(dim, scale, budget) for dim in DIMS for scale in SCALES for budget in BUDGETS]


def make_stream(dim: int, scale: float, seed: int) -> np.ndarray:
    """N_POINTS points: a third repeat a pool of six exact points, the rest
    come from three Gaussian clusters, one of which arrives only in the
    second half so that older structures decay and get pruned."""
    rng = np.random.default_rng(seed)
    pool = 4.0 * rng.standard_normal((6, dim))
    centers = 6.0 * rng.standard_normal((3, dim))
    points = np.empty((N_POINTS, dim))
    for t in range(N_POINTS):
        if rng.random() < 1.0 / 3.0:
            points[t] = pool[rng.integers(6)]
        else:
            c = rng.integers(3 if t >= N_POINTS // 2 else 2)
            points[t] = centers[c] + rng.standard_normal(dim)
    return scale * points


def matrix_stream(dim: int, scale: float, budget: int) -> tuple[np.ndarray, SpcParams]:
    seed = 1000 * dim + 10 * SCALES.index(scale) + budget
    params = SpcParams(max_structures=budget, gamma=0.02, beta=0.05, w_min=0.05)
    return make_stream(dim, scale, seed), params


def bench_stream(name: str, seed: int) -> tuple[np.ndarray, SpcParams]:
    source, stream_params, params = BENCH_STREAMS[name]
    stream = build_stream(StreamSpec(source, tuple(stream_params.items()), seed=seed))
    return np.array([p.x for p in stream]), SpcParams(**params)


def cases() -> dict[str, tuple]:
    """Stream key -> (stream function, its arguments), the matrix first."""
    out = {stream_key(*case): (matrix_stream, case) for case in matrix()}
    for name in BENCH_STREAMS:
        for seed in BENCH_SEEDS:
            out[f"{name} seed={seed}"] = (bench_stream, (name, seed))
    return out


def decisions(points: np.ndarray, params: SpcParams) -> dict:
    """Everything the engine and the offline step decide on one stream."""
    model = SpcModel(params)
    for x in points:
        model.update(x)
    labels = get_clustering(model)
    return {
        "ids": model.ids(),
        "diagnostics": model.diagnostics.as_dict(),
        "retired_age": model.retired_age,
        "dbscan": [labels.labels[i] for i in model.ids()],
        "assigned": assign_points(model, labels, points),
    }


def digest(key: str) -> str:
    stream, args = cases()[key]
    text = json.dumps(decisions(*stream(*args)), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> None:
    digests = {key: digest(key) for key in cases()}
    PATH.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
