"""Release acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s). The
high-dimensional end-to-end check is marked slow and can be skipped with
-m "not slow". The real clustering benchmark file for criterion 6 is
loaded from data/aggregation.txt (or $SPCLUST_DATA); when absent that
test skips and the synthetic seven-cluster stand-in still runs.
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

import spclust as sp
from spclust.clustering import labels_from_distances
from spclust.engine import decay_norms
from spclust.fusion import covariance_union

from oracles import batch_footprint, folded, is_psd


def _report(num, name, ok, detail=""):
    print(f"\n[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def _stream_through(points, params):
    model = sp.SpcModel(params)
    for p in points:
        model.update(p.x)
    labels = sp.get_clustering(model)
    xs = np.array([p.x for p in points])
    truth = [p.label for p in points]
    pred = sp.assign_points(model, labels, xs)
    return sp.purity(pred, truth), sp.nmi(pred, truth), model


def test_01_footprint_merge_mean_matches_batch():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        gamma = float(rng.choice([0.0, 0.01, 0.1]))
        n = int(rng.integers(2, 201))
        dim = int(rng.integers(1, 6))
        pts = rng.standard_normal((n, dim)) * rng.uniform(0.5, 3.0)
        # the older structure leads a merge, so the prefix is the longer part
        split = int(rng.integers((n + 1) // 2, n))

        model = folded([pts[:split], pts[split:]], gamma)
        model.merge_structures(*model.ids())
        (merged,) = model.snapshot()
        full_mu = batch_footprint(pts, m=1.5, gamma=gamma).mu
        scale = max(float(np.linalg.norm(full_mu)), 1e-12)
        worst = max(worst, float(np.linalg.norm(merged.mu - full_mu)) / scale)
        assert merged.age == n
        assert merged.weight == 1.0

    elapsed = time.perf_counter() - t0
    _report(1, "engine merge reproduces batch damped means", worst < 1e-8 and elapsed < 5.0,
            f"(worst rel err {worst:.2e}, {elapsed:.2f}s)")


def test_02_zero_decay_reduces_to_arithmetic_mean():
    rng = np.random.default_rng(102)
    ok = True
    for _ in range(50):
        n = int(rng.integers(1, 150))
        pts = rng.standard_normal((n, 3))
        s = batch_footprint(pts, m=1.5)
        if not np.allclose(s.mu, pts.mean(axis=0), rtol=0, atol=1e-12):
            ok = False
        if decay_norms([n], 0.0)[0] != float(n):
            ok = False
    _report(2, "zero decay gives arithmetic mean and window length", ok)


def test_03_covariance_union_conservative():
    t0 = time.perf_counter()
    rng = np.random.default_rng(103)
    ok = True
    for _ in range(500):
        dim = int(rng.integers(1, 9))
        a = rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim))
        u1 = a @ a.T + 0.1 * np.eye(dim)
        u2 = b @ b.T + 0.1 * np.eye(dim)
        fused = covariance_union(u1, u2)
        if not (is_psd(fused - u1, 1e-8) and is_psd(fused - u2, 1e-8)):
            ok = False
    # equal inputs are a fixed point
    for dim in (1, 3, 6):
        c = rng.standard_normal((dim, dim))
        sigma = c @ c.T + np.eye(dim)
        out = covariance_union(sigma, sigma)
        if np.linalg.norm(out - sigma) / np.linalg.norm(sigma) >= 1e-10:
            ok = False
    # one-dimensional union is the max
    if covariance_union(np.array([[4.0]]), np.array([[1.0]]))[0, 0] != pytest.approx(4.0):
        ok = False
    if covariance_union(np.array([[1.0]]), np.array([[4.0]]))[0, 0] != pytest.approx(4.0):
        ok = False
    elapsed = time.perf_counter() - t0
    _report(3, "covariance union dominates both inputs", ok and elapsed < 10.0,
            f"({elapsed:.2f}s)")


def test_04_typicality_anchors():
    rng = np.random.default_rng(104)
    ok = sp.typicality(np.array([1.0, -2.0]), np.array([1.0, -2.0]), np.eye(2), 1.5) == 1.0
    # log-typicality threshold of 3 admits typicality e^-3, about 0.05
    ok = ok and abs(math.exp(-3.0) - 0.0498) < 5e-4
    d = math.sqrt(math.exp(3.0) - 1.0)
    x = np.array([d, 0.0])
    ok = ok and sp.nlt(x, np.zeros(2), np.eye(2), 2.0) == pytest.approx(3.0, rel=1e-12)
    ok = ok and sp.typicality(x, np.zeros(2), np.eye(2), 2.0) == pytest.approx(math.exp(-3.0))
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 6))
        xv = rng.standard_normal(dim)
        mu = rng.standard_normal(dim)
        eta = float(rng.uniform(0.1, 4.0))
        m = float(rng.uniform(1.05, 3.0))
        full = sp.typicality(xv, mu, eta * np.eye(dim), m)
        flat = sp.typicality_spherical(float(((xv - mu) ** 2).sum()), eta, m)
        worst = max(worst, abs(full - flat))
    _report(4, "typicality anchors and spherical reduction", ok and worst < 1e-12,
            f"(reduction err {worst:.2e})")


def test_05_budget_and_age_conservation():
    rng = np.random.default_rng(105)
    params = sp.SpcParams(max_structures=30, beta=0.1)
    model = sp.SpcModel(params)
    ok = True
    for _ in range(10_000):
        model.update(rng.uniform(-50.0, 50.0, size=2))
        if len(model) > 30:
            ok = False
            break
        ages = sum(s.age for s in model.snapshot())
        if ages + model.retired_age != model.clock:
            ok = False
            break
    _report(5, "structure budget and age conservation", ok,
            f"(clock={model.clock}, structures={len(model)}, "
            f"retired={model.retired_age})")


AGGREGATION_PARAMS = sp.SpcParams(max_structures=30, gamma=0.0, beta=0.0, m=1.5,
                                  epsilon=0.95, w_min=0.01, nlt_max=3.0, min_pts=2)


def _aggregation_file():
    candidates = []
    env = os.environ.get("SPCLUST_DATA")
    if env:
        candidates += [Path(env) / "aggregation.txt", Path(env) / "aggregation.csv"]
    here = Path(__file__).resolve().parent.parent
    candidates += [here / "data" / "aggregation.txt", here / "data" / "aggregation.csv"]
    for c in candidates:
        if c.is_file():
            return c
    return None


def test_06_aggregation_benchmark_end_to_end():
    path = _aggregation_file()
    if path is None:
        pytest.skip("aggregation benchmark file not present; see README data notes")
    first = path.read_text().splitlines()[0]
    delim = "\t" if "\t" in first else ","
    t0 = time.perf_counter()
    points = sp.load_csv(path, delimiter=delim)
    assert len(points) == 788
    assert len({p.label for p in points}) == 7
    passes = 0
    for seed in range(5):
        stream = sp.reorder(points, "shuffled", seed=seed)
        purity, nmi, _ = _stream_through(stream, AGGREGATION_PARAMS)
        if purity >= 0.90 and nmi >= 0.85:
            passes += 1
    elapsed = time.perf_counter() - t0
    _report(6, "aggregation benchmark quality", passes >= 4 and elapsed < 50.0,
            f"({passes}/5 orders passed, {elapsed:.1f}s total)")


def test_06b_seven_cluster_standin_end_to_end():
    # exercises the same pipeline and thresholds when the published
    # benchmark file is not available
    rng = np.random.default_rng(123)
    spec = [((5.0, 25.0), 1.6, 100), ((12.0, 26.0), 1.6, 120), ((25.0, 25.0), 1.8, 170),
            ((30.0, 17.0), 1.4, 80), ((8.0, 8.0), 1.8, 130), ((20.0, 8.0), 1.6, 120),
            ((32.0, 5.0), 1.2, 68)]
    xs, labels = [], []
    for c, (center, std, count) in enumerate(spec):
        xs.append(rng.normal(center, std, (count, 2)))
        labels += [c] * count
    pts = np.vstack(xs)
    from spclust.datasets import _stamp

    base = _stamp(pts, labels)
    t0 = time.perf_counter()
    passes = 0
    for seed in range(5):
        stream = sp.reorder(base, "shuffled", seed=seed)
        purity, nmi, _ = _stream_through(stream, AGGREGATION_PARAMS)
        if purity >= 0.90 and nmi >= 0.85:
            passes += 1
    elapsed = time.perf_counter() - t0
    _report(6, "seven-cluster stand-in quality", passes >= 4 and elapsed < 50.0,
            f"({passes}/5 orders passed, {elapsed:.1f}s total)")


def test_07_sine_waves_end_to_end():
    t0 = time.perf_counter()
    points = sp.gen_sine_waves(seed=0)
    params = sp.SpcParams(max_structures=30, gamma=0.1, beta=0.05, m=1.4,
                          epsilon=0.95, w_min=0.01, nlt_max=3.0, min_pts=2)
    purity, nmi, model = _stream_through(points, params)
    elapsed = time.perf_counter() - t0
    diag = model.diagnostics
    decisions = (diag.merges, diag.prunes, diag.deletions)
    _report(7, "sine-wave stream quality",
            purity >= 0.98 and nmi >= 0.95 and elapsed < 10.0 and decisions == (1170, 127, 0),
            f"(purity={purity:.4f}, nmi={nmi:.4f}, merges/prunes/deletions={decisions}, "
            f"{elapsed:.1f}s)")


def test_08_overlapping_triangle_end_to_end():
    t0 = time.perf_counter()
    points = sp.gen_overlapping_triangle(seed=0)
    purity, nmi, model = _stream_through(points, AGGREGATION_PARAMS)
    elapsed = time.perf_counter() - t0
    diag = model.diagnostics
    decisions = (diag.merges, diag.prunes, diag.deletions)
    _report(8, "overlapping-triangle stream purity",
            purity >= 0.95 and elapsed < 10.0 and decisions == (870, 5, 0),
            f"(purity={purity:.4f}, nmi={nmi:.4f}, merges/prunes/deletions={decisions}, "
            f"{elapsed:.1f}s)")


@pytest.mark.slow
def test_09_high_dimensional_end_to_end():
    t0 = time.perf_counter()
    points = sp.gen_gaussian_highdim(seed=0)
    params = sp.SpcParams(max_structures=50, gamma=0.0, beta=0.0, m=1.5,
                          epsilon=0.95, w_min=0.01, nlt_max=3.0, min_pts=2)
    purity, nmi, _ = _stream_through(points, params)
    elapsed = time.perf_counter() - t0
    _report(9, "1024-dimensional stream quality", purity >= 0.90 and elapsed < 300.0,
            f"(purity={purity:.4f}, nmi={nmi:.4f}, {elapsed:.0f}s)")


def test_10_dbscan_against_reachability_oracle():
    rng = np.random.default_rng(110)
    ok = True
    for _ in range(200):
        n = int(rng.integers(2, 21))
        raw = rng.uniform(0.0, 1.0, size=(n, n))
        d = 0.5 * (raw + raw.T)
        np.fill_diagonal(d, 0.0)
        epsilon = float(rng.uniform(0.2, 0.8))
        min_pts = int(rng.integers(1, 5))
        labels = labels_from_distances(d, epsilon, min_pts)

        cores = [i for i in range(n) if (d[i] <= epsilon).sum() >= min_pts]
        parent = {i: i for i in cores}

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for i in cores:
            for j in cores:
                if i < j and d[i, j] <= epsilon:
                    parent[find(i)] = find(j)
        oracle_groups = {}
        for i in cores:
            oracle_groups.setdefault(find(i), set()).add(i)
        got_groups = {}
        for i in cores:
            got_groups.setdefault(labels[i], set()).add(i)
        if {frozenset(g) for g in oracle_groups.values()} != \
                {frozenset(g) for g in got_groups.values()}:
            ok = False
    _report(10, "density clustering matches reachability oracle", ok)


def test_11_runner_outputs_byte_reproducible(tmp_path):
    from spclust.cli import main

    args = ["run", "--source", "two-circles", "--n", "8", "--seed", "29",
            "--n-per-class", "60", "--outputs", "metrics,snapshot,assignments,grid",
            "--grid-resolution", "25"]
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(args + ["--output-dir", str(out_a)]) == 0
    assert main(args + ["--output-dir", str(out_b)]) == 0
    ok = True
    for name in ("metrics.json", "snapshot.csv", "assignments.csv", "grid.csv"):
        if (out_a / name).read_bytes() != (out_b / name).read_bytes():
            ok = False
    _report(11, "runner outputs byte-reproducible", ok)
