import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest

from spclust import clustering, fusion, linalg
from spclust.clustering import (
    ClusterLabels,
    assign_points,
    assign_with_distances,
    get_clustering,
    labels_from_distances,
    pairwise_structure_distances,
)
from spclust.engine import SpcModel, SpcParams
from spclust.errors import DimensionMismatch
from spclust.typicality import (
    NLT_CEILING,
    Structure,
    _typicality_of_dsq,
    decision_distance,
    nlt,
    structure_distance,
    typicality,
)

import decision_digests


def brute_force_core_partition(d, epsilon, min_pts):
    """Independent density-reachability oracle: core points and their
    connected components under direct core-to-core reachability."""
    n = d.shape[0]
    cores = [i for i in range(n) if (d[i] <= epsilon).sum() >= min_pts]
    core_set = set(cores)
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
    groups = {}
    for i in cores:
        groups.setdefault(find(i), set()).add(i)
    return core_set, {frozenset(g) for g in groups.values()}


def reference_labels(d, epsilon, min_pts):
    """Reference DBSCAN in its plain form: a flatnonzero per row and a
    visited list. labels_from_distances must give these labels exactly,
    border claims and noise numbering included."""
    n = d.shape[0]
    neighbors = [np.flatnonzero(d[i] <= epsilon) for i in range(n)]
    is_core = [len(nb) >= min_pts for nb in neighbors]
    labels = [-1] * n
    visited = [False] * n
    cluster = 0
    for i in range(n):
        if visited[i]:
            continue
        visited[i] = True
        if not is_core[i]:
            continue
        labels[i] = cluster
        seeds = deque(neighbors[i])
        while seeds:
            j = seeds.popleft()
            if not visited[j]:
                visited[j] = True
                if is_core[j]:
                    seeds.extend(neighbors[j])
            if labels[j] == -1:
                labels[j] = cluster
        cluster += 1
    for i in range(n):
        if labels[i] == -1:
            labels[i] = cluster
            cluster += 1
    return labels


def labels_to_core_partition(labels, core_set):
    groups = {}
    for i in core_set:
        groups.setdefault(labels[i], set()).add(i)
    return {frozenset(g) for g in groups.values()}


def matrix_of(n, dist):
    """Symmetric distance matrix of items 0..n-1, zero on the diagonal."""
    d = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            d[i, j] = d[j, i] = dist(i, j)
    return d


class TestDbscan:
    def test_two_tight_groups_beyond_epsilon(self):
        # 5 co-located items per group, mutual distance 0.99 across groups
        d = matrix_of(10, lambda a, b: 0.0 if (a < 5) == (b < 5) else 0.99)
        labels = labels_from_distances(d, epsilon=0.95, min_pts=2)
        assert len(set(labels)) == 2
        assert len(set(labels[:5])) == 1
        assert len(set(labels[5:])) == 1

    def test_all_identical_is_one_cluster(self):
        labels = labels_from_distances(np.zeros((7, 7)), epsilon=0.5, min_pts=3)
        assert set(labels) == {0}

    def test_isolated_item_gets_singleton_label(self):
        d = matrix_of(3, lambda a, b: 0.0 if a < 2 and b < 2 else 10.0)
        labels = labels_from_distances(d, epsilon=1.0, min_pts=2)
        assert labels[0] == labels[1]
        assert labels[2] not in (labels[0],)
        assert len(set(labels)) == 2

    def test_empty_input(self):
        assert labels_from_distances(np.zeros((0, 0)), 1.0, 2) == []

    def test_core_partition_matches_oracle_randomized(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n = int(rng.integers(2, 21))
            raw = rng.uniform(0.0, 1.0, size=(n, n))
            d = 0.5 * (raw + raw.T)
            np.fill_diagonal(d, 0.0)
            epsilon = float(rng.uniform(0.2, 0.8))
            min_pts = int(rng.integers(1, 5))
            labels = labels_from_distances(d, epsilon, min_pts)
            core_set, oracle_partition = brute_force_core_partition(d, epsilon, min_pts)
            assert labels_to_core_partition(labels, core_set) == oracle_partition

    def test_permutation_invariance_on_core_points(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = 15
            raw = rng.uniform(0.0, 1.0, size=(n, n))
            d = 0.5 * (raw + raw.T)
            np.fill_diagonal(d, 0.0)
            labels = labels_from_distances(d, 0.4, 3)
            perm = rng.permutation(n)
            d_perm = d[np.ix_(perm, perm)]
            labels_perm = labels_from_distances(d_perm, 0.4, 3)
            core_set, _ = brute_force_core_partition(d, 0.4, 3)
            base = labels_to_core_partition(labels, core_set)
            unpermuted = [labels_perm[np.where(perm == i)[0][0]] for i in range(n)]
            again = labels_to_core_partition(unpermuted, core_set)
            assert base == again

    def test_border_point_claimed_by_first_cluster_in_scan_order(self):
        # two 4-item cores far apart; item 8 is border-reachable from one
        # core of each but is not core itself; the cluster grown from the
        # earlier items claims it
        d = np.full((9, 9), 10.0)
        np.fill_diagonal(d, 0.0)
        for grp in ((0, 1, 2, 3), (4, 5, 6, 7)):
            for i in grp:
                for j in grp:
                    if i != j:
                        d[i, j] = 0.1
        d[0, 8] = d[8, 0] = 0.5
        d[4, 8] = d[8, 4] = 0.5
        labels = labels_from_distances(d, epsilon=0.6, min_pts=4)
        assert labels[0] != labels[4]
        assert labels[8] == labels[0]

    @pytest.mark.parametrize("min_pts", [1, 2, 3, 4, 5])
    def test_labels_match_reference_exactly(self, min_pts):
        # whole label lists, so border claims and noise numbering count too;
        # entries equal to epsilon are within it, NaN entries are not
        rng = np.random.default_rng(29 + min_pts)
        for n in range(61):
            for _ in range(4):
                raw = rng.uniform(0.0, 1.0, size=(n, n))
                d = 0.5 * (raw + raw.T)
                np.fill_diagonal(d, 0.0)
                epsilon = float(rng.uniform(0.05, 0.6))
                for value, share in ((epsilon, 0.15), (np.nan, 0.1)):
                    mask = rng.uniform(size=(n, n)) < share * rng.uniform()
                    d[mask | mask.T] = value
                labels = labels_from_distances(d, epsilon, min_pts)
                assert labels == reference_labels(d, epsilon, min_pts), (n, epsilon)
                assert all(type(label) is int for label in labels)

    def test_dense_labels_from_zero(self):
        rng = np.random.default_rng(25)
        raw = rng.uniform(0.0, 1.0, size=(12, 12))
        d = 0.5 * (raw + raw.T)
        np.fill_diagonal(d, 0.0)
        labels = labels_from_distances(d, 0.3, 2)
        assert sorted(set(labels)) == list(range(len(set(labels))))


def build_two_blob_model(seed=3):
    rng = np.random.default_rng(seed)
    pts = np.vstack([
        rng.normal((0.0, 0.0), 0.4, (150, 2)),
        rng.normal((30.0, 0.0), 0.4, (150, 2)),
    ])
    order = rng.permutation(300)
    model = SpcModel(SpcParams(max_structures=8))
    for i in order:
        model.update(pts[i])
    return model, pts


class TestGetClustering:
    def test_single_structure(self):
        model = SpcModel(SpcParams(max_structures=3))
        model.update([1.0, 2.0])
        labels = get_clustering(model)
        assert labels.labels == {0: 0}
        assert labels.n_clusters == 1

    def test_empty_model_rejected(self):
        model = SpcModel(SpcParams(max_structures=3))
        with pytest.raises(ValueError):
            get_clustering(model)

    def test_two_far_blobs_partition_structures(self):
        model, _ = build_two_blob_model()
        labels = get_clustering(model)
        snap = model.snapshot()
        left = {labels.labels[i] for i, s in zip(model.ids(), snap) if s.mu[0] < 15}
        right = {labels.labels[i] for i, s in zip(model.ids(), snap) if s.mu[0] >= 15}
        assert left.isdisjoint(right)

    def test_labels_cover_every_structure_once(self):
        model, _ = build_two_blob_model(seed=9)
        labels = get_clustering(model)
        assert sorted(labels.labels) == model.ids()

    def test_does_not_mutate_state(self):
        model, _ = build_two_blob_model(seed=11)
        before = model.snapshot()
        get_clustering(model)
        after = model.snapshot()
        for a, b in zip(before, after):
            assert np.array_equal(a.mu, b.mu)
            assert np.array_equal(a.sigma, b.sigma)

    def test_factored_distances_match_pairwise_exactly(self):
        # the matrix comes from the engine's cached factors; the reference
        # factors snapshot copies afresh. The engine's own matrix, whose
        # upper triangle the closest-pair search reads, must agree too.
        model, _ = build_two_blob_model(seed=29)
        snap = model.snapshot()
        m = model.params.m
        d = pairwise_structure_distances(model.factors(), m)
        engine = model._dist[:len(snap), :len(snap)]
        for i in range(len(snap)):
            for j in range(len(snap)):
                if i != j:
                    assert d[i, j] == structure_distance(snap[i], snap[j], m)
                if i < j:
                    assert engine[i, j] == d[i, j]


def random_stream_model(dim, seed):
    """A short stream of a few noisy blobs, with duplicates, prunes and merges."""
    rng = np.random.default_rng(seed)
    centers = 4.0 * rng.standard_normal((3, dim))
    pool = centers[rng.integers(0, 3, 12)] + rng.standard_normal((12, dim))
    params = SpcParams(max_structures=int(rng.integers(3, 9)),
                       gamma=float(rng.choice([0.0, 0.1])),
                       beta=float(rng.choice([0.0, 0.2])),
                       m=float(rng.uniform(1.2, 2.5)),
                       epsilon=float(rng.choice([0.3, 0.6, 0.95])),
                       w_min=float(rng.choice([0.01, 0.5])))
    model = SpcModel(params)
    for k in rng.integers(0, 12, 40):
        model.update(pool[k])
    return model


class TestDistances:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 32, 36, 40])
    def test_engine_matrix_matches_pairwise_reference(self, dim):
        for seed in range(6 if dim < 32 else 2):
            model = random_stream_model(dim, seed)
            params = model.params
            ref = pairwise_structure_distances(model.factors(), params.m)
            got = model.distances()
            assert np.array_equal(got, got.T)
            assert not np.diag(got).any()
            if dim <= 3:
                assert np.array_equal(got, ref)
            else:
                assert np.max(np.abs(got - ref)) <= 1e-15
            want = labels_from_distances(ref, params.epsilon, params.min_pts)
            assert get_clustering(model).labels == dict(zip(model.ids(), want))

    def test_returns_a_new_array(self):
        model, _ = build_two_blob_model(seed=5)
        first = model.distances()
        first[:] = 7.0
        assert not np.diag(model.distances()).any()

    def test_get_clustering_makes_no_linear_algebra_call(self, monkeypatch):
        model, _ = build_two_blob_model(seed=7)
        want = get_clustering(model).labels

        def refuse(*args, **kwargs):
            raise AssertionError("linear algebra in the offline step")

        for name in ("cholesky", "solve_norm_sq", "solve_norm_sq_many"):
            monkeypatch.setattr(linalg, name, refuse)
        assert get_clustering(model).labels == want


class TestFactors:
    def test_cached_read_only_in_id_order(self):
        model, pts = build_two_blob_model(seed=31)
        factors, snapshot = model.factors(), model.snapshot()
        assert len(factors) == len(model)
        for (mu, chol), again, s in zip(factors, model.factors(), snapshot):
            assert again[1] is chol  # the factor is cached, not copied
            assert not mu.flags.writeable and not chol.flags.writeable
            assert np.array_equal(mu, s.mu)
            assert np.array_equal(chol, np.tril(chol))
            assert np.allclose(chol @ chol.T, s.sigma, rtol=1e-12, atol=1e-12)
        # valid after later updates, which merge and move the store's slots
        for x in pts[:20]:
            model.update(x + 5.0)
        for (mu, _), s in zip(factors, snapshot):
            assert np.array_equal(mu, s.mu)

    @pytest.mark.parametrize("dim", [2, 40])
    def test_spreads_are_the_stored_objects(self, dim):
        rng = np.random.default_rng(5)
        model = SpcModel(SpcParams(max_structures=6))
        for x in np.vstack([rng.normal(size=(8, dim)), 30.0 + rng.normal(size=(4, dim))]):
            model.update(x)
        spreads, snapshot = model.spreads(), model.snapshot()
        assert len(spreads) == len(snapshot) == len(model)
        for (mu, spread, weight, age), again, s in zip(spreads, model.spreads(), snapshot):
            assert again[1] is spread  # neither copied nor rebuilt
            assert not mu.flags.writeable
            assert np.array_equal(mu, s.mu) and np.array_equal(spread.dense(), s.sigma)
            assert (weight, age) == (s.weight, s.age)
            assert (spread is fusion.unit(dim)) == (age == 1)

    def test_unit_singleton_factor_is_identity(self):
        model = SpcModel(SpcParams(max_structures=3))
        model.update([1.0, 2.0])
        ((mu, chol),) = model.factors()
        assert np.array_equal(mu, [1.0, 2.0])
        assert np.array_equal(chol, np.eye(2))
        assert not chol.flags.writeable


class TestAssignPoints:
    def test_structure_mean_maps_to_itself(self):
        model, _ = build_two_blob_model(seed=13)
        labels = get_clustering(model)
        snap = model.snapshot()
        for ident, s in zip(model.ids(), snap):
            got = assign_points(model, labels, [s.mu])[0]
            assert got == labels.labels[ident]

    def test_far_field_prefers_large_covariance(self):
        # by hand: a tight structure nearby vs a wide structure further away
        tight = Structure(mu=np.zeros(2), sigma=0.01 * np.eye(2), weight=1.0, age=1)
        wide = Structure(mu=np.array([10.0, 0.0]), sigma=100.0 * np.eye(2), weight=1.0, age=1)
        probe = np.array([-50.0, 0.0])  # closer to the tight mean in Euclid
        assert np.linalg.norm(probe - tight.mu) < np.linalg.norm(probe - wide.mu)
        assert decision_distance(wide, probe, 1.5) < decision_distance(tight, probe, 1.5)

    def test_deterministic(self):
        model, pts = build_two_blob_model(seed=17)
        labels = get_clustering(model)
        a = assign_points(model, labels, pts[:50])
        b = assign_points(model, labels, pts[:50])
        assert a == b

    def test_assign_with_distances_consistent(self):
        model, pts = build_two_blob_model(seed=19)
        labels = get_clustering(model)
        cluster_ids, structure_ids, dists = assign_with_distances(model, labels, pts[:40])
        snap = dict(zip(model.ids(), model.snapshot()))
        m = model.params.m
        for k in range(40):
            s = snap[int(structure_ids[k])]
            assert dists[k] == pytest.approx(decision_distance(s, pts[k], m), abs=1e-12)
            assert cluster_ids[k] == labels.labels[int(structure_ids[k])]

    def test_one_dim_vector_on_two_dim_model_rejected(self):
        model, _ = build_two_blob_model(seed=27)
        labels = get_clustering(model)
        with pytest.raises(DimensionMismatch):
            assign_with_distances(model, labels, np.array([0.0, 0.0]))

    def test_wrong_width_batch_rejected(self):
        model, _ = build_two_blob_model(seed=27)
        labels = get_clustering(model)
        with pytest.raises(DimensionMismatch):
            assign_points(model, labels, np.zeros((4, 3)))

    def test_scalar_stream_gets_one_label_per_value(self):
        model = SpcModel(SpcParams(max_structures=4))
        for x in (0.0, 0.1, 9.0, 9.1, 0.05, 9.05):
            model.update(x)
        labels = get_clustering(model)
        got = assign_points(model, labels, [0.0, 9.0, 0.1])
        assert len(got) == 3
        assert got[0] == got[2] != got[1]

    def test_direct_density_link_shares_label(self):
        # any two structures within epsilon are density-connected at min_pts 2
        model, _ = build_two_blob_model(seed=23)
        labels = get_clustering(model)
        snap = dict(zip(model.ids(), model.snapshot()))
        from spclust.typicality import structure_distance

        for i in model.ids():
            for j in model.ids():
                if i < j:
                    d = structure_distance(snap[i], snap[j], model.params.m)
                    if d < model.params.epsilon:
                        assert labels.labels[i] == labels.labels[j]


def as_bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def nearest_by_decision_distance(model, point):
    """(structure id, distance) of the lowest-id minimum of decision_distance."""
    dists = [decision_distance(s, point, model.params.m) for s in model.snapshot()]
    k = int(np.argmin(dists))
    return model.ids()[k], dists[k]


def reference_assign(model, labels, points):
    """Reference assignment in its plain form: every row of every block
    transformed, and a running minimum that only a strictly smaller distance
    replaces. assign_with_distances must give these ids and distance bits."""
    ids = model.ids()
    pts = np.asarray(points, dtype=float)
    n = pts.shape[0]
    block = max(clustering._BLOCK_POINTS, clustering._BLOCK_VALUES // model.dim)
    nearest = np.zeros(n, dtype=np.intp)
    dist = np.full(n, np.inf)
    for lo in range(0, n, block):
        best, best_row = dist[lo:lo + block], nearest[lo:lo + block]
        for row, d_sq in enumerate(model.sq_distance_rows(pts[lo:lo + block])):
            u = _typicality_of_dsq(d_sq, model.params.m)
            row_dist = 1.0 - u * u
            closer = row_dist < best
            np.copyto(best, row_dist, where=closer)
            np.copyto(best_row, row, where=closer)
    label_arr = np.asarray([labels.labels[i] for i in ids])
    return label_arr[nearest], np.asarray(ids)[nearest], dist


def random_assign_case(rng):
    """A model over a duplicate-point pool, so some structures share a mean
    and spread and give equal squared distances, and queries near and far."""
    dim = int(rng.choice([1, 2, 3, 4, 8, 33, 40]))
    budget = int(rng.integers(2, 31))
    scale = 10.0 ** rng.uniform(-2.0, 2.0)
    pool = scale * rng.standard_normal((int(rng.integers(1, budget + 2)), dim))
    params = SpcParams(max_structures=budget, m=float(rng.choice([1.1, 1.4, 2.0, 3.0])),
                       gamma=float(rng.choice([0.0, 0.1])), beta=float(rng.choice([0.0, 0.1])),
                       w_min=float(rng.choice([0.01, 0.3])))
    model = SpcModel(params)
    for k in rng.integers(0, len(pool), int(rng.integers(1, 3 * budget))):
        model.update(pool[k])
    means = np.array([mu for mu, _ in model.factors()])
    huge = 1.5e308 * rng.choice([-1.0, 1.0], (6, dim))
    queries = np.vstack([means, pool, huge, np.full((1, dim), 1.5e308),
                         *(10.0 ** e * rng.standard_normal((8, dim))
                           for e in (0, 1, 3, 8, 50, 154, 155, 200))])
    return model, queries


class TestAssignKernel:
    """Assignment runs the engine's distance kernels over blocks of points,
    keeping a running minimum over the structures in id order."""

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_bitwise_decision_distance_up_to_three_dims(self, dim, monkeypatch):
        jittered = []
        cholesky = linalg.cholesky

        def recording_cholesky(a):
            got = cholesky(a)
            jittered.append(got[0] is not a)
            return got

        monkeypatch.setattr(linalg, "cholesky", recording_cholesky)
        rng = np.random.default_rng(40 + dim)
        if dim == 2:  # collinear at scale 1e16: its merges need the jitter
            scale = 1e16
            xs = scale * rng.standard_normal(60)[:, None] * rng.standard_normal(dim)
        else:
            scale = 1.0
            xs = rng.standard_normal((60, dim))
        model = SpcModel(SpcParams(max_structures=5, gamma=0.1, beta=0.1))
        for x in xs:
            model.update(x)
        assert any(jittered) == (dim == 2)
        labels = get_clustering(model)
        means = np.array([s.mu for s in model.snapshot()])
        queries = np.vstack([xs, means, scale * rng.standard_normal((40, dim))])
        cluster_ids, structure_ids, dists = assign_with_distances(model, labels, queries)
        want = [nearest_by_decision_distance(model, q) for q in queries]
        assert structure_ids.tolist() == [ident for ident, _ in want]
        assert np.array_equal(as_bits(dists), as_bits([d for _, d in want]))
        assert cluster_ids.tolist() == [labels.labels[ident] for ident, _ in want]

    @pytest.mark.parametrize("dim", [2, 3, 8, 40])
    def test_overflowing_queries_are_infinitely_far(self, dim):
        # means at +-1.5e308 and near the origin, the near ones merged so
        # that every spread form meets the overflow
        rng = np.random.default_rng(dim)
        model = SpcModel(SpcParams(max_structures=6))
        far = np.zeros(dim)
        far[0] = 1.5e308
        for x in [far, -far, *rng.standard_normal((20, dim))]:
            model.update(x)
        assert model.diagnostics.merges
        labels = get_clustering(model)
        queries = np.vstack([far, -far, np.full(dim, 1.5e308), np.full(dim, -1.5e308),
                             np.full(dim, 1e200), np.zeros(dim)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, structure_ids, dists = assign_with_distances(model, labels, queries)
            rows = list(model.sq_distance_rows(queries))
        with np.errstate(over="ignore"):
            overflows = [np.isinf(queries - s.mu).any(axis=1) for s in model.snapshot()]
        for d_sq, over in zip(rows, overflows):
            assert not np.isnan(d_sq).any()
            assert np.all(d_sq[over] == np.inf)
        assert np.all(np.isfinite(dists)) and np.all((0.0 <= dists) & (dists <= 1.0))
        # each of +-far sits on its own structure; beyond every mean, every
        # distance is 1.0 and the lowest id wins
        assert structure_ids[:2].tolist() == model.ids()[:2]
        assert dists[:2].tolist() == [0.0, 0.0]
        assert dists[2:5].tolist() == [1.0] * 3
        assert structure_ids[2:5].tolist() == [model.ids()[0]] * 3

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_public_functions_agree_on_overflowing_offsets(self, dim):
        # the offset 3e308 overflows; the public functions read it as
        # assignment does, infinitely far, and nothing warns
        e0 = np.eye(dim)[0]
        m = 1.5
        far = Structure(mu=-1.5e308 * e0, sigma=np.eye(dim), weight=1.0, age=1)
        near = Structure(mu=np.zeros(dim), sigma=np.eye(dim), weight=1.0, age=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = 1.5e308 * e0
            got = (decision_distance(far, x, m), typicality(x, far.mu, far.sigma, m),
                   nlt(x, far.mu, far.sigma, m))
            model = SpcModel(SpcParams(max_structures=3, m=m))
            model.update(far.mu)
            _, _, dists = assign_with_distances(model, get_clustering(model), x[None])
            assert decision_distance(near, 1e200 * e0, m) == 1.0
        assert got == (1.0, 0.0, NLT_CEILING)
        assert dists.tolist() == [got[0]]

    def test_matches_reference_running_minimum_exactly(self):
        # squared distances beyond a point's winner are never transformed;
        # ids and distance bits must still be the full running minimum's,
        # far-field ties at 1.0 and equal squared distances included
        rng = np.random.default_rng(61)
        for case in range(60):
            model, queries = random_assign_case(rng)
            labels = get_clustering(model)
            got = assign_with_distances(model, labels, queries)
            want = reference_assign(model, labels, queries)
            assert got[0].tolist() == want[0].tolist(), case
            assert got[1].tolist() == want[1].tolist(), case
            assert np.array_equal(as_bits(got[2]), as_bits(want[2])), case

    def test_coinciding_structures_resolve_to_the_lower_id(self):
        model = SpcModel(SpcParams(max_structures=8))
        for x in ([1.0, 2.0], [5.0, 5.0], [1.0, 2.0], [5.0, 5.0], [1.0, 2.0]):
            model.update(x)
        labels = get_clustering(model)
        queries = np.random.default_rng(5).uniform(-2.0, 8.0, (200, 2))
        _, structure_ids, _ = assign_with_distances(model, labels, queries)
        assert set(structure_ids.tolist()) == {0, 1}

    @pytest.mark.parametrize("dim", [1, 2, 8, 40])
    def test_empty_query_set(self, dim):
        rng = np.random.default_rng(dim)
        model = SpcModel(SpcParams(max_structures=6))
        for x in rng.standard_normal((40, dim)):
            model.update(x)
        assert any(not np.array_equal(s.sigma, np.eye(dim)) for s in model.snapshot())
        labels = get_clustering(model)
        got = assign_with_distances(model, labels, np.empty((0, dim)))
        assert [a.shape for a in got] == [(0,), (0,), (0,)]
        rows = list(model.sq_distance_rows(np.empty((0, dim))))
        assert len(rows) == len(model) and all(row.shape == (0,) for row in rows)

    @pytest.mark.parametrize("dim", [2, 40, 512])
    def test_block_edges_match_points_assigned_alone(self, dim):
        rng = np.random.default_rng(dim)
        model = SpcModel(SpcParams(max_structures=6))
        for x in rng.standard_normal((40, dim)):
            model.update(x)
        labels = get_clustering(model)
        block = max(clustering._BLOCK_POINTS, clustering._BLOCK_VALUES // dim)
        queries = 2.0 * rng.standard_normal((block + 1, dim))
        alone = [assign_with_distances(model, labels, q[None]) for q in queries]
        alone = [np.concatenate(parts) for parts in zip(*alone)]
        for n in (block - 1, block, block + 1):
            got = assign_with_distances(model, labels, queries[:n])
            for a, b in zip(got, alone):
                assert np.array_equal(as_bits(a), as_bits(b[:n]))

    @pytest.mark.parametrize("seed", decision_digests.BENCH_SEEDS)
    def test_high_dim_blocks_match_blocks_of_values_alone(self, seed):
        # at d = 512 a block holds _BLOCK_POINTS points, not the
        # _BLOCK_VALUES // d = 32 that fit in the value count alone
        points, params = decision_digests.bench_stream("gauss-512d", seed)
        model = SpcModel(params)
        for x in points:
            model.update(x)
        labels = get_clustering(model)
        small = clustering._BLOCK_VALUES // model.dim
        assert small < clustering._BLOCK_POINTS < len(points)
        got = assign_with_distances(model, labels, points)
        parts = [assign_with_distances(model, labels, points[lo:lo + small])
                 for lo in range(0, len(points), small)]
        for a, b in zip(got, (np.concatenate(p) for p in zip(*parts))):
            assert np.array_equal(as_bits(a), as_bits(b))

    def test_memory_stays_below_a_structures_by_points_matrix(self):
        rng = np.random.default_rng(11)
        model = SpcModel(SpcParams(max_structures=24))
        for x in rng.uniform(-5.0, 5.0, (300, 2)):
            model.update(x)
        assert len(model) >= 20
        labels = get_clustering(model)
        axis = np.linspace(-6.0, 6.0, 200)
        lattice = np.stack(np.meshgrid(axis, axis), axis=-1).reshape(-1, 2)
        tracemalloc.start()
        try:
            assign_with_distances(model, labels, lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(model) * lattice.shape[0] * 8


class TestGuardRaises:
    """Each input guard of the offline step, by its exact message."""

    def test_assign_on_an_empty_model(self):
        with pytest.raises(ValueError) as err:
            assign_with_distances(SpcModel(SpcParams()), ClusterLabels(labels={}),
                                  np.zeros((1, 2)))
        assert str(err.value) == "model holds no structures"

    def test_labels_that_miss_a_structure(self):
        model = SpcModel(SpcParams(max_structures=4))
        model.update([0.0, 0.0])
        model.update([5.0, 0.0])
        labels = get_clustering(model)
        model.update([0.0, 5.0])  # structure 2, which the labels predate
        with pytest.raises(KeyError) as err:
            assign_with_distances(model, labels, np.zeros((1, 2)))
        assert err.value.args == ("labels missing structure 2",)
