import math
import warnings

import numpy as np
import pytest

from spclust import fusion, linalg
from spclust.clustering import (
    assign_points,
    assign_with_distances,
    get_clustering,
    labels_from_distances,
)
from spclust.datasets import gen_gaussian_highdim
from spclust.engine import SpcModel, SpcParams, decay_norm
from spclust.errors import DimensionMismatch, NoConvergence, NotPositiveDefinite, UnknownIdentifier
from spclust.metrics import purity
from spclust.typicality import decision_distance


def total_age(model):
    return sum(s.age for s in model.snapshot())


class TestParams:
    def test_defaults_are_valid(self):
        p = SpcParams()
        assert p.max_structures == 30
        assert p.min_pts == 2

    @pytest.mark.parametrize("kwargs", [
        {"max_structures": 1},
        {"gamma": -0.1},
        {"m": 1.0},
        {"epsilon": 0.0},
        {"epsilon": 1.0},
        {"w_min": 0.0},
        {"nlt_max": 0.0},
        {"min_pts": 0},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SpcParams(**kwargs)


class TestBurnIn:
    def test_first_points_become_untouched_singletons(self):
        model = SpcModel(SpcParams(max_structures=5))
        pts = [np.array([float(i), 0.0]) for i in range(5)]
        for p in pts:
            model.update(p)
        snap = model.snapshot()
        assert len(snap) == 5
        for s, p in zip(snap, pts):
            assert np.array_equal(s.mu, p)
            assert np.array_equal(s.sigma, np.eye(2))
            assert s.weight == 1.0
            assert s.age == 1
        assert model.diagnostics.merges == 0

    def test_weights_frozen_during_burn_in(self):
        model = SpcModel(SpcParams(max_structures=4, beta=1.0))
        for i in range(4):
            model.update([float(i) * 100.0, 0.0])
        assert all(s.weight == 1.0 for s in model.snapshot())


class TestBudget:
    def test_overflow_triggers_exactly_one_merge(self):
        model = SpcModel(SpcParams(max_structures=3))
        for x in ([0.0, 0.0], [10.0, 0.0], [20.0, 0.0]):
            model.update(x)
        model.update([0.5, 0.0])
        assert len(model) == 3
        assert model.diagnostics.merges == 1
        assert model.diagnostics.prunes == 0
        # the two closest structures were the ones at 0 and 0.5
        mus = sorted(round(float(s.mu[0]), 2) for s in model.snapshot())
        assert mus == [0.25, 10.0, 20.0]

    def test_budget_respected_on_random_stream(self):
        rng = np.random.default_rng(0)
        model = SpcModel(SpcParams(max_structures=8))
        for _ in range(300):
            model.update(rng.uniform(-5, 5, size=2))
            assert len(model) <= 8
        assert model.clock == 300

    def test_age_conservation_every_step(self):
        rng = np.random.default_rng(1)
        model = SpcModel(SpcParams(max_structures=6, beta=0.5))
        for _ in range(200):
            model.update(rng.uniform(-50, 50, size=2))
            assert total_age(model) + model.retired_age == model.clock


class TestRepeatedPoint:
    def test_all_structures_sit_on_the_point(self):
        x = np.array([2.0, -3.0])
        model = SpcModel(SpcParams(max_structures=3))
        for _ in range(20):
            model.update(x)
        for s in model.snapshot():
            assert np.allclose(s.mu, x)
        assert total_age(model) == 20

    def test_new_singleton_weight_stays_one(self):
        x = np.array([0.0, 0.0])
        model = SpcModel(SpcParams(max_structures=2, beta=0.7))
        for _ in range(10):
            model.update(x)
        # every structure keeps seeing perfectly typical points
        for s in model.snapshot():
            assert s.weight == pytest.approx(1.0)


def origin_weights(beta):
    """Weights of a unit structure at the origin after points of typicality
    0.4 and then 0.1 in it (m = 2).

    Anchors at squared distance 1.5 and 9 from the origin give those
    typicalities; streaming an anchor merges it into its twin, so the
    origin's structure keeps its mean, spread and age throughout.
    """
    anchors = np.array([[np.sqrt(1.5), 0.0], [-3.0, 0.0]])
    model = SpcModel(SpcParams(max_structures=3, m=2.0, beta=beta))
    for x in (np.zeros(2), *anchors):
        model.update(x)
    weights = []
    for x in anchors:
        model.update(x)
        origin = model.snapshot()[0]
        assert np.array_equal(origin.mu, np.zeros(2))
        assert np.array_equal(origin.sigma, np.eye(2))
        assert origin.age == 1
        weights.append(origin.weight)
    return weights


class TestWeightUpdate:
    def test_zero_decay_running_average(self):
        assert origin_weights(0.0) == pytest.approx([(1.0 + 0.4) / 2.0,
                                                     (1.0 + 0.4 + 0.1) / 3.0])

    def test_damped_average(self):
        beta = 0.2
        d = math.exp(-beta)
        assert origin_weights(beta) == pytest.approx([
            (d + 0.4) / decay_norm(2, beta),
            (d * d + d * 0.4 + 0.1) / decay_norm(3, beta),
        ])

    def test_atypical_point_halves_weight(self):
        # an overflowing distance has typicality exactly 0
        model = SpcModel(SpcParams(max_structures=2, m=1.001))
        far = np.array([1e150, 0.0])
        for x in (np.zeros(2), far, far):
            model.update(x)
        assert model.snapshot()[0].weight == 0.5


class TestDeterminism:
    def test_identical_streams_bitwise_identical(self):
        rng = np.random.default_rng(5)
        stream = rng.uniform(-3, 3, size=(150, 2))
        models = []
        for _ in range(2):
            model = SpcModel(SpcParams(max_structures=7, gamma=0.02, beta=0.05))
            for x in stream:
                model.update(x)
            models.append(model)
        a, b = (m.snapshot() for m in models)
        assert len(a) == len(b)
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.mu, sb.mu)
            assert np.array_equal(sa.sigma, sb.sigma)
            assert sa.weight == sb.weight
            assert sa.age == sb.age
        assert models[0].ids() == models[1].ids()


class TestTieBreaks:
    def test_coincident_structures_merge_lowest_id_pair_first(self):
        # every pair sits at distance exactly 0, so each overflow merges the
        # two lowest identifiers
        model = SpcModel(SpcParams(max_structures=3))
        for t in range(1, 9):
            model.update([2.0, -1.0])
            expected = list(range(t)) if t <= 3 else [2 * t - 6, 2 * t - 5, 2 * t - 4]
            assert model.ids() == expected

    @pytest.mark.parametrize("pool, picks, n, w_min, expected, diagnostics, retired", [
        # prune merges and deletions, equally typical prune targets
        ([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0]],
         [0, 2, 0, 0, 2, 0, 1, 0, 1, 2, 0, 2, 2, 0, 2, 0, 0, 0, 2, 2], 4, 0.5,
         [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [1, 4], [1, 4, 5], [1, 4, 5, 6],
          [5, 7], [5, 7, 8], [5, 7, 8, 9], [5, 7, 10], [5, 7, 10, 11],
          [7, 11, 12, 13], [7, 13, 14], [7, 13, 14, 15], [7, 13, 14, 16],
          [14, 16, 17, 18], [17, 18, 19, 20], [18, 20, 21, 22], [21, 23]],
         (4, 16, 14), 18),
        # equal-weight candidates whose order changes the outcome
        ([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]],
         [2, 0, 1, 1, 1, 2, 1, 1, 1, 0, 0, 0], 4, 0.9,
         [[0], [0, 1], [0, 1, 2], [0, 1, 2, 3], [4, 5, 6], [4, 5, 6, 7],
          [4, 6, 8, 9], [6, 8, 10, 11], [6, 11, 12, 13], [14, 17], [14, 17, 18],
          [14, 17, 18, 19]],
         (8, 7, 0), 0),
    ])
    def test_duplicate_stream_decisions_pinned(self, pool, picks, n, w_min, expected,
                                               diagnostics, retired):
        # duplicate points give zero-distance pair ties, prune candidates of
        # equal weight and equally typical prune targets; the closest pair
        # is the least (distance, id, id), candidates run in (weight, id)
        # order and each goes to the lowest id among its best targets
        pool = np.asarray(pool)
        model = SpcModel(SpcParams(max_structures=n, beta=0.5, w_min=w_min))
        for k, ids in zip(picks, expected):
            model.update(pool[k])
            assert model.ids() == ids
        diag = model.diagnostics
        assert (diag.merges, diag.prunes, diag.deletions) == diagnostics
        assert model.retired_age == retired


class TestPruning:
    def test_prune_merges_into_reachable_structure(self):
        params = SpcParams(max_structures=3, beta=2.0, m=1.5)
        model = SpcModel(params)
        model.update([0.0, 0.0])
        model.update([14.0, 0.0])
        model.merge_structures(0, 1)  # wide structure centered at (7, 0)
        assert len(model) == 1
        wide = model.snapshot()[0]
        assert wide.sigma[0, 0] > 25.0
        model.update([12.0, 0.0])  # candidate-to-be, within the wide reach
        for _ in range(6):
            model.update([7.0, 0.0])
        assert model.diagnostics.prunes >= 1
        assert model.diagnostics.deletions == 0
        assert total_age(model) + model.retired_age == model.clock
        # the pruned structure was absorbed, not lost
        assert all(abs(s.mu[0] - 12.0) > 1.0 for s in model.snapshot())

    def test_prune_deletes_unreachable_structure(self):
        params = SpcParams(max_structures=2, beta=2.0, m=1.5)
        model = SpcModel(params)
        model.update([0.0, 0.0])
        model.update([1.0, 0.0])
        for _ in range(8):
            model.update([500.0, 0.0])
        assert model.diagnostics.deletions >= 1
        assert model.retired_age > 0
        assert total_age(model) + model.retired_age == model.clock
        # the far-left structures are gone
        assert all(s.mu[0] > 400.0 for s in model.snapshot())

    def test_no_low_weight_survivors_except_new_structures(self):
        rng = np.random.default_rng(9)
        params = SpcParams(max_structures=5, beta=1.0)
        model = SpcModel(params)
        for step in range(200):
            before = set(model.ids())
            model.update(rng.uniform(-30, 30, size=2))
            created_this_step = set(model.ids()) - before
            for ident, s in zip(model.ids(), model.snapshot()):
                if ident not in created_this_step:
                    assert s.weight >= params.w_min


class TestMergeStructures:
    def test_identical_structures_double_age(self):
        model = SpcModel(SpcParams(max_structures=4))
        model.update([1.0, 1.0])
        model.update([1.0, 1.0])
        model.merge_structures(0, 1)
        snap = model.snapshot()
        assert len(snap) == 1
        assert snap[0].age == 2
        assert np.allclose(snap[0].mu, [1.0, 1.0])
        assert np.allclose(snap[0].sigma, np.eye(2), atol=1e-9)

    def test_count_decrements(self):
        model = SpcModel(SpcParams(max_structures=5))
        for i in range(4):
            model.update([float(i), 0.0])
        model.merge_structures(1, 2)
        assert len(model) == 3

    def test_hand_covariance_union(self):
        model = SpcModel(SpcParams(max_structures=3))
        model.update([0.0, 0.0])
        model.update([2.0, 0.0])
        model.merge_structures(0, 1)
        s = model.snapshot()[0]
        assert np.allclose(s.mu, [1.0, 0.0])
        assert np.allclose(s.sigma, np.diag([2.0, 1.0]), atol=1e-9)

    def test_weight_is_closed_form_damped_sum(self):
        # the older structure's weight accumulator shifts back by the
        # younger one's weight window, the younger one's adds, and the sum
        # is normalized over the joint window
        beta = 0.1
        rng = np.random.default_rng(21)
        model = SpcModel(SpcParams(max_structures=4, beta=beta))
        for x in rng.uniform(-20.0, 20.0, size=(30, 2)):
            model.update(x)
        ages = model._age[:len(model)]
        older, younger = (int(k) for k in np.argsort(-ages, kind="stable")[:2])
        assert ages[older] > ages[younger]
        acc_old, acc_new = float(model._weight_acc[older]), float(model._weight_acc[younger])
        wage_old, wage_new = int(model._weight_age[older]), int(model._weight_age[younger])
        assert model._weight[older] < 1.0 and model._weight[younger] < 1.0
        model.merge_structures(model.ids()[younger], model.ids()[older])
        expected = min(1.0, (math.exp(-beta * wage_new) * acc_old + acc_new)
                       / decay_norm(wage_old + wage_new, beta))
        assert model.snapshot()[-1].weight == expected

    def test_unknown_identifier(self):
        model = SpcModel(SpcParams(max_structures=3))
        model.update([0.0, 0.0])
        with pytest.raises(UnknownIdentifier):
            model.merge_structures(0, 99)

    def test_self_merge_rejected(self):
        model = SpcModel(SpcParams(max_structures=3))
        model.update([0.0, 0.0])
        with pytest.raises(ValueError):
            model.merge_structures(0, 0)


def hostile_stream(rng, kind, dim, scale, n=40):
    if kind == "normal":
        return scale * rng.standard_normal((n, dim))
    if kind == "duplicates":
        pool = scale * rng.standard_normal((6, dim))
        return pool[rng.integers(0, 6, n)]
    # collinear: every point on one line through the origin
    return scale * rng.standard_normal(n)[:, None] * rng.standard_normal(dim)


class TestFactorInvariant:
    """Every spread dominates the identity, so every structure has a factor."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 33])
    def test_hostile_scales_keep_a_factor_for_every_spread(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-8, 1.0, 1e8, 1e16, 1e100):
            for kind in ("normal", "duplicates", "collinear"):
                model = SpcModel(SpcParams(max_structures=5, gamma=0.1, beta=0.1))
                for x in hostile_stream(rng, kind, dim, scale):
                    model.update(x)
                    for (_, chol), s in zip(model.factors(), model.snapshot()):
                        # a spread too ill-conditioned to factor as it is
                        # gets linalg.cholesky's documented diagonal jitter
                        jitter = 0.0 if linalg.is_pd(s.sigma) else linalg.REG_LAMBDA * (
                            np.trace(s.sigma) / dim + linalg.REG_FLOOR)
                        residual = chol @ chol.T - s.sigma - jitter * np.eye(dim)
                        assert np.abs(residual).max() <= 1e-13 * np.abs(s.sigma).max()
                assert len(model) == 5
                # near-singular padded spreads still take the union, through
                # the jittered factor, rather than the pooled fallback
                assert model.diagnostics.cu_fallbacks == 0

    @pytest.mark.parametrize("dim", [2, 4])
    def test_overflowing_delta_is_infinitely_far(self, dim):
        # +-1.5e308 are 3e308 apart, which overflows to inf; up to d = 3
        # the closed form then meets 0 * inf. The engine maps both to
        # "infinitely far" without a numpy warning.
        model = SpcModel(SpcParams(max_structures=3))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for first in (1.5e308, -1.5e308, 0.0):
                model.update([first] + [0.0] * (dim - 1))
                d = model.distances()
                assert not np.isnan(d).any()
                assert np.array_equal(d, 1.0 - np.eye(len(model)))


class TestStoredFactorDescribesSpread:
    """Below d = 32 the stored factor is the factor of the reported spread,
    also where the merge had to jitter the spread to factor it."""

    @pytest.mark.parametrize("dim", range(1, 9))
    def test_hostile_streams_need_no_jitter_allowance(self, dim):
        rng = np.random.default_rng(dim)
        for scale in (1e-8, 1.0, 1e8, 1e16, 1e100):
            for kind in ("normal", "duplicates", "collinear"):
                model = SpcModel(SpcParams(max_structures=5, gamma=0.1, beta=0.1))
                for x in hostile_stream(rng, kind, dim, scale):
                    model.update(x)
                    for (_, chol), s in zip(model.factors(), model.snapshot()):
                        residual = chol @ chol.T - s.sigma
                        assert np.abs(residual).max() <= 1e-13 * np.abs(s.sigma).max()


def random_basis(rng, dim, k):
    return np.linalg.qr(rng.standard_normal((dim, k)))[0]


class TestLowRankKernel:
    """linalg.low_rank_norm_sq against a dense Cholesky solve of the same spread."""

    @staticmethod
    def oracle(basis, lam, deltas):
        sigma = np.eye(basis.shape[0]) + (basis * (lam - 1.0)) @ basis.T
        sigma = 0.5 * (sigma + sigma.T)
        # the oracle is exact to rounding only for a spread that factors as it is
        assert linalg.is_pd(sigma)
        return linalg.solve_norm_sq_many(linalg.cholesky(sigma), deltas)

    @pytest.mark.parametrize("dim", [33, 40])
    def test_matches_dense_cholesky_oracle(self, dim):
        rng = np.random.default_rng(dim)
        for k in (0, 1, 5, 16, dim):
            for _ in range(5):
                basis = random_basis(rng, dim, k)
                lam = 1.0 + rng.uniform(1e-3, 1e3, k)
                deltas = 10.0 * rng.standard_normal((7, dim))
                got = linalg.low_rank_norm_sq(basis, lam, deltas)
                want = self.oracle(basis, lam, deltas)
                assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_delta_inside_the_span(self):
        # the answer is about ||delta||^2 / lam; ||delta||^2 - ||B' delta||^2
        # would leave rounding of order eps ||delta||^2 in it
        rng = np.random.default_rng(7)
        dim = 33
        for k in (1, 3, 8):
            for top in (1e4, 1e8, 1e12, 1e16):
                basis = random_basis(rng, dim, k)
                lam = top * rng.uniform(0.1, 1.0, k)
                deltas = rng.standard_normal((5, k)) @ basis.T
                got = linalg.low_rank_norm_sq(basis, lam, deltas)
                want = self.oracle(basis, lam, deltas)
                assert np.all(np.abs(got - want) <= 1e-12 * want)

    def test_rows_under_many_spreads_match_one_by_one(self):
        # the batched unit-singleton rows are bit for bit the kernel's
        rng = np.random.default_rng(3)
        dim = 33
        spreads = [fusion.LowRankSpread(random_basis(rng, dim, k), 1.0 + rng.uniform(0.5, 9.0, k))
                   for k in (0, 3, 0, 0, 1, 33, 0)]
        deltas = rng.standard_normal((len(spreads), dim))
        want = [s.norm_sq(deltas[i:i + 1])[0] for i, s in enumerate(spreads)]
        assert np.array_equal(fusion.norm_sq_rows(spreads, deltas), want)


def pool_stream(rng, dim, n=60):
    pool = rng.standard_normal((6, dim))
    return pool[rng.integers(0, 6, n)]


class TestLowRankStore:
    """From d = 32 every spread is I + B diag(lam - 1) B' with B (d, k)."""

    @staticmethod
    def check_forms(model):
        for spread, age in zip(model._sigmas, model._age[:len(model)]):
            k = spread.lam.size
            assert spread.basis.shape == (model.dim, k)
            assert k <= min(model.dim, int(age) - 1)
            assert np.all(spread.lam > 1.0)
            # dsyevr's eigenvectors of clustered eigenvalues are orthogonal
            # to a few hundred ulps
            assert np.all(np.abs(spread.basis.T @ spread.basis - np.eye(k)) <= 1e-12)

    def test_rank_bound_on_hostile_streams(self):
        dim = 33
        rng = np.random.default_rng(dim)
        for scale in (1e-8, 1.0, 1e8, 1e16, 1e100):
            for kind in ("normal", "duplicates", "collinear"):
                model = SpcModel(SpcParams(max_structures=5, gamma=0.1, beta=0.1))
                for x in hostile_stream(rng, kind, dim, scale):
                    model.update(x)
                    self.check_forms(model)

    def test_rank_on_gaussian_stream(self):
        # points in general position: every merge adds the whole offset,
        # so the rank is exactly age - 1 until it reaches d
        dim = 32
        model = SpcModel(SpcParams(max_structures=8))
        for p in gen_gaussian_highdim(n_clusters=4, dim=dim, n_points=200, seed=3):
            model.update(p.x)
            self.check_forms(model)
        ages = model._age[:len(model)]
        assert ages.max() - 1 > dim  # some structure reached full rank
        for spread, age in zip(model._sigmas, ages):
            assert spread.lam.size == min(dim, int(age) - 1)

    def test_repeated_stream_is_bitwise_identical(self):
        # the same stream in one process gives the same bits every time
        dim = 33
        for seed in range(3):
            stream = pool_stream(np.random.default_rng(seed), dim)
            for n in (2, 3, 4, 5):
                runs = []
                for _ in range(3):
                    model = SpcModel(SpcParams(max_structures=n))
                    for x in stream:
                        model.update(x)
                    snap = model.snapshot()
                    runs.append((model.ids(), model.diagnostics.as_dict(),
                                 [s.mu.tobytes() for s in snap],
                                 [s.weight for s in snap],
                                 [s.sigma.tobytes() for s in snap]))
                assert runs[1] == runs[0] and runs[2] == runs[0]

    def test_assignment_builds_no_dense_spread(self, monkeypatch):
        rng = np.random.default_rng(11)
        dim = 40
        model = SpcModel(SpcParams(max_structures=6))
        stream = pool_stream(rng, dim, n=30)
        for x in stream:
            model.update(x)
        labels = get_clustering(model)
        snap = model.snapshot()
        queries = np.vstack([stream[:5], 3.0 * rng.standard_normal((5, dim))])
        want = np.array([[decision_distance(s, q, model.params.m) for q in queries]
                         for s in snap])

        def refuse(*args, **kwargs):
            raise AssertionError("dense spread in the assignment")

        monkeypatch.setattr(linalg, "cholesky", refuse)
        monkeypatch.setattr(fusion.LowRankSpread, "dense", refuse)
        _, structure_ids, dists = assign_with_distances(model, labels, queries)
        assert np.allclose(dists, want.min(axis=0), rtol=1e-12, atol=1e-15)
        rows = [model.ids().index(i) for i in structure_ids]
        assert np.allclose(want[rows, np.arange(len(queries))], dists, rtol=1e-12, atol=1e-15)

    def test_pooled_fallback_uses_the_projection(self, monkeypatch):
        # without decay the pool of two equal-age structures is the
        # average of their spreads
        def fail(*args):
            raise NotPositiveDefinite("forced")

        rng = np.random.default_rng(13)
        dim = 33
        model = SpcModel(SpcParams(max_structures=10))
        for x in rng.standard_normal((4, dim)):
            model.update(x)
        model.merge_structures(0, 1)
        model.merge_structures(2, 3)
        a, b = model.snapshot()
        monkeypatch.setattr(fusion, "covariance_union", fail)
        model.merge_structures(4, 5)
        assert model.diagnostics.cu_fallbacks == 1
        (merged,) = model.snapshot()
        assert np.allclose(merged.sigma, 0.5 * (a.sigma + b.sigma), rtol=1e-13, atol=1e-13)
        self.check_forms(model)

    def test_failed_merge_changes_nothing(self, monkeypatch):
        def fail(*args):
            raise NoConvergence("forced")

        rng = np.random.default_rng(17)
        model = SpcModel(SpcParams(max_structures=10))
        for x in rng.standard_normal((3, 33)):
            model.update(x)
        model.merge_structures(0, 1)

        def state():
            snap = model.snapshot()
            return (model.ids(), model.clock, [s.age for s in snap],
                    [s.weight for s in snap], [s.sigma.tobytes() for s in snap],
                    model.retired_age, model.diagnostics.as_dict(),
                    model.distances().tolist())

        before = state()
        monkeypatch.setattr(linalg, "sym_eigen", fail)
        with pytest.raises(NoConvergence):
            model.merge_structures(*model.ids())
        assert state() == before


class TestOneDimensionalStream:
    def test_scalar_stream(self):
        rng = np.random.default_rng(21)
        model = SpcModel(SpcParams(max_structures=4))
        stream = np.concatenate([rng.normal(0.0, 0.3, 100), rng.normal(30.0, 0.3, 100)])
        for x in rng.permutation(stream):
            model.update([x])
        assert 1 <= len(model) <= 4
        labels = get_clustering(model)
        snap = model.snapshot()
        left = {labels.labels[i] for i, s in zip(model.ids(), snap) if s.mu[0] < 15}
        right = {labels.labels[i] for i, s in zip(model.ids(), snap) if s.mu[0] >= 15}
        assert left.isdisjoint(right)


class TestInputValidation:
    def test_dimension_fixed_by_first_point(self):
        model = SpcModel(SpcParams(max_structures=3))
        model.update([0.0, 0.0])
        with pytest.raises(DimensionMismatch):
            model.update([0.0, 0.0, 0.0])

    def test_non_finite_rejected(self):
        model = SpcModel(SpcParams(max_structures=3))
        with pytest.raises(ValueError):
            model.update([np.nan, 0.0])

    def test_zero_length_point_rejected_before_any_change(self):
        model = SpcModel(SpcParams(max_structures=2))
        for _ in range(5):
            with pytest.raises(DimensionMismatch):
                model.update([])
        assert (len(model), model.clock, model.dim, model.ids()) == (0, 0, None, [])
        assert model.diagnostics.as_dict() == {"merges": 0, "prunes": 0, "deletions": 0,
                                               "cu_fallbacks": 0}
        model.update([1.0, 2.0])
        assert model.dim == 2

    def test_empty_snapshot(self):
        model = SpcModel(SpcParams(max_structures=3))
        assert model.snapshot() == []


class TestTwoBlobsEndToEnd:
    def test_well_separated_gaussians(self):
        rng = np.random.default_rng(42)
        pts = np.vstack([
            rng.normal((0.0, 0.0), 1.0, (200, 2)),
            rng.normal((20.0, 0.0), 1.0, (200, 2)),
        ])
        truth = np.array([0] * 200 + [1] * 200)
        order = rng.permutation(400)
        model = SpcModel(SpcParams(max_structures=10))
        for i in order:
            model.update(pts[i])
        labels = get_clustering(model)
        pred = np.asarray(assign_points(model, labels, pts))

        assert purity(pred, truth) == 1.0

        # oracle: DBSCAN over the raw points with Euclidean distance finds
        # exactly the two blobs
        euclidean = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
        oracle = np.asarray(labels_from_distances(euclidean, 1.0, 5))
        counts = np.bincount(oracle)
        blob_labels = np.flatnonzero(counts >= 5)
        assert len(blob_labels) == 2

        # the two dominant output clusters align one-to-one with the blobs
        # and carry the bulk of the mass; leftover labels are outlier
        # structures holding a handful of edge points each
        top = sorted(np.unique(pred), key=lambda c: -(pred == c).sum())[:2]
        dominant = np.isin(pred, top)
        assert dominant.mean() > 0.85
        for c in top:
            assert len(np.unique(truth[pred == c])) == 1
        assert len(np.unique(truth[pred == top[0]])) == 1
        assert set(truth[pred == top[0]]) != set(truth[pred == top[1]])
