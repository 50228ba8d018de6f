"""The damped-window footprint: the engine's accumulators, their
closed-form normalizer and merge, checked against the batch oracle."""

import math

import numpy as np
import pytest

import spclust.fusion as fusion
from spclust.engine import SpcModel, SpcParams, decay_norms

from oracles import batch_footprint, folded


class TestDecayNorm:
    def test_zero_rate_counts_steps(self):
        assert decay_norms([5], 0.0)[0] == 5.0

    def test_single_step(self):
        for rate in (0.0, 0.3, math.log(2.0), 5.0):
            assert decay_norms([1], rate)[0] == pytest.approx(1.0)

    def test_geometric_hand_case(self):
        assert decay_norms([2], math.log(2.0))[0] == pytest.approx(1.5)

    def test_matches_direct_sum(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            steps = int(rng.integers(1, 60))
            rate = float(rng.uniform(0.0, 1.5))
            direct = sum(math.exp(-rate * (steps - t)) for t in range(1, steps + 1))
            assert decay_norms([steps], rate)[0] == pytest.approx(direct, rel=1e-12)

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ValueError):
            decay_norms([0], 0.1)
        with pytest.raises(ValueError):
            decay_norms([3, 0, 5], 0.1)

    @pytest.mark.parametrize("rate", [0.0, 1e-4, 0.05, 0.1, 1.0])
    def test_hoisted_normalizers_keep_the_bits_of_decay_norm(self, rate):
        # the weight update takes expm1(-rate) once for all slots; every
        # normalizer keeps the bits of the closed form taken one at a time
        ages = list(range(1, 20001))
        one_at_a_time = [float(k) if rate == 0.0 else math.expm1(-rate * k) / math.expm1(-rate)
                         for k in ages]
        assert decay_norms(ages, rate) == one_at_a_time
        assert [decay_norms([k], rate)[0] for k in ages] == one_at_a_time


class TestNewSingleton:
    """A new point becomes a structure with its mean, unit spread and weight 1."""

    def test_two_dim(self):
        model = SpcModel(SpcParams())
        model.update(np.array([0.0, 0.0]))
        (s,) = model.snapshot()
        assert np.array_equal(s.mu, [0.0, 0.0])
        assert np.array_equal(s.sigma, np.eye(2))
        assert s.weight == 1.0
        assert s.age == 1

    def test_three_dim(self):
        model = SpcModel(SpcParams(gamma=0.5, beta=0.2))
        model.update(np.array([3.0, -1.0, 2.0]))
        (s,) = model.snapshot()
        assert np.array_equal(s.mu, [3.0, -1.0, 2.0])
        assert np.array_equal(s.sigma, np.eye(3))
        assert s.weight == 1.0

    def test_normalizers_are_unity_at_creation(self):
        model = SpcModel(SpcParams(gamma=0.9, beta=0.3))
        model.update(np.array([7.0]))
        assert np.array_equal(model._mean_acc[0], [7.0])
        assert model._weight_acc[0] == 1.0
        assert decay_norms([int(model._age[0])], 0.9)[0] == 1.0
        assert decay_norms([int(model._weight_age[0])], 0.3)[0] == 1.0


class TestNormalize:
    def test_plain_mean_at_zero_decay(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((20, 3))
        s = batch_footprint(pts, m=1.5)
        assert np.allclose(s.mu, pts.mean(axis=0), atol=1e-12)
        assert decay_norms([20], 0.0)[0] == 20.0

    def test_scatter_uses_running_means_at_zero_decay(self):
        # damped scatter at rate zero: deviations from the running mean at
        # each arrival, not from the final mean
        pts = np.array([[0.0, 0.0], [2.0, 0.0]])
        s = batch_footprint(pts, m=1.5)
        assert np.allclose(s.sigma, np.diag([0.5, 0.0]))

    def test_roundtrip_with_footprint_from_structure(self):
        # the normalized view is each accumulator over its window normalizer,
        # and the folded accumulators normalize to the batch mean
        rng = np.random.default_rng(6)
        gamma, beta = 0.05, 0.01
        pts = rng.standard_normal((15, 2))
        s = batch_footprint(pts, m=1.7, gamma=gamma, beta=beta)
        model = folded([pts], gamma, beta)
        (back,) = model.snapshot()
        assert np.array_equal(back.mu, model._mean_acc[0] / decay_norms([back.age], gamma)[0])
        weight_age = int(model._weight_age[0])
        assert weight_age == back.age
        assert back.weight == min(1.0, model._weight_acc[0] / decay_norms([weight_age], beta)[0])
        assert np.allclose(back.mu, s.mu)
        assert back.weight == pytest.approx(1.0)
        assert back.age == s.age


class TestBatchFootprint:
    def test_single_point(self):
        s = batch_footprint(np.array([[1.5, -2.0]]), m=1.5)
        assert np.array_equal(s.mu, [1.5, -2.0])
        assert np.array_equal(s.sigma, np.zeros((2, 2)))
        assert s.weight == pytest.approx(1.0)
        assert s.age == 1

    def test_damped_mean_one_dim(self):
        s = batch_footprint([0.0, 2.0], m=1.5, gamma=math.log(2.0))
        assert s.mu[0] == pytest.approx(4.0 / 3.0)

    def test_matches_direct_sums(self):
        rng = np.random.default_rng(8)
        for gamma in (0.0, 0.1, 0.7):
            pts = rng.standard_normal((12, 2))
            s = batch_footprint(pts, m=1.5, gamma=gamma)
            n = len(pts)
            weights = np.exp(-gamma * (n - 1 - np.arange(n)))
            norm = weights.sum()
            assert np.allclose(s.mu, (weights[:, None] * pts).sum(axis=0) / norm)
            running = np.cumsum(
                np.exp(gamma * np.arange(n))[:, None] * pts, axis=0
            ) / np.cumsum(np.exp(gamma * np.arange(n)))[:, None]
            scatter = sum(
                weights[t] * np.outer(pts[t] - running[t], pts[t] - running[t])
                for t in range(n)
            )
            assert np.allclose(s.sigma, scatter / norm)


class TestMergeFootprints:
    """SpcModel.merge_structures on folded windows: the older structure's
    accumulators shift back by the younger one's window, then add."""

    def test_mean_composition_matches_batch(self):
        rng = np.random.default_rng(10)
        for gamma in (0.0, 0.01, 0.1):
            pts = rng.standard_normal((40, 3))
            full = batch_footprint(pts, m=1.5, gamma=gamma)
            # the older (longer) window leads, so it has to be the prefix
            for split in (20, 27, 33, 39):
                model = folded([pts[:split], pts[split:]], gamma)
                model.merge_structures(*model.ids())
                (merged,) = model.snapshot()
                assert np.allclose(merged.mu, full.mu, rtol=1e-10, atol=1e-12)
                assert merged.age == full.age

    def test_self_merge_keeps_mean_and_weight(self):
        model = folded([np.array([[1.0, 2.0]] * 4)] * 2)
        part = model.snapshot()[0]
        model.merge_structures(*model.ids())
        (merged,) = model.snapshot()
        assert np.allclose(merged.mu, [1.0, 2.0])
        assert merged.weight == pytest.approx(part.weight)
        assert merged.age == 8

    def test_zero_decay_weighted_mean(self):
        model = folded([np.zeros((3, 2)), np.full((1, 2), 4.0)])
        model.merge_structures(*model.ids())
        (merged,) = model.snapshot()
        assert np.allclose(merged.mu, [1.0, 1.0])  # (3*0 + 1*4) / 4

    def test_scatter_accumulator_composition_is_literal(self, monkeypatch):
        # the engine pools damped scatters only when the covariance union
        # fails; a union that gives up forces that
        rng = np.random.default_rng(12)
        gamma = 0.2
        model = folded([rng.standard_normal((5, 2)), rng.standard_normal((3, 2))], gamma)
        sigma_old, sigma_new = (s.sigma for s in model.snapshot())
        merges = model.diagnostics.merges
        monkeypatch.setattr(fusion, "fuse", lambda *args: None)
        model.merge_structures(*model.ids())
        assert model.diagnostics.cu_fallbacks == 1
        assert model.diagnostics.merges == merges + 1
        expected = (math.exp(-gamma * 3) * (sigma_old * decay_norms([5], gamma)[0])
                    + sigma_new * decay_norms([3], gamma)[0]) / decay_norms([8], gamma)[0]
        assert np.array_equal(model.snapshot()[0].sigma, expected)


def origin_after_anchors(beta):
    """Snapshots of a unit structure at the origin, before and after each
    point of typicality 0.4 and then 0.1 in it (m = 2).

    Anchors at squared distance 1.5 and 9 from the origin give those
    typicalities; streaming an anchor merges it into its twin, so only the
    weights of the structures take up the new point.
    """
    anchors = np.array([[np.sqrt(1.5), 0.0], [-3.0, 0.0]])
    model = SpcModel(SpcParams(max_structures=3, m=2.0, beta=beta))
    for x in (np.zeros(2), *anchors):
        model.update(x)
    steps = []
    for x in anchors:
        before = model.snapshot()[0]
        model.update(x)
        steps.append((before, model.snapshot()[0]))
    return steps


class TestUpdateWeight:
    """The streaming weight update: a damped average of the typicalities of
    every point seen since a structure's creation, folded in per step."""

    def test_fully_typical_stream_keeps_weight_one(self):
        model = SpcModel(SpcParams(max_structures=2, beta=0.3))
        for _ in range(10):
            model.update(np.zeros(2))
            for s in model.snapshot():
                assert s.weight == pytest.approx(1.0)

    def test_zero_decay_running_average(self):
        weights = [after.weight for _, after in origin_after_anchors(0.0)]
        assert weights == pytest.approx([(1.0 + 0.4) / 2.0, (1.0 + 0.4 + 0.1) / 3.0])

    def test_hand_case_halves(self):
        # an overflowing distance has typicality exactly 0
        model = SpcModel(SpcParams(max_structures=2, m=1.001, beta=0.0))
        far = np.array([1e150, 0.0])
        for x in (np.zeros(2), far, far):
            model.update(x)
        assert model.snapshot()[0].weight == pytest.approx(0.5)

    def test_weight_stays_in_unit_interval(self):
        rng = np.random.default_rng(16)
        for beta in (0.0, 0.05, 1.0):
            model = SpcModel(SpcParams(max_structures=5, beta=beta))
            for _ in range(200):
                model.update(rng.standard_normal(2))
                for s in model.snapshot():
                    assert 0.0 <= s.weight <= 1.0 + 1e-9

    def test_mean_and_scatter_untouched(self):
        for before, after in origin_after_anchors(0.1):
            assert np.array_equal(before.mu, after.mu)
            assert np.array_equal(before.sigma, after.sigma)
            assert after.age == before.age
            assert after.weight != before.weight
