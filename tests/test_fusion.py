import numpy as np
import pytest

import spclust.engine as engine
import spclust.fusion as fusion
from spclust.engine import SpcModel, SpcParams
from spclust.errors import NotPositiveDefinite
from spclust.fusion import (
    covariance_union,
    fuse,
    pad_covariance,
    union_absorbing_unit,
    unit_spread,
)

from oracles import batch_footprint, folded, is_psd


def random_spd(rng, dim, scale=1.0):
    a = rng.standard_normal((dim, dim))
    return scale * (a @ a.T + 0.2 * dim * np.eye(dim))


class TestPadCovariance:
    def test_no_offset_is_identity_operation(self):
        sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
        out = pad_covariance(sigma, np.array([1.0, 1.0]), np.array([1.0, 1.0]))
        assert np.array_equal(out, sigma)

    def test_unit_offset(self):
        out = pad_covariance(np.eye(2), np.zeros(2), np.array([1.0, 0.0]))
        assert np.allclose(out, np.diag([2.0, 1.0]))

    def test_one_dim(self):
        out = pad_covariance(np.array([[4.0]]), np.array([0.0]), np.array([3.0]))
        assert out[0, 0] == pytest.approx(13.0)

    def test_dominates_input(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            sigma = random_spd(rng, 3)
            out = pad_covariance(sigma, rng.standard_normal(3), rng.standard_normal(3))
            assert is_psd(out - sigma, 1e-12)
            assert np.allclose(out, out.T)


class TestCovarianceUnion:
    def test_equal_inputs_fixed_point(self):
        rng = np.random.default_rng(5)
        for dim in (1, 2, 5):
            sigma = random_spd(rng, dim)
            out = covariance_union(sigma, sigma)
            err = np.linalg.norm(out - sigma) / np.linalg.norm(sigma)
            assert err < 1e-10

    def test_one_dim_is_max(self):
        assert covariance_union(np.array([[4.0]]), np.array([[1.0]]))[0, 0] == pytest.approx(4.0)
        assert covariance_union(np.array([[1.0]]), np.array([[4.0]]))[0, 0] == pytest.approx(4.0)

    def test_hand_case_two_unit_structures(self):
        u = np.diag([2.0, 1.0])
        assert np.allclose(covariance_union(u, u), u, atol=1e-12)

    def test_conservative_randomized(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            dim = int(rng.integers(1, 9))
            u1 = random_spd(rng, dim)
            u2 = random_spd(rng, dim)
            fused = covariance_union(u1, u2)
            assert is_psd(fused - u1, 1e-8)
            assert is_psd(fused - u2, 1e-8)
            assert np.linalg.norm(fused - fused.T) < 1e-10

    def test_both_argument_orders_conservative(self):
        rng = np.random.default_rng(9)
        for _ in range(50):
            u1 = random_spd(rng, 4)
            u2 = random_spd(rng, 4)
            for a, b in ((u1, u2), (u2, u1)):
                fused = covariance_union(a, b)
                assert is_psd(fused - u1, 1e-8)
                assert is_psd(fused - u2, 1e-8)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(11)
        u1 = random_spd(rng, 5)
        u2 = random_spd(rng, 5)
        base = covariance_union(u1, u2)
        for c in (0.3, 7.5):
            scaled = covariance_union(c * u1, c * u2)
            assert np.allclose(scaled, c * base, rtol=1e-9)

    def test_dominant_input_is_returned(self):
        rng = np.random.default_rng(13)
        small = random_spd(rng, 3)
        big = small + random_spd(rng, 3)
        assert np.array_equal(covariance_union(small, big), big)
        assert np.array_equal(covariance_union(big, small), big)

    def test_indefinite_dominant_input_is_refused(self):
        # bad + I dominates bad, but neither is a covariance: the shortcut
        # must not hand either back
        bad = np.array([[1.0, 30.0], [30.0, 1.0]])
        for a, b in ((bad, bad + np.eye(2)), (bad + np.eye(2), bad)):
            with pytest.raises(NotPositiveDefinite):
                covariance_union(a, b)


class TestUnionAbsorbingUnit:
    def test_matches_dense_union(self):
        rng = np.random.default_rng(15)
        for dim in (2, 3, 8, 40):
            for _ in range(20):
                base = random_spd(rng, dim)
                u2 = base + np.eye(dim)  # dominates the identity, as required
                offset = rng.standard_normal(dim) * rng.uniform(0.0, 3.0)
                u1 = np.eye(dim) + np.outer(offset, offset)
                fast = union_absorbing_unit(u2, offset)
                assert fast is not None
                dense = covariance_union(u1, u2)
                assert np.allclose(fast, dense, rtol=1e-7, atol=1e-9)
                assert is_psd(fast - u1, 1e-8)
                assert is_psd(fast - u2, 1e-8)

    def test_zero_offset_returns_u2(self):
        rng = np.random.default_rng(17)
        u2 = random_spd(rng, 4) + np.eye(4)
        out = union_absorbing_unit(u2, np.zeros(4))
        assert out is not None
        assert np.allclose(out, np.maximum(out, u2))


class TestFuse:
    def test_equal_structures_agree_with_pooled(self):
        # pooling two equal structures gives back their spread, and so
        # must their union
        pts = np.array([[0.0, 1.0], [0.4, 0.8], [-0.2, 1.2]])
        s = batch_footprint(pts, 1.5)
        sigma = fuse(s.mu, s.sigma, s.mu, s.sigma, s.mu)
        assert sigma is not None
        assert np.allclose(sigma, s.sigma, atol=1e-10)

    def test_two_unit_singleton_structures(self):
        sigma = fuse(np.array([0.0, 0.0]), np.eye(2), np.array([2.0, 0.0]), np.eye(2),
                     np.array([1.0, 0.0]))
        assert np.allclose(sigma, np.diag([2.0, 1.0]), atol=1e-10)

    def test_far_apart_structures_grow(self):
        sigma = fuse(np.array([0.0, 0.0]), np.eye(2), np.array([10.0, 0.0]), np.eye(2),
                     np.array([5.0, 0.0]))
        assert sigma[0, 0] > 10.0  # much larger than either input spread

    def test_identity_spread_takes_the_dense_union(self):
        # fuse cannot know whether sigma_old dominates the identity, so a
        # unit spread gets no rank-one shortcut: the union of 0.01 I and I
        # is I
        dim = 32
        z = np.zeros(dim)
        sigma = fuse(z, 0.01 * np.eye(dim), z, unit_spread(dim), z)
        assert np.allclose(sigma, np.eye(dim))
        assert is_psd(sigma - np.eye(dim), 1e-12)

    def test_unit_singleton_takes_rank_one_union(self, monkeypatch):
        # from _FAST_UNION_MIN_DIM on, the engine absorbs a unit singleton
        # (age 1) through union_absorbing_unit and merges everything else
        # through the dense union; the two unions agree
        calls = []
        original = fusion.union_absorbing_unit

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(fusion, "union_absorbing_unit", counted)
        rng = np.random.default_rng(19)
        dim = engine._FAST_UNION_MIN_DIM
        model = SpcModel(SpcParams(max_structures=10))
        for x in rng.standard_normal((5, dim)):
            model.update(x)
        model.merge_structures(0, 1)
        model.merge_structures(2, 3)
        assert calls == [1, 1]
        single, pair = model.snapshot()[:2]
        assert (single.age, pair.age) == (1, 2)
        model.merge_structures(5, 4)
        assert calls == [1, 1, 1]
        merged = model.snapshot()[-1]
        dense = fuse(pair.mu, pair.sigma, single.mu, np.eye(dim), merged.mu)
        assert np.allclose(merged.sigma, dense, rtol=1e-7, atol=1e-9)
        model.merge_structures(6, 7)
        assert calls == [1, 1, 1]

        below = SpcModel(SpcParams(max_structures=10))
        for x in rng.standard_normal((2, dim - 1)):
            below.update(x)
        below.merge_structures(0, 1)
        assert calls == [1, 1, 1]

    def test_fallback_on_indefinite_spread(self):
        # an indefinite spread cannot be factored even with jitter, so the
        # union gives up and returns None
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])
        assert fuse(np.zeros(2), bad, np.zeros(2), bad.copy(), np.zeros(2)) is None

    def test_engine_keeps_pooled_spread_on_fallback(self, monkeypatch):
        # the pooled spread of two equal-age structures without decay is
        # the average of their spreads
        monkeypatch.setattr(fusion, "fuse", lambda *args: None)
        good = np.array([[2.0, 1.0], [1.0, 3.0]])
        model = SpcModel(SpcParams(max_structures=3))
        model.update([0.0, 0.0])
        model.update([0.0, 0.0])
        model._sigmas[0] = good  # the stored spread of the older structure
        model.merge_structures(0, 1)
        assert model.diagnostics.cu_fallbacks == 1
        assert model.diagnostics.merges == 1
        (merged,) = model.snapshot()
        assert np.array_equal(merged.sigma, 0.5 * (good + np.eye(2)))

    def test_engine_merge_without_factor_changes_nothing(self):
        # neither the union nor the pooled scatter of two indefinite
        # spreads has a factor; the merge raises before any state changes
        bad = np.array([[1.0, 30.0], [30.0, 1.0]])
        rng = np.random.default_rng(0)
        model = folded([rng.standard_normal((5, 2)), rng.standard_normal((3, 2))], 0.2)
        model._sigmas[0] = bad
        model._sigmas[1] = bad.copy()

        def state():
            snap = model.snapshot()
            return (model.ids(), model.clock, [s.age for s in snap],
                    [s.weight for s in snap], model.retired_age,
                    model.diagnostics.as_dict(), model.distances().tolist())

        before = state()
        with pytest.raises(NotPositiveDefinite):
            model.merge_structures(*model.ids())
        assert state() == before
