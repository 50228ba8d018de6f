import math

import numpy as np
import pytest

from spclust.errors import DimensionMismatch, NotPositiveDefinite
from spclust.typicality import (
    NLT_CEILING,
    Structure,
    _nlt_of_dsq,
    _typicality_of_dsq,
    decision_distance,
    nlt,
    structure_distance,
    typicality,
    typicality_spherical,
)


def make_structure(mu, sigma):
    mu = np.asarray(mu, dtype=float)
    return Structure(mu=mu, sigma=np.asarray(sigma, dtype=float), weight=1.0, age=1)


class TestSpherical:
    def test_center(self):
        assert typicality_spherical(0.0, 2.0, 1.5) == 1.0

    def test_half_at_scale(self):
        # eta is the squared distance where typicality crosses one half
        for m in (1.1, 1.5, 2.0):
            assert typicality_spherical(3.0, 3.0, m) == pytest.approx(0.5)

    def test_hand_value(self):
        assert typicality_spherical(4.0, 1.0, 2.0) == pytest.approx(0.2)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            typicality_spherical(1.0, 0.0, 1.5)
        with pytest.raises(ValueError):
            typicality_spherical(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            typicality_spherical(-1.0, 1.0, 1.5)
        # a NaN would otherwise reach the transforms, which read it as
        # infinitely far
        with pytest.raises(ValueError):
            typicality_spherical(math.nan, 1.0, 1.5)
        with pytest.raises(ValueError):
            typicality_spherical(1.0, math.nan, 1.5)
        with pytest.raises(ValueError):
            typicality_spherical(1.0, 1.0, math.inf)


class TestFuzzifier:
    # an infinite m would give every finite nonzero d^2 typicality 1/2,
    # and d^2 = 0 the NaN of -inf / inf
    @pytest.mark.parametrize("fn", [typicality, nlt])
    @pytest.mark.parametrize("m", [1.0, math.inf, math.nan])
    def test_rejects_m_outside_one_to_inf(self, fn, m):
        with pytest.raises(ValueError):
            fn(np.zeros(2), np.zeros(2), np.eye(2), m)


class TestTypicality:
    def test_center_is_one(self):
        sigma = np.array([[4.0, 1.0], [1.0, 2.0]])
        assert typicality(np.array([3.0, 1.0]), np.array([3.0, 1.0]), sigma, 1.5) == 1.0

    def test_unit_distance(self):
        u = typicality(np.array([1.0, 0.0]), np.zeros(2), np.eye(2), 2.0)
        assert u == pytest.approx(0.5)

    def test_hand_value_m15(self):
        u = typicality(np.array([2.0, 0.0]), np.zeros(2), np.eye(2), 1.5)
        assert u == pytest.approx(1.0 / 17.0)

    def test_spherical_reduction(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            dim = rng.integers(1, 6)
            x = rng.standard_normal(dim)
            mu = rng.standard_normal(dim)
            eta = float(rng.uniform(0.2, 5.0))
            m = float(rng.uniform(1.05, 3.0))
            full = typicality(x, mu, eta * np.eye(dim), m)
            flat = typicality_spherical(float(((x - mu) ** 2).sum()), eta, m)
            assert abs(full - flat) < 1e-12

    def test_monotone_along_rays(self):
        rng = np.random.default_rng(29)
        mu = rng.standard_normal(3)
        sigma = np.diag([1.0, 2.0, 0.5])
        for _ in range(25):
            ray = rng.standard_normal(3)
            ray /= np.linalg.norm(ray)
            values = [typicality(mu + r * ray, mu, sigma, 1.5) for r in (0.5, 1.0, 2.0)]
            assert values[0] > values[1] > values[2]

    def test_fuzzifier_ordering_beyond_unit_distance(self):
        # past d^2 = 1, smaller m means a sharper falloff
        x = np.array([2.0, 0.0])
        us = [typicality(x, np.zeros(2), np.eye(2), m) for m in (1.1, 1.5, 2.0)]
        assert us[0] < us[1] < us[2]

    def test_overflow_guard(self):
        u = typicality(np.full(2, 1e150), np.zeros(2), np.eye(2), 1.001)
        assert u == 0.0

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            typicality(np.ones(2), np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1.5)

    def test_spread_of_the_wrong_size(self):
        # the point and the mean agree, the spread does not
        with pytest.raises(DimensionMismatch) as err:
            typicality(np.ones(2), np.zeros(2), np.eye(3), 1.5)
        assert str(err.value) == "incompatible shapes (3, 3) and (2,)"


class TestNlt:
    def test_center_is_zero(self):
        assert nlt(np.zeros(2), np.zeros(2), np.eye(2), 1.5) == 0.0

    def test_matches_minus_log(self):
        x = np.array([1.0, 0.0])
        u = typicality(x, np.zeros(2), np.eye(2), 2.0)
        assert nlt(x, np.zeros(2), np.eye(2), 2.0) == pytest.approx(-math.log(u))
        assert nlt(x, np.zeros(2), np.eye(2), 2.0) == pytest.approx(math.log(2.0))

    def test_threshold_three_means_typicality_near_05(self):
        # a log-typicality threshold of 3 admits typicalities down to e^-3
        assert math.exp(-3.0) == pytest.approx(0.0498, abs=5e-4)
        d_sq = (math.exp(3.0) - 1.0) ** (2.0 - 1.0)  # m = 2 inverts trivially
        x = np.array([math.sqrt(d_sq), 0.0])
        assert nlt(x, np.zeros(2), np.eye(2), 2.0) == pytest.approx(3.0, rel=1e-12)
        assert typicality(x, np.zeros(2), np.eye(2), 2.0) == pytest.approx(math.exp(-3.0))

    def test_ceiling_on_overflow(self):
        val = nlt(np.full(2, 1e150), np.zeros(2), np.eye(2), 1.001)
        assert val == NLT_CEILING
        # the ceiling dominates every non-overflowed value
        near_edge = nlt(np.full(2, 1e70), np.zeros(2), np.eye(2), 1.5)
        assert near_edge < val


class TestStructureDistance:
    def test_zero_for_identical_means(self):
        s1 = make_structure([1.0, 2.0], np.eye(2))
        s2 = make_structure([1.0, 2.0], np.diag([3.0, 0.5]))
        assert structure_distance(s1, s2, 1.5) == 0.0

    def test_zero_for_same_structure(self):
        s = make_structure([0.0, -1.0], np.diag([2.0, 1.0]))
        assert structure_distance(s, s, 2.0) == 0.0

    def test_hand_value(self):
        s1 = make_structure([0.0, 0.0], np.eye(2))
        s2 = make_structure([2.0, 0.0], np.eye(2))
        assert structure_distance(s1, s2, 2.0) == pytest.approx(0.96)

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            s1 = make_structure(rng.standard_normal(3), np.diag(rng.uniform(0.5, 3.0, 3)))
            s2 = make_structure(rng.standard_normal(3), np.diag(rng.uniform(0.5, 3.0, 3)))
            assert structure_distance(s1, s2, 1.5) == structure_distance(s2, s1, 1.5)

    def test_range(self):
        rng = np.random.default_rng(37)
        for _ in range(50):
            s1 = make_structure(rng.standard_normal(2), np.eye(2))
            s2 = make_structure(rng.standard_normal(2), np.eye(2))
            d = structure_distance(s1, s2, 1.5)
            assert 0.0 <= d < 1.0


class TestDecisionDistance:
    def test_zero_at_mean(self):
        s = make_structure([1.0, 1.0], np.diag([2.0, 3.0]))
        assert decision_distance(s, np.array([1.0, 1.0]), 1.5) == 0.0

    def test_one_minus_u_squared(self):
        s = make_structure([0.0, 0.0], np.eye(2))
        assert decision_distance(s, np.array([1.0, 0.0]), 2.0) == pytest.approx(0.75)

    def test_strictly_increasing_in_distance(self):
        s = make_structure([0.0, 0.0], np.eye(2))
        d = [decision_distance(s, np.array([r, 0.0]), 1.5) for r in (0.5, 1.0, 2.0, 4.0)]
        assert d == sorted(d)

    def test_own_mean_is_nearest(self):
        rng = np.random.default_rng(41)
        structures = [make_structure(rng.normal(scale=5.0, size=2), np.eye(2))
                      for _ in range(6)]
        for i, s in enumerate(structures):
            dists = [decision_distance(t, s.mu, 1.5) for t in structures]
            assert dists[i] == 0.0
            assert all(dists[j] > 0.0 for j in range(len(structures)) if j != i)


class TestOneTransform:
    """The engine, the offline step and structure_distance evaluate the
    transform on rows, matrices and single values; their bitwise agreement
    rests on every form of input giving the same bits."""

    def test_same_bits_alone_strided_and_in_a_batch(self):
        rng = np.random.default_rng(47)
        d_sq = np.concatenate([[0.0, 1.0], 10.0 ** rng.uniform(-12.0, 12.0, 2998),
                               [1e300, np.inf]])
        for m in (1.05, 1.4, 1.5, 2.0, 3.0):
            for transform in (_typicality_of_dsq, _nlt_of_dsq):
                batch = transform(d_sq, m)
                assert np.array_equal(transform(d_sq[::3], m), batch[::3])
                square = d_sq[:3000].reshape(60, 50)
                assert np.array_equal(transform(square.T, m), batch[:3000].reshape(60, 50).T)
                for k in range(0, d_sq.size, 17):
                    value = batch[k]
                    assert transform(float(d_sq[k]), m) == value
                    assert transform(np.array(d_sq[k]), m) == value
                    assert transform(d_sq[k:k + 1], m)[0] == value

    def test_zero_and_overflow_map_to_the_ends(self):
        # NaN is what an offset that overflows gives (inf - inf, 0 * inf)
        d_sq = np.array([0.0, 1e300, np.inf, np.nan])
        assert _typicality_of_dsq(d_sq, 1.001).tolist() == [1.0, 0.0, 0.0, 0.0]
        assert _nlt_of_dsq(d_sq, 1.001).tolist() == [0.0] + [NLT_CEILING] * 3

    @pytest.mark.parametrize("m", [1.01, 1.1, 1.5, 2.0, 3.0, 10.0])
    def test_decision_distance_never_falls_as_d_sq_grows(self, m):
        # assignment transforms a row only where its squared distance can
        # still beat the running winner's; that is exact because 1 - u^2
        # never decreases along sorted squared distances
        rng = np.random.default_rng(53)
        d_sq = np.exp(rng.uniform(math.log(1e-320), math.log(1.79e308), 20000))
        d_sq = np.sort(np.concatenate([d_sq, np.nextafter(d_sq, np.inf),
                                       [0.0, 5e-324, 1e-310, 2.2250738585072014e-308, np.inf]]))
        u = _typicality_of_dsq(d_sq, m)
        assert np.all(np.diff(1.0 - u * u) >= 0.0)
        u = _typicality_of_dsq(np.array([np.inf, np.nan]), m)
        assert (1.0 - u * u).tolist() == [1.0, 1.0]
