import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spclust.fusion as fusion
from spclust import linalg
from spclust.engine import SpcModel, SpcParams
from spclust.errors import DimensionMismatch, NotPositiveDefinite
from spclust.fusion import (
    LowRankSpread,
    covariance_union,
    fuse,
    pad_covariance,
    union_absorbing_unit,
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

    @pytest.mark.parametrize("sigma, mu, candidate", [
        (np.eye(2), np.zeros(2), np.zeros(3)),
        (np.eye(3), np.zeros(2), np.zeros(2)),
    ])
    def test_mismatched_shapes(self, sigma, mu, candidate):
        with pytest.raises(DimensionMismatch) as err:
            pad_covariance(sigma, mu, candidate)
        assert str(err.value) == (f"incompatible shapes {sigma.shape}, {mu.shape}, "
                                  f"{candidate.shape}")


class TestCovarianceUnion:
    def test_mismatched_shapes(self):
        with pytest.raises(DimensionMismatch) as err:
            covariance_union(np.eye(2), np.eye(3))
        assert str(err.value) == "incompatible shapes (2, 2) and (3, 3)"

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

    def test_slightly_indefinite_old_input_is_not_handed_back(self):
        # u2 is indefinite by less than linalg.cholesky's jitter and
        # dominates u1; the shortcut must not return u2 itself. The union is
        # taken against the jittered factor instead, which gives a
        # covariance dominating both inputs
        u1, u2 = np.diag([0.5, -2e-12]), np.diag([1.0, -1e-12])
        fused = covariance_union(u1, u2)
        assert linalg.is_pd(fused)
        assert linalg.is_pd(fused - u1)
        assert linalg.is_pd(fused - u2)

    def test_indefinite_dominant_input_is_refused(self):
        # bad + I dominates bad, but neither is a covariance: the shortcut
        # must not hand either back
        bad = np.array([[1.0, 30.0], [30.0, 1.0]])
        for a, b in ((bad, bad + np.eye(2)), (bad + np.eye(2), bad)):
            with pytest.raises(NotPositiveDefinite):
                covariance_union(a, b)


def two_step_union(u1, u2):
    """covariance_union factoring u2 in two steps: a plain dpotrf, the
    dominance shortcuts when it succeeds, and linalg.cholesky (which tries
    the plain factor again before the jittered one) when it fails."""
    chol = linalg._potrf(u2)
    if chol is None:
        chol = linalg.cholesky(u2)[1]
    else:
        if linalg.is_pd(u2 - u1):
            return u2.copy()
        if linalg.is_pd(u1 - u2):
            return u1.copy()
    half = linalg.solve_triangular(chol, u1)
    whitened = linalg.solve_triangular(chol, half.T)
    whitened = 0.5 * (whitened + whitened.T)
    q, lam = linalg.sym_eigen(whitened)
    transform = chol @ q
    fused = (transform * np.maximum(lam, 1.0)) @ transform.T
    return 0.5 * (fused + fused.T)


class TestJitteredUnion:
    """covariance_union factors u2 once: the jittered factor when u2 alone
    does not factor, with the bits of the two-step factorization."""

    @pytest.mark.parametrize("dim", [3, 4])
    def test_matches_the_two_step_factorization(self, dim, monkeypatch):
        # the padded pairs of hostile d = 3 and 4 streams, some near-singular
        pairs = []
        union = fusion.covariance_union

        def recording_union(u1, u2):
            pairs.append((np.array(u1), np.array(u2)))
            return union(u1, u2)

        monkeypatch.setattr(fusion, "covariance_union", recording_union)
        rng = np.random.default_rng(dim)
        for scale in (1e8, 1e12, 1e16):
            duplicates = scale * rng.standard_normal((6, dim))[rng.integers(0, 6, 40)]
            collinear = scale * rng.standard_normal(40)[:, None] * rng.standard_normal(dim)
            for xs in (duplicates, collinear):
                model = SpcModel(SpcParams(max_structures=5, gamma=0.1, beta=0.1))
                for x in xs:
                    model.update(x)

        potrf, calls = linalg._potrf, []

        def counting_potrf(a):
            calls.append(a)
            return potrf(a)

        monkeypatch.setattr(linalg, "_potrf", counting_potrf)
        jittered = 0
        for u1, u2 in pairs:
            calls.clear()
            want = two_step_union(u1, u2)
            two_step = len(calls)
            calls.clear()
            got = covariance_union(u1, u2)
            assert got.tobytes() == want.tobytes()
            if potrf(u2) is None:
                jittered += 1
                assert (len(calls), two_step) == (2, 3)
            else:
                assert len(calls) == two_step
        assert 0 < jittered < len(pairs)


def dense_fuse(mu_old, sigma_old, mu_new, sigma_new, mu):
    """The oracle of fuse: covariance_union of the same padded pair."""
    return covariance_union(pad_covariance(sigma_new, mu_new, mu),
                            pad_covariance(sigma_old, mu_old, mu))


def rotated(rng, eigenvalues):
    """A 2 x 2 spread with the given eigenvalues along a random rotation,
    bitwise symmetric as the engine's spreads are."""
    q = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    a = (q * np.asarray(eigenvalues, dtype=float)) @ q.T
    return 0.5 * (a + a.T)


class TestUnion2x2:
    """fuse at d = 2 takes the union in closed form, without LAPACK; the
    dense covariance_union of the same padded pair is its oracle."""

    @staticmethod
    def assert_matches_oracle(args):
        got, want = fuse(*args), dense_fuse(*args)
        assert np.allclose(got, want, rtol=1e-7, atol=1e-9)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()
        assert np.array_equal(got, got.T)
        mu_old, sigma_old, mu_new, sigma_new, mu = args
        tol = 1e-13 * np.abs(got).max()
        assert is_psd(got - pad_covariance(sigma_old, mu_old, mu), tol)
        assert is_psd(got - pad_covariance(sigma_new, mu_new, mu), tol)

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), log_scale=st.floats(-8.0, 8.0),
           log_ratio=st.floats(-2.0, 2.0), t=st.floats(0.0, 1.0))
    def test_random_pairs_match_dense_union(self, seed, log_scale, log_ratio, t):
        rng = np.random.default_rng(seed)
        scale = 10.0 ** log_scale
        sigma_old = rotated(rng, scale * 10.0 ** rng.uniform(0.0, 3.0, 2))
        sigma_new = rotated(rng, scale * 10.0 ** (log_ratio + rng.uniform(0.0, 3.0, 2)))
        mu_old = np.sqrt(scale) * rng.standard_normal(2)
        mu_new = mu_old + np.sqrt(scale) * rng.standard_normal(2)
        self.assert_matches_oracle((mu_old, sigma_old, mu_new, sigma_new,
                                    mu_old + t * (mu_new - mu_old)))

    def test_near_equal_zero_offset_and_ill_conditioned(self):
        rng = np.random.default_rng(41)
        z = np.zeros(2)
        for _ in range(200):
            sigma = rotated(rng, 10.0 ** rng.uniform(-8.0, 8.0, 2))
            nudge = rotated(rng, rng.uniform(-1.0, 1.0, 2)) * 1e-12 * np.abs(sigma).max()
            # near-equal inputs, and zero offsets
            self.assert_matches_oracle((z, sigma, z, sigma + nudge, z))
            # an ill-conditioned older spread (condition 1e8) against a unit singleton
            ill = rotated(rng, [1.0, 1e-8])
            x = rng.standard_normal(2)
            self.assert_matches_oracle((z, ill, x, fusion.unit(2).sigma, 0.75 * x))
            # a unit singleton absorbed by a structure that dominates the identity
            old = rotated(rng, 1.0 + 10.0 ** rng.uniform(-3.0, 3.0, 2))
            self.assert_matches_oracle((z, old, x, fusion.unit(2).sigma, rng.uniform() * x))

    def test_dominance_shortcuts_return_an_input_bit_for_bit(self):
        rng = np.random.default_rng(43)
        z = np.zeros(2)
        for _ in range(100):
            small = rotated(rng, 10.0 ** rng.uniform(-2.0, 2.0, 2))
            big = small + rotated(rng, 10.0 ** rng.uniform(-2.0, 2.0, 2))
            x = 1e-3 * rng.standard_normal(2)
            for old, new in ((big, small), (small, big)):
                args = (z, old, x, new, 0.5 * x)
                want = pad_covariance(big, z if old is big else x, 0.5 * x)
                assert np.array_equal(dense_fuse(*args), want)
                assert np.array_equal(fuse(*args), want)

    def test_factor_and_its_failures_are_lapacks(self):
        # the dominance shortcuts decide as covariance_union's dpotrf does
        rng = np.random.default_rng(47)
        for _ in range(2000):
            a = rotated(rng, 10.0 ** rng.uniform(-8.0, 8.0) * rng.uniform(-0.05, 1.0, 2))
            mine = fusion._chol_2x2(a[0, 0], a[1, 0], a[1, 1])
            assert (mine is not None) == linalg.is_pd(a)
            if mine is not None:
                chol = linalg.cholesky(a)[1]
                assert mine == (chol[0, 0], chol[1, 0], chol[1, 1])

    def test_no_lapack_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("LAPACK called at d = 2")

        args = (np.zeros(2), np.diag([3.0, 1.5]), np.array([1.0, 2.0]), np.eye(2),
                np.array([0.25, 0.5]))
        mu_old, sigma_old, mu_new, sigma_new, mu = args
        want = dense_fuse(*args)
        # neither padded spread dominates the other: the union is a new spread
        assert not np.array_equal(want, pad_covariance(sigma_old, mu_old, mu))
        assert not np.array_equal(want, pad_covariance(sigma_new, mu_new, mu))
        for name in ("cholesky", "is_pd", "solve_triangular", "sym_eigen"):
            monkeypatch.setattr(linalg, name, refuse)
        assert np.allclose(fuse(*args), want, rtol=1e-12)

    def test_non_finite_input_takes_the_dense_path(self):
        # covariance_union refuses infs and NaNs; so must the closed form,
        # whether an input is not finite or the whitened eigenvalue overflows
        z, zero = np.zeros(2), [0.0, 0.0]
        for u2, u1 in [(np.array([[np.inf, 0.0], [0.0, 1.0]]), np.eye(2)),
                       (np.diag([1e-300, 1.0]), np.diag([1e300, 1e-300]))]:
            assert fusion._union_2x2(zero, u2.tolist(), zero, u1.tolist(), zero) is None
            with pytest.raises(ValueError) as want:
                covariance_union(u1, u2)
            with pytest.raises(ValueError) as got:
                fuse(z, u2, z, u1, z)
            assert str(got.value) == str(want.value)


def low_rank_of(u2):
    """u2 (dominating the identity) as a full-rank LowRankSpread."""
    lam, basis = np.linalg.eigh(u2)
    return LowRankSpread(basis, lam)


def low_rank_unit(dim):
    """The unit singleton's spread as a LowRankSpread at any dim."""
    return LowRankSpread(np.empty((dim, 0)), np.empty(0))


class TestLowRankSpread:
    @pytest.mark.parametrize("dim", [32, 33, 64, 512])
    def test_unit_singleton_dense_is_a_new_identity(self, dim):
        spread = fusion.unit(dim)
        assert spread.lam.size == 0
        dense = spread.dense()
        # the bytes the general path gives at k = 0, signs of zero included
        assert dense.tobytes() == fusion._identity_plus(spread.basis, spread.lam - 1.0).tobytes()
        assert dense.flags.writeable and dense is not spread.dense()


def sign_symmetry_spreads(rng, dim, scale):
    """The unit singleton and stored spreads of the form for dim, at scale."""
    spreads = [fusion.unit(dim)]
    if dim < fusion.LOW_RANK_MIN_DIM:
        sigma = random_spd(rng, dim, scale * scale)
        chol = linalg.cholesky(sigma)[1]
        # the factor as LAPACK returns it, and a C-ordered copy
        return spreads + [fusion.DenseSpread(sigma, c) for c in (chol, np.ascontiguousarray(chol))]
    for k in (1, 7, min(dim, 50)):
        basis = np.linalg.qr(rng.standard_normal((dim, k)))[0]
        spreads.append(LowRankSpread(basis, 1.0 + scale * scale * rng.uniform(0.1, 1e3, k)))
    return spreads


class TestNormSqSignSymmetry:
    """The engine reads both directions of a distance row from +delta from
    d = 4 on: every kernel there must give -delta's bits."""

    @pytest.mark.parametrize("dim", [4, 8, 31, 32, 33, 64, 512])
    @pytest.mark.parametrize("scale", [1e-8, 1.0, 1e8])
    def test_negated_deltas_give_the_same_bits(self, dim, scale):
        rng = np.random.default_rng(dim)
        signs = rng.choice([-1.0, 1.0], (4, dim))
        deltas = np.vstack([scale * rng.standard_normal((40, dim)),
                            1e200 * signs, 1.5e308 * signs, np.inf * signs])
        for spread in sign_symmetry_spreads(rng, dim, scale):
            with np.errstate(over="ignore", invalid="ignore"):
                plus = fusion.norm_sq(spread, deltas)
                minus = fusion.norm_sq(spread, -deltas)
            nan = np.isnan(plus)
            assert np.array_equal(nan, np.isnan(minus))
            assert np.isinf(plus[40:]).any()
            assert np.array_equal(plus[~nan].view(np.int64), minus[~nan].view(np.int64))


class TestUnionAbsorbingUnit:
    def test_matches_dense_union(self):
        rng = np.random.default_rng(15)
        for dim in (2, 3, 8, 40):
            for _ in range(20):
                base = random_spd(rng, dim)
                u2 = base + np.eye(dim)  # dominates the identity, as required
                offset = rng.standard_normal(dim) * rng.uniform(0.0, 3.0)
                u1 = np.eye(dim) + np.outer(offset, offset)
                # u2 is the old structure at the fused mean 0, u1 the unit
                # singleton at -offset padded to it
                z = np.zeros(dim)
                spread = union_absorbing_unit(low_rank_of(u2), low_rank_unit(dim),
                                              z, -offset, z)
                assert spread is not None
                fast = spread.dense()
                dense = covariance_union(u1, u2)
                assert np.allclose(fast, dense, rtol=1e-7, atol=1e-9)
                assert is_psd(fast - u1, 1e-8)
                assert is_psd(fast - u2, 1e-8)

    def test_zero_offset_returns_u2(self):
        rng = np.random.default_rng(17)
        u2 = random_spd(rng, 4) + np.eye(4)
        z = np.zeros(4)
        out = union_absorbing_unit(low_rank_of(u2), low_rank_unit(4), z, z, z)
        assert out is not None
        assert np.allclose(out.dense(), u2)


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
        sigma = fuse(z, 0.01 * np.eye(dim), z, np.eye(dim), z)
        assert np.allclose(sigma, np.eye(dim))
        assert is_psd(sigma - np.eye(dim), 1e-12)

    def test_unit_singleton_takes_rank_one_union(self, monkeypatch):
        # from LOW_RANK_MIN_DIM on, every merge, of a unit singleton or
        # not, goes through union_absorbing_unit; below it none does. The
        # low-rank merge agrees with the dense union.
        calls = []
        original = fusion.union_absorbing_unit

        def counted(*args):
            calls.append(1)
            return original(*args)

        monkeypatch.setattr(fusion, "union_absorbing_unit", counted)
        rng = np.random.default_rng(19)
        dim = fusion.LOW_RANK_MIN_DIM
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
        assert calls == [1, 1, 1, 1]
        assert model.diagnostics.merges == len(calls)

        below = SpcModel(SpcParams(max_structures=10))
        for x in rng.standard_normal((4, dim - 1)):
            below.update(x)
        below.merge_structures(0, 1)
        below.merge_structures(2, 3)
        below.merge_structures(4, 5)
        assert calls == [1, 1, 1, 1]

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
        # the stored spread of the older structure
        model._sigmas[0] = fusion.DenseSpread(good, linalg.cholesky(good)[1])
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
        # no factor exists; a merge reads only the spreads
        model._sigmas[0] = fusion.DenseSpread(bad, None)
        model._sigmas[1] = fusion.DenseSpread(bad.copy(), None)

        def state():
            snap = model.snapshot()
            return (model.ids(), model.clock, [s.age for s in snap],
                    [s.weight for s in snap], model.retired_age,
                    model.diagnostics.as_dict(), model.distances().tolist())

        before = state()
        with pytest.raises(NotPositiveDefinite):
            model.merge_structures(*model.ids())
        assert state() == before
