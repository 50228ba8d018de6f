import inspect
import math
from dataclasses import fields

import numpy as np
import pytest

from spclust.datasets import (
    ORDER_MODES,
    SINE_CLASSES,
    TRIANGLE_VERTICES,
    LabeledPoint,
    StreamSpec,
    build_stream,
    gen_gaussian_highdim,
    gen_overlapping_triangle,
    gen_sine_waves,
    gen_two_circles,
    load_csv,
    reorder,
)
from spclust.errors import MissingColumn, ParseError
from spclust.typicality import typicality

from oracles import batch_footprint


def test_stream_settings():
    # a point's arrival index is its list position, and each generator takes
    # only the settings its callers pass
    assert [f.name for f in fields(LabeledPoint)] == ["x", "label"]
    settings = {gen: list(inspect.signature(gen).parameters) for gen in (
        gen_sine_waves, gen_overlapping_triangle, gen_two_circles)}
    assert settings == {gen_sine_waves: ["n_per_class", "noise_std", "seed"],
                        gen_overlapping_triangle: ["n_per_class", "seed", "long_std"],
                        gen_two_circles: ["n_per_class", "seed"]}


class TestLoadCsv:
    def write(self, tmp_path, text, name="data.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_plain_rows_in_order(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,a\n3.0,4.0,b\n5.0,6.0,a\n")
        pts = load_csv(path)
        assert len(pts) == 3
        assert [p.x.tolist() for p in pts] == [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]
        assert [p.label for p in pts] == [0, 1, 0]

    def test_header_and_named_columns(self, tmp_path):
        path = self.write(tmp_path, "x,y,cls\n1,2,7\n3,4,8\n")
        pts = load_csv(path, feature_columns=["x", "y"], label_column="cls")
        assert np.array_equal(pts[1].x, [3.0, 4.0])
        assert [p.label for p in pts] == [0, 1]

    def test_shuffle_is_deterministic(self, tmp_path):
        path = self.write(tmp_path, "".join(f"{i},0,c\n" for i in range(20)))
        a = load_csv(path, order="shuffled", seed=7)
        b = load_csv(path, order="shuffled", seed=7)
        assert [p.x[0] for p in a] == [p.x[0] for p in b]
        c = load_csv(path, order="shuffled", seed=8)
        assert [p.x[0] for p in a] != [p.x[0] for p in c]

    def test_tab_delimiter(self, tmp_path):
        path = self.write(tmp_path, "1\t2\t0\n3\t4\t1\n")
        pts = load_csv(path, delimiter="\t")
        assert np.array_equal(pts[0].x, [1.0, 2.0])

    def test_parse_error_locates_cell(self, tmp_path):
        path = self.write(tmp_path, "1.0,2.0,a\n3.0,oops,b\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert err.value.row == 1
        assert err.value.column == 1

    def test_missing_named_column(self, tmp_path):
        path = self.write(tmp_path, "x,y,cls\n1,2,7\n")
        with pytest.raises(MissingColumn):
            load_csv(path, feature_columns=["x", "z"], label_column="cls")

    def test_missing_index_column(self, tmp_path):
        path = self.write(tmp_path, "1,2\n")
        with pytest.raises(MissingColumn):
            load_csv(path, feature_columns=[0, 5], label_column=1)

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError):
            load_csv(self.write(tmp_path, ""))


class TestGuardRaises:
    """Each input guard of the stream sources, by its exact message."""

    def write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_stream_spec_rejects_unknown_order(self):
        with pytest.raises(ValueError) as err:
            StreamSpec(source="two-circles", order="backwards")
        assert str(err.value) == f"unknown order 'backwards', expected one of {ORDER_MODES}"

    def test_header_only_file(self, tmp_path):
        path = self.write(tmp_path, "x,y,cls\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert str(err.value) == f"{path} contains only a header"

    def test_ragged_row(self, tmp_path):
        path = self.write(tmp_path, "1,2,a\n3,4,5,b\n")
        with pytest.raises(ParseError) as err:
            load_csv(path)
        assert str(err.value) == f"{path}: ragged row of width 4, expected 3 (row 1)"
        assert err.value.row == 1

    def test_column_name_without_header(self, tmp_path):
        path = self.write(tmp_path, "1,2,0\n3,4,1\n")
        with pytest.raises(MissingColumn) as err:
            load_csv(path, label_column="cls")
        assert str(err.value) == "column 'cls' addressed by name but file has no header"

    @pytest.mark.parametrize("generate, kwargs, message", [
        (gen_sine_waves, {"n_per_class": 0}, "n_per_class must be >= 1"),
        (gen_two_circles, {"n_per_class": 0}, "n_per_class must be >= 1"),
        (gen_two_circles, {"n_per_class": -1}, "n_per_class must be >= 1"),
        (gen_overlapping_triangle, {"n_per_class": 0}, "n_per_class must be >= 1"),
        (gen_overlapping_triangle, {"n_per_class": -1}, "n_per_class must be >= 1"),
    ])
    def test_generator_arguments(self, generate, kwargs, message):
        with pytest.raises(ValueError) as err:
            generate(**kwargs)
        assert str(err.value) == message


class TestReorder:
    def make(self):
        vectors = [[float(i)] for i in range(6)]
        labels = [0, 0, 1, 1, 2, 2]
        from spclust.datasets import _stamp

        return _stamp(vectors, labels)

    def test_round_robin(self):
        pts = self.make()
        out = reorder(pts, "round-robin-by-class")
        assert [p.label for p in out] == [0, 1, 2, 0, 1, 2]
        # the same point objects, listed in the new order
        assert all(p is pts[i] for p, i in zip(out, [0, 2, 4, 1, 3, 5], strict=True))

    def test_sequential(self):
        pts = reorder(self.make(), "shuffled", seed=3)
        out = reorder(pts, "sequential-by-class")
        assert [p.label for p in out] == [0, 0, 1, 1, 2, 2]

    def test_round_robin_unequal_classes(self):
        from spclust.datasets import _stamp

        pts = _stamp([[0.0]] * 5, [0, 0, 0, 1, 2])
        out = reorder(pts, "round-robin-by-class")
        assert [p.label for p in out] == [0, 1, 2, 0, 0]

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            reorder(self.make(), "sideways")


class TestSineWaves:
    def test_noiseless_points_lie_on_their_waves(self):
        pts = gen_sine_waves(n_per_class=50, noise_std=0.0, seed=1)
        assert len(pts) == 150
        for p in pts:
            amp, freq, phase, offset = SINE_CLASSES[p.label]
            assert p.x[1] == amp * math.sin(freq * p.x[0] + phase) + offset

    def test_round_robin_arrival(self):
        pts = gen_sine_waves(n_per_class=5, seed=2)
        assert [p.label for p in pts[:6]] == [0, 1, 2, 0, 1, 2]
        assert len(pts) == 15

    def test_x_marches_right(self):
        pts = gen_sine_waves(n_per_class=100, seed=3)
        xs = [p.x[0] for p in pts if p.label == 0]
        assert xs == sorted(xs)

    def test_deterministic(self):
        a = gen_sine_waves(n_per_class=20, seed=9)
        b = gen_sine_waves(n_per_class=20, seed=9)
        assert all(np.array_equal(p.x, q.x) for p, q in zip(a, b))

    def test_default_waves_never_meet(self):
        pts = gen_sine_waves(n_per_class=400, seed=4)
        by_class = {}
        for p in pts:
            by_class.setdefault(p.label, []).append(p.x[1])
        assert max(by_class[0]) < min(by_class[1])
        assert max(by_class[1]) < min(by_class[2])


class TestOverlappingTriangle:
    def test_degenerate_covariances_pin_vertices(self):
        pts = gen_overlapping_triangle(n_per_class=10, seed=5, long_std=1e-9)
        for p in pts:
            assert np.allclose(p.x, TRIANGLE_VERTICES[p.label], atol=1e-6)

    def test_sequential_classes_random_within(self):
        pts = gen_overlapping_triangle(n_per_class=30, seed=6)
        labels = [p.label for p in pts]
        assert labels == [0] * 30 + [1] * 30 + [2] * 30

    def test_counts_and_determinism(self):
        a = gen_overlapping_triangle(n_per_class=40, seed=7)
        b = gen_overlapping_triangle(n_per_class=40, seed=7)
        assert len(a) == 120
        assert all(np.array_equal(p.x, q.x) for p, q in zip(a, b))

    def test_elongated_along_opposite_edge(self):
        pts = gen_overlapping_triangle(n_per_class=500, seed=8)
        cls0 = np.array([p.x for p in pts if p.label == 0])
        spread = np.cov(cls0.T)
        evals, evecs = np.linalg.eigh(spread)
        major = evecs[:, -1]
        edge = np.array([5.0, 8.0]) - np.array([10.0, 0.0])
        edge /= np.linalg.norm(edge)
        assert abs(major @ edge) > 0.95
        assert evals[-1] / evals[0] > 20.0


class TestGaussianHighDim:
    def test_counts_default_shape(self):
        pts = gen_gaussian_highdim(n_clusters=4, dim=16, n_points=64, seed=9)
        assert len(pts) == 64
        counts = np.bincount([p.label for p in pts])
        assert counts.tolist() == [16, 16, 16, 16]
        assert pts[0].x.shape == (16,)

    def test_needs_a_cluster(self):
        with pytest.raises(ValueError, match="n_clusters must be >= 1"):
            gen_gaussian_highdim(n_clusters=0, dim=8, n_points=64)

    @pytest.mark.parametrize("dim", [0, -3])
    def test_needs_a_dimension(self, dim):
        with pytest.raises(ValueError, match="dim must be >= 1"):
            gen_gaussian_highdim(n_clusters=2, dim=dim, n_points=8)

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            gen_gaussian_highdim(n_clusters=3, dim=8, n_points=64)

    @pytest.mark.parametrize("separation", [-1.0, math.inf, math.nan])
    def test_separation_must_be_finite_and_nonnegative(self, separation):
        with pytest.raises(ValueError) as err:
            gen_gaussian_highdim(n_clusters=2, dim=2, n_points=8, separation=separation)
        assert str(err.value) == f"separation must be finite and >= 0, got {separation}"

    @pytest.mark.parametrize("cluster_std, separation", [(math.nan, 10.0), (math.inf, 0.0),
                                                         (-1.0, 10.0)])
    def test_cluster_std_is_checked_before_any_draw(self, cluster_std, separation):
        with pytest.raises(ValueError) as err:
            gen_gaussian_highdim(n_clusters=2, dim=2, n_points=20, cluster_std=cluster_std,
                                 separation=separation)
        assert str(err.value) == f"cluster_std must be finite and >= 0, got {cluster_std}"

    def test_center_draws_are_bounded(self):
        # 16 centers on a line, each pair at least the floor apart: never drawn
        with pytest.raises(ValueError, match="^10,000 draws of n_clusters=16 centers in dim=1 "):
            gen_gaussian_highdim(n_clusters=16, dim=1, n_points=16)

    def test_center_separation_over_seeds(self):
        for seed in range(20):
            pts = gen_gaussian_highdim(n_clusters=6, dim=32, n_points=96,
                                       separation=8.0, cluster_std=0.05, seed=seed)
            centers = {}
            for p in pts:
                centers.setdefault(p.label, []).append(p.x)
            mus = np.array([np.mean(v, axis=0) for _, v in sorted(centers.items())])
            floor = 8.0 * 0.05 * math.sqrt(32)
            for i in range(len(mus)):
                for j in range(i + 1, len(mus)):
                    # empirical means wobble by ~std/sqrt(n) around centers
                    assert np.linalg.norm(mus[i] - mus[j]) > 0.9 * floor

    def test_trivially_separable_small_case(self):
        pts = gen_gaussian_highdim(n_clusters=2, dim=2, n_points=20,
                                   separation=100.0, cluster_std=0.1, seed=10)
        xs = np.array([p.x for p in pts])
        labels = np.array([p.label for p in pts])
        gap = np.linalg.norm(xs[labels == 0].mean(0) - xs[labels == 1].mean(0))
        assert gap > 10.0


class TestTwoCircles:
    def test_samples_stay_inside_discs(self):
        pts = gen_two_circles(n_per_class=200, seed=12)
        for p in pts:
            center = np.array(((0.0, 0.0), (2.1, 0.0))[p.label])
            assert np.linalg.norm(p.x - center) <= 1.0 + 1e-9

    def test_deterministic(self):
        a = gen_two_circles(n_per_class=30, seed=13)
        b = gen_two_circles(n_per_class=30, seed=13)
        assert all(np.array_equal(p.x, q.x) for p, q in zip(a, b))

    def test_stream_spec_matches_direct_generator_call(self):
        spec = StreamSpec(source="two-circles", params=(("n_per_class", 25),),
                          order="shuffled", seed=7)
        via_spec = build_stream(spec)
        direct = reorder(gen_two_circles(n_per_class=25, seed=7), "shuffled", 7)
        assert len(via_spec) == len(direct) == 50
        assert all(np.array_equal(a.x, b.x) and a.label == b.label
                   for a, b in zip(via_spec, direct))

    def test_stream_spec_rejects_unknown_source(self):
        with pytest.raises(ValueError):
            StreamSpec(source="telepathy")

    def test_stream_spec_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("1,2,a\n3,4,b\n")
        spec = StreamSpec(source="csv", params=(("path", str(path)),))
        pts = build_stream(spec)
        assert len(pts) == 2
        assert np.array_equal(pts[0].x, [1.0, 2.0])

    @pytest.mark.parametrize("order", ORDER_MODES)
    def test_stream_spec_csv_orders_as_load_csv(self, tmp_path, order):
        # build_stream reorders a csv stream as it does a generator's
        path = tmp_path / "d.csv"
        path.write_text("x,cls\n" + "".join(f"{i}.5,{c}\n" for i, c in enumerate("abbaabbbaabb")))
        spec = StreamSpec(source="csv", params=(("path", str(path)),), order=order, seed=3)
        # by position: a point's arrival index is its place in the list
        via_spec = [(p.x.tolist(), p.label) for p in build_stream(spec)]
        direct = [(p.x.tolist(), p.label) for p in load_csv(path, order=order, seed=3)]
        as_is = [(p.x.tolist(), p.label) for p in load_csv(path)]
        assert via_spec == direct
        assert (via_spec == as_is) == (order == "as-is")

    def test_fuzzifier_contrast_between_discs(self):
        # a structure fitted to the left disc: with a small fuzzifier the
        # right disc stays atypical, while the smooth m=2 falloff leaks
        pts = gen_two_circles(n_per_class=300, seed=14)
        left = np.array([p.x for p in pts if p.label == 0])
        right = np.array([p.x for p in pts if p.label == 1])
        s = batch_footprint(left, m=1.5)
        sharp = max(typicality(x, s.mu, s.sigma, 1.1) for x in right)
        smooth = max(typicality(x, s.mu, s.sigma, 2.0) for x in right)
        assert sharp < 0.5
        assert sharp < smooth
