import json
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spclust import cli
from spclust.clustering import assign_with_distances
from spclust.cli import main
from spclust.datasets import SOURCES
from spclust.engine import SpcParams


def run_cli(*args):
    return main([str(a) for a in args])


# grid settings refused before any output, each with its own message
_GRID_ERRORS = {
    ("--grid-resolution", "0"): "grid_resolution must be >= 1, got 0",
    ("--grid-resolution", "-3"): "grid_resolution must be >= 1, got -3",
    ("--grid-bounds=nan,1,0,1",): "grid_bounds must be finite, got 'nan,1,0,1'",
    ("--grid-bounds=0,1,-inf,1",): "grid_bounds must be finite, got '0,1,-inf,1'",
    ("--grid-bounds=1,0,0,1",): "grid_bounds need x0 <= x1 and y0 <= y1, got '1,0,0,1'",
    ("--grid-bounds=0,1,1,0",): "grid_bounds need x0 <= x1 and y0 <= y1, got '0,1,1,0'",
}


class TestRun:
    def test_writes_metrics_and_snapshot(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("run", "--source", "two-circles", "--n", "8", "--seed", "1",
                     "--n-per-class", "60", "--output-dir", out)
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert set(metrics) >= {"purity", "nmi", "n_points", "n_structures",
                                "n_clusters", "diagnostics"}
        assert metrics["n_points"] == 120
        assert metrics["n_structures"] <= 8
        snapshot = (out / "snapshot.csv").read_text().splitlines()
        assert snapshot[0].startswith("id,age,weight,mu_0,mu_1,cov_0_0")
        assert len(snapshot) == metrics["n_structures"] + 1

    def test_assignments_output(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("run", "--source", "two-circles", "--n", "6", "--seed", "2",
                     "--n-per-class", "40", "--outputs", "metrics,assignments",
                     "--output-dir", out)
        assert rc == 0
        lines = (out / "assignments.csv").read_text().splitlines()
        assert lines[0] == "t,label,cluster"
        assert len(lines) == 81

    def test_empty_stream_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        rc = run_cli("run", "--source", "csv", "--csv-path", empty,
                     "--output-dir", tmp_path / "out")
        assert rc != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [
        ("--source", "two-circles", "--beta", "nan"),
        ("--source", "two-circles", "--nlt-max", "nan"),
        ("--source", "gaussian-highdim", "--n-clusters", "0"),
        ("--source", "two-circles", "--m", "inf"),
        ("--source", "two-circles", "--outputs", "metrics,snapshto"),
        ("--source", "two-circles", "--grid-bounds", "1,2,3"),
        *(("--source", "two-circles", *grid) for grid in _GRID_ERRORS),
    ])
    def test_invalid_value_exits_2(self, tmp_path, capsys, flags):
        rc = run_cli("run", *flags, "--output-dir", tmp_path / "out")
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert not (tmp_path / "out").exists()
        if "--outputs" in flags:
            assert err.startswith("error: unknown output 'snapshto'")
        if "--grid-bounds" in flags:
            assert "x0,x1,y0,y1" in err
        if flags[2:] in _GRID_ERRORS:
            assert err == f"error: {_GRID_ERRORS[flags[2:]]}\n"

    def test_csv_source_round_trip(self, tmp_path):
        data = tmp_path / "data.csv"
        rows = ["0.0,0.0,a", "0.2,0.1,a", "0.1,0.3,a",
                "9.0,9.0,b", "9.2,9.1,b", "9.1,9.3,b"] * 10
        data.write_text("\n".join(rows) + "\n")
        out = tmp_path / "out"
        rc = run_cli("run", "--source", "csv", "--csv-path", data, "--n", "4",
                     "--order", "shuffled", "--seed", "5", "--output-dir", out)
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["purity"] == 1.0

    def test_config_file_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\nsource=two-circles\nn=5\nseed=9\nn_per_class=30\n")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", "--config", cfg, "--output-dir", out_a) == 0
        assert run_cli("run", "--config", cfg, "--n", "7", "--output-dir", out_b) == 0
        a = json.loads((out_a / "metrics.json").read_text())
        b = json.loads((out_b / "metrics.json").read_text())
        assert a["params"]["n"] == 5
        assert b["params"]["n"] == 7

    def test_bad_config_key_fails(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble=3\n")
        assert run_cli("run", "--config", cfg, "--output-dir", tmp_path / "o") != 0

    def test_unknown_source_in_config_fails_cleanly(self, tmp_path, capsys):
        # a config file bypasses the flag's choices; the stream spec rejects it
        cfg = tmp_path / "run.cfg"
        cfg.write_text("source=bogus\n")
        assert run_cli("run", "--config", cfg, "--output-dir", tmp_path / "o") == 2
        assert "unknown source 'bogus'" in capsys.readouterr().err

    def test_highdim_source_small(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("run", "--source", "gaussian-highdim", "--n", "6",
                     "--n-clusters", "3", "--dim", "16", "--n-points", "60",
                     "--separation", "12", "--cluster-std", "0.1",
                     "--seed", "8", "--output-dir", out)
        assert rc == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_points"] == 60
        assert metrics["purity"] >= 0.9


class TestGrid:
    def test_grid_lattice(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("grid", "--source", "two-circles", "--n", "6", "--seed", "3",
                     "--n-per-class", "40", "--grid-resolution", "20",
                     "--grid-bounds=-2,4,-2,2", "--output-dir", out)
        assert rc == 0
        lines = (out / "grid.csv").read_text().splitlines()
        assert lines[0] == "x,y,cluster,structure,distance"
        assert len(lines) == 20 * 20 + 1
        first = lines[1].split(",")
        assert float(first[0]) == -2.0
        assert float(first[1]) == -2.0

    def test_negative_bounds_in_every_spelling(self, tmp_path):
        # a value that starts with a minus must not be read as an option
        args = ("grid", "--source", "two-circles", "--n", "6", "--seed", "3",
                "--n-per-class", "40", "--grid-resolution", "12")
        cfg = tmp_path / "grid.cfg"
        cfg.write_text("grid_bounds=-2,4,-2,2\n")
        assert run_cli(*args, "--grid-bounds", "-2,4,-2,2", "--output-dir", tmp_path / "a") == 0
        assert run_cli(*args, "--grid-bounds=-2,4,-2,2", "--output-dir", tmp_path / "b") == 0
        assert run_cli(*args, "--config", cfg, "--output-dir", tmp_path / "c") == 0
        grid = (tmp_path / "a" / "grid.csv").read_bytes()
        assert grid.splitlines()[1].startswith(b"-2.0,-2.0,")
        assert (tmp_path / "b" / "grid.csv").read_bytes() == grid
        assert (tmp_path / "c" / "grid.csv").read_bytes() == grid

    def test_grid_cell_at_structure_mean(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("run", "--source", "two-circles", "--n", "4", "--seed", "4",
                     "--n-per-class", "30", "--outputs", "metrics,snapshot,grid",
                     "--grid-resolution", "3", "--output-dir", out,
                     "--grid-bounds=0.5,0.5,0.5,0.5")
        assert rc == 0
        # a degenerate one-point lattice still assigns the cell to the
        # structure nearest under the decision distance
        lines = (out / "grid.csv").read_text().splitlines()
        snapshot = (out / "snapshot.csv").read_text().splitlines()[1:]
        structure_ids = {int(r.split(",")[0]) for r in snapshot}
        for line in lines[1:]:
            x, y, cluster, structure, dist = line.split(",")
            assert int(structure) in structure_ids
            assert 0.0 <= float(dist) < 1.0

    def test_grid_rejects_high_dim(self, tmp_path, capsys):
        rc = run_cli("grid", "--source", "gaussian-highdim", "--n", "4",
                     "--n-clusters", "2", "--dim", "8", "--n-points", "16",
                     "--output-dir", tmp_path / "o")
        assert rc != 0
        assert "2-D" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        args = ("--source", "two-circles", "--n", "8", "--seed", "11",
                "--n-per-class", "50", "--outputs", "metrics,snapshot,assignments,grid",
                "--grid-resolution", "15")
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert run_cli("run", *args, "--output-dir", out_a) == 0
        assert run_cli("run", *args, "--output-dir", out_b) == 0
        for name in ("metrics.json", "snapshot.csv", "assignments.csv", "grid.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name


class TestSweep:
    def test_cartesian_product(self, tmp_path):
        out = tmp_path / "out"
        rc = run_cli("sweep", "--source", "two-circles", "--seed", "6",
                     "--n-per-class", "30", "--output-dir", out,
                     "--sweep", "n=4,6", "--sweep", "m=1.5,2.0")
        assert rc == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "n,m,purity,nmi,n_structures,n_clusters"
        assert len(lines) == 5
        combos = [tuple(l.split(",")[:2]) for l in lines[1:]]
        assert combos == [("4", "1.5"), ("4", "2.0"), ("6", "1.5"), ("6", "2.0")]
        for line in lines[1:]:
            for cell in line.split(",")[2:]:
                float(cell)  # plain numbers, not e.g. "np.float64(0.6)"

    def test_sweep_requires_spec(self, tmp_path):
        rc = run_cli("sweep", "--source", "two-circles",
                     "--output-dir", tmp_path / "o")
        assert rc != 0

    def test_key_given_twice_fails(self, tmp_path, capsys):
        # each run would use only the last value under a name with both
        rc = run_cli("sweep", "--source", "two-circles", "--n-per-class", "20",
                     "--output-dir", tmp_path / "o", "--sweep", "n=4", "--sweep", "n=5,6")
        assert rc == 2
        assert "'n'" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("spec", ["outputs=snapshot,assignments", "output_dir=a,b",
                                      "grid_bounds=-2,4,-2,2"])
    def test_key_a_run_ignores_fails(self, tmp_path, capsys, spec):
        rc = run_cli("sweep", "--source", "two-circles", "--n-per-class", "20",
                     "--output-dir", tmp_path / "o", f"--sweep={spec}")
        assert rc == 2
        assert repr(spec.partition("=")[0]) in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


# One non-default value per setting, of the setting's type. Only the
# grid bounds hold commas, which a --sweep value list would split.
_VALUES = {
    "n": 7, "gamma": 0.01, "beta": 0.02, "m": 1.7, "epsilon": 0.9, "w_min": 0.02,
    "nlt_max": 2.5, "min_pts": 3, "source": "csv", "order": "shuffled", "seed": 5,
    "csv_path": "data.csv", "feature_columns": "fy", "label_column": "cls",
    "delimiter": ";", "n_per_class": 12, "n_clusters": 2, "dim": 3, "n_points": 40,
    "separation": 8.0, "cluster_std": 0.3, "noise_std": 0.2, "long_std": 1.5,
    "outputs": "snapshot", "output_dir": "elsewhere", "grid_bounds": "-2,4,-2,2",
    "grid_resolution": 9,
}
_ENGINE_KEYS = ("n", "gamma", "beta", "m", "epsilon", "w_min", "nlt_max", "min_pts")


def _flags(values):
    return [a for k, v in values.items() for a in ("--" + k.replace("_", "-"), str(v))]


class TestSettingsTable:
    def test_values_cover_every_setting(self):
        assert set(_VALUES) == set(cli._SETTINGS)
        assert [cli._config_key(k) for k in asdict(SpcParams())] == list(_ENGINE_KEYS)

    @pytest.mark.parametrize("route", ["flag", "config", "sweep"])
    def test_every_key_reaches_the_run(self, tmp_path, monkeypatch, route):
        seen = []

        def fake_run(config, grid_only=False):
            seen.append(config)
            return dict.fromkeys(cli._SWEEP_METRICS, 0)

        monkeypatch.setattr(cli, "_run_once", fake_run)
        monkeypatch.chdir(tmp_path)
        values = dict(_VALUES)
        if route == "flag":
            assert run_cli("run", *_flags(values)) == 0
        elif route == "config":
            (tmp_path / "run.cfg").write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
            assert run_cli("run", "--config", tmp_path / "run.cfg") == 0
        else:
            # a sweep refuses these: it sets each run's outputs and output
            # directory, and a value list would split the bounds
            for key in ("outputs", "output_dir", "grid_bounds"):
                del values[key]
            assert run_cli("sweep", *(a for k, v in values.items()
                                      for a in ("--sweep", f"{k}={v}"))) == 0
        (config,) = seen
        for key, value in values.items():
            assert config[key] == value and type(config[key]) is type(value), key

    def test_engine_defaults_are_spcparams(self, tmp_path):
        assert run_cli("run", "--n-per-class", "10", "--output-dir", tmp_path) == 0
        params = json.loads((tmp_path / "metrics.json").read_text())["params"]
        expected = {cli._config_key(k): v for k, v in asdict(SpcParams()).items()}
        assert params == expected
        assert {k: type(v) for k, v in params.items()} == {k: type(v) for k, v in expected.items()}

    @pytest.mark.parametrize("source", SOURCES)
    def test_values_reach_metrics_and_stream(self, tmp_path, monkeypatch, source):
        specs = []
        real_build = cli.build_stream
        monkeypatch.setattr(cli, "build_stream", lambda spec: specs.append(spec) or real_build(spec))
        data = tmp_path / "data.csv"
        data.write_text("fx;fy;cls\n" + "0.0;0.1;a\n9.0;9.2;b\n0.2;0.0;a\n9.1;9.0;b\n" * 5)
        values = {**_VALUES, "source": source, "csv_path": str(data), "outputs": "metrics",
                  "output_dir": str(tmp_path / "out")}
        assert run_cli("run", *_flags(values)) == 0
        metrics = json.loads((tmp_path / "out" / "metrics.json").read_text())
        assert metrics["params"] == {k: values[k] for k in _ENGINE_KEYS}
        assert metrics["stream"] == {k: values[k] for k in ("source", "order", "seed", "csv_path")}
        for name in ("params", "stream"):
            assert all(type(v) is type(values[k]) for k, v in metrics[name].items()), name
        (spec,) = specs
        expected = {
            "csv": (("path", str(data)), ("feature_columns", ("fy",)), ("label_column", "cls"),
                    ("delimiter", ";")),
            "two-circles": (("n_per_class", 12),),
            "sine-waves": (("n_per_class", 12), ("noise_std", 0.2)),
            "overlapping-triangle": (("n_per_class", 12), ("long_std", 1.5)),
            "gaussian-highdim": (("n_clusters", 2), ("dim", 3), ("n_points", 40),
                                 ("separation", 8.0), ("cluster_std", 0.3)),
        }[source]
        assert (spec.source, spec.params, spec.order, spec.seed) == (source, expected,
                                                                     "shuffled", 5)
        assert [type(v) for _, v in spec.params] == [type(v) for _, v in expected]


class TestReprs:
    """cli._reprs formats a float array with orjson and gives repr's bytes."""

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(arrays(np.float64, st.integers(0, 40), elements=st.floats()))
    def test_equals_repr(self, values):
        # st.floats() draws NaN, both infinities, subnormals and -0.0
        assert cli._reprs(values) == list(map(repr, values.tolist()))

    def test_edges_of_orjson_notation(self):
        edges = [np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e-4, 1.0),
                 np.nextafter(1e16, 0.0), 1e16, np.nextafter(1e16, np.inf),
                 5e-324, 1.7976931348623157e308, 0.0, np.nan, np.inf, 1.5e-7, 1e-5]
        values = np.array(edges + [-v for v in edges])
        assert cli._reprs(values) == list(map(repr, values.tolist()))

    def test_non_contiguous_slice(self):
        matrix = np.linspace(-3e-5, 3e17, 24).reshape(4, 6)
        column = matrix[:, 1]
        assert not column.flags.c_contiguous
        assert cli._reprs(column) == list(map(repr, column.tolist()))
        assert cli._reprs(matrix[1, ::2]) == list(map(repr, matrix[1, ::2].tolist()))


# Reference writers: one repr per element, rows joined into one string.
# The CLI's writers format each distinct value once and must give the same
# bytes.

def _reference_snapshot(path, model):
    snap = model.snapshot()
    dim = model.dim or 0
    header = (["id", "age", "weight"]
              + [f"mu_{i}" for i in range(dim)]
              + [f"cov_{i}_{j}" for i in range(dim) for j in range(dim)])
    lines = [",".join(header)]
    for ident, s in zip(model.ids(), snap):
        row = [str(ident), str(s.age), repr(float(s.weight))]
        row += [repr(float(v)) for v in s.mu]
        row += [repr(float(v)) for v in s.sigma.reshape(-1)]
        lines.append(",".join(row))
    path.write_text("\n".join(lines) + "\n")


def _reference_assignments(path, points, pred):
    lines = ["t,label,cluster"]
    for p, c in zip(points, pred):
        lines.append(f"{p.t},{p.label},{c}")
    path.write_text("\n".join(lines) + "\n")


def _reference_grid(path, model, labels, config):
    bounds = config["grid_bounds"]
    if bounds is None:
        mus = np.array([mu for mu, _ in model.factors()])
        lo = mus.min(axis=0)
        hi = mus.max(axis=0)
        pad = 0.1 * np.maximum(hi - lo, 1.0)
        x0, x1, y0, y1 = lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1]
    else:
        x0, x1, y0, y1 = (float(b) for b in str(bounds).split(","))
    res = int(config["grid_resolution"])
    xs = np.linspace(x0, x1, res)
    ys = np.linspace(y0, y1, res)
    gx, gy = np.meshgrid(xs, ys)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    cluster_ids, structure_ids, dists = assign_with_distances(model, labels, pts)
    lines = ["x,y,cluster,structure,distance"]
    for k in range(pts.shape[0]):
        lines.append(f"{float(pts[k, 0])!r},{float(pts[k, 1])!r},{int(cluster_ids[k])},"
                     f"{int(structure_ids[k])},{float(dists[k])!r}")
    path.write_text("\n".join(lines) + "\n")


_REFERENCES = {"snapshot.csv": ("_write_snapshot", _reference_snapshot),
               "assignments.csv": ("_write_assignments", _reference_assignments),
               "grid.csv": ("_write_grid", _reference_grid)}


class TestWritersMatchReference:
    @pytest.mark.parametrize("args", [
        ("--source", "two-circles", "--n", "8", "--seed", "29", "--n-per-class", "60",
         "--outputs", "metrics,snapshot,assignments,grid", "--grid-resolution", "25"),
        ("--source", "two-circles", "--n", "6", "--seed", "3", "--n-per-class", "40",
         "--outputs", "snapshot,grid", "--grid-resolution", "20",
         "--grid-bounds=-2,4,-2,2"),
        # dense spreads with per-slot solves
        ("--source", "gaussian-highdim", "--n", "6", "--n-clusters", "3", "--dim", "4",
         "--n-points", "60", "--separation", "12", "--seed", "2",
         "--outputs", "snapshot,assignments"),
        # low-rank spreads: three unit singletons (identical spreads) and
        # three merged structures
        ("--source", "gaussian-highdim", "--n", "6", "--n-clusters", "3", "--dim", "33",
         "--n-points", "60", "--seed", "2", "--outputs", "snapshot,assignments"),
        # one column per spread: the mirror of a 1 x 1 upper triangle
        ("--source", "gaussian-highdim", "--n", "6", "--n-clusters", "3", "--dim", "1",
         "--n-points", "81", "--seed", "4", "--outputs", "snapshot,assignments"),
        # low-rank spreads: four unit singletons and four distinct merged
        # spreads of rank 17-19
        ("--source", "gaussian-highdim", "--n", "8", "--n-clusters", "4", "--dim", "64",
         "--n-points", "80", "--seed", "2", "--outputs", "snapshot,assignments"),
        # means and spreads of 1e16 and more, and spread entries below 1e-4:
        # repr's exponent notation, which orjson writes differently
        ("--source", "gaussian-highdim", "--n", "6", "--n-clusters", "3", "--dim", "4",
         "--n-points", "60", "--seed", "2", "--separation", "1e17", "--cluster-std", "1",
         "--outputs", "snapshot,assignments"),
    ], ids=["two-circles-default-lattice", "two-circles-grid-bounds", "highdim-4",
            "highdim-33", "highdim-1", "highdim-64", "highdim-4-exponents"])
    def test_outputs_byte_identical(self, tmp_path, monkeypatch, args):
        calls = {}
        for name, (writer, _) in _REFERENCES.items():
            real = getattr(cli, writer)

            def spy(path, *inputs, _real=real, _name=name):
                calls[_name] = inputs
                _real(path, *inputs)

            monkeypatch.setattr(cli, writer, spy)
        out = tmp_path / "out"
        assert run_cli("run", *args, "--output-dir", out) == 0
        requested = args[args.index("--outputs") + 1].split(",")
        assert sorted(calls) == sorted(f"{o}.csv" for o in requested if o != "metrics")
        for name, inputs in calls.items():
            reference = tmp_path / ("reference-" + name)
            _REFERENCES[name][1](reference, *inputs)
            assert (out / name).read_bytes() == reference.read_bytes(), name
        if "1e17" in args:
            snapshot = (out / "snapshot.csv").read_text()
            assert "e+" in snapshot and "e-" in snapshot
