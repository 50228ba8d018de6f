"""Experiment runner: stream a dataset through the engine and emit results.

Subcommands:
  run    stream once, cluster at the end, write metrics and optional files
  grid   like run, but emits a 2-D decision-region lattice
  sweep  cartesian product over listed parameter values, one metrics row each

Configuration is a flat key=value text file plus command-line flags;
flags win. All outputs except the timing sidecar are byte-reproducible
for a fixed configuration.
"""

import argparse
import itertools
import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .clustering import assign_with_distances, get_clustering
from .datasets import ORDER_MODES, SOURCES, StreamSpec, build_stream
from .engine import SpcModel, SpcParams
from .errors import DimensionMismatch, SpcError
from .metrics import nmi, purity

_FLOAT_KEYS = ("gamma", "beta", "m", "epsilon", "w_min", "nlt_max", "separation",
               "cluster_std", "noise_std", "long_std")
_INT_KEYS = ("n", "min_pts", "seed", "n_per_class", "n_clusters", "dim", "n_points",
             "grid_resolution")

_DEFAULTS = {
    "n": 30, "gamma": 0.0, "beta": 0.0, "m": 1.5, "epsilon": 0.95,
    "w_min": 0.01, "nlt_max": 3.0, "min_pts": 2,
    "source": "two-circles", "order": "as-is", "seed": 0,
    "csv_path": None, "feature_columns": None, "label_column": None,
    "delimiter": ",",
    "n_per_class": None, "n_clusters": None, "dim": None, "n_points": None,
    "separation": None, "cluster_std": None, "noise_std": None, "long_std": None,
    "outputs": "metrics,snapshot", "output_dir": "out",
    "grid_bounds": None, "grid_resolution": 200,
}


@dataclass
class RunConfig:
    """Typed view of one run's settings."""

    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def params(self) -> SpcParams:
        v = self.values
        return SpcParams(
            max_structures=v["n"], gamma=v["gamma"], beta=v["beta"], m=v["m"],
            epsilon=v["epsilon"], w_min=v["w_min"], nlt_max=v["nlt_max"],
            min_pts=v["min_pts"],
        )

    @property
    def outputs(self) -> set:
        return {o.strip() for o in self.values["outputs"].split(",") if o.strip()}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = _merge_config(args)
        if args.command in ("run", "grid"):
            _run_once(config, grid_only=args.command == "grid")
        else:
            _run_sweep(config, args.sweep or [])
    except (SpcError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="spclust",
                                     description="streaming possibilistic clustering runner")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (("run", "stream a dataset and write metrics"),
                        ("grid", "stream a dataset and write a 2-D decision grid"),
                        ("sweep", "run a cartesian product of parameter values")):
        p = sub.add_parser(name, help=blurb)
        p.add_argument("--config", type=Path, default=None,
                       help="key=value file; flags override its entries")
        p.add_argument("--n", type=int, help="structure budget")
        p.add_argument("--gamma", type=float, help="mean/scatter decay per step")
        p.add_argument("--beta", type=float, help="weight decay per step")
        p.add_argument("--m", type=float, help="typicality fuzzifier (> 1)")
        p.add_argument("--epsilon", type=float, help="DBSCAN radius on structure distance")
        p.add_argument("--w-min", dest="w_min", type=float, help="prune threshold")
        p.add_argument("--nlt-max", dest="nlt_max", type=float,
                       help="log-typicality limit for prune merges")
        p.add_argument("--min-pts", dest="min_pts", type=int, help="DBSCAN density threshold")
        p.add_argument("--source", choices=SOURCES)
        p.add_argument("--order", choices=ORDER_MODES)
        p.add_argument("--seed", type=int)
        p.add_argument("--csv-path", dest="csv_path")
        p.add_argument("--feature-columns", dest="feature_columns",
                       help="comma-separated indices or names")
        p.add_argument("--label-column", dest="label_column")
        p.add_argument("--delimiter")
        p.add_argument("--n-per-class", dest="n_per_class", type=int)
        p.add_argument("--n-clusters", dest="n_clusters", type=int)
        p.add_argument("--dim", type=int)
        p.add_argument("--n-points", dest="n_points", type=int)
        p.add_argument("--separation", type=float)
        p.add_argument("--cluster-std", dest="cluster_std", type=float)
        p.add_argument("--noise-std", dest="noise_std", type=float)
        p.add_argument("--long-std", dest="long_std", type=float)
        p.add_argument("--outputs", help="comma list of metrics,snapshot,assignments,grid")
        p.add_argument("--output-dir", dest="output_dir")
        p.add_argument("--grid-bounds", dest="grid_bounds", help="x0,x1,y0,y1")
        p.add_argument("--grid-resolution", dest="grid_resolution", type=int)
        if name == "sweep":
            p.add_argument("--sweep", action="append", metavar="KEY=V1,V2,...",
                           help="parameter values to sweep (repeatable)")
    return parser


def _merge_config(args) -> RunConfig:
    values = dict(_DEFAULTS)
    if args.config is not None:
        values.update(_load_config_file(args.config))
    for key in values:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return RunConfig(values=values)


def _load_config_file(path: Path) -> dict:
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value)
    return out


def _coerce(key: str, value: str):
    if key in _INT_KEYS:
        return int(value)
    if key in _FLOAT_KEYS:
        return float(value)
    return value


_SOURCE_KEYS = {
    "csv": ("csv_path", "feature_columns", "label_column", "delimiter"),
    "sine-waves": ("n_per_class", "noise_std"),
    "overlapping-triangle": ("n_per_class", "long_std"),
    "gaussian-highdim": ("n_clusters", "dim", "n_points", "separation", "cluster_std"),
    "two-circles": ("n_per_class",),
}


def _build_stream(config: RunConfig):
    v = config.values
    source = v["source"]
    params = []
    for key in _SOURCE_KEYS[source]:
        if v[key] is None:
            continue
        if key == "csv_path":
            params.append(("path", v[key]))
        elif key == "feature_columns":
            params.append(("feature_columns", tuple(_parse_columns(v[key]))))
        elif key == "label_column":
            params.append(("label_column", _parse_column(v[key])))
        else:
            params.append((key, v[key]))
    if source == "csv" and not v["csv_path"]:
        raise ValueError("csv source needs csv_path")
    spec = StreamSpec(source=source, params=tuple(params), order=v["order"],
                      seed=v["seed"])
    return build_stream(spec)


def _parse_columns(spec: str) -> list:
    return [_parse_column(c) for c in spec.split(",")]


def _parse_column(spec: str):
    spec = spec.strip()
    try:
        return int(spec)
    except ValueError:
        return spec


def _run_once(config: RunConfig, grid_only: bool = False) -> dict:
    t0 = time.perf_counter()
    points = _build_stream(config)
    if not points:
        raise ValueError("empty stream: nothing to cluster")

    params = config.params
    model = SpcModel(params)
    for p in points:
        model.update(p.x)

    labels = get_clustering(model)
    xs = np.array([p.x for p in points])
    truth = [p.label for p in points]
    cluster_ids, _, _ = assign_with_distances(model, labels, xs)
    pred = cluster_ids.tolist()

    metrics = {
        "purity": purity(pred, truth),
        "nmi": nmi(pred, truth),
        "n_points": len(points),
        "n_structures": len(model),
        "n_clusters": labels.n_clusters,
        "diagnostics": model.diagnostics.as_dict(),
        "retired_age": model.retired_age,
        "params": _params_dict(params),
        "stream": {k: config.values[k] for k in
                   ("source", "order", "seed", "csv_path") if config.values[k] is not None},
    }

    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {"grid"} if grid_only else config.outputs

    if "metrics" in outputs or not grid_only:
        _write_json(out_dir / "metrics.json", metrics)
    if "snapshot" in outputs:
        _write_snapshot(out_dir / "snapshot.csv", model)
    if "assignments" in outputs:
        _write_assignments(out_dir / "assignments.csv", points, pred)
    if "grid" in outputs:
        _write_grid(out_dir / "grid.csv", model, labels, config)

    _write_json(out_dir / "run_info.json", {"wall_time_s": time.perf_counter() - t0})
    print(f"purity={metrics['purity']:.4f} nmi={metrics['nmi']:.4f} "
          f"structures={metrics['n_structures']} clusters={metrics['n_clusters']}")
    return metrics


def _params_dict(params: SpcParams) -> dict:
    return {
        "n": params.max_structures, "gamma": params.gamma, "beta": params.beta,
        "m": params.m, "epsilon": params.epsilon, "w_min": params.w_min,
        "nlt_max": params.nlt_max, "min_pts": params.min_pts,
    }


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_snapshot(path: Path, model: SpcModel) -> None:
    """One row per structure: id, age, weight, mean, then the row-major spread.

    Every spread is bitwise symmetric, signs of zero included, so only its
    upper triangle is formatted and mirrored; a spread whose bytes equal an
    earlier one (every unit singleton's identity) reuses its string.
    """
    dim = model.dim
    header = (["id", "age", "weight"]
              + [f"mu_{i}" for i in range(dim)]
              + [f"cov_{i}_{j}" for i in range(dim) for j in range(dim)])
    rows, cols = np.triu_indices(dim)
    upper_index = np.empty((dim, dim), dtype=np.intp)
    upper_index[rows, cols] = upper_index[cols, rows] = np.arange(rows.size)
    mirror = upper_index.ravel().tolist()
    spreads = {}
    with path.open("w") as f:
        f.write(",".join(header) + "\n")
        for ident, s in zip(model.ids(), model.snapshot()):
            key = s.sigma.tobytes()
            if key not in spreads:
                upper = list(map(repr, s.sigma[rows, cols].tolist()))
                spreads[key] = "," + ",".join(map(upper.__getitem__, mirror)) + "\n"
            f.write(",".join([str(ident), str(s.age), repr(float(s.weight)),
                              *map(repr, s.mu.tolist())]))
            f.write(spreads[key])


def _write_assignments(path: Path, points, pred) -> None:
    lines = ["t,label,cluster"]
    for p, c in zip(points, pred):
        lines.append(f"{p.t},{p.label},{c}")
    path.write_text("\n".join(lines) + "\n")


def _write_grid(path: Path, model: SpcModel, labels, config: RunConfig) -> None:
    if model.dim != 2:
        raise DimensionMismatch("decision grids need a 2-D model")
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
    # row k of the lattice is (xs[k % res], ys[k // res])
    cells = itertools.product(map(repr, ys.tolist()), map(repr, xs.tolist()))
    with path.open("w") as f:
        f.write("x,y,cluster,structure,distance\n")
        f.writelines(f"{x},{y},{c},{s},{dist!r}\n" for (y, x), c, s, dist in
                     zip(cells, cluster_ids.tolist(), structure_ids.tolist(), dists.tolist()))


def _run_sweep(config: RunConfig, sweep_specs) -> None:
    if not sweep_specs:
        raise ValueError("sweep needs at least one --sweep KEY=V1,V2 specification")
    keys = []
    value_lists = []
    for spec in sweep_specs:
        if "=" not in spec:
            raise ValueError(f"bad sweep spec {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if key not in _DEFAULTS:
            raise ValueError(f"unknown sweep key {key!r}")
        keys.append(key)
        value_lists.append([_coerce(key, v.strip()) for v in values.split(",")])

    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for combo in itertools.product(*value_lists):
        values = dict(config.values)
        values.update(dict(zip(keys, combo)))
        values["outputs"] = "metrics"
        sub = RunConfig(values=values)
        sub_dir = out_dir / ("sweep_" + "_".join(f"{k}={v}" for k, v in zip(keys, combo)))
        sub.values["output_dir"] = str(sub_dir)
        metrics = _run_once(sub)
        row = {k: v for k, v in zip(keys, combo)}
        row.update({"purity": metrics["purity"], "nmi": metrics["nmi"],
                    "n_structures": metrics["n_structures"],
                    "n_clusters": metrics["n_clusters"]})
        rows.append(row)

    header = keys + ["purity", "nmi", "n_structures", "n_clusters"]
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(row[h]) if isinstance(row[h], float) else str(row[h])
                              for h in header))
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
