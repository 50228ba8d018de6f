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
import inspect
import itertools
import json
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import orjson

from .clustering import assign_points, assign_with_distances, get_clustering
from .datasets import ORDER_MODES, SOURCES, StreamSpec, build_stream
from .engine import SpcModel, SpcParams
from .errors import DimensionMismatch, SpcError
from .metrics import nmi, purity


def _config_key(param: str) -> str:
    """The configuration key of an SpcParams field: the budget is n."""
    return "n" if param == "max_structures" else param


_ENGINE_HELP = {
    "max_structures": "structure budget", "gamma": "mean/scatter decay per step",
    "beta": "weight decay per step", "m": "typicality fuzzifier (> 1)",
    "epsilon": "DBSCAN radius on structure distance", "w_min": "prune threshold",
    "nlt_max": "log-typicality limit for prune merges", "min_pts": "DBSCAN density threshold",
}

_OUTPUTS = ("metrics", "snapshot", "assignments", "grid")

# Every setting, declared once: config key -> (type, default, help). The
# key with dashes is its flag, the type coerces config-file and --sweep
# values, and the engine's rows take type and default from SpcParams.
# A generator setting left at None takes the generator's own default.
_SETTINGS = {
    **{_config_key(f.name): (f.type, f.default, _ENGINE_HELP[f.name])
       for f in fields(SpcParams)},
    "source": (str, "two-circles", None),
    "order": (str, "as-is", None),
    "seed": (int, 0, None),
    "csv_path": (str, None, None),
    "feature_columns": (str, None, "comma-separated indices or names"),
    "label_column": (str, None, None),
    "delimiter": (str, ",", None),
    **dict.fromkeys(("n_per_class", "n_clusters", "dim", "n_points"), (int, None, None)),
    **dict.fromkeys(("separation", "cluster_std", "noise_std", "long_std"),
                    (float, None, None)),
    "outputs": (str, "metrics,snapshot", "comma list of " + ",".join(_OUTPUTS)),
    "output_dir": (str, "out", None),
    "grid_bounds": (str, None, "x0,x1,y0,y1"),
    "grid_resolution": (int, 200, None),
}
_CHOICES = {"source": SOURCES, "order": ORDER_MODES}


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value that starts with a minus, as in "--grid-bounds
    # -2,4,-2,2", for an unknown option: attach it as --grid-bounds=-2,4,-2,2
    while "--grid-bounds" in argv[:-1]:
        i = argv.index("--grid-bounds")
        argv[i:i + 2] = ["--grid-bounds=" + argv[i + 1]]
    args = _build_parser().parse_args(argv)
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
        for key, (kind, _, text) in _SETTINGS.items():
            p.add_argument("--" + key.replace("_", "-"), type=kind,
                           choices=_CHOICES.get(key), help=text)
        if name == "sweep":
            p.add_argument("--sweep", action="append", metavar="KEY=V1,V2,...",
                           help="parameter values to sweep (repeatable)")
    return parser


def _merge_config(args) -> dict:
    config = {key: default for key, (_, default, _) in _SETTINGS.items()}
    if args.config is not None:
        config.update(_load_config_file(args.config))
    config.update({k: getattr(args, k) for k in config if getattr(args, k) is not None})
    # checked before the stream is built or an output written
    for name in config["outputs"].split(","):
        if name.strip() not in _OUTPUTS:
            raise ValueError(f"unknown output {name.strip()!r}, expected {','.join(_OUTPUTS)}")
    for key, lo in {"grid_resolution": 1, "noise_std": 0, "cluster_std": 0, "long_std": 0}.items():
        if config[key] is not None and not config[key] >= lo:
            raise ValueError(f"{key} must be >= {lo}, got {config[key]}")
    if len(config["delimiter"]) != 1:
        raise ValueError(f"delimiter must be one character, got {config['delimiter']!r}")
    bounds = config["grid_bounds"]
    values = [0.0] * 4 if bounds is None else [float(b) for b in bounds.split(",")]
    if len(values) != 4:
        raise ValueError(f"grid_bounds must be x0,x1,y0,y1, got {bounds!r}")
    if not np.isfinite(values).all():
        raise ValueError(f"grid_bounds must be finite, got {bounds!r}")
    if values[0] > values[1] or values[2] > values[3]:
        raise ValueError(f"grid_bounds need x0 <= x1 and y0 <= y1, got {bounds!r}")
    return config


def _load_config_file(path: Path) -> dict:
    out = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SETTINGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        out[key] = _SETTINGS[key][0](value)
    return out


def _build_stream(config: dict):
    # each setting the source's function names (csv_path is path); seed and order go in the spec
    source = config["source"]
    takes = inspect.signature(SOURCES[source]).parameters if source in SOURCES else ()
    params = []
    for key in _SETTINGS:
        name = "path" if key == "csv_path" else key
        value = config[key]
        if name not in takes or key in ("seed", "order") or value is None:
            continue
        if key == "feature_columns":
            value = tuple(_parse_column(c) for c in value.split(","))
        elif key == "label_column":
            value = _parse_column(value)
        params.append((name, value))
    if source == "csv" and not config["csv_path"]:
        raise ValueError("csv source needs csv_path")
    spec = StreamSpec(source=source, params=tuple(params), order=config["order"],
                      seed=config["seed"])
    return build_stream(spec)


def _parse_column(spec: str):
    spec = spec.strip()
    try:
        return int(spec)
    except ValueError:
        return spec


def _run_once(config: dict, grid_only: bool = False) -> dict:
    t0 = time.perf_counter()
    points = _build_stream(config)
    if not points:
        raise ValueError("empty stream: nothing to cluster")

    params = SpcParams(**{f.name: config[_config_key(f.name)] for f in fields(SpcParams)})
    model = SpcModel(params)
    for p in points:
        model.update(p.x)

    labels = get_clustering(model)
    xs = np.array([p.x for p in points])
    truth = [p.label for p in points]
    pred = assign_points(model, labels, xs)

    metrics = {
        "purity": purity(pred, truth),
        "nmi": nmi(pred, truth),
        "n_points": len(points),
        "n_structures": len(model),
        "n_clusters": labels.n_clusters,
        "diagnostics": model.diagnostics.as_dict(),
        "retired_age": model.retired_age,
        "params": {_config_key(k): v for k, v in asdict(params).items()},
        "stream": {k: config[k] for k in ("source", "order", "seed", "csv_path")
                   if config[k] is not None},
    }

    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    outputs = {"grid"} if grid_only else {o.strip() for o in config["outputs"].split(",")}

    if not grid_only:
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


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _csv(values, gather=slice(None)) -> bytes:
    """The repr of each float of values[gather], comma-separated, from one orjson call.

    orjson prints repr's digits, but 0.00001, 1e16 and null where repr prints
    1e-05, 1e+16 and nan. Those entries (nonzero |v| < 1e-4 or >= 1e16, and
    nonfinite) are dumped as null and spliced in by repr, once per entry of values.
    """
    values = np.asarray(values, dtype=float).ravel()
    size = np.abs(values)
    odd = ~((size >= 1e-4) & (size < 1e16)) & (values != 0)
    texts = np.empty(values.size, dtype=object)
    texts[odd] = [repr(v).encode() for v in values[odd].tolist()]
    keys = np.arange(values.size)[gather]
    texts = texts[keys[odd[keys]]]  # in output order
    spliced = orjson.dumps(np.where(odd, np.nan, values)[keys],
                           option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b"null", texts.size)
    spliced[1:] = itertools.chain.from_iterable(zip(texts, spliced[1:]))
    return b"".join(spliced)


def _reprs(values) -> list[str]:
    """repr of each float of an array, as _csv formats it."""
    return _csv(values).decode().split(",") if np.size(values) else []


def _write_snapshot(path: Path, model: SpcModel) -> None:
    """One row per structure: id, age, weight, mean, then the row-major spread.

    Every spread is bitwise symmetric, signs of zero included, so its text is
    dumped from the upper triangle; each distinct stored spread (all unit
    singletons share one) is built and formatted once.
    """
    dim = model.dim
    columns = [str(j) for j in range(dim)]
    header = ["id", "age", "weight", *(f"mu_{j}" for j in columns),
              *(f"cov_{i}_" + f",cov_{i}_".join(columns) for i in columns)]
    rows, cols = np.triu_indices(dim)
    upper_index = np.empty((dim, dim), dtype=np.intp)
    upper_index[rows, cols] = upper_index[cols, rows] = np.arange(rows.size)
    spreads = {}
    with path.open("wb") as f:
        f.write((",".join(header) + "\n").encode())
        for ident, (mu, spread, weight, age) in zip(model.ids(), model.spreads()):
            if id(spread) not in spreads:
                upper = spread.dense()[rows, cols]
                spreads[id(spread)] = b"," + _csv(upper, upper_index.ravel()) + b"\n"
            f.writelines((f"{ident},{age},{weight!r},".encode(), _csv(mu), spreads[id(spread)]))


def _write_assignments(path: Path, points, pred) -> None:
    lines = ["t,label,cluster"] + [f"{p.t},{p.label},{c}" for p, c in zip(points, pred)]
    path.write_text("\n".join(lines) + "\n")


def _write_grid(path: Path, model: SpcModel, labels, config: dict) -> None:
    if model.dim != 2:
        raise DimensionMismatch("decision grids need a 2-D model")
    bounds = config["grid_bounds"]
    if bounds is None:
        mus = np.array([mu for mu, *_ in model.spreads()])
        lo, hi = mus.min(axis=0), mus.max(axis=0)
        pad = 0.1 * np.maximum(hi - lo, 1.0)
        x0, x1, y0, y1 = lo[0] - pad[0], hi[0] + pad[0], lo[1] - pad[1], hi[1] + pad[1]
    else:
        x0, x1, y0, y1 = (float(b) for b in bounds.split(","))
    res = config["grid_resolution"]
    xs, ys = np.linspace(x0, x1, res), np.linspace(y0, y1, res)
    # row k of the lattice is (xs[k % res], ys[k // res])
    pts = np.column_stack([np.tile(xs, res), np.repeat(ys, res)])
    cluster_ids, structure_ids, dists = assign_with_distances(model, labels, pts)
    cells = itertools.product(_reprs(ys), _reprs(xs))
    with path.open("w") as f:
        f.write("x,y,cluster,structure,distance\n")
        f.writelines(f"{x},{y},{c},{s},{dist}\n" for (y, x), c, s, dist in
                     zip(cells, cluster_ids.tolist(), structure_ids.tolist(), _reprs(dists)))


_SWEEP_METRICS = ("purity", "nmi", "n_structures", "n_clusters")


def _run_sweep(config: dict, sweep_specs) -> None:
    if not sweep_specs:
        raise ValueError("sweep needs at least one --sweep KEY=V1,V2 specification")
    sweeps = {}
    for spec in sweep_specs:
        if "=" not in spec:
            raise ValueError(f"bad sweep spec {spec!r}")
        key, _, values = spec.partition("=")
        key = key.strip()
        if key not in _SETTINGS:
            raise ValueError(f"unknown sweep key {key!r}")
        if key in sweeps:
            raise ValueError(f"sweep key {key!r} given twice")
        # each run writes only metrics.json to its own directory, and a value
        # list would split the bounds at their commas
        if key in ("outputs", "output_dir", "grid_bounds"):
            raise ValueError(f"cannot sweep {key!r}")
        sweeps[key] = [_SETTINGS[key][0](v.strip()) for v in values.split(",")]

    out_dir = Path(config["output_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for combo in itertools.product(*sweeps.values()):
        run = dict(zip(sweeps, combo))
        sub_dir = out_dir / ("sweep_" + "_".join(f"{k}={v}" for k, v in run.items()))
        metrics = _run_once({**config, **run, "outputs": "metrics", "output_dir": str(sub_dir)})
        rows.append({**run, **{k: metrics[k] for k in _SWEEP_METRICS}})

    header = list(sweeps) + list(_SWEEP_METRICS)
    lines = [",".join(header)] + [",".join(str(row[h]) for h in header) for row in rows]
    (out_dir / "sweep.csv").write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    sys.exit(main())
