"""Benchmark of spclust through its public API.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
See bench/README.md for the workloads, metrics and reference figures.
"""

import os

# BLAS threads are fixed before numpy is first imported: tiny LAPACK calls
# slow down sharply when a BLAS pool contends for the two cores.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"
CLI_OUT = BENCH / "cli_out"

SETUP_REPS = 9


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    sys.path.insert(0, str(SRC))
    started = time.perf_counter()
    speed = HostSpeed(workload.speed_kernel)
    timings = Timings()
    sp, stream = setup(workload, args.seed, speed, timings)
    bench = Bench(sp, workload, args.seed, speed)
    peak = bench.warm_up(stream)
    if args.trace:
        values = bench.traced(stream)
        result = bench.result(values, spec["per_layer"])
    else:
        values, raw = bench.timed(stream, args.seconds, timings, peak)
        result = bench.result(values, spec["end_to_end"])
        bench.info["raw"] = raw
    info = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
            "blas": {v: os.environ[v] for v in BLAS_ENV},
            "python": sys.version.split()[0], "numpy": np.__version__,
            "host_slowdown_median": statistics.median(speed.factors),
            "host_slowdown_samples": len(speed.factors),
            "wall_s": time.perf_counter() - started, **bench.info}
    print("info: " + json.dumps(info, sort_keys=True))
    for problem in bench.problems:
        print("check failed: " + problem)
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"info": info, "problems": bench.problems, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 0


def import_spclust():
    """Import spclust afresh from this checkout's src/ directory."""
    for name in [n for n in sys.modules if n == "spclust" or n.startswith("spclust.")]:
        del sys.modules[name]
    sp = importlib.import_module("spclust")
    importlib.import_module("spclust.cli")
    if Path(sp.__file__).resolve().parent != SRC / "spclust":
        raise SystemExit(f"spclust was imported from {sp.__file__}, not from {SRC}")
    return sp


class Timings:
    """Timed samples by kind, each kept as wall time and at the reference speed."""

    def __init__(self):
        self.raw = defaultdict(list)
        self.ref = defaultdict(list)

    def add(self, key, raw_s, ref_s):
        self.raw[key].append(raw_s)
        self.ref[key].append(ref_s)

    def call(self, speed, key, fn, *args):
        """fn(*args), timed under `key`."""
        result, raw_s, ref_s = speed.call(fn, *args)
        self.add(key, raw_s, ref_s)
        return result


def setup(workload, seed, speed, timings):
    """SETUP_REPS times: import spclust afresh and build the stream.

    Third-party modules stay imported after the first repetition, so the
    median measures spclust's own import and the stream generator.
    """
    def once():
        sp = import_spclust()
        return sp, sp.datasets.build_stream(workload.spec(sp, seed))

    for _ in range(SETUP_REPS):
        sp, stream = timings.call(speed, "setup", once)
    return sp, stream


def ingest(sp, params, xs, speed=None, timings=None, burn_in=0):
    """Stream xs through a fresh model; returns (model, wall seconds).

    With `speed`, the host speed is sampled between updates, the latency
    of every update after the first `burn_in` and the loop's total update
    time are added to `timings`.
    """
    model = sp.SpcModel(params)
    update = model.update
    clock = time.perf_counter
    if speed is None:
        start = clock()
        for x in xs:
            update(x)
        return model, clock() - start
    raw_total = ref_total = 0.0
    factor = speed.sample()
    next_sample = clock() + speed.every_s
    for i, x in enumerate(xs):
        t0 = clock()
        update(x)
        t1 = clock()
        raw_total += t1 - t0
        ref_total += (t1 - t0) / factor
        if i >= burn_in:
            timings.add("update", t1 - t0, (t1 - t0) / factor)
        if t1 > next_sample:
            factor = speed.sample()
            next_sample = clock() + speed.every_s
    timings.add("ingest", raw_total, ref_total)
    return model, raw_total


def end_to_end(times, n_points, n_queries, peak) -> dict:
    """The end-to-end metrics from one set of timed samples."""
    med = {k: statistics.median(v) for k, v in times.items()}
    return {
        "setup_s": med["setup"],
        "ingest_pts_per_s": n_points / med["ingest"],
        "update_p50_us": 1e6 * med["update"],
        "update_p95_us": 1e6 * float(np.percentile(times["update"], 95)),
        "cluster_ms": 1e3 * med["cluster"],
        "assign_pts_per_s": n_queries / med["assign"],
        "cli_s": med["cli"],
        "peak_mib": peak / 2**20,
    }


class Bench:
    def __init__(self, sp, workload, seed, speed):
        self.sp = sp
        self.workload = workload
        self.seed = seed
        self.speed = speed
        self.params = workload.engine_params(sp)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.info = {}
        self.cli_dir = CLI_OUT / f"{workload.name}-{os.getpid()}"

    def warm_up(self, stream) -> int:
        """One untimed round; returns the tracemalloc peak of its ingest."""
        xs = [p.x for p in stream]
        gc.collect()
        tracemalloc.start()
        try:
            model, _ = ingest(self.sp, self.params, xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        labels = self.sp.get_clustering(model)
        self.sp.assign_points(model, labels, self.workload.queries(model, np.array(xs)))
        return peak

    def _call(self, timings, key, fn, *args):
        if timings is None:
            return fn(*args)
        return timings.call(self.speed, key, fn, *args)

    def round(self, xs, timings=None, queries=None):
        """One ingest of the stream plus the offline queries on its model.

        With `timings` to fill, the calls are timed and each offline query
        is repeated; without, each runs once. `queries` defaults to the
        workload's query set for the new model.
        """
        w = self.workload
        gc.collect()
        if timings is None:
            model, _ = ingest(self.sp, self.params, xs)
            cluster_reps = assign_reps = 1
        else:
            model, _ = ingest(self.sp, self.params, xs, self.speed, timings,
                              burn_in=self.params.max_structures)
            cluster_reps, assign_reps = w.cluster_reps, w.assign_reps
        self.attempted += len(xs)
        for _ in range(cluster_reps):
            labels = self._call(timings, "cluster", self.sp.get_clustering, model)
        if queries is None:
            queries = w.queries(model, np.array(xs))
        for _ in range(assign_reps):
            assigned = self._call(timings, "assign", self.sp.assign_points,
                                  model, labels, queries)
        self.attempted += cluster_reps + assign_reps
        return model, labels, queries, assigned

    def cli(self, timings=None):
        """One in-process CLI run; returns (stdout, exit code)."""
        shutil.rmtree(self.cli_dir, ignore_errors=True)
        args = self.workload.cli_args(self.seed, self.cli_dir)
        out = io.StringIO()
        main_fn = sys.modules["spclust.cli"].main
        with contextlib.redirect_stdout(out):
            code = self._call(timings, "cli", main_fn, args)
        self.attempted += 1
        self.failed += code != 0
        return out.getvalue(), code

    def timed(self, stream, seconds, timings, peak):
        """Rounds until `seconds` have passed, then the CLI runs.

        Returns the end-to-end metrics at the reference speed and from
        wall times.
        """
        xs = [p.x for p in stream]
        start = time.perf_counter()
        rounds = 0
        while not rounds or time.perf_counter() - start < seconds:
            model, labels, queries, assigned = self.round(xs, timings)
            rounds += 1
        for _ in range(self.workload.cli_reps):
            stdout, code = self.cli(timings)
        self.check(stream, model, labels, queries, assigned, stdout, code)
        self.info.update(rounds=rounds, ingest_s=timings.raw["ingest"],
                         cli_s=timings.raw["cli"],
                         samples={k: len(v) for k, v in timings.raw.items()})
        return tuple(end_to_end(times, len(xs), queries.shape[0], peak)
                     for times in (timings.ref, timings.raw))

    def traced(self, stream):
        """One round and one CLI run with every layer wrapped; wall times."""
        xs = [p.x for p in stream]
        model, untraced = ingest(self.sp, self.params, xs)
        self.attempted += len(xs)
        # the traced round builds the same model, so its query set is built
        # here, outside the trace
        queries = self.workload.queries(model, np.array(xs))
        tracer = Tracer()
        tracer.install()
        try:
            self.sp.datasets.build_stream(self.workload.spec(self.sp, self.seed))
            model, labels, queries, assigned = self.round(xs, queries=queries)
            traced = tracer.busy["engine.update"]
            stdout, code = self.cli()
            # run_info.json holds the CLI's own wall time, whose length varies
            cli_bytes = sum(f.stat().st_size for f in self.cli_dir.iterdir()
                            if f.name != "run_info.json")
        finally:
            tracer.uninstall()
        print(f"tracing overhead: ingest {untraced:.3f} s untraced, {traced:.3f} s traced "
              f"({100.0 * (traced / untraced - 1.0):+.1f}%)")
        self.check(stream, model, labels, queries, assigned, stdout, code)
        self.info.update(ingest_untraced_s=untraced, ingest_traced_s=traced)
        return tracer.metrics(model.diagnostics.as_dict(), cli_bytes)

    def check(self, stream, model, labels, queries, assigned, stdout, code):
        w = self.workload
        summary = checks.Summary(model)
        self.problems += checks.invariants(model, summary)
        self.problems += checks.core_partition(summary, labels.labels, self.params)
        self.problems += checks.assignment(summary, labels.labels, queries, assigned,
                                           self.params.m)

        truth = [p.label for p in stream]
        points = np.array([p.x for p in stream])
        pred = assigned if not w.lattice else self.sp.assign_points(model, labels, points)
        purity, nmi = checks.purity_nmi(pred, truth)
        self.info.update(purity=purity, nmi=nmi)
        if w.min_purity is not None:
            self.problems += checks.quality(purity, nmi, w.min_purity, w.min_nmi)

        self.problems += checks.cli_outputs(
            self.cli_dir, stdout, code, purity, nmi, model,
            lattice_points=queries if w.lattice else None,
            lattice_labels=assigned if w.lattice else None)
        shutil.rmtree(self.cli_dir, ignore_errors=True)

    def result(self, values: dict, metrics: list) -> dict:
        """The result line: `metrics` (BENCHMARK.json entries) from `values`."""
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in metrics},
        }


if __name__ == "__main__":
    sys.exit(main())
