"""Correctness checks computed independently of spclust.

Nothing here imports spclust: distances, typicalities, the DBSCAN core
partition, nearest-structure assignment and purity/NMI are recomputed in
numpy from the model's public snapshot. Each check returns a list of
problems; an empty list means the check passed.
"""

import json
from pathlib import Path

import numpy as np

# Structure distances this close to epsilon may fall on either side of it
# under a different but equally valid rounding.
EPS_AMBIGUITY = 1e-9
# Decision distances this close to the minimum count as a tie.
ASSIGN_TIE = 1e-9
# Spread floor slack, relative to the norm of the spread.
FLOOR_SLACK = 1e-10


def typicality(d_sq: np.ndarray, m: float) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.asarray(d_sq, dtype=float) ** (1.0 / (m - 1.0)))


def mahalanobis_sq(chol: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Row-wise delta' (L L')^-1 delta for an (n, d) array of deltas."""
    y = np.linalg.solve(chol, deltas.T)
    return np.einsum("ij,ij->j", y, y)


class Summary:
    """numpy copy of a model's structures, ordered as model.ids()."""

    def __init__(self, model):
        snap = model.snapshot()
        self.ids = list(model.ids())
        self.mus = np.array([s.mu for s in snap])
        self.sigmas = [np.asarray(s.sigma) for s in snap]
        self.weights = np.array([s.weight for s in snap])
        self.ages = [int(s.age) for s in snap]
        self.chols = [np.linalg.cholesky(s) for s in self.sigmas]

    def structure_distances(self, m: float) -> np.ndarray:
        """1 - u_ij u_ji with u_ij the typicality of mean j in structure i."""
        n = len(self.ids)
        u = np.ones((n, n))
        for i in range(n):
            u[i] = typicality(mahalanobis_sq(self.chols[i], self.mus - self.mus[i]), m)
        dist = 1.0 - u * u.T
        np.fill_diagonal(dist, 0.0)
        return dist

    def decision_distances(self, queries: np.ndarray, m: float) -> np.ndarray:
        out = np.empty((len(self.ids), queries.shape[0]))
        for i, chol in enumerate(self.chols):
            u = typicality(mahalanobis_sq(chol, queries - self.mus[i]), m)
            out[i] = 1.0 - u * u
        return out


def invariants(model, summary: Summary) -> list[str]:
    """Budget, age conservation, weight range and the spread floor."""
    problems = []
    budget = model.params.max_structures
    if len(summary.ids) > budget:
        problems.append(f"{len(summary.ids)} structures exceed the budget {budget}")
    if sum(summary.ages) + model.retired_age != model.clock:
        problems.append(f"ages {sum(summary.ages)} + retired {model.retired_age} "
                        f"!= clock {model.clock}")
    if not np.all((summary.weights >= 0.0) & (summary.weights <= 1.0)):
        problems.append(f"weights outside [0, 1]: {summary.weights.min()!r}.."
                        f"{summary.weights.max()!r}")
    for ident, sigma in zip(summary.ids, summary.sigmas):
        # the largest absolute row sum bounds the spectral norm from above
        norm = float(np.abs(sigma).sum(axis=1).max())
        if np.max(np.abs(sigma - sigma.T)) > 1e-12 * norm:
            problems.append(f"spread of structure {ident} is not symmetric")
        # Cholesky succeeds iff sigma - (1 - slack) I is positive definite,
        # i.e. iff the smallest eigenvalue of sigma exceeds 1 - slack
        floor = 1.0 - FLOOR_SLACK * max(norm, 1.0)
        try:
            np.linalg.cholesky(sigma - floor * np.eye(sigma.shape[0]))
        except np.linalg.LinAlgError:
            lam = np.linalg.eigvalsh(sigma)[0]
            problems.append(f"spread of structure {ident} has eigenvalue {lam!r} < 1")
    return problems


def core_partition(summary: Summary, labels: dict, params) -> list[str]:
    """get_clustering's partition of core structures against union-find.

    The true neighbour graph lies between the graph of pairs at most
    epsilon - EPS_AMBIGUITY apart and that of pairs at most
    epsilon + EPS_AMBIGUITY apart. Cores of the first must be linked as
    its components say, and no two of them may share a label unless the
    second graph connects them. Without ambiguous pairs both graphs agree
    and the partitions must be equal.
    """
    dist = summary.structure_distances(params.m)
    strict = dist <= params.epsilon - EPS_AMBIGUITY
    loose = dist <= params.epsilon + EPS_AMBIGUITY
    core_strict = strict.sum(axis=1) >= params.min_pts
    core_loose = loose.sum(axis=1) >= params.min_pts
    comp_strict = _components(strict, core_strict)
    comp_loose = _components(loose, core_loose)
    got = [labels[i] for i in summary.ids]
    split, joined = [], []
    cores = np.flatnonzero(core_strict)
    for a in cores:
        for b in cores[cores > a]:
            pair = (summary.ids[a], summary.ids[b])
            if comp_strict[a] == comp_strict[b] and got[a] != got[b]:
                split.append(pair)
            if got[a] == got[b] and comp_loose[a] != comp_loose[b]:
                joined.append(pair)
    problems = []
    if split:
        problems.append(f"{len(split)} density-connected core pairs labelled apart, "
                        f"first {split[0]}")
    if joined:
        problems.append(f"{len(joined)} core pairs share a label but are not "
                        f"density-connected, first {joined[0]}")
    return problems


def _components(adj: np.ndarray, members: np.ndarray) -> np.ndarray:
    parent = list(range(adj.shape[0]))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    idx = np.flatnonzero(members)
    for a in idx:
        for b in idx[idx > a]:
            if adj[a, b]:
                parent[find(a)] = find(b)
    return np.array([find(i) for i in range(adj.shape[0])])


def assignment(summary: Summary, labels: dict, queries: np.ndarray, got, m: float
               ) -> list[str]:
    """Each assigned label belongs to a structure at the minimal decision distance."""
    dist = summary.decision_distances(queries, m)
    best = dist.min(axis=0)
    label_of = np.array([labels[i] for i in summary.ids])
    got = np.asarray(got)
    if got.shape != best.shape:
        return [f"{got.shape[0]} labels for {best.shape[0]} query points"]
    near = dist <= best + ASSIGN_TIE
    ok = (near & (label_of[:, None] == got[None, :])).any(axis=0)
    bad = np.flatnonzero(~ok)
    if bad.size:
        return [f"{bad.size} of {got.size} points assigned away from the nearest "
                f"structure (first at query {bad[0]})"]
    return []


def purity_nmi(pred, truth) -> tuple[float, float]:
    """Purity and NMI (geometric-mean normalization, natural logs)."""
    _, p = np.unique(np.asarray(pred), return_inverse=True)
    _, t = np.unique(np.asarray(truth), return_inverse=True)
    counts = np.zeros((p.max() + 1, t.max() + 1))
    np.add.at(counts, (p, t), 1.0)
    n = counts.sum()
    purity = float(counts.max(axis=1).sum() / n)
    p_row = counts.sum(axis=1) / n
    p_col = counts.sum(axis=0) / n
    h_row = -float(np.sum(p_row * np.log(p_row)))
    h_col = -float(np.sum(p_col * np.log(p_col)))
    if h_row == 0.0 and h_col == 0.0:
        return purity, 1.0
    if h_row == 0.0 or h_col == 0.0:
        return purity, 0.0
    joint = counts / n
    nz = joint > 0
    info = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(p_row, p_col)[nz])))
    return purity, info / float(np.sqrt(h_row * h_col))


def quality(purity: float, nmi: float, min_purity: float, min_nmi: float) -> list[str]:
    if purity >= min_purity and nmi >= min_nmi:
        return []
    return [f"purity {purity:.4f} / NMI {nmi:.4f} below {min_purity} / {min_nmi}"]


def cli_outputs(out_dir: Path, stdout: str, code: int, purity: float, nmi: float,
                model, lattice_points=None, lattice_labels=None) -> list[str]:
    """The CLI's exit code, printed scores, metrics.json and grid.csv."""
    if code != 0:
        return [f"CLI exited with {code}"]
    problems = []
    printed = dict(kv.split("=", 1) for kv in stdout.split())
    if (abs(float(printed["purity"]) - purity) > 5.01e-5
            or abs(float(printed["nmi"]) - nmi) > 5.01e-5):
        problems.append(f"CLI printed {stdout.strip()!r}, library pass gives "
                        f"purity={purity:.4f} nmi={nmi:.4f}")
    metrics_path = out_dir / "metrics.json"
    if lattice_points is None:
        metrics = json.loads(metrics_path.read_text())
        if abs(metrics["purity"] - purity) > 1e-12 or abs(metrics["nmi"] - nmi) > 1e-9:
            problems.append(f"metrics.json purity/NMI {metrics['purity']}/{metrics['nmi']} "
                            f"differ from the library pass {purity}/{nmi}")
        if metrics["diagnostics"] != model.diagnostics.as_dict():
            problems.append("metrics.json diagnostics differ from the library pass")
        if metrics["n_structures"] != len(model):
            problems.append("metrics.json structure count differs from the library pass")
    else:
        grid = np.loadtxt(out_dir / "grid.csv", delimiter=",", skiprows=1)
        if grid.shape != (lattice_points.shape[0], 5):
            problems.append(f"grid.csv has shape {grid.shape}, expected "
                            f"({lattice_points.shape[0]}, 5)")
        elif not np.array_equal(grid[:, :2], lattice_points):
            problems.append("grid.csv lattice differs from the library lattice")
        elif not np.array_equal(grid[:, 2].astype(int), np.asarray(lattice_labels)):
            problems.append("grid.csv labels differ from the library assignment")
    return problems
