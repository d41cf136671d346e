"""Output validation and fingerprints.

The checks read what the pipeline wrote to its results store and verify it
against properties that hold whatever the RNG stream is: a one-pixel record
changes one pixel and re-forwards to what it claims, a recorded epsilon is
the first grid point that flips, graph metrics agree with scipy, pruning
removes floor(alpha * N) edges per step. Each check returns a list of
failure messages; an empty list means the operation passed.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components, shortest_path

from snnrobust import experiment
from snnrobust.experiment import INPUT_DIM, OUTPUT_DIM, ExperimentManifest
from snnrobust.network import MaskedNetwork, backward, forward, load_checkpoint
from snnrobust.store import ResultsStore
from workloads import gen_store

IMG_SIDE = 28
TOL = 1e-9


@dataclass
class Report:
    """Validated operations of one round plus the computed counts."""

    ops: int = 0                 # headline operations completed
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0
    counts: dict = field(default_factory=dict)

    def add(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed_ops += 1
            self.failures.extend(f"{name}: {p}" for p in problems)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL * max(1.0, abs(a), abs(b))


# --- attacks --------------------------------------------------------------


def check_one_pixel(net: MaskedNetwork, x: np.ndarray, y: int, row: dict,
                    max_iter: int, x_adv: np.ndarray | None = None) -> list[str]:
    """A one-pixel record changes at most the one pixel it names, to I/255,
    and a re-forward of the perturbed image gives its success flag and
    confidence. ``x_adv`` defaults to the image the record describes."""
    px, py, intensity = int(row["p_x"]), int(row["p_y"]), float(row["I"])
    gens = int(row["generations_used"])
    problems = []
    if not (1 <= px <= IMG_SIDE and 1 <= py <= IMG_SIDE):
        problems.append(f"pixel ({px},{py}) outside the image")
        return problems
    if not 0.0 <= intensity <= 255.0:
        problems.append(f"intensity {intensity} outside [0, 255]")
    if not 0 <= gens <= max_iter:
        problems.append(f"{gens} generations outside [0, {max_iter}]")
    pos = (py - 1) * IMG_SIDE + (px - 1)
    if x_adv is None:
        x_adv = x.copy()
        x_adv[pos] = intensity / 255.0
    changed = np.flatnonzero(x_adv != x)
    if changed.size > 1 or (changed.size == 1 and changed[0] != pos):
        problems.append(f"{changed.size} pixels changed, expected only #{pos}")
    elif x_adv[pos] != intensity / 255.0:
        problems.append("pixel value differs from the recorded intensity")
    _, probs, _ = forward(net, x_adv)
    pred = int(probs.argmax())
    if bool(int(row["success"])) != (pred != y):
        problems.append(f"success={row['success']} but re-forward predicts {pred} "
                        f"for label {y}")
    if not _close(float(row["confidence"]), float(probs[pred])):
        problems.append(f"confidence {row['confidence']} != re-forward {probs[pred]}")
    return problems


def check_eps_search(net: MaskedNetwork, x: np.ndarray, y: int, row: dict,
                     start: float, step: float, cap: float) -> list[str]:
    """The recorded epsilon flips the prediction and epsilon - step does not;
    a censored record flips at no grid point up to the cap."""
    _, probs0, cache = forward(net, x)
    direction = np.sign(backward(net, cache, y)[2])

    def pred_at(eps: float) -> tuple[int, float]:
        if eps <= 0.0:
            return int(probs0.argmax()), float(probs0.max())
        _, probs, _ = forward(net, np.clip(x + eps * direction, 0.0, 1.0))
        return int(probs.argmax()), float(probs.max())

    problems = []
    if int(probs0.argmax()) != y:
        problems.append("searched image is not correctly classified")
    if row["epsilon_used"] == "":
        if int(row["success"]):
            problems.append("censored record marked successful")
        last = start + step * np.floor((cap - start) / step + 1e-9)
        pred, conf = pred_at(last)
        if pred != y:
            problems.append(f"censored, but eps={last:.4f} flips to {pred}")
        elif not _close(float(row["confidence"]), conf):
            problems.append(f"confidence {row['confidence']} != re-forward {conf}")
        return problems
    eps = float(row["epsilon_used"])
    pred, conf = pred_at(eps)
    if pred == y:
        problems.append(f"eps={eps} does not flip the prediction")
    elif not _close(float(row["confidence"]), conf):
        problems.append(f"confidence {row['confidence']} != re-forward {conf}")
    prev = eps - step
    if pred_at(prev if prev >= start - 1e-9 else 0.0)[0] != y:
        problems.append(f"eps - step = {prev} already flips the prediction")
    return problems


def _check_attacks(report: Report, m: ExperimentManifest, store: ResultsStore,
                   test_set) -> None:
    atk = m.attacks
    max_iter = m.de_config(0).max_iter
    generations = 0
    for graph_id, init in store.completed_pairs(None):
        net, _ = load_checkpoint(store.checkpoint_path(graph_id, init))
        mdir = store.model_dir(graph_id, init)
        for row in _read_csv(mdir / "one_pixel.csv"):
            i = int(row["image_index"])
            report.add(f"{graph_id}/{init} one-pixel #{i}", check_one_pixel(
                net, test_set.images[i], int(test_set.labels[i]), row, max_iter))
            report.ops += 1
            generations += int(row["generations_used"])
        for row in _read_csv(mdir / "fgsm_search.csv"):
            i = int(row["image_index"])
            report.add(f"{graph_id}/{init} eps-search #{i}", check_eps_search(
                net, test_set.images[i], int(test_set.labels[i]), row,
                atk.search_start, atk.search_step, atk.search_cap))
    report.counts["de_generations"] = generations


# --- graphs ---------------------------------------------------------------


def recount_params(doc: dict) -> int:
    """Parameter count of the network a stored graph induces, counted from
    the edge list alone: 784 inputs into every source (no lower-indexed
    neighbour), one weight per edge, 10 outputs from every sink (no
    higher-indexed neighbour), and a bias per hidden unit and output."""
    n = doc["vertex_count"]
    has_lower = np.zeros(n, bool)
    has_higher = np.zeros(n, bool)
    for u, v in doc["edges"]:
        has_higher[min(u, v)] = True
        has_lower[max(u, v)] = True
    sources = int((~has_lower).sum())
    sinks = int((~has_higher).sum())
    return INPUT_DIM * sources + len(doc["edges"]) + OUTPUT_DIM * sinks + n + OUTPUT_DIM


def check_path_metrics(doc: dict) -> list[str]:
    """Compare the stored path metrics with scipy's shortest paths on the
    largest connected component."""
    n = doc["vertex_count"]
    edges = np.array(doc["edges"], dtype=np.int64).reshape(-1, 2)
    adj = csr_matrix((np.ones(len(edges)), (edges[:, 0], edges[:, 1])), shape=(n, n))
    _, labels = connected_components(adj, directed=False)
    sizes = np.bincount(labels)
    # largest component; ties go to the one holding the lowest vertex
    comp = np.flatnonzero(labels == labels[np.flatnonzero(sizes[labels] == sizes.max())[0]])
    dist = shortest_path(adj, directed=False, unweighted=True)[np.ix_(comp, comp)]
    nc = len(comp)
    got = doc["metrics"]
    problems = []
    if nc < 2:
        return problems
    ecc = dist.max(axis=1)
    upper = dist[np.triu_indices(nc, 1)].astype(np.int64)
    expect = {
        "diameter": float(ecc.max()),
        "avg_path_length": float(dist.sum() / (nc * (nc - 1))),
        "avg_eccentricity": float(ecc.mean()),
        "avg_closeness": float(np.mean((nc - 1) / dist.sum(axis=1))),
    }
    for key, value in expect.items():
        if not _close(float(got[key]), value):
            problems.append(f"{key} {got[key]} != scipy {value}")
    hist = np.bincount(upper, minlength=int(ecc.max()) + 1).tolist()
    hist[0] = 0
    if got["path_length_distribution"] != hist:
        problems.append("path_length_distribution differs from scipy")
    return problems


def check_graphs(m: ExperimentManifest, store: ResultsStore) -> Report:
    report = Report()
    lo, hi = m.param_range
    for path in sorted((store.root / "graphs").glob("*.json")):
        doc = json.loads(path.read_text())
        problems = []
        if not lo <= doc["param_count"] <= hi:
            problems.append(f"param_count {doc['param_count']} outside [{lo}, {hi}]")
        recount = recount_params(doc)
        if recount != doc["param_count"]:
            problems.append(f"param_count {doc['param_count']} != recount {recount}")
        problems += check_path_metrics(doc)
        report.add(path.stem, problems)
        report.ops += 1
    if report.attempted < m.target_graph_count:
        report.failures.append(f"only {report.attempted} of "
                               f"{m.target_graph_count} graphs accepted")
        missing = m.target_graph_count - report.attempted
        report.attempted += missing
        report.failed_ops += missing
    gen = json.loads((store.root / "generation.json").read_text())
    report.counts["graphs"] = report.ops
    report.counts["candidates"] = gen["accepted"] + gen["rejected"]
    return report


# --- sweep -------------------------------------------------------------


def _provenance(store: ResultsStore) -> list[dict]:
    path = store.root / "provenance.json"
    return json.loads(path.read_text()) if path.exists() else []


def check_sweep(m: ExperimentManifest, store: ResultsStore) -> Report:
    report = Report()
    failed_tasks = {(e["graph_id"], e["init_method"]) for e in _provenance(store)
                    if e["event"] == "task-failed"}
    for entry in store.load_graph_entries():
        for init in m.init_methods:
            problems = []
            if (entry.graph_id, init) in failed_tasks:
                problems.append("task-failed in provenance")
            if not store.pair_done(entry.graph_id, init, m.manifest_hash):
                problems.append("no done.json carrying the manifest hash")
            else:
                net, _ = load_checkpoint(store.checkpoint_path(entry.graph_id, init))
                try:
                    net.assert_mask_invariant()
                except ValueError as exc:
                    problems.append(f"reloaded checkpoint: {exc}")
                report.ops += 1
            report.add(f"{entry.graph_id}/{init}", problems)
    report.counts["models"] = report.ops
    rows = _read_csv(store.root / "correlations.csv")
    width = {len(r) - 1 for r in rows}
    if len(rows) != 5 or width != {5}:
        report.failures.append(f"correlation table is {len(rows)}x{width}, not 5x5")
        report.failed_ops = report.attempted
    return report


# --- reattack --------------------------------------------------------------


def check_reattack(m: ExperimentManifest, store: ResultsStore) -> Report:
    report = Report()
    _, test_set = experiment.load_data_source(experiment.resolve_data_source(m, None))
    _check_attacks(report, m, store, test_set)
    report.counts["one_pixel_images"] = report.ops
    return report


# --- prune ---------------------------------------------------------------


def check_prune(m: ExperimentManifest, store: ResultsStore) -> Report:
    report = Report()
    rows = _read_csv(store.root / "pruning" / "steps.csv")
    alpha = m.pruning.alpha
    prev = None
    for row in rows:
        edges = int(row["hidden_edges"])
        problems = []
        if prev is not None and edges != prev - int(np.floor(alpha * prev)):
            problems.append(f"{edges} hidden edges after {prev}; expected "
                            f"{prev - int(np.floor(alpha * prev))}")
        report.add(f"step {row['step']}", problems)
        report.ops += 1
        prev = edges
    report.counts["prune_steps"] = report.ops
    if len(rows) != m.pruning.steps + 1:
        report.failures.append(f"{len(rows)} step records, expected "
                               f"{m.pruning.steps + 1}")
        report.failed_ops = report.attempted = max(report.attempted,
                                                   m.pruning.steps + 1)
    return report


# --- desk ----------------------------------------------------------------


def check_desk(m: ExperimentManifest, store: ResultsStore) -> Report:
    """The checks of desk's three stages, summed."""
    report = Report()
    for part in (check_graphs(m, gen_store(store)), check_sweep(m, store),
                 check_prune(m, store)):
        report.ops += part.ops
        report.attempted += part.attempted
        report.failed_ops += part.failed_ops
        report.failures += part.failures
        report.counts.update(part.counts)
    return report


CHECKS = {"desk": check_desk, "graphs": check_graphs, "sweep": check_sweep,
          "reattack": check_reattack, "prune": check_prune}


# --- fingerprint ------------------------------------------------------------

FINGERPRINT_GLOBS = ("graphs/*.json", "gen/graphs/*.json", "models/*/robustness.json",
                     "models/*/checkpoint.bin", "correlations_long.csv",
                     "pruning/correlations_long.csv", "pruning/steps.csv")


def fingerprint(root: Path) -> str:
    """SHA-256 over the outputs that fix a run's results, by relative path."""
    h = hashlib.sha256()
    paths = sorted({p for pattern in FINGERPRINT_GLOBS for p in root.glob(pattern)})
    for path in paths:
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        h.update(len(rel).to_bytes(4, "little") + rel)
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()
