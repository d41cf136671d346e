"""The benchmark workloads: manifest, set-up and timed phase of each.

Every workload drives the public functions of ``snnrobust.experiment`` the
way the ``snnrobust`` command does, with ``workers=1`` and the synthetic
corpus pinned. Calls go through the module attributes
(``experiment.run_sweep`` and so on) so that a traced round sees the
wrappers installed by ``spans.Tracer``.

A workload is a closed loop of one caller: the timed phase is one batch job
that runs to completion. ``setup`` prepares what the job reads and is timed
separately; ``run`` is the timed job and returns the wall time of each of
its stages. ``validate.CHECKS`` counts the operations it completed from its
outputs.

``desk`` and ``reattack`` are the benchmark's workloads. ``graphs``,
``sweep`` and ``prune`` are the three stages of ``desk`` on their own, for a
closer look at one stage.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from snnrobust import experiment
from snnrobust.experiment import (INPUT_DIM, OUTPUT_DIM, ExperimentManifest,
                                  GridSpec, ScaleFactors, derive_seed)
from snnrobust.graph import compute_metrics, generate_ws, layer_dag, to_dag
from snnrobust.network import build_network, init_weights, save_checkpoint
from snnrobust.store import GraphEntry, ResultsStore
from snnrobust.train import train


def master_seed(seed: int) -> int:
    """The manifest's master seed, derived from the benchmark seed."""
    digest = hashlib.sha256(f"perfbench|{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


def _manifest(seed: int, train_n: int, test_n: int, **scale) -> ExperimentManifest:
    m = ExperimentManifest()
    m.master_seed = master_seed(seed)
    m.dataset = "synthetic"
    m.synthetic_train_n = train_n
    m.synthetic_test_n = test_n
    m.scale = ScaleFactors(**scale)
    return m


def _no_setup(m: ExperimentManifest, store: ResultsStore, tiny: bool) -> None:
    """Nothing to prepare beyond the imports: the job loads its own data."""


def _source(m: ExperimentManifest) -> tuple:
    return experiment.resolve_data_source(m, None)


# Stored graphs have a fixed topology, like a fixed problem size: the
# benchmark seed varies weights, data and attacks, not the network shape,
# whose layer and group counts would otherwise dominate the spread of
# per-model times between seeds.
STORED_GRAPH_SEED = 2107_06158


def _store_graphs(store: ResultsStore,
                  generators: list[tuple[int, int, float]]) -> None:
    """Write one stored graph per (size, nei, p), as gen-graphs would."""
    for i, (size, nei, p) in enumerate(generators):
        gseed = derive_seed(STORED_GRAPH_SEED, "bench-graph", i)
        g = generate_ws(size, nei, p, gseed)
        store.save_graph_entry(GraphEntry(
            graph_id=f"g{i:04d}", graph=g,
            generator={"size": size, "nei": nei, "p": p, "seed": gseed},
            metrics=compute_metrics(g),
            param_count=experiment.candidate_param_count(g)))


# --- graphs --------------------------------------------------------------
# The graph layer and the parameter filter alone: no data, training or
# attacks. The grid keeps every nei but only sizes 400 and 500 and p in
# {0.5, 0.7, 0.8, 0.9}. Only nei=2 candidates pass the 50k-91k filter: at
# most (400, 2, 0.7-0.9) in the first size, and (500, 2, 0.7-0.9) for every
# seed tried. So a target of 4 accepted graphs stops the walk after 25 to 28
# candidates whatever the seed, 21 or more of them rejected, and the job's
# length varies little between seeds.


def graphs_manifest(seed: int, tiny: bool) -> ExperimentManifest:
    m = _manifest(seed, 1000, 200)
    m.grid = GridSpec(size=[400, 500], p=[0.5, 0.7, 0.8, 0.9])
    m.target_graph_count = 1 if tiny else 4
    return m


def graphs_run(m: ExperimentManifest, store: ResultsStore) -> dict[str, float]:
    return _stages(("graphs", lambda: experiment.build_graph_dataset(m, store)))


# --- sweep ---------------------------------------------------------------
# The per-model task users repeat: train, evaluate, three attacks and a
# checkpoint for 3 stored graphs x 2 inits, then correlate and report. Three
# graphs is the fewest that correlate accepts. The first task pays the lazy
# synthetic-data load, as a sweep worker does.


def sweep_manifest(seed: int, tiny: bool) -> ExperimentManifest:
    if tiny:
        m = _manifest(seed, 300, 100, epochs=1 / 30, train_subset=1.0,
                      test_subset=0.5, search_subset=0.1, one_pixel=0.01,
                      de_pop=0.01, de_iter=0.01)
        m.init_methods = ["G_N"]
        return m
    m = _manifest(seed, 3000, 1000, epochs=1 / 30, train_subset=1.0,
                  test_subset=0.2, search_subset=0.1, one_pixel=0.03,
                  de_pop=0.06, de_iter=0.04)
    m.init_methods = ["G_N", "U"]
    return m


SWEEP_GRAPHS = [(400, 2, 0.7), (400, 2, 0.8), (400, 2, 0.9)]
TINY_GRAPHS = [(250, 2, 0.5), (250, 2, 0.7), (250, 2, 0.9)]


def sweep_setup(m: ExperimentManifest, store: ResultsStore, tiny: bool) -> None:
    _store_graphs(store, TINY_GRAPHS if tiny else SWEEP_GRAPHS)


def _sweep_stage(m: ExperimentManifest, store: ResultsStore) -> None:
    experiment.run_sweep(m, store, _source(m), workers=1)
    experiment.correlate(m, store)
    experiment.render_report(m, store)


def sweep_run(m: ExperimentManifest, store: ResultsStore) -> dict[str, float]:
    return _stages(("sweep", lambda: _sweep_stage(m, store)))


# --- reattack ------------------------------------------------------------
# The full-scale hot path: the paper's DE population of 500 with a capped
# generation budget against a checkpoint trained during set-up. No training
# and no graph generation in the timed phase; the network runs forward-only
# on 500 near-identical inputs per generation. An image the attack flips
# skips its remaining generations, so the share of images flipped moves the
# job's length. The checkpoint is trained for 10 epochs, because a weak
# model lets a seed-dependent share of images flip. 80 images at 2
# generations each, rather than 20 at 10, average that share over more
# images, and the initial population, whose 500 forwards every image pays,
# is a third of the work: the number of forwards spans about 4 % between
# seeds rather than 15 %. A 200-image test subset holds 80 correctly
# classified images for every seed tried.


def reattack_manifest(seed: int, tiny: bool) -> ExperimentManifest:
    if tiny:
        return _manifest(seed, 300, 100, epochs=1 / 30, test_subset=0.5,
                         search_subset=0.05, one_pixel=0.01, de_pop=0.02,
                         de_iter=0.004)
    return _manifest(seed, 3000, 1000, epochs=10 / 30, train_subset=1.0,
                     test_subset=0.2, search_subset=0.05, one_pixel=0.8,
                     de_pop=1.0, de_iter=0.004)


REATTACK_GRAPHS = [(400, 2, 0.9)]
REATTACK_INITS = ["G_N"]


def reattack_setup(m: ExperimentManifest, store: ResultsStore, tiny: bool) -> None:
    """Train a checkpoint per init on the stored graph and mark it done."""
    _store_graphs(store, TINY_GRAPHS[:1] if tiny else REATTACK_GRAPHS)
    train_set, _ = experiment.load_data_source(_source(m))
    subset = train_set.subset(np.arange(m.train_subset_n(train_set.n)))
    for entry in store.load_graph_entries():
        base = build_network(layer_dag(to_dag(entry.graph)), INPUT_DIM, OUTPUT_DIM)
        for init in REATTACK_INITS:
            net = init_weights(base, init,
                               derive_seed(m.master_seed, entry.graph_id, init, "init"))
            train(net, subset, m.train_config(
                epochs=m.effective_epochs(),
                seed=derive_seed(m.master_seed, entry.graph_id, init, "train")))
            save_checkpoint(net, store.checkpoint_path(entry.graph_id, init),
                            extra={"graph_id": entry.graph_id})
            store.mark_pair_done(entry.graph_id, init, m.manifest_hash)


def reattack_run(m: ExperimentManifest, store: ResultsStore) -> dict[str, float]:
    return _stages(("reattack", lambda: experiment.rerun_attacks(m, store, _source(m))))


# --- prune ---------------------------------------------------------------
# The random-pruning baseline with one pruning step instead of 20, at alpha
# 0.5, on a dense 50/100/50 net rather than the 50/100/100/50 reference:
# compute_metrics on the reference's 20k-edge hidden graph alone takes 4-6 s,
# more than the rest of the desk session. It is the only stage that runs
# prune_random and network_to_graph, and the only one whose compute_metrics
# calls see dense (5k-10k edge) hidden graphs.


def prune_manifest(seed: int, tiny: bool) -> ExperimentManifest:
    if tiny:
        m = _manifest(seed, 300, 100, epochs=1 / 30, test_subset=0.5,
                      search_subset=0.05, one_pixel=0.01, de_pop=0.01,
                      de_iter=0.01)
        m.pruning.hidden_layers = [10, 20, 10]
    else:
        m = _manifest(seed, 3000, 1000, epochs=1 / 30, train_subset=1 / 3,
                      test_subset=0.2, search_subset=0.05, one_pixel=0.03,
                      de_pop=0.06, de_iter=0.04)
        m.pruning.hidden_layers = [50, 100, 50]
    m.pruning.steps = 1
    m.pruning.alpha = 0.5
    m.pruning.retrain_epochs = 30
    return m


def prune_run(m: ExperimentManifest, store: ResultsStore) -> dict[str, float]:
    return _stages(("prune", lambda: experiment.run_pruning_baseline(m, store, _source(m))))


# --- desk ----------------------------------------------------------------
# A desk session of the snnrobust command: gen-graphs, sweep, correlate,
# report and prune-baseline, each on the input of its stage workload above.
# gen-graphs writes to its own store under ``gen/`` and the sweep runs on the
# stored graphs of fixed topology, so that the work of every stage stays the
# same between seeds. One manifest carries the three stages' settings; the
# pruning baseline uses the sweep's data scale.


def desk_manifest(seed: int, tiny: bool) -> ExperimentManifest:
    m = sweep_manifest(seed, tiny)
    g, p = graphs_manifest(seed, tiny), prune_manifest(seed, tiny)
    m.grid, m.target_graph_count, m.pruning = g.grid, g.target_graph_count, p.pruning
    return m


def desk_run(m: ExperimentManifest, store: ResultsStore) -> dict[str, float]:
    return _stages(
        ("graphs", lambda: experiment.build_graph_dataset(m, gen_store(store))),
        ("sweep", lambda: _sweep_stage(m, store)),
        ("prune", lambda: experiment.run_pruning_baseline(m, store, _source(m))))


def gen_store(store: ResultsStore) -> ResultsStore:
    """The store that desk's gen-graphs stage writes to."""
    return ResultsStore(store.root / "gen")


def _stages(*stages) -> dict[str, float]:
    """Run each (name, job) in turn; return each stage's wall time."""
    times = {}
    for name, job in stages:
        t0 = time.perf_counter()
        job()
        times[name] = time.perf_counter() - t0
    return times


@dataclass(frozen=True)
class Workload:
    name: str
    manifest: Callable[[int, bool], ExperimentManifest]
    setup: Callable[[ExperimentManifest, ResultsStore, bool], None]
    run: Callable[[ExperimentManifest, ResultsStore], dict[str, float]]


WORKLOADS = {w.name: w for w in (
    Workload("desk", desk_manifest, sweep_setup, desk_run),
    Workload("graphs", graphs_manifest, _no_setup, graphs_run),
    Workload("sweep", sweep_manifest, sweep_setup, sweep_run),
    Workload("reattack", reattack_manifest, reattack_setup, reattack_run),
    Workload("prune", prune_manifest, _no_setup, prune_run),
)}
