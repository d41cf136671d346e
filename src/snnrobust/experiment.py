"""Experiment orchestration: graph-dataset generation with the parameter
filter, the (graph x initialization) training/attack sweep, correlation
analysis, the random-pruning baseline, and report rendering.

Every task derives its own seed from (master_seed, graph_id, init_method,
stage), so results are independent of scheduling order and bit-reproducible
for a fixed manifest.

The manifest's train and test subsets are taken once, where a split is
loaded (``subset_sizes``, then ``load_split``): the loaders build only that
prefix, and every stage uses the loaded split whole, as a view of the one
read-only array a process caches per (source, split, prefix). The sweep
and the re-attack commit each model through one writer, ``_save_attacks``,
whose done.json names the data kind and attack plan that scored it: the
``attack_settings`` dict, all that ``run_attacks`` reads of the manifest.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass, field, replace
from itertools import product
from pathlib import Path

import numpy as np

from . import data as data_mod
from .attack import (ATTACK_CSV_HEADER, DEConfig, fgsm_eps_search, fgsm_many,
                     one_pixel)
from .data import Dataset
from .graph import (GraphMetrics, UndirectedGraph, compute_metrics, generate_ws,
                    layer_dag)
from .measure import (MEASURE_COLUMNS, CorrelationTable, RobustnessRecord,
                      correlation_cell, rank_groups, robustness_record,
                      tukey_fences)
from .network import (INIT_METHODS, MaskedNetwork, NetworkError, build_network,
                      init_weights, load_checkpoint, network_to_graph, param_count,
                      prune_random, save_checkpoint)
from .store import GraphEntry, ResultsStore, Study
from .train import TrainConfig, evaluate_f1, predict, train

log = logging.getLogger("snnrobust")

MANIFEST_SCHEMA_VERSION = 1

INPUT_DIM = 784
OUTPUT_DIM = 10


class ExperimentError(RuntimeError):
    pass


class CorrelationWithheldError(ExperimentError):
    """Too few models, or models scored under mixed plans, to correlate."""


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 63-bit seed from the master seed and a stage path."""
    text = "|".join([str(master_seed), *map(str, parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") & (2**63 - 1)


GRID_SIZE_CHOICES = (250, 300, 350, 400, 500)
GRID_NEI_CHOICES = (2, 4, 6, 8, 10, 20)
GRID_P_CHOICES = (0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class GridSpec:
    size: list[int] = field(default_factory=lambda: list(GRID_SIZE_CHOICES))
    nei: list[int] = field(default_factory=lambda: list(GRID_NEI_CHOICES))
    p: list[float] = field(default_factory=lambda: list(GRID_P_CHOICES))

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        for values, choices, name in ((self.size, GRID_SIZE_CHOICES, "size"),
                                      (self.nei, GRID_NEI_CHOICES, "nei"),
                                      (self.p, GRID_P_CHOICES, "p")):
            bad = [v for v in values if v not in choices]
            if bad:
                raise ValueError(f"grid {name} values {bad} outside the declared set {choices}")


@dataclass
class AttackSettings:
    fgsm_eps: float = 0.1
    search_start: float = 0.001
    search_step: float = 0.01
    search_cap: float = 1.0
    de_pop_size: int = 500
    de_max_iter: int = 500
    de_F: float = 0.5
    de_CR: float = 0.9
    one_pixel_images: int = 100

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ValueError on a setting that would never end the epsilon
        search or that DEConfig refuses."""
        if not (self.fgsm_eps >= 0 and self.search_start >= 0 and self.search_step > 0
                and self.de_F > 0 and 0 <= self.de_CR <= 1
                and all(n >= 1 for n in (self.de_pop_size, self.de_max_iter,
                                         self.one_pixel_images))):
            raise ValueError(
                f"attacks {asdict(self)}: need fgsm_eps and search_start >= 0, search_step "
                "and de_F > 0, de_CR in [0, 1], de_pop_size, de_max_iter and "
                "one_pixel_images >= 1")


@dataclass
class ScaleFactors:
    """Multipliers shrinking the study for desk-scale runs, each > 0; all
    1.0 = full scale. A scaled count rounds to at least one."""

    epochs: float = 1.0
    train_subset: float = 1.0
    test_subset: float = 1.0
    search_subset: float = 1.0
    one_pixel: float = 1.0
    de_pop: float = 1.0
    de_iter: float = 1.0

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        if not all(f > 0 for f in asdict(self).values()):
            raise ValueError(f"scale {asdict(self)}: need every factor > 0")


# the scale factors of the attack plan: with `attacks`, all a re-attack may change
PLAN_SCALES = ("search_subset", "one_pixel", "de_pop", "de_iter")


@dataclass
class PruningSettings:
    alpha: float = 0.1
    steps: int = 20
    retrain_epochs: int = 5
    hidden_layers: list[int] = field(default_factory=lambda: [50, 100, 100, 50])
    init_method: str = "He_N"  # checked with init_methods, by ExperimentManifest.check

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        if (not 0.0 <= self.alpha <= 1.0 or min(self.steps, self.retrain_epochs) < 0
                or not self.hidden_layers or min(self.hidden_layers) < 1):
            raise ValueError(f"pruning {asdict(self)}: need alpha in [0, 1], steps and "
                             "retrain_epochs >= 0, hidden_layers non-empty and positive")


# graph property name -> GraphMetrics field; num_parameters is the network's
METRIC_PROPERTIES = {
    "vertex_count": "vertex_count",
    "edge_count": "edge_count",
    "density": "density_undirected",
    "density_directed": "density_directed",
    "diameter": "diameter",
    "avg_path_length": "avg_path_length",
    "avg_eccentricity": "avg_eccentricity",
    "avg_betweenness": "avg_betweenness",
    "avg_closeness": "avg_closeness",
}
PROPERTY_NAMES = ("num_parameters", *METRIC_PROPERTIES)
DEFAULT_PROPERTIES = ["num_parameters", "density", "avg_path_length",
                      "avg_eccentricity", "diameter"]
# the manifest's sections by field name; each checks itself, raising ValueError
SECTIONS = {"grid": GridSpec, "train": TrainConfig, "attacks": AttackSettings,
            "scale": ScaleFactors, "pruning": PruningSettings}
# the manifest's counts, each an integer >= 1
COUNTS = ("target_graph_count", "max_generation_rounds", "synthetic_train_n",
          "synthetic_test_n")


def graph_properties(metrics: GraphMetrics, num_parameters: int) -> dict:
    """Every graph property a manifest may correlate, by name."""
    props = {"num_parameters": num_parameters}
    props.update((name, getattr(metrics, f)) for name, f in METRIC_PROPERTIES.items())
    return props


def stored_properties(store: ResultsStore) -> dict[str, dict]:
    """graph_properties of every stored graph, by graph id."""
    return {e.graph_id: graph_properties(e.metrics, e.param_count)
            for e in store.load_graph_entries()}


@dataclass
class ExperimentManifest:
    grid: GridSpec = field(default_factory=GridSpec)
    target_graph_count: int = 100
    param_range: tuple[int, int] = (50_000, 91_000)
    init_methods: list[str] = field(default_factory=lambda:
                                    ["G_N", "G_U", "He_N", "He_U", "N", "U"])
    train: TrainConfig = field(default_factory=TrainConfig)
    attacks: AttackSettings = field(default_factory=AttackSettings)
    scale: ScaleFactors = field(default_factory=ScaleFactors)
    pruning: PruningSettings = field(default_factory=PruningSettings)
    master_seed: int = 20240101
    dataset: str = "mnist"  # mnist | synthetic | auto
    synthetic_train_n: int = 12_000
    synthetic_test_n: int = 2_000
    properties: list[str] = field(default_factory=lambda: list(DEFAULT_PROPERTIES))
    outlier_mode: str = "run"  # run | model
    max_generation_rounds: int = 50

    def __post_init__(self):
        self.check()

    def check(self) -> None:
        """Raise ExperimentError on a setting out of its domain, by each section's
        check and the manifest's own; runs at construction and in to_dict (saving,
        hashing), so a field set after construction is checked before it is used."""
        try:
            for name in SECTIONS:
                getattr(self, name).check()
            counts = {name: getattr(self, name) for name in COUNTS}
            bad = [f"{name}={v!r}" for name, v in counts.items() if type(v) is not int or v < 1]
            if bad:
                raise ValueError(f"{', '.join(bad)}: need integers >= 1")
            if len(self.param_range) != 2 or any(type(v) is not int for v in self.param_range):
                raise ValueError(f"param_range {list(self.param_range)}: need two integers")
            if self.param_range[0] >= self.param_range[1]:
                raise ValueError("param_range low must be < high")
            if self.outlier_mode not in ("run", "model"):
                raise ValueError(f"unknown outlier_mode {self.outlier_mode!r}")
            if self.dataset not in ("mnist", "synthetic", "auto"):
                raise ValueError(f"unknown dataset {self.dataset!r}")
            unknown = [p for p in self.properties if p not in PROPERTY_NAMES]
            if unknown:
                raise ValueError(f"unknown graph properties {unknown}; "
                                 f"allowed: {', '.join(PROPERTY_NAMES)}")
            unknown = [m for m in [*self.init_methods, self.pruning.init_method]
                       if m not in INIT_METHODS]
            if unknown:
                raise ValueError(f"unknown init methods {unknown}; "
                                 f"allowed: {', '.join(INIT_METHODS)}")
            if len(set(self.init_methods)) < len(self.init_methods):
                raise ValueError(f"init_methods {self.init_methods} repeats a method")
        except ValueError as exc:
            raise ExperimentError(str(exc)) from exc

    def to_dict(self) -> dict:
        self.check()
        d = asdict(self)
        d["param_range"] = list(self.param_range)
        d["schema_version"] = MANIFEST_SCHEMA_VERSION
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentManifest":
        """The manifest of a to_dict dict, a missing field taking its default;
        another schema_version raises ExperimentError."""
        d = dict(d)
        version = d.pop("schema_version", MANIFEST_SCHEMA_VERSION)
        if version != MANIFEST_SCHEMA_VERSION:
            raise ExperimentError(f"schema_version {version!r}; this program reads "
                                  f"schema {MANIFEST_SCHEMA_VERSION}")
        d.update((name, section(**d.get(name, {}))) for name, section in SECTIONS.items())
        d["param_range"] = tuple(d.get("param_range", cls.param_range))
        return cls(**d)

    @classmethod
    def from_file(cls, path) -> "ExperimentManifest":
        """The manifest in the JSON file at path; a file that cannot be read,
        is not valid JSON or holds an unknown field or a bad value raises
        ExperimentError naming path."""
        try:
            return cls.from_dict(json.loads(Path(path).read_text()))
        except (OSError, TypeError, ValueError, ExperimentError) as exc:
            raise ExperimentError(f"bad manifest {path}: {exc}") from exc

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True))

    @property
    def manifest_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    @property
    def mode(self) -> str:
        return "full" if all(v == 1.0 for v in asdict(self.scale).values()) else "desk"

    # effective (scaled) quantities -------------------------------------

    def _scaled_epochs(self, epochs: int) -> int:
        return 0 if epochs == 0 else max(1, round(epochs * self.scale.epochs))

    def effective_epochs(self) -> int:
        return self._scaled_epochs(self.train.epochs)

    def effective_retrain_epochs(self) -> int:
        return self._scaled_epochs(self.pruning.retrain_epochs)

    def train_subset_n(self, full_n: int) -> int:
        return max(1, min(full_n, round(full_n * self.scale.train_subset)))

    def test_subset_n(self, full_n: int) -> int:
        return max(1, min(full_n, round(full_n * self.scale.test_subset)))

    def de_config(self, seed: int) -> DEConfig:
        return DEConfig(
            pop_size=max(4, round(self.attacks.de_pop_size * self.scale.de_pop)),
            max_iter=max(1, round(self.attacks.de_max_iter * self.scale.de_iter)),
            F=self.attacks.de_F, CR=self.attacks.de_CR, seed=seed,
        )

    def attack_settings(self, test_n: int) -> dict:
        """The attack plan, scaling applied, for a test prefix of test_n
        images: what run_attacks runs and done.json records. Image counts
        are upper bounds, since only correctly classified images are
        attacked."""
        atk, scale = self.attacks, self.scale
        de = self.de_config(seed=0)
        return {
            "fgsm_eps": atk.fgsm_eps,
            "eps_grid": {"start": atk.search_start, "step": atk.search_step,
                         "cap": atk.search_cap},
            "de": {"pop_size": de.pop_size, "max_iter": de.max_iter,
                   "F": de.F, "CR": de.CR},
            "images": {"fgsm": test_n,
                       "fgsm_search": max(1, round(test_n * scale.search_subset)),
                       "one_pixel": max(1, round(atk.one_pixel_images * scale.one_pixel))},
        }

    def train_config(self, epochs: int, seed: int) -> TrainConfig:
        return replace(self.train, epochs=epochs, seed=seed)

    def subset_sizes(self, source: tuple) -> tuple[int, int]:
        """The (train, test) prefix sizes this manifest uses of a data source;
        an IDX source's full sizes come from its headers alone."""
        full = ([data_mod.mnist_split_size(source[1], split) for split in ("train", "test")]
                if source[0] == "mnist" else source[1:3])
        return self.train_subset_n(full[0]), self.test_subset_n(full[1])


# --- dataset resolution ------------------------------------------------


def resolve_data_source(manifest: ExperimentManifest, data_dir) -> tuple:
    """Pick the dataset backing this run; returns a picklable descriptor."""
    if manifest.dataset in ("mnist", "auto"):
        found = data_mod.find_mnist(data_dir) if data_dir else None
        if found:
            return ("mnist", str(data_dir))
        if manifest.dataset == "mnist":
            raise ExperimentError(
                f"manifest requests MNIST but IDX files were not found under {data_dir!r}; "
                "set dataset='synthetic' or provide the files")
        log.warning("MNIST IDX files not found under %r; falling back to the "
                    "synthetic stand-in corpus", data_dir)
    return ("synthetic", manifest.synthetic_train_n, manifest.synthetic_test_n,
            derive_seed(manifest.master_seed, "synthetic-data"))


@functools.lru_cache(maxsize=2)  # a stage reads at most two splits
def load_split(source: tuple, split: str, count: int | None) -> Dataset:
    """One split ("train" or "test") of a data source, or its first count
    images, built once per process. Every task of the process reads the
    same arrays, so they are read-only."""
    if source[0] == "mnist":
        ds = data_mod.load_mnist_split(source[1], split, count=count)
    else:
        _, train_n, test_n, seed = source
        n, seed = (train_n, seed) if split == "train" else (test_n, seed + 1)
        ds = data_mod.synthetic_dataset(n, seed, split, count=count)
    ds.images.flags.writeable = ds.labels.flags.writeable = False
    return ds


def load_data_source(source: tuple, counts: tuple[int | None, int | None] = (None, None),
                     ) -> tuple[Dataset, Dataset]:
    """The (train, test) splits, each cut to its prefix of counts; a count
    of None keeps the whole split."""
    return load_split(source, "train", counts[0]), load_split(source, "test", counts[1])


# --- graph dataset -------------------------------------------------------


def candidate_param_count(g) -> int:
    """param_count of the network that g induces, from the edge list alone:
    INPUT_DIM weights into every source (no lower-indexed neighbour), one
    per edge, OUTPUT_DIM out of every sink (no higher-indexed neighbour),
    and a bias per hidden unit and output."""
    n = g.vertex_count
    sources = int(np.count_nonzero(np.bincount(g.edges[:, 1], minlength=n) == 0))
    sinks = int(np.count_nonzero(np.bincount(g.edges[:, 0], minlength=n) == 0))
    return INPUT_DIM * sources + g.edge_count + OUTPUT_DIM * sinks + n + OUTPUT_DIM


@contextmanager
def _timed(seconds: dict[str, float], stage: str):
    """Add the wall seconds of the with-block to seconds[stage]."""
    t0 = time.perf_counter()
    yield
    seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - t0


def build_graph_dataset(manifest: ExperimentManifest,
                        store: ResultsStore) -> list[GraphEntry]:
    """Grid-search WS generator parameters, keeping graphs whose induced
    network lands inside the parameter range, until the target count.

    The manifest is stored first, as the study's: models swept on the graphs
    this run replaces leave the study. generation.json records the accepted
    and rejected candidates of every combo tried (in numeric (size, nei, p)
    order, zeros included) and the seconds spent in generate_ws and
    compute_metrics. The store then holds this run's graphs only: those an
    earlier run left beyond them are removed, and the gen-graphs provenance
    event lists their ids."""
    combos = list(product(manifest.grid.size, manifest.grid.nei, manifest.grid.p))
    lo, hi = manifest.param_range
    accepted: list[GraphEntry] = []
    by_combo: dict[tuple, list[int]] = {}  # (size, nei, p) -> [accepted, rejected]
    seconds = {"generate_ws": 0.0, "compute_metrics": 0.0}
    store.save_manifest(manifest.to_dict(), manifest.manifest_hash)

    for round_i, (size, nei, p) in product(range(manifest.max_generation_rounds), combos):
        if len(accepted) >= manifest.target_graph_count:
            break
        counts = by_combo.setdefault((size, nei, p), [0, 0])
        seed = derive_seed(manifest.master_seed, "gen", round_i, size, nei, p)
        with _timed(seconds, "generate_ws"):
            g = generate_ws(size, nei, p, seed)
        n_params = candidate_param_count(g)
        if not (lo <= n_params <= hi):
            counts[1] += 1
            continue
        with _timed(seconds, "compute_metrics"):
            metrics = compute_metrics(g)
        counts[0] += 1
        graph_id = f"g{len(accepted):04d}"
        entry = GraphEntry(
            graph_id=graph_id,
            graph=g,
            generator={"size": size, "nei": nei, "p": p, "seed": seed},
            metrics=metrics,
            param_count=n_params,
        )
        accepted.append(entry)
        store.save_graph_entry(entry)

    if len(accepted) < manifest.target_graph_count:
        log.warning("grid exhausted after %d rounds: accepted %d of %d graphs",
                    manifest.max_generation_rounds, len(accepted),
                    manifest.target_graph_count)
    removed = store.remove_graphs_except({e.graph_id for e in accepted})
    rejected = sum(n_rej for _, n_rej in by_combo.values())
    store.save_generation_log({
        "accepted": len(accepted),
        "rejected": rejected,
        "combos": [{"size": size, "nei": nei, "p": p,
                    "accepted": n_acc, "rejected": n_rej}
                   for (size, nei, p), (n_acc, n_rej) in sorted(by_combo.items())],
        "seconds": seconds,
        "target": manifest.target_graph_count,
        "exhausted": len(accepted) < manifest.target_graph_count,
    })
    store.append_provenance("gen-graphs", manifest_hash=manifest.manifest_hash,
                            accepted=len(accepted), rejected=rejected,
                            removed=removed)
    return accepted


# --- sweep ---------------------------------------------------------------

# the stages of a sweep task whose wall seconds done.json records
SWEEP_STAGES = ("train", "evaluate", "fgsm", "fgsm_search", "one_pixel", "checkpoint")


def run_attacks(net: MaskedNetwork, test_set: Dataset, predictions: np.ndarray,
                settings: dict, seed_path: tuple,
                seconds: dict[str, float] | None = None) -> dict[str, list]:
    """Run the three attacks of one plan (ExperimentManifest.attack_settings)
    against one trained model; returns each kind's outcomes.

    test_set is the plan's test prefix, taken whole, and predictions the
    model's class for each of its images (EvalReport.predictions). FGSM
    targets every correctly classified image; epsilon search and the
    one-pixel attack the first ones in dataset order, up to the plan's
    image counts. Each one-pixel seed derives from seed_path, which starts
    with the master seed. `seconds`, when given, accumulates each attack's
    wall seconds under its kind.
    """
    seconds = {} if seconds is None else seconds
    images = settings["images"]
    correct = np.flatnonzero(predictions == test_set.labels)

    outcomes: dict[str, list] = {"fgsm": [], "fgsm_search": [], "one_pixel": []}
    if correct.size:
        with _timed(seconds, "fgsm"):
            outcomes["fgsm"] = fgsm_many(net, test_set.images[correct],
                                         test_set.labels[correct],
                                         settings["fgsm_eps"], indices=correct)
        with _timed(seconds, "fgsm_search"):
            for i in correct[:images["fgsm_search"]]:
                outcomes["fgsm_search"].append(fgsm_eps_search(
                    net, test_set.images[i], int(test_set.labels[i]),
                    **settings["eps_grid"], index=int(i)))
        with _timed(seconds, "one_pixel"):
            for i in correct[:images["one_pixel"]]:
                cfg = DEConfig(**settings["de"],
                               seed=derive_seed(*seed_path, "one_pixel", int(i)))
                outcomes["one_pixel"].append(one_pixel(
                    net, test_set.images[i], int(test_set.labels[i]), cfg,
                    index=int(i), keep_image=False))
    return outcomes


def _save_attacks(store: ResultsStore, done: dict, outcomes: dict[str, list]) -> dict:
    """Commit one model: its per-kind attack CSVs, its robustness records,
    then done.json, last: done's fields (the pair, manifest hash, seeds, stage
    seconds, data kind, attack settings) and the one-pixel summed generations."""
    graph_id, init_method = done["graph_id"], done["init_method"]
    for kind, outs in outcomes.items():
        store.save_attack_rows(graph_id, init_method, kind, ATTACK_CSV_HEADER,
                               [o.csv_row() for o in outs])
    store.save_robustness(graph_id, init_method,
                          [robustness_record(graph_id, init_method, kind, outs)
                           for kind, outs in outcomes.items() if outs])
    done = {**done, "generations_used": sum(o.generations_used
                                            for o in outcomes["one_pixel"])}
    store.mark_pair_done(**done)
    return done


def _sweep_task(manifest: ExperimentManifest, data_source: tuple, out_dir: str,
                graph_id: str, init_method: str) -> dict:
    """Train, evaluate and attack one (graph, init) pair and commit it;
    returns its done.json: the pair, its manifest hash and seeds, the wall
    seconds of each of SWEEP_STAGES, the one-pixel summed generations, and
    the data kind (`dataset`) and attack settings (`attacks`) that scored it.
    The splits come from load_split's cache, which run_sweep filled before
    forking any worker; a worker started otherwise fills it in its first task."""
    train_set, test_set = load_data_source(data_source, manifest.subset_sizes(data_source))
    store = ResultsStore(out_dir)

    entry = store.load_graph_entry(graph_id)
    ld = layer_dag(entry.graph)
    net = build_network(ld, INPUT_DIM, OUTPUT_DIM)
    init_seed = derive_seed(manifest.master_seed, graph_id, init_method, "init")
    net = init_weights(net, init_method, init_seed)

    cfg = manifest.train_config(
        epochs=manifest.effective_epochs(),
        seed=derive_seed(manifest.master_seed, graph_id, init_method, "train"),
    )
    seconds = dict.fromkeys(SWEEP_STAGES, 0.0)
    with _timed(seconds, "train"):
        history = train(net, train_set, cfg)
    with _timed(seconds, "evaluate"):
        report = evaluate_f1(net, test_set)
    settings = manifest.attack_settings(test_set.n)
    outcomes = run_attacks(net, test_set, report.predictions, settings,
                           (manifest.master_seed, graph_id, init_method), seconds)

    with _timed(seconds, "checkpoint"):
        save_checkpoint(net, store.checkpoint_path(graph_id, init_method),
                        extra={"graph_id": graph_id, "train_seed": cfg.seed,
                               "init_seed": init_seed,
                               "manifest_hash": manifest.manifest_hash})
    store.save_history(graph_id, init_method, history)
    store.save_eval(graph_id, init_method, report.to_dict())
    return _save_attacks(store, {"graph_id": graph_id, "init_method": init_method,
                                 "manifest_hash": manifest.manifest_hash,
                                 "seeds": {"init": init_seed, "train": cfg.seed},
                                 "seconds": seconds, "dataset": data_source[0],
                                 "attacks": settings},
                         outcomes)


def _refuse_other_settings(study: Study, manifest: ExperimentManifest, kind: str,
                           refusal: str) -> None:
    """The one check of which settings govern a command on a stored study:
    raise ExperimentError when its models name a data kind other than kind
    (refusal ends that message), or when its stored manifest, if any, differs
    from the given one outside the attack plan, which only a sweep changes."""
    if study.kinds - {kind}:
        raise ExperimentError(f"the study was scored on {', '.join(sorted(study.kinds))} "
                              f"data; {refusal}")
    run = ExperimentManifest.from_dict(study.manifest) if study.manifest else manifest
    given, stored = ({**d, "attacks": None, "scale": {k: v for k, v in d["scale"].items()
                                                        if k not in PLAN_SCALES}}
                     for d in (manifest.to_dict(), run.to_dict()))
    fields = [k for k in sorted(given) if given[k] != stored[k]]
    if fields:
        raise ExperimentError(f"the given manifest differs from the study's in "
                              f"{', '.join(fields)}; a change to them needs a sweep")


def run_sweep(manifest: ExperimentManifest, store: ResultsStore,
              data_source: tuple, workers: int = 1,
              resume: bool = True) -> list[dict]:
    """Train and attack every (graph, init_method) pair; returns the done.json
    contents of each pair this call completed, each committed by its own task.
    A resume skips the pairs done under this manifest's hash and refuses
    another data kind. The two splits are then loaded, so malformed data
    files raise their DataFormatError before any write; only then is the
    manifest stored, as the study's. The pending pairs run in
    min(workers, pending) processes, here when that is 1, with the same
    results, each reading the splits from load_split's cache (a forked
    worker inherits it); workers < 1 raises ExperimentError."""
    if workers < 1:
        raise ExperimentError("workers must be >= 1")
    entries = store.load_graph_entries()
    if not entries:
        raise ExperimentError("no graphs in store; run gen-graphs first")
    mhash = manifest.manifest_hash
    completed = set()
    if resume:
        study = store.study(mhash, given=True)
        _refuse_other_settings(study, manifest, data_source[0], f"refusing to resume it "
                               f"on {data_source[0]}; sweep --no-resume retrains every pair")
        completed = study.pairs
    load_data_source(data_source, manifest.subset_sizes(data_source))
    store.save_manifest(manifest.to_dict(), mhash)
    pending = [pair for pair in product([e.graph_id for e in entries], manifest.init_methods)
               if pair not in completed]
    log.info("sweep: %d pairs pending (%d graphs x %d inits, resume=%s)",
             len(pending), len(entries), len(manifest.init_methods), resume)
    task = functools.partial(_sweep_task, manifest, data_source, str(store.root))
    summaries: list[dict] = []
    workers = min(workers, len(pending))
    with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
        # each pair's result, in order: a pooled future's, or the task run here
        results = [(pair, pool.submit(task, *pair).result if pool
                    else functools.partial(task, *pair)) for pair in pending]
        for pair, result in results:
            try:
                summaries.append(result())
            except Exception as exc:  # recorded, and the sweep continues
                log.error("task %s/%s failed: %s", *pair, exc)
                store.append_provenance("task-failed", graph_id=pair[0],
                                        init_method=pair[1], error=str(exc))
    store.append_provenance("sweep", manifest_hash=mhash,
                            completed=len(summaries), mode=manifest.mode,
                            dataset=data_source[0])
    return summaries


def rerun_attacks(manifest: ExperimentManifest, store: ResultsStore,
                  data_source: tuple) -> int:
    """Re-run attacks against the study's checkpoints (models stay untouched)
    and return their count. The study is manifest.json's, else the given
    hash's (ResultsStore.study); before any load or write, another data kind
    or a change outside the attack plan is refused (_refuse_other_settings).
    Each model's done.json keeps its hash, seeds, training seconds and data
    kind, and takes this run's attack seconds, generations and settings. A
    checkpoint that load_checkpoint refuses raises ExperimentError naming
    its pair; the models before it keep their new records."""
    study = store.study(manifest.manifest_hash)
    _refuse_other_settings(study, manifest, data_source[0],
                           f"refusing to re-attack it on {data_source[0]}")
    test_n = manifest.subset_sizes(data_source)[1]
    test_set = load_split(data_source, "test", test_n)
    settings = manifest.attack_settings(test_n)
    for done in study.done:
        graph_id, init_method = done["graph_id"], done["init_method"]
        try:
            net, _ = load_checkpoint(store.checkpoint_path(graph_id, init_method))
        except NetworkError as exc:
            raise ExperimentError(f"checkpoint of {graph_id}/{init_method} refused: "
                                  f"{exc}") from exc
        predictions = predict(net, test_set.images).argmax(axis=1)
        # zeroed, as _timed adds to them and a model with no correct image times none
        seconds = {**done.get("seconds", {}), "fgsm": 0.0, "fgsm_search": 0.0,
                   "one_pixel": 0.0}
        outcomes = run_attacks(net, test_set, predictions, settings,
                               (manifest.master_seed, graph_id, init_method), seconds)
        _save_attacks(store, {**done, "seconds": seconds, "attacks": settings}, outcomes)
    store.append_provenance("attack", manifest_hash=manifest.manifest_hash,
                            models=len(study.done), dataset=data_source[0],
                            settings=settings)
    return len(study.done)


# --- correlation ----------------------------------------------------------


def _aggregate_column(records: list[RobustnessRecord], attack: str, measure: str,
                      mode: str) -> tuple[dict[str, float], dict]:
    """Per-model mean of per-run measure values after outlier filtering.

    'run' mode pools every (model, init) value, computes the Tukey fences on
    the pooled distribution, and discards flagged runs before averaging;
    'model' mode averages first and discards models whose mean is outside
    the fences of the mean distribution.
    """
    per_model: dict[str, list[float]] = {}
    for r in records:
        if r.attack != attack:
            continue
        v = getattr(r, measure)
        if v is None:
            continue
        per_model.setdefault(r.model_id, []).append(float(v))

    info = {"attack": attack, "measure": measure, "mode": mode,
            "n_models": len(per_model),
            "n_runs": sum(len(v) for v in per_model.values()),
            "discarded_runs": 0, "discarded_models": 0}
    if mode == "model":
        per_model = {m: [float(np.mean(vs))] for m, vs in per_model.items()}
    fenced = [v for vals in per_model.values() for v in vals]
    lo, hi = tukey_fences(fenced) if len(fenced) >= 4 else (-np.inf, np.inf)
    means: dict[str, float] = {}
    for model_id, vals in per_model.items():
        kept = [v for v in vals if lo <= v <= hi]
        if mode == "run":
            info["discarded_runs"] += len(vals) - len(kept)
        if not kept:
            info["discarded_models"] += 1
            log.info("model %s dropped for %s/%s: outside the fences",
                     model_id, attack, measure)
            continue
        means[model_id] = float(np.mean(kept))
    return means, info


def _correlation_table(properties: list[str], props_by_unit: dict,
                       values_by_column: dict[tuple[str, str], dict],
                       ) -> CorrelationTable:
    """One cell per measure column and property: the property against the
    column's values over the units (models or pruning steps) that have both
    properties and a value other than None, in sorted unit order."""
    cells = []
    for attack, measure in MEASURE_COLUMNS:
        values = values_by_column[attack, measure]
        units = sorted(u for u, v in values.items()
                       if v is not None and u in props_by_unit)
        ys = [values[u] for u in units]
        for prop in properties:
            xs = [props_by_unit[u][prop] for u in units]
            cells.append(correlation_cell(prop, attack, measure, xs, ys))
    return CorrelationTable(cells=cells, properties=list(properties))


def _study_table(manifest: ExperimentManifest, study: Study, props: dict[str, dict],
                 ) -> tuple[CorrelationTable, list[dict]]:
    """The table of correlate and the report, with each column's outlier
    log, over the study's models; withheld when their done.json files name
    more than one (dataset, attacks) value, a missing field counting as its
    own, or for fewer than 3 models."""
    plans = {json.dumps([d.get("dataset"), d.get("attacks")], sort_keys=True)
             for d in study.done}
    if len(plans) > 1:
        raise CorrelationWithheldError(
            f"the study's {len(study.done)} models were scored under {len(plans)} "
            "different data kinds or attack settings")
    if not study.records:
        raise CorrelationWithheldError("no robustness records in store")
    n_models = len({r.model_id for r in study.records})
    if n_models < 3:
        raise CorrelationWithheldError(f"only {n_models} models have records; need >= 3")

    columns, logs = {}, []
    for attack, measure in MEASURE_COLUMNS:
        columns[attack, measure], info = _aggregate_column(
            study.records, attack, measure, manifest.outlier_mode)
        logs.append(info)
    return _correlation_table(manifest.properties, props, columns), logs


def correlate(manifest: ExperimentManifest, store: ResultsStore) -> CorrelationTable:
    """Correlate every configured property against every measure over the
    study (ResultsStore.study), as the given manifest's `properties` and
    `outlier_mode` say; save the table, and a log of the study hash and the
    pairs left out. Raises CorrelationWithheldError as _study_table does."""
    study = store.study(manifest.manifest_hash)
    table, logs = _study_table(manifest, study, stored_properties(store))
    store.save_correlations(table)
    store.save_correlation_log({"columns": logs, "left_out": study.left_out,
                                "manifest_hash": study.manifest_hash,
                                "outlier_mode": manifest.outlier_mode})
    return table


# --- pruning baseline -------------------------------------------------------


def dense_stack_dag(hidden_layers: list[int]) -> UndirectedGraph:
    """Fully connected consecutive layers over contiguous vertex blocks, each
    edge from a lower block to the next."""
    offsets = np.concatenate([[0], np.cumsum(hidden_layers)])
    blocks = [np.arange(lo, hi) for lo, hi in zip(offsets, offsets[1:])]
    edges = [np.column_stack([np.repeat(a, len(b)), np.tile(b, len(a))])
             for a, b in zip(blocks, blocks[1:])]
    return UndirectedGraph(int(offsets[-1]),
                           np.concatenate([np.empty((0, 2), dtype=np.int64), *edges]))


PRUNING_STEP_HEADER = [
    "step", "param_count", "hidden_edges", "accuracy", "macro_f1",
    *(f"{attack}_{measure}" for attack, measure in MEASURE_COLUMNS),
    "num_parameters", "density", "avg_path_length", "avg_eccentricity",
    "diameter", "avg_betweenness", "avg_closeness", "disconnected",
    "vertex_count", "edge_count", "density_directed",
]


def _pruning_step_record(step: int, net: MaskedNetwork, test_set: Dataset,
                         settings: dict, master_seed: int) -> dict:
    report = evaluate_f1(net, test_set)
    outcomes = run_attacks(net, test_set, report.predictions, settings,
                           (master_seed, "prune", step))
    hidden_metrics = compute_metrics(network_to_graph(net))
    record = {
        "step": step,
        "param_count": param_count(net),
        "hidden_edges": hidden_metrics.edge_count,
        "accuracy": report.accuracy,
        "macro_f1": report.macro_f1,
    }
    measured = {kind: robustness_record("prune", "baseline", kind, outs)
                for kind, outs in outcomes.items() if outs}
    for attack, measure in MEASURE_COLUMNS:
        rec = measured.get(attack)
        record[f"{attack}_{measure}"] = getattr(rec, measure) if rec is not None else None

    record.update(graph_properties(hidden_metrics, record["param_count"]))
    record["disconnected"] = hidden_metrics.disconnected
    return record


def run_pruning_baseline(manifest: ExperimentManifest, store: ResultsStore,
                         data_source: tuple) -> list[dict]:
    """Dense reference model pruned randomly for the configured number of
    steps, with retraining, attacks (one plan for every step, which the
    provenance event records), and hidden-structure metrics per step. The
    manifest is checked first (its hash), so a bad setting raises before any
    training."""
    mhash = manifest.manifest_hash
    train_set, test_set = load_data_source(data_source,
                                           manifest.subset_sizes(data_source))
    p = manifest.pruning
    ld = layer_dag(dense_stack_dag(p.hidden_layers))
    net = build_network(ld, INPUT_DIM, OUTPUT_DIM)
    net = init_weights(net, p.init_method,
                       derive_seed(manifest.master_seed, "prune", "init"))

    base_cfg = manifest.train_config(
        epochs=manifest.effective_epochs(),
        seed=derive_seed(manifest.master_seed, "prune", "train", 0))
    train(net, train_set, base_cfg)

    settings = manifest.attack_settings(test_set.n)
    steps = [_pruning_step_record(0, net, test_set, settings, manifest.master_seed)]
    for step in range(1, p.steps + 1):
        net = prune_random(net, p.alpha,
                           derive_seed(manifest.master_seed, "prune", "mask", step))
        retrain_cfg = manifest.train_config(
            epochs=manifest.effective_retrain_epochs(),
            seed=derive_seed(manifest.master_seed, "prune", "train", step))
        train(net, train_set, retrain_cfg)
        steps.append(_pruning_step_record(step, net, test_set, settings,
                                          manifest.master_seed))
        log.info("pruning step %d: %d hidden edges, f1=%.4f", step,
                 steps[-1]["hidden_edges"], steps[-1]["macro_f1"])

    rows = [PRUNING_STEP_HEADER] + [
        ["" if rec[k] is None else rec[k] for k in PRUNING_STEP_HEADER]
        for rec in steps
    ]
    store.save_pruning_steps(rows)

    columns = {(attack, measure): {rec["step"]: rec[f"{attack}_{measure}"]
                                   for rec in steps}
               for attack, measure in MEASURE_COLUMNS}
    table = _correlation_table(manifest.properties,
                               {rec["step"]: rec for rec in steps}, columns)
    store.save_correlations(table, subdir="pruning")
    store.append_provenance("prune-baseline", manifest_hash=mhash,
                            steps=p.steps, alpha=p.alpha,
                            retrain_epochs=manifest.effective_retrain_epochs(),
                            dataset=data_source[0], attacks=settings)
    return steps


# --- report ----------------------------------------------------------------


def _property_confounds(properties: list[str], models: list[str],
                        props: dict[str, dict]) -> list[str]:
    """Report lines: each property's distinct-value count and range over
    the models with records, and the groups of properties that rank those
    models identically (so their correlation cells coincide up to sign)."""
    models = [m for m in models if m in props]
    if not models:
        return []
    columns = {name: [props[m][name] for m in models] for name in properties}
    lines = [f"graph properties over the {len(models)} correlated models:"]
    for name, values in columns.items():
        lines.append(f"  {name}: {len(set(values))} distinct, "
                     f"[{min(values):g}, {max(values):g}]")
    groups = rank_groups(columns)
    header = ("properties that rank the models identically "
              "(- marks a reversed ranking):")
    lines.append(header if groups else f"{header} none")
    for group in groups:
        lines.append("  " + " = ".join(("-" if sign < 0 else "") + name
                                       for name, sign in group))
    return lines


def render_report(manifest: ExperimentManifest, store: ResultsStore) -> str:
    """Human-readable summary of the study's models (ResultsStore.study; the
    models line counts the rest): the study's manifest (the last gen-graphs'
    or sweep's, else the given one), the data kinds and each distinct attack
    setting the models' done.json files name, counts (per generator combo,
    with gen-graphs' time), censored epsilon searches, failed tasks not
    completed since (the one thing read from provenance.json), the spread of
    each correlated property and the properties that rank the models alike,
    the stage seconds and one-pixel generations their done.json files
    record, summed, and the two strongest graph properties per robustness
    measure (computed as correlate does, but only report.txt is written), or
    why they are withheld. The table takes `properties` and `outlier_mode`
    from the given manifest."""
    study = store.study(manifest.manifest_hash)
    run = ExperimentManifest.from_dict(study.manifest) if study.manifest else manifest
    settings = Counter(json.dumps(d["attacks"], sort_keys=True)
                       for d in study.done if "attacks" in d)
    lines = ["Sparse network robustness study", "=" * 34,
             f"manifest_hash: {study.manifest_hash}"]
    if study.manifest_hash != manifest.manifest_hash:
        lines.append(f"note: the given manifest ({manifest.manifest_hash}) differs "
                     "from the one the models were trained under")
    lines += [
        f"mode: {run.mode} (scale factors {asdict(run.scale)})",
        f"dataset: {', '.join(sorted(study.kinds)) or 'none recorded'} "
        f"(manifest requests {run.dataset})",
        "note: parameter counts include biases",
    ]
    lines += [f"attack settings of {n} models: {text}"
              for text, n in sorted(settings.items())]
    lines.append("")
    gen = store.load_generation_log()
    if gen is not None:
        lines.append(f"graphs: {gen['accepted']} accepted, "
                     f"{gen['rejected']} rejected by the parameter filter")
        for c in gen.get("combos", []):
            lines.append(f"  size={c['size']},nei={c['nei']},p={c['p']}: "
                         f"{c['accepted']} accepted, {c['rejected']} rejected")
        if "seconds" in gen:
            lines.append("  time: " + ", ".join(f"{name} {s:.3f} s"
                                                for name, s in gen["seconds"].items()))
    models = sorted({r.model_id for r in study.records})
    inits = sorted({r.init_method for r in study.records})
    lines.append(f"models: {len(models)} graphs x {len(inits)} initializations"
                 + (f", {study.left_out} left out (completed under another manifest)"
                    if study.left_out else ""))
    timed = [d for d in study.done if "seconds" in d]
    if timed:
        lines.append("  time: " + ", ".join(
            f"{stage} {sum(d['seconds'].get(stage, 0.0) for d in timed):.3f} s"
            for stage in SWEEP_STAGES)
            + f" over {len(timed)} models; one-pixel ran "
            f"{sum(d['generations_used'] for d in timed)} generations")
    searched = [r for r in study.records if r.attack == "fgsm_search"]
    lines.append(f"epsilon search: {sum(r.n_censored for r in searched)} of "
                 f"{sum(r.n_attacked for r in searched)} searched images censored "
                 "(no flip within the cap)")
    failed = [e for e in store.load_provenance() if e["event"] == "task-failed"
              and (e["graph_id"], e["init_method"]) not in study.pairs]
    lines.append(f"failed tasks: {len(failed)}")
    for e in failed:
        lines.append(f"  {e['graph_id']} / {e['init_method']}: {e['error']}")
    props = stored_properties(store)
    lines += _property_confounds(manifest.properties, models, props)
    lines.append("")

    try:
        table, _ = _study_table(manifest, study, props)
    except CorrelationWithheldError as exc:
        lines.append(f"correlations withheld: {exc}")
    else:
        lines.append("strongest correlations per measure "
                     "(two largest |rho| per column):")
        for attack, measure in MEASURE_COLUMNS:
            col = [c for c in table.cells if c.defined
                   and (c.attack, c.measure) == (attack, measure)]
            col.sort(key=lambda c: -abs(c.rho))
            lines.append(f"  {attack} / {measure}:")
            if not col:
                lines.append("    (no defined cells)")
            for c in col[:2]:
                lines.append(f"    {c.graph_property}: rho={c.rho:+.3f} "
                             f"tau={c.tau:+.3f} ({c.label}, n={c.n})")

    if store.has_pruning_steps():
        lines.append("")
        lines.append("pruning baseline: see pruning/steps.csv and "
                     "pruning/correlations.csv")
    text = "\n".join(lines) + "\n"
    store.save_report(text)
    return text
