"""Spans around the calls into each snnrobust module, recorded from outside.

Modules bind functions at import (``from .network import forward``), so a
function is wrapped at every name its callers look it up by: ``attack.forward``
and ``train.forward``, ``experiment.train``, ``ResultsStore.save_*`` and so
on. Each span keeps its name, start, end and parent in memory; per-layer
metrics are computed once the timed phase is over. A span's self time is its
duration minus the durations of its children.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict

from snnrobust import attack, data, experiment
from snnrobust.store import ResultsStore

# the package re-exports the function train() under the module's name
train = importlib.import_module("snnrobust.train")

FORWARD_CALLERS = {"train.train": "train", "train.predict": "predict",
                   "attack.fgsm_eps_search": "eps_search",
                   "attack.one_pixel": "one_pixel", "attack.fgsm_many": "fgsm"}
EXPERIMENT_ENTRIES = ("build_graph_dataset", "run_sweep", "rerun_attacks",
                      "run_pruning_baseline", "correlate", "render_report")
STORE_WRITES = ("save_manifest", "append_provenance", "save_graph_entry",
                "save_generation_log", "mark_pair_done", "save_history",
                "save_eval", "save_attack_rows", "save_robustness",
                "save_correlations", "save_correlation_log",
                "save_pruning_steps", "save_report")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _rows(x) -> int:
    return x.shape[0] if x.ndim == 2 else 1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.attrs: list = []
        self.stack: list[int] = []
        self.store_bytes = 0
        self._patched: list[tuple[object, str, object]] = []

    # --- recording --------------------------------------------------------

    def begin(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.attrs.append(None)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.starts.append(time.perf_counter())
        return idx

    def end(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr: str, name: str, hook=None) -> None:
        """Replace owner.attr by a span-recording wrapper; ``hook(args,
        kwargs, result)`` returns the attributes kept on the span."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if hook is not None:
                self.attrs[idx] = hook(args, kwargs, result)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def _count_bytes(self, owner, attr: str) -> None:
        """Add the size of each file a store helper writes to store_bytes."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(store, path, *args, **kwargs):
            result = fn(store, path, *args, **kwargs)
            self.store_bytes += os.path.getsize(path)
            return result

        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn))

    def install(self) -> None:
        forward_hook = lambda a, k, r: (_rows(_arg(a, k, 1, "x")), a[0],
                                        _arg(a, k, 1, "x").ndim == 2)
        backward_hook = lambda a, k, r: _rows(_arg(a, k, 1, "cache").x)
        for mod in (train, attack):
            self.wrap(mod, "forward", "network.forward", forward_hook)
            self.wrap(mod, "backward", "network.backward", backward_hook)
        self.wrap(train, "adam_step", "train.adam_step")
        self.wrap(train, "predict", "train.predict")
        self.wrap(attack, "de_evolve", "attack.de_evolve")
        self.wrap(data, "synthetic_dataset", "data.synthetic_dataset",
                  lambda a, k, r: r.n)
        e = experiment
        self.wrap(e, "generate_ws", "graph.generate_ws")
        self.wrap(e, "compute_metrics", "graph.compute_metrics",
                  lambda a, k, r: r.edge_count)
        self.wrap(e, "layer_dag", "graph.layer_dag")
        self.wrap(e, "build_network", "network.build_network")
        self.wrap(e, "save_checkpoint", "network.save_checkpoint",
                  lambda a, k, r: os.path.getsize(_arg(a, k, 1, "path")))
        self.wrap(e, "load_checkpoint", "network.load_checkpoint")
        self.wrap(e, "prune_random", "network.prune_random")
        self.wrap(e, "network_to_graph", "network.network_to_graph")
        self.wrap(e, "train", "train.train",
                  lambda a, k, r: _arg(a, k, 1, "train_set").n * _arg(a, k, 2, "cfg").epochs)
        self.wrap(e, "predict", "train.predict")
        self.wrap(e, "evaluate_f1", "train.evaluate_f1")
        self.wrap(e, "fgsm_many", "attack.fgsm_many", lambda a, k, r: len(r))
        self.wrap(e, "fgsm_eps_search", "attack.fgsm_eps_search",
                  lambda a, k, r: r.epsilon_used is None)
        self.wrap(e, "one_pixel", "attack.one_pixel", lambda a, k, r: r.success)
        self.wrap(e, "correlation_cell", "measure.correlation_cell")
        for entry in EXPERIMENT_ENTRIES:
            self.wrap(e, entry, f"experiment.{entry}",
                      (lambda a, k, r: len(r)) if entry == "build_graph_dataset" else None)
        for method in STORE_WRITES:
            self.wrap(ResultsStore, method, f"store.{method}")
        for helper in ("_write_json", "_write_csv"):
            if hasattr(ResultsStore, helper):
                self._count_bytes(ResultsStore, helper)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._patched):
            setattr(owner, attr, fn)
        self._patched.clear()

    # --- metrics ------------------------------------------------------------

    def _caller(self, idx: int) -> str | None:
        p = self.parents[idx]
        while p >= 0:
            caller = FORWARD_CALLERS.get(self.names[p])
            if caller is not None:
                return caller
            p = self.parents[p]
        return None

    def metrics(self, root: int, store_root) -> dict[str, float]:
        """Per-layer metrics of the spans recorded under ``root``."""
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        self_t = [dur[i] - child[i] for i in range(n)]

        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        selfs: dict[str, float] = defaultdict(float)
        attr_sum: dict[str, float] = defaultdict(float)
        macs = {"dense": [0, 0, 0], "useful": [0, 0, 0]}
        net_macs: dict[int, tuple] = {}
        fitness_s = 0.0
        candidates = 0
        for i, name in enumerate(self.names):
            a = self.attrs[i]
            if name == "network.forward" and a is not None:
                rows, net, batch = a
                caller = self._caller(i)
                name = f"network.forward.{caller}"
                attr_sum[name] += rows
                if caller == "one_pixel" and batch:
                    candidates += rows
                    fitness_s += dur[i]
                if id(net) not in net_macs:
                    net_macs[id(net)] = group_macs(net)
                for kind, per_row in zip(("dense", "useful"), net_macs[id(net)]):
                    for c in range(3):
                        macs[kind][c] += rows * per_row[c]
            elif a is not None:
                attr_sum[name] += a
            calls[name] += 1
            total[name] += dur[i]
            selfs[name] += self_t[i]

        out: dict[str, float] = {}

        def put(prefix: str, *fields: str) -> None:
            for f in fields:
                if f == "calls":
                    out[f"{prefix}.calls"] = calls[prefix]
                elif f == "self_s":
                    out[f"{prefix}.self_s"] = selfs[prefix]
                elif f == "total_s":
                    out[f"{prefix}.total_s"] = total[prefix]
                else:
                    out[f"{prefix}.{f}"] = attr_sum[prefix]

        put("graph.generate_ws", "calls", "self_s")
        put("graph.compute_metrics", "calls", "self_s")
        out["graph.compute_metrics.edges"] = attr_sum["graph.compute_metrics"]
        put("graph.layer_dag", "self_s")
        put("network.build_network", "calls", "self_s")
        for caller in ("train", "eps_search", "one_pixel", "predict", "fgsm"):
            prefix = f"network.forward.{caller}"
            put(prefix, "calls", "self_s")
            out[f"{prefix}.rows"] = attr_sum[prefix]
        for kind in ("dense", "useful"):
            for c, cls in enumerate(("input", "hidden", "output")):
                out[f"network.forward.{kind}_macs.{cls}"] = macs[kind][c]
        dense = sum(macs["dense"])
        out["network.forward.mask_fill"] = sum(macs["useful"]) / dense if dense else 0.0
        put("network.backward", "calls", "self_s")
        out["network.backward.rows"] = attr_sum["network.backward"]
        put("network.save_checkpoint", "self_s")
        out["network.save_checkpoint.bytes"] = attr_sum["network.save_checkpoint"]
        for name in ("network.load_checkpoint", "network.prune_random",
                     "network.network_to_graph", "train.predict", "train.evaluate_f1"):
            put(name, "self_s")
        put("data.synthetic_dataset", "calls", "self_s")
        out["data.synthetic_dataset.images"] = attr_sum["data.synthetic_dataset"]
        put("train.train", "calls", "self_s")
        out["train.train.samples"] = attr_sum["train.train"]
        put("train.adam_step", "calls", "self_s")
        put("attack.fgsm_many", "self_s")
        out["attack.fgsm_many.images"] = attr_sum["attack.fgsm_many"]
        put("attack.fgsm_eps_search", "calls", "self_s")
        out["attack.fgsm_eps_search.forwards"] = calls["network.forward.eps_search"]
        out["attack.fgsm_eps_search.censored"] = attr_sum["attack.fgsm_eps_search"]
        put("attack.one_pixel", "calls", "self_s")
        out["attack.one_pixel.successes"] = attr_sum["attack.one_pixel"]
        out["attack.one_pixel.candidates"] = candidates
        out["attack.one_pixel.fitness_s"] = fitness_s
        n_op = calls["attack.one_pixel"]
        out["attack.one_pixel.success_ratio"] = (attr_sum["attack.one_pixel"] / n_op
                                                 if n_op else 0.0)
        put("attack.de_evolve", "calls", "self_s")
        put("measure.correlation_cell", "calls", "self_s")
        for entry in EXPERIMENT_ENTRIES:
            put(f"experiment.{entry}", "total_s", "self_s")
        gen_calls = calls["graph.generate_ws"]
        out["experiment.build_graph_dataset.accept_ratio"] = (
            attr_sum["experiment.build_graph_dataset"] / gen_calls if gen_calls else 0.0)
        store_names = [f"store.{m}" for m in STORE_WRITES]
        out["store.writes"] = sum(calls[s] for s in store_names)
        out["store.bytes"] = self.store_bytes + _report_bytes(calls, store_root)
        out["store.write_s"] = sum(total[s] for s in store_names)
        out["store.append_provenance.self_s"] = selfs["store.append_provenance"]
        out["trace.root_s"] = dur[root]
        out["trace.self_sum_s"] = sum(self_t)
        return out


def _report_bytes(calls, store_root) -> int:
    """save_report writes its text directly rather than through a helper."""
    path = store_root / "report.txt"
    return calls["store.save_report"] * path.stat().st_size if path.exists() else 0


def group_macs(net) -> tuple[list[int], list[int]]:
    """Multiply-accumulates per input row by group class (input, hidden,
    output): dense counts every weight position, useful only unmasked ones.
    Computed from the shapes and masks, not measured."""
    dense, useful = [0, 0, 0], [0, 0, 0]
    try:
        n_layers = len(net.layer_units)
        for g in net.groups:
            c = 0 if g.source_layer == -1 else 2 if g.target_layer == n_layers else 1
            dense[c] += g.weights.size
            useful[c] += int(g.mask.sum())
    except AttributeError:
        # a network representation without per-group masks: no MAC split
        pass
    return dense, useful
