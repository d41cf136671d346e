"""Append-only on-disk results store for experiment runs.

Layout under the output directory:
  manifest.json, generation.json, provenance.json
  graphs/<graph_id>.json       the graphs of the last gen-graphs run: schema
                               version, graph id, generator parameters,
                               vertex count, sorted edges, metrics,
                               disconnected flag and parameter count
  models/<graph_id>__<init>/   checkpoint.bin, history.csv, eval.json,
                               fgsm.csv, fgsm_search.csv, one_pixel.csv,
                               robustness.json, done.json
  correlations.csv, correlations_long.csv, report.txt
  pruning/steps.csv, pruning/correlations.csv, pruning/correlations_long.csv

done.json is written last for a (graph, init) pair, by the sweep and again
by a re-attack. It holds the pair's manifest hash, seeds, wall seconds per
stage, summed one-pixel generations, and the data kind (`dataset`) and
attack settings (`attacks`) that scored it: the one record of both that the
report, the re-attack and correlate read; correlations are withheld for a
study mixing them. A crash inside one model's re-attack, after its
robustness.json write and before its done.json write, leaves `attacks`
naming the earlier settings until the next re-attack; robustness.json is not
stamped instead, as its bytes are fingerprinted. A pair belongs to the study
when its done.json carries the study hash: manifest.json's, which only
gen-graphs or an accepted sweep writes, or before either the given manifest's.
Each command reads it once, as one Study (ResultsStore.study), and uses only
its pairs; _completed_under is the one place that compares the hashes.
Every file is written to a temporary name in its directory and renamed over
the target, so a crash mid-write leaves the previous version intact.

ResultsStore is the only reader of every results file, as it is their only
writer: the pipeline stages and the report ask it for typed records and
never open a path under the results directory themselves. The one
exception is checkpoint.bin, which network.save_checkpoint and
load_checkpoint write and read at the path checkpoint_path gives. The
correlation CSVs and report.txt are for readers outside the program and
are never read back.
"""

from __future__ import annotations

import csv
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from .graph import GraphError, GraphMetrics, UndirectedGraph
from .measure import CorrelationTable, RobustnessRecord

GRAPH_SCHEMA_VERSION = 1


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """Open a temporary file beside `path`; on a clean exit it replaces
    `path`, on an exception it is removed and `path` is left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass
class GraphEntry:
    graph_id: str
    graph: UndirectedGraph
    generator: dict
    metrics: GraphMetrics
    param_count: int


@dataclass(frozen=True)
class Study:
    """A study's hash, stored manifest (None before any), its pairs' done.json
    and robustness records, and the count of other completed pairs (left out)."""

    manifest_hash: str
    manifest: dict | None
    done: tuple[dict, ...]
    records: tuple[RobustnessRecord, ...]
    left_out: int

    @property
    def pairs(self) -> set[tuple[str, str]]:
        return {(d["graph_id"], d["init_method"]) for d in self.done}

    @property
    def kinds(self) -> set[str]:
        return {d["dataset"] for d in self.done if "dataset" in d}


class ResultsStore:
    def __init__(self, out_dir):
        self.root = Path(out_dir)
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / "graphs").mkdir(exist_ok=True)
        (self.root / "models").mkdir(exist_ok=True)

    # --- generic helpers ---------------------------------------------

    def _read_json(self, name: str, default=None):
        """The JSON document at root / name, or default if there is none."""
        path = self.root / name
        return json.loads(path.read_text()) if path.exists() else default

    def _write_json(self, path: Path, payload) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(path) as f:
            f.write(json.dumps(payload, indent=2, sort_keys=True))

    def _write_csv(self, path: Path, rows) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with atomic_open(path, newline="") as f:
            csv.writer(f).writerows(rows)

    # --- manifest & provenance ---------------------------------------

    def save_manifest(self, manifest_dict: dict, manifest_hash: str) -> None:
        self._write_json(self.root / "manifest.json",
                         {"manifest": manifest_dict, "manifest_hash": manifest_hash})

    def load_provenance(self) -> list[dict]:
        """Every recorded event, oldest first."""
        return self._read_json("provenance.json", [])

    def append_provenance(self, event: str, **fields) -> None:
        log = self.load_provenance()
        log.append({"event": event, "timestamp": time.time(), **fields})
        self._write_json(self.root / "provenance.json", log)

    # --- graphs -------------------------------------------------------

    def save_graph_entry(self, entry: GraphEntry) -> None:
        g, metrics = entry.graph, entry.metrics
        self._write_json(self.root / "graphs" / f"{entry.graph_id}.json", {
            "schema_version": GRAPH_SCHEMA_VERSION,
            "graph_id": entry.graph_id,
            "generator": entry.generator,
            "vertex_count": g.vertex_count,
            "edges": g.edges.tolist(),
            "metrics": metrics.to_dict(),
            "disconnected_flag": metrics.disconnected,
            "param_count": entry.param_count,
        })

    def _entry_from_doc(self, doc: dict) -> GraphEntry:
        if doc.get("schema_version") != GRAPH_SCHEMA_VERSION:
            raise GraphError(f"unsupported graph schema version {doc.get('schema_version')!r}")
        return GraphEntry(
            graph_id=doc["graph_id"],
            graph=UndirectedGraph(doc["vertex_count"], doc["edges"]),
            generator=doc["generator"],
            metrics=GraphMetrics.from_dict(doc["metrics"]),
            param_count=doc["param_count"],
        )

    def load_graph_entry(self, graph_id: str) -> GraphEntry:
        path = self.root / "graphs" / f"{graph_id}.json"
        return self._entry_from_doc(json.loads(path.read_text()))

    def load_graph_entries(self) -> list[GraphEntry]:
        return [self._entry_from_doc(json.loads(path.read_text()))
                for path in sorted((self.root / "graphs").glob("*.json"))]

    def remove_graphs_except(self, keep: set[str]) -> list[str]:
        """Delete every stored graph whose id is not in keep; returns the
        removed ids in sorted order."""
        stale = [p for p in sorted((self.root / "graphs").glob("*.json"))
                 if p.stem not in keep]
        for path in stale:
            path.unlink()
        return [path.stem for path in stale]

    def save_generation_log(self, log: dict) -> None:
        self._write_json(self.root / "generation.json", log)

    def load_generation_log(self) -> dict | None:
        """What the last gen-graphs tried and kept; None before any."""
        return self._read_json("generation.json")

    # --- per-model records --------------------------------------------

    def model_dir(self, graph_id: str, init_method: str) -> Path:
        d = self.root / "models" / f"{graph_id}__{init_method}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    @staticmethod
    def _completed_under(done: dict, manifest_hash: str | None) -> bool:
        return manifest_hash is None or done.get("manifest_hash") == manifest_hash

    def pair_done(self, graph_id: str, init_method: str, manifest_hash: str) -> bool:
        done = self._read_json(f"models/{graph_id}__{init_method}/done.json")
        return done is not None and self._completed_under(done, manifest_hash)

    def mark_pair_done(self, graph_id: str, init_method: str, manifest_hash: str,
                       **fields) -> None:
        self._write_json(self.model_dir(graph_id, init_method) / "done.json",
                         {"manifest_hash": manifest_hash, "graph_id": graph_id,
                          "init_method": init_method, **fields})

    def save_history(self, graph_id: str, init_method: str, rows) -> None:
        self._write_csv(self.model_dir(graph_id, init_method) / "history.csv",
                        [["epoch", "loss", "accuracy"], *rows])

    def save_eval(self, graph_id: str, init_method: str, eval_dict: dict) -> None:
        self._write_json(self.model_dir(graph_id, init_method) / "eval.json", eval_dict)

    def save_attack_rows(self, graph_id: str, init_method: str, attack: str,
                         header, rows) -> None:
        self._write_csv(self.model_dir(graph_id, init_method) / f"{attack}.csv",
                        [header, *rows])

    def save_robustness(self, graph_id: str, init_method: str,
                        records: list[RobustnessRecord]) -> None:
        self._write_json(self.model_dir(graph_id, init_method) / "robustness.json",
                         [r.to_dict() for r in records])

    def checkpoint_path(self, graph_id: str, init_method: str) -> Path:
        return self.model_dir(graph_id, init_method) / "checkpoint.bin"

    def done_records(self, manifest_hash: str | None) -> list[dict]:
        """done.json of each pair completed under manifest_hash, in directory order."""
        docs = (json.loads(marker.read_text())
                for marker in sorted((self.root / "models").glob("*/done.json")))
        return [doc for doc in docs if self._completed_under(doc, manifest_hash)]

    def completed_pairs(self, manifest_hash: str | None) -> list[tuple[str, str]]:
        """Completed (graph, init) pairs; None matches any manifest hash."""
        return [(doc["graph_id"], doc["init_method"])
                for doc in self.done_records(manifest_hash)]

    def study(self, manifest_hash: str, given: bool = False) -> Study:
        """The study of manifest.json's hash, or of manifest_hash before any or
        with given (a sweep's own, with no manifest); reads manifest.json, each
        done.json and each pair's robustness.json once."""
        stored = None if given else self._read_json("manifest.json")
        study_hash = stored["manifest_hash"] if stored else manifest_hash
        docs = self.done_records(None)
        done = tuple(d for d in docs if self._completed_under(d, study_hash))
        records = tuple(RobustnessRecord.from_dict(r) for d in done for r in self._read_json(
            f"models/{d['graph_id']}__{d['init_method']}/robustness.json", []))
        return Study(study_hash, stored and stored["manifest"], done, records,
                     len(docs) - len(done))

    # --- correlations, pruning, report ---------------------------------

    def save_correlations(self, table: CorrelationTable, subdir: str = "") -> None:
        base = self.root / subdir if subdir else self.root
        self._write_csv(base / "correlations.csv", table.layout_rows())
        self._write_csv(base / "correlations_long.csv", table.long_rows())

    def save_correlation_log(self, log: dict) -> None:
        self._write_json(self.root / "correlate_log.json", log)

    def save_pruning_steps(self, rows) -> None:
        self._write_csv(self.root / "pruning" / "steps.csv", rows)

    def has_pruning_steps(self) -> bool:
        return (self.root / "pruning" / "steps.csv").exists()

    def save_report(self, text: str) -> None:
        with atomic_open(self.root / "report.txt") as f:
            f.write(text)
