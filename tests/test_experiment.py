from __future__ import annotations

import contextlib
import csv
import hashlib
import importlib
import json
import re
from collections import Counter
from concurrent.futures import Future
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from snnrobust.experiment import (PROPERTY_NAMES, CorrelationWithheldError,
                                  ExperimentError, ExperimentManifest,
                                  GridSpec, ScaleFactors,
                                  _aggregate_column, _sweep_task,
                                  build_graph_dataset, candidate_param_count,
                                  correlate, dense_stack_dag, derive_seed,
                                  load_data_source, load_split, render_report,
                                  rerun_attacks, resolve_data_source,
                                  run_pruning_baseline, run_sweep)
from snnrobust.graph import generate_ws, layer_dag
from snnrobust.measure import MEASURE_COLUMNS, RobustnessRecord, tukey_fences
from snnrobust.network import (build_network, init_weights, load_checkpoint,
                               network_to_graph, param_count, save_checkpoint)
from snnrobust.store import ResultsStore
from snnrobust.train import predict

from tests.conftest import random_small_graph
from tests.oracles import write_synthetic_idx


def tiny_manifest(**overrides) -> ExperimentManifest:
    """Smallest worthwhile end-to-end configuration for unit tests."""
    m = ExperimentManifest(
        grid=GridSpec(size=[250], nei=[2], p=[0.5, 0.9]),
        target_graph_count=2,
        param_range=(1, 10**9),
        init_methods=["He_N"],
        master_seed=777,
        dataset="synthetic",
        synthetic_train_n=220,
        synthetic_test_n=90,
        scale=ScaleFactors(epochs=1 / 30, train_subset=1.0, test_subset=1.0,
                           search_subset=0.04, one_pixel=0.03,
                           de_pop=0.016, de_iter=0.004),
    )
    for k, v in overrides.items():
        setattr(m, k, v)
    return m


class TestManifest:
    def test_round_trip(self, tmp_path):
        m = tiny_manifest()
        path = tmp_path / "m.json"
        m.save(path)
        loaded = ExperimentManifest.from_file(path)
        assert loaded.to_dict() == m.to_dict()
        assert loaded.manifest_hash == m.manifest_hash

    def test_hash_changes_with_content(self):
        a = tiny_manifest()
        b = tiny_manifest(master_seed=778)
        assert a.manifest_hash != b.manifest_hash

    def test_mode_label(self):
        assert ExperimentManifest().mode == "full"
        assert tiny_manifest().mode == "desk"

    def test_grid_values_must_come_from_declared_sets(self):
        with pytest.raises(ExperimentError):
            GridSpec(size=[123])
        with pytest.raises(ExperimentError):
            GridSpec(p=[0.25])

    def test_param_range_validated(self):
        with pytest.raises(ExperimentError):
            ExperimentManifest(param_range=(100, 100))

    def test_unknown_property_rejected(self):
        with pytest.raises(ExperimentError, match="no_such_property.*avg_closeness"):
            ExperimentManifest(properties=["density", "no_such_property"])
        d = ExperimentManifest().to_dict()
        d["properties"] = ["no_such_property"]
        with pytest.raises(ExperimentError):
            ExperimentManifest.from_dict(d)
        assert ExperimentManifest(properties=list(PROPERTY_NAMES)).properties

    @pytest.mark.parametrize("change, message", [
        ({"init_methods": ["G_N", "XYZ"]}, r"unknown init methods \['XYZ'\]; allowed: G_N"),
        ({"init_methods": ["G_N", "U", "G_N"]}, "repeats a method"),
        ({"pruning": {"init_method": "XYZ"}}, r"unknown init methods \['XYZ'\]"),
    ], ids=["unknown", "repeated", "pruning"])
    def test_init_methods_validated(self, change, message):
        # an unknown name would otherwise fail every one of its tasks at run time
        with pytest.raises(ExperimentError, match=message):
            ExperimentManifest.from_dict({**ExperimentManifest().to_dict(), **change})

    @pytest.mark.parametrize("pruning", [
        {"alpha": 1.5}, {"alpha": -0.1}, {"steps": -2}, {"retrain_epochs": -1},
        {"hidden_layers": []}, {"hidden_layers": [50, 0, 50]},
    ], ids=["alpha-high", "alpha-low", "steps", "retrain", "no-layers", "empty-layer"])
    def test_pruning_settings_validated(self, pruning):
        # each would otherwise fail, or run something else, only after the
        # dense model has trained
        with pytest.raises(ExperimentError, match="pruning .*need alpha in"):
            ExperimentManifest.from_dict({"pruning": pruning})

    @pytest.mark.parametrize("section, change", [
        ("attacks", {"fgsm_eps": -0.1}), ("attacks", {"search_start": -0.001}),
        ("attacks", {"search_step": 0}), ("attacks", {"search_step": -0.01}),
        ("attacks", {"de_F": 0}), ("attacks", {"de_CR": 3.0}), ("attacks", {"de_CR": -0.1}),
        ("attacks", {"de_pop_size": 0}), ("attacks", {"de_max_iter": 0}),
        ("attacks", {"one_pixel_images": 0}),
        *(("scale", {name: 0.0}) for name in asdict(ScaleFactors())),
        ("scale", {"de_pop": -1.0}),
    ], ids=lambda v: v if isinstance(v, str) else "-".join(f"{k}={x}" for k, x in v.items()))
    def test_attack_and_scale_settings_validated(self, tmp_path, section, change):
        # a zero search step would hang the sweep, and a bad DE setting would
        # fail every task only after its model has trained
        message = {"attacks": "attacks .*need fgsm_eps and search_start >= 0",
                   "scale": "scale .*need every factor > 0"}[section]
        with pytest.raises(ValueError, match=message):
            ExperimentManifest.from_dict({section: change})
        path = tmp_path / "m.json"
        path.write_text(json.dumps({section: change}))
        with pytest.raises(ExperimentError, match=f"bad manifest {re.escape(str(path))}: "
                                                  f"{message}"):
            ExperimentManifest.from_file(path)

    def test_a_setting_changed_after_construction_is_checked_when_saved(self, tmp_path):
        for section, name, value, message in [
                ("pruning", "alpha", 3.0, "pruning .*need alpha in"),
                ("grid", "size", [123], r"grid size values \[123\] outside"),
                ("train", "batch_size", 0, "batch_size must be >= 1"),
                ("attacks", "search_step", 0.0, "attacks .*need fgsm_eps"),
                ("scale", "de_iter", 0.0, "scale .*need every factor > 0")]:
            m = ExperimentManifest()
            setattr(getattr(m, section), name, value)
            with pytest.raises(ExperimentError, match=message):
                m.save(tmp_path / "m.json")
            assert not (tmp_path / "m.json").exists()
            with pytest.raises(ExperimentError, match=message):
                m.manifest_hash

    def test_zero_retrain_epochs_retrain_nothing(self):
        m = ExperimentManifest.from_dict({"pruning": {"retrain_epochs": 0}})
        assert m.effective_retrain_epochs() == 0
        # a positive count scales down to no less than one epoch
        assert ExperimentManifest.from_dict(
            {"scale": {"epochs": 0.1}}).effective_retrain_epochs() == 1

    def test_effective_scaling(self):
        m = tiny_manifest()
        assert m.effective_epochs() == 1
        assert ExperimentManifest().effective_epochs() == 30
        cfg = m.de_config(seed=1)
        assert cfg.pop_size >= 4 and cfg.max_iter >= 1

    def test_derive_seed_stable_and_distinct(self):
        a = derive_seed(1, "g0", "He_N", "train")
        assert a == derive_seed(1, "g0", "He_N", "train")
        assert a != derive_seed(1, "g0", "He_N", "init")
        assert a != derive_seed(2, "g0", "He_N", "train")


class TestBuildGraphDataset:
    def test_vacuous_filter_accepts_first_candidates(self, tmp_path):
        store = ResultsStore(tmp_path)
        entries = build_graph_dataset(tiny_manifest(), store)
        assert len(entries) == 2
        assert entries[0].graph_id == "g0000"
        on_disk = store.load_graph_entries()
        assert [e.graph_id for e in on_disk] == ["g0000", "g0001"]
        assert on_disk[0].param_count == entries[0].param_count

    def test_infeasible_filter_warns_and_returns_partial(self, tmp_path, caplog):
        m = tiny_manifest(param_range=(1, 2), max_generation_rounds=2)
        store = ResultsStore(tmp_path)
        entries = build_graph_dataset(m, store)
        assert entries == []
        log = json.loads((tmp_path / "generation.json").read_text())
        assert log["exhausted"] is True
        assert log["rejected"] == 2 * 2  # combos x rounds

    def test_generation_log_counts_every_combo_tried(self, tmp_path):
        # nei 10 sorts before nei 2 as text; the log and the report keep
        # numeric (size, nei, p) order
        grid = GridSpec(size=[250], nei=[2, 10], p=[0.5, 0.9])
        store = ResultsStore(tmp_path)
        build_graph_dataset(tiny_manifest(grid=grid, target_graph_count=5), store)
        build_graph_dataset(tiny_manifest(grid=grid, param_range=(1, 2),
                                          max_generation_rounds=2),
                            ResultsStore(tmp_path / "none"))
        ok = json.loads((tmp_path / "generation.json").read_text())
        none = json.loads((tmp_path / "none" / "generation.json").read_text())
        combos = [(250, 2, 0.5), (250, 2, 0.9), (250, 10, 0.5), (250, 10, 0.9)]

        def counts(log):
            return [((c["size"], c["nei"], c["p"]), c["accepted"], c["rejected"])
                    for c in log["combos"]]

        assert counts(ok) == [(k, n, 0) for k, n in zip(combos, [2, 1, 1, 1])]
        assert counts(none) == [(k, 0, 2) for k in combos]
        assert (ok["accepted"], ok["rejected"]) == (5, 0)
        assert (none["accepted"], none["rejected"]) == (0, 8)
        assert set(ok["seconds"]) == {"generate_ws", "compute_metrics"}
        assert ok["seconds"]["generate_ws"] > 0 < ok["seconds"]["compute_metrics"]
        assert none["seconds"]["compute_metrics"] == 0.0  # nothing accepted
        lines = render_report(tiny_manifest(grid=grid), store).splitlines()
        at = lines.index("graphs: 5 accepted, 0 rejected by the parameter filter")
        assert lines[at + 1:at + 5] == ["  size=250,nei=2,p=0.5: 2 accepted, 0 rejected",
                                        "  size=250,nei=2,p=0.9: 1 accepted, 0 rejected",
                                        "  size=250,nei=10,p=0.5: 1 accepted, 0 rejected",
                                        "  size=250,nei=10,p=0.9: 1 accepted, 0 rejected"]
        assert lines[at + 5].startswith("  time: compute_metrics ")
        assert ", generate_ws " in lines[at + 5]

    def test_a_later_run_removes_the_graphs_it_did_not_write(self, tmp_path):
        store = ResultsStore(tmp_path)
        build_graph_dataset(tiny_manifest(target_graph_count=4), store)
        entries = build_graph_dataset(
            tiny_manifest(target_graph_count=2, master_seed=778), store)
        on_disk = store.load_graph_entries()
        assert [e.graph_id for e in on_disk] == ["g0000", "g0001"]
        assert [e.generator for e in on_disk] == [e.generator for e in entries]
        assert [(e["accepted"], e["removed"]) for e in store.load_provenance()] == [
            (4, []), (2, ["g0002", "g0003"])]

    def test_full_scale_filter_bounds(self, tmp_path):
        m = ExperimentManifest(grid=GridSpec(size=[500], nei=[2], p=[0.9]),
                               target_graph_count=1)
        entries = build_graph_dataset(m, ResultsStore(tmp_path))
        assert len(entries) == 1
        assert 50_000 <= entries[0].param_count <= 91_000

    def test_candidate_count_matches_build(self, rng):
        graphs = ([generate_ws(250, 2, 0.7, seed=0), dense_stack_dag([50, 100, 50])]
                  + [random_small_graph(rng, max_vertices=12) for _ in range(30)])
        for g in graphs:
            net = build_network(layer_dag(g), 784, 10)
            assert candidate_param_count(g) == param_count(net)


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    """One tiny sweep shared by the read-only assertions below."""
    out = tmp_path_factory.mktemp("sweep")
    manifest = tiny_manifest()
    store = ResultsStore(out)
    build_graph_dataset(manifest, store)
    source = resolve_data_source(manifest, None)
    summaries = run_sweep(manifest, store, source, workers=1)
    return manifest, store, summaries


class TestRunSweep:
    def test_cardinality(self, sweep_run):
        manifest, store, summaries = sweep_run
        assert len(summaries) == 2 * 1  # graphs x inits
        assert len(store.completed_pairs(manifest.manifest_hash)) == 2

    def test_records_written(self, sweep_run):
        manifest, store, _ = sweep_run
        records = store.study(manifest.manifest_hash).records
        assert {r.attack for r in records} >= {"fgsm", "fgsm_search"}
        model_dir = store.model_dir("g0000", "He_N")
        for name in ("checkpoint.bin", "history.csv", "eval.json",
                     "fgsm.csv", "fgsm_search.csv", "one_pixel.csv",
                     "robustness.json", "done.json"):
            assert (model_dir / name).exists(), name

    def test_resume_skips_completed(self, sweep_run):
        manifest, store, _ = sweep_run
        again = run_sweep(manifest, store,
                          resolve_data_source(manifest, None), workers=1)
        assert again == []

    def test_done_records_stage_seconds_and_generations(self, sweep_run):
        manifest, store, summaries = sweep_run
        for summary in summaries:
            done = json.loads((store.model_dir(summary["graph_id"], summary["init_method"])
                               / "done.json").read_text())
            assert set(done["seconds"]) == {"train", "evaluate", "fgsm",
                                            "fgsm_search", "one_pixel", "checkpoint"}
            assert all(s >= 0.0 for s in done["seconds"].values())
            assert done["seconds"]["train"] > 0.0
            with open(store.model_dir(summary["graph_id"], summary["init_method"])
                      / "one_pixel.csv") as f:
                rows = list(csv.DictReader(f))
            assert rows
            assert done["generations_used"] == sum(int(r["generations_used"]) for r in rows)
        [line] = [line for line in render_report(manifest, store).splitlines()
                  if line.startswith("  time: train ")]
        assert line.endswith(" s over 2 models; one-pixel ran "
                             f"{sum(s['generations_used'] for s in summaries)} generations")
        for stage in ("evaluate", "fgsm", "fgsm_search", "one_pixel", "checkpoint"):
            assert f", {stage} " in line

    def test_a_task_commits_its_own_pair(self, tmp_path):
        # called directly, with no sweep around it, the task writes the
        # done.json it returns, manifest hash included
        manifest = tiny_manifest(target_graph_count=1)
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        source = resolve_data_source(manifest, None)
        done = _sweep_task(manifest, source, str(tmp_path), "g0000", "He_N")
        assert done["manifest_hash"] == manifest.manifest_hash
        assert json.loads((store.model_dir("g0000", "He_N")
                           / "done.json").read_text()) == done
        assert store.completed_pairs(manifest.manifest_hash) == [("g0000", "He_N")]

    def test_the_pool_is_no_larger_than_the_pending_pairs(self, tmp_path, monkeypatch):
        from snnrobust import experiment as exp_mod
        sizes = []

        class RecordingPool:
            """Runs each task here, and records the pool size asked for."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(exp_mod, "ProcessPoolExecutor", RecordingPool)
        manifest = tiny_manifest()
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        source = resolve_data_source(manifest, None)
        assert len(run_sweep(manifest, store, source, workers=8)) == 2
        assert sizes == [2]
        # one pair left runs here, with no pool
        (store.model_dir("g0001", "He_N") / "done.json").unlink()
        assert len(run_sweep(manifest, store, source, workers=8)) == 1
        assert sizes == [2]

    @pytest.mark.parametrize("workers", [0, -3])
    def test_fewer_than_one_worker_is_refused(self, sweep_run, workers):
        manifest, store, _ = sweep_run
        with pytest.raises(ExperimentError, match="^workers must be >= 1$"):
            run_sweep(manifest, store, resolve_data_source(manifest, None),
                      workers=workers)

    def test_attack_csv_schema(self, sweep_run):
        _, store, _ = sweep_run
        with open(store.model_dir("g0000", "He_N") / "fgsm.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == ["image_index", "success", "confidence",
                           "epsilon_used", "p_x", "p_y", "I", "generations_used"]
        assert len(rows) > 1


class TestCorrelate:
    def test_table_layout_and_flags(self, sweep_run):
        manifest, store, _ = sweep_run
        with pytest.raises(CorrelationWithheldError):
            correlate(manifest, store)  # only 2 models < 3

    def test_with_enough_models(self, tmp_path):
        manifest = tiny_manifest(target_graph_count=3,
                                 grid=GridSpec(size=[250], nei=[2],
                                               p=[0.5, 0.7, 0.9]))
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        run_sweep(manifest, store, resolve_data_source(manifest, None))
        table = correlate(manifest, store)
        assert len(table.cells) == len(manifest.properties) * 5
        assert (tmp_path / "correlations.csv").exists()
        with open(tmp_path / "correlations.csv") as f:
            rows = list(csv.reader(f))
        assert len(rows) == 1 + len(manifest.properties)
        assert len(rows[0]) == 1 + 5
        for row in rows[1:]:
            for cell in row[1:]:
                assert cell.startswith(("rho=", "undefined:"))
        # per-column run accounting reconciles: kept + discarded = total
        log = json.loads((tmp_path / "correlate_log.json").read_text())
        for col in log["columns"]:
            assert 0 <= col["discarded_runs"] <= col["n_runs"]
            defined = [c for c in table.cells
                       if (c.attack, c.measure) == (col["attack"], col["measure"])
                       and c.defined]
            for c in defined:
                assert c.n <= col["n_models"]
        text = render_report(manifest, store)
        assert "strongest correlations" in text
        # each column lists its two largest |rho| in descending order
        lines = text.splitlines()
        for attack, measure in MEASURE_COLUMNS:
            at = lines.index(f"  {attack} / {measure}:")
            shown = [line.split()[1] for line in lines[at + 1:at + 3]
                     if line.startswith("    ") and "rho=" in line]
            rhos = sorted((abs(c.rho) for c in table.cells
                           if (c.attack, c.measure) == (attack, measure)
                           and c.defined), reverse=True)[:2]
            assert [abs(float(r[4:])) for r in shown] == pytest.approx(rhos, abs=5e-4)

    def test_task_failure_recorded_and_sweep_continues(self, tmp_path, monkeypatch):
        from snnrobust import experiment as exp_mod
        manifest = tiny_manifest()
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        real_task = exp_mod._sweep_task

        def flaky(manifest, data_source, out_dir, graph_id, init_method):
            if graph_id == "g0000":
                raise RuntimeError("injected task failure")
            return real_task(manifest, data_source, out_dir, graph_id, init_method)

        monkeypatch.setattr(exp_mod, "_sweep_task", flaky)
        summaries = run_sweep(manifest, store,
                              resolve_data_source(manifest, None), workers=1)
        assert [s["graph_id"] for s in summaries] == ["g0001"]
        prov = json.loads((tmp_path / "provenance.json").read_text())
        assert any(e["event"] == "task-failed" and e["graph_id"] == "g0000"
                   for e in prov)
        # the failed pair is retried on resume
        monkeypatch.setattr(exp_mod, "_sweep_task", real_task)
        retried = run_sweep(manifest, store,
                            resolve_data_source(manifest, None), workers=1)
        assert [s["graph_id"] for s in retried] == ["g0000"]
        # a failure that a resume completed is no longer reported
        assert "failed tasks: 0\n" in render_report(manifest, store)

    def test_parallel_workers_match_serial(self, tmp_path):
        manifest = tiny_manifest()
        results = {}
        for mode, workers in (("serial", 1), ("parallel", 2)):
            store = ResultsStore(tmp_path / mode)
            build_graph_dataset(manifest, store)
            run_sweep(manifest, store, resolve_data_source(manifest, None),
                      workers=workers)
            results[mode] = (
                (tmp_path / mode / "models" / "g0000__He_N" / "robustness.json")
                .read_text())
        assert results["serial"] == results["parallel"]

    def test_synthetic_records_roundtrip(self, tmp_path):
        store = ResultsStore(tmp_path)
        rec = RobustnessRecord("g0", "U", "fgsm", 0.5, 0.9, None, 10, 5, 0)
        store.save_robustness("g0", "U", [rec])
        store.mark_pair_done("g0", "U", "h")
        assert store.study("h").records == (rec,)
        assert store.study("another").records == ()

    def test_report_counts_censored_searches_and_failed_tasks(self, tmp_path):
        store = ResultsStore(tmp_path)
        for model, censored in (("g0", 2), ("g1", 3)):
            store.save_robustness(model, "U", [
                RobustnessRecord(model, "U", "fgsm", 0.5, 0.9, None, 10, 5, 0),
                RobustnessRecord(model, "U", "fgsm_search", 0.6, 0.8, 0.1, 5,
                                 5 - censored, censored)])
            store.mark_pair_done(model, "U", tiny_manifest().manifest_hash)
        store.append_provenance("task-failed", graph_id="g2", init_method="U",
                                error="injected failure")
        text = render_report(tiny_manifest(), store)
        assert "epsilon search: 5 of 10 searched images censored" in text
        assert "failed tasks: 1\n  g2 / U: injected failure\n" in text
        assert ("\ncorrelations withheld: only 2 models have records; need >= 3\n"
                in text)


def test_models_completed_under_another_manifest_are_left_out(tmp_path):
    # gen-graphs to 4 graphs and a sweep, then gen-graphs to 3 graphs under a
    # new master seed and a second sweep: g0003's model is the first
    # manifest's, so correlate, the report and the re-attack leave it out
    store = ResultsStore(tmp_path)
    first = tiny_manifest(target_graph_count=4)
    build_graph_dataset(first, store)
    run_sweep(first, store, resolve_data_source(first, None))
    second = tiny_manifest(target_graph_count=3, master_seed=778)
    build_graph_dataset(second, store)
    source = resolve_data_source(second, None)
    run_sweep(second, store, source)
    assert len(store.completed_pairs(None)) == 4

    correlate(second, store)
    log = json.loads((tmp_path / "correlate_log.json").read_text())
    assert {col["n_models"] for col in log["columns"]} == {3}
    assert log["left_out"] == 1
    assert log["manifest_hash"] == second.manifest_hash != first.manifest_hash
    text = render_report(second, store)
    assert ("models: 3 graphs x 1 initializations, 1 left out "
            "(completed under another manifest)\n") in text
    assert " over 3 models; " in text
    stale = store.model_dir("g0003", "He_N") / "robustness.json"
    before = stale.read_bytes()
    assert rerun_attacks(second, store, source) == 3
    assert stale.read_bytes() == before


@pytest.fixture
def three_models(tmp_path):
    """A sweep of 3 graphs x 1 init into a fresh store."""
    manifest = tiny_manifest(target_graph_count=3)
    store = ResultsStore(tmp_path)
    build_graph_dataset(manifest, store)
    source = resolve_data_source(manifest, None)
    run_sweep(manifest, store, source)
    return manifest, store, source


def test_regenerated_graphs_start_a_new_study(three_models):
    # gen-graphs under a new master seed replaces the graphs the models were
    # trained on, so none of those models belongs to the study any more
    _, store, _ = three_models
    regenerated = tiny_manifest(target_graph_count=3, master_seed=778)
    build_graph_dataset(regenerated, store)
    assert store.study("given").manifest_hash == regenerated.manifest_hash
    with pytest.raises(CorrelationWithheldError):
        correlate(regenerated, store)
    text = render_report(regenerated, store)
    assert ("models: 0 graphs x 0 initializations, 3 left out "
            "(completed under another manifest)\n") in text


def test_report_shows_the_correlations_of_its_study(tmp_path):
    # correlate over 3 graphs x 2 inits, then a sweep of the He_N models
    # alone under a new manifest: the report, before correlate runs again,
    # already shows the new study's table
    store = ResultsStore(tmp_path)
    first = tiny_manifest(init_methods=["He_N", "U"], target_graph_count=3)
    build_graph_dataset(first, store)
    source = resolve_data_source(first, None)
    run_sweep(first, store, source)
    correlate(first, store)
    second = tiny_manifest(init_methods=["He_N"], target_graph_count=3)
    run_sweep(second, store, source)
    before = render_report(second, store)
    assert ("models: 3 graphs x 1 initializations, 3 left out "
            "(completed under another manifest)\n") in before
    assert "\nstrongest correlations per measure" in before
    correlate(second, store)
    assert render_report(second, store) == before


def test_report_names_property_confounds(tmp_path):
    # sizes 250, 300, 250 with nei = 2: every size-only property ranks the
    # three models alike, density in reverse
    manifest = tiny_manifest(
        grid=GridSpec(size=[250, 300], nei=[2], p=[0.5]), target_graph_count=3,
        properties=["vertex_count", "edge_count", "density", "density_directed",
                    "avg_path_length"])
    store = ResultsStore(tmp_path)
    build_graph_dataset(manifest, store)
    run_sweep(manifest, store, resolve_data_source(manifest, None))
    lines = render_report(manifest, store).splitlines()
    at = lines.index("graph properties over the 3 correlated models:")
    assert lines[at + 1:at + 5] == ["  vertex_count: 2 distinct, [250, 300]",
                                    "  edge_count: 2 distinct, [500, 600]",
                                    "  density: 2 distinct, [0.0133779, 0.0160643]",
                                    "  density_directed: 2 distinct, [0.00668896, 0.00803213]"]
    assert lines[at + 5].startswith("  avg_path_length: 3 distinct, [")
    assert lines[at + 6:at + 8] == [
        "properties that rank the models identically (- marks a reversed ranking):",
        "  vertex_count = edge_count = -density = -density_directed"]


def run_records(runs_by_model: dict[str, list[float]]) -> list[RobustnessRecord]:
    """One fgsm record per run, the run's value as its error rate."""
    return [RobustnessRecord(model, "U", "fgsm", v, None, None, 10, 5, 0)
            for model, runs in runs_by_model.items() for v in runs]


class TestAggregateColumn:
    def aggregate(self, runs_by_model, mode="run"):
        return _aggregate_column(run_records(runs_by_model), "fgsm",
                                 "error_rate", mode)

    def test_degenerate_iqr(self):
        means, info = self.aggregate({"a": [0, 0, 0, 0, 10]})
        assert means == {"a": 0.0}
        assert info["discarded_runs"] == 1
        means, info = self.aggregate({"a": [0], "b": [0], "c": [0], "d": [0],
                                      "e": [10]}, mode="model")
        assert sorted(means) == ["a", "b", "c", "d"]
        assert info["discarded_models"] == 1

    def test_symmetric_data_keeps_everything(self):
        means, info = self.aggregate({"a": [1, 2, 3, 4], "b": [5, 6, 7, 8]})
        assert means == {"a": 2.5, "b": 6.5}
        assert info["discarded_runs"] == 0

    def test_hand_computed_fences(self):
        values = list(range(1, 10)) + [100]
        # Q1 = 3.25, Q3 = 7.75 under linear interpolation; hi fence 14.5
        lo, hi = tukey_fences(values)
        assert lo == pytest.approx(3.25 - 1.5 * 4.5)
        assert hi == pytest.approx(7.75 + 1.5 * 4.5)
        means, info = self.aggregate({"a": values})
        assert means["a"] == pytest.approx(5.0)
        assert info["discarded_runs"] == 1

    def test_fewer_than_four_runs_unfiltered(self):
        means, info = self.aggregate({"a": [1, 2, 100]})
        assert means["a"] == pytest.approx(103 / 3)
        assert info["discarded_runs"] == 0

    def test_identical_runs(self):
        means, _ = self.aggregate({"a": [0.2] * 6})
        assert means["a"] == pytest.approx(0.2)

    def test_outlier_excluded(self):
        means, _ = self.aggregate({"a": [0.2] * 5 + [0.9]})
        assert means["a"] == pytest.approx(0.2)

    def test_single_run(self):
        means, info = self.aggregate({"a": [0.4]})
        assert means == {"a": pytest.approx(0.4)}
        assert info["n_runs"] == 1

    def test_model_with_only_outlier_runs_dropped(self):
        means, info = self.aggregate({"a": [0.2] * 4, "b": [0.9]})
        assert list(means) == ["a"]
        assert info["discarded_models"] == 1


class TestAtomicWrites:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        store = ResultsStore(tmp_path)
        path = tmp_path / "table.csv"
        store._write_csv(path, [["a", "b"], [1, 2]])
        before = path.read_bytes()

        def rows():
            yield ["c", "d"]
            raise RuntimeError("disk full")

        with pytest.raises(RuntimeError):
            store._write_csv(path, rows())
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["graphs", "models",
                                                              "table.csv"]

    def test_failed_json_write_keeps_previous_file(self, tmp_path):
        store = ResultsStore(tmp_path)
        store.save_generation_log({"accepted": 1})
        with pytest.raises(TypeError):
            store.save_generation_log({"accepted": object()})
        assert json.loads((tmp_path / "generation.json").read_text()) == {"accepted": 1}
        assert not list(tmp_path.glob(".*"))


@pytest.mark.parametrize("command", [correlate, render_report],
                         ids=["correlate", "report"])
def test_a_command_reads_the_study_once(three_models, monkeypatch, command):
    manifest, store, _ = three_models
    study_files = [store.root / "manifest.json",
                   *sorted(store.root.glob("models/*/done.json"))]
    assert len(study_files) == 4
    reads = Counter()
    real = Path.read_text

    def counting(path, *args, **kwargs):
        reads[path] += 1
        return real(path, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    command(manifest, store)
    assert {path: reads[path] for path in study_files} == dict.fromkeys(study_files, 1)


class TestStoreReaders:
    def test_empty_store(self, tmp_path):
        store = ResultsStore(tmp_path)
        assert store.load_provenance() == []
        assert store.load_generation_log() is None
        study = store.study("given")
        assert (study.manifest_hash, study.manifest, study.left_out) == ("given", None, 0)
        assert study.done == study.records == ()
        assert not store.has_pruning_steps()


class TestPruningBaseline:
    def test_edge_counts_follow_floor_recurrence(self, tmp_path):
        manifest = tiny_manifest()
        manifest.pruning.hidden_layers = [8, 12, 8]
        manifest.pruning.steps = 6
        manifest.pruning.alpha = 0.25
        manifest.pruning.retrain_epochs = 1
        store = ResultsStore(tmp_path)
        steps = run_pruning_baseline(manifest, store,
                                     resolve_data_source(manifest, None))
        assert len(steps) == 7
        n = 8 * 12 + 12 * 8
        assert steps[0]["hidden_edges"] == n
        for k in range(1, 7):
            n = n - int(np.floor(0.25 * n))
            assert steps[k]["hidden_edges"] == n
        assert (tmp_path / "pruning" / "steps.csv").exists()
        assert (tmp_path / "pruning" / "correlations.csv").exists()

    def test_every_property_recorded_and_correlated(self, tmp_path):
        manifest = tiny_manifest(properties=["density", "edge_count", "vertex_count",
                                             "density_directed"])
        manifest.pruning.hidden_layers = [4, 6, 4]
        manifest.pruning.steps = 1
        manifest.pruning.alpha = 0.5
        manifest.pruning.retrain_epochs = 1
        store = ResultsStore(tmp_path)
        steps = run_pruning_baseline(manifest, store,
                                     resolve_data_source(manifest, None))
        assert steps[0]["edge_count"] == 4 * 6 + 6 * 4
        assert steps[0]["vertex_count"] == 14
        assert all(set(PROPERTY_NAMES) <= set(rec) for rec in steps)
        with open(tmp_path / "pruning" / "steps.csv") as f:
            header = next(csv.reader(f))
        # the earlier columns in their earlier order, then the three added ones
        assert header == [
            "step", "param_count", "hidden_edges", "accuracy", "macro_f1",
            "fgsm_error_rate", "fgsm_avg_confidence", "fgsm_search_avg_epsilon",
            "one_pixel_error_rate", "one_pixel_avg_confidence",
            "num_parameters", "density", "avg_path_length", "avg_eccentricity",
            "diameter", "avg_betweenness", "avg_closeness", "disconnected",
            "vertex_count", "edge_count", "density_directed"]
        with open(tmp_path / "pruning" / "correlations.csv") as f:
            rows = list(csv.reader(f))
        assert [r[0] for r in rows[1:]] == manifest.properties

    def test_provenance_records_the_plan_every_step_ran(self, tmp_path, monkeypatch):
        from snnrobust import experiment as exp_mod
        configs = []
        real = exp_mod.one_pixel

        def recording(net, x, y, cfg, **kwargs):
            configs.append(cfg)
            return real(net, x, y, cfg, **kwargs)

        monkeypatch.setattr(exp_mod, "one_pixel", recording)
        manifest = tiny_manifest()
        manifest.pruning.hidden_layers = [4, 6, 4]
        manifest.pruning.steps = 1
        manifest.pruning.retrain_epochs = 1
        store = ResultsStore(tmp_path)
        run_pruning_baseline(manifest, store, resolve_data_source(manifest, None))
        event = store.load_provenance()[-1]
        assert event["event"] == "prune-baseline"
        assert event["attacks"] == manifest.attack_settings(90)
        assert configs
        assert all({k: getattr(cfg, k) for k in event["attacks"]["de"]}
                   == event["attacks"]["de"] for cfg in configs)

    def test_reuses_the_sweep_data(self, tmp_path, monkeypatch):
        # a sweep, a pruning baseline and a re-attack in one process build
        # each split once
        from snnrobust import data
        splits = []
        real = data.synthetic_dataset

        def counting(n, seed, split="train", **kwargs):
            splits.append(split)
            return real(n, seed, split, **kwargs)

        monkeypatch.setattr(data, "synthetic_dataset", counting)
        load_split.cache_clear()
        manifest = tiny_manifest(target_graph_count=1)
        manifest.pruning.hidden_layers = [4, 6, 4]
        manifest.pruning.steps = 1
        manifest.pruning.retrain_epochs = 1
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        source = resolve_data_source(manifest, None)
        run_sweep(manifest, store, source, workers=1)
        run_pruning_baseline(manifest, store, source)
        assert rerun_attacks(manifest, store, source) == 1
        assert sorted(splits) == ["test", "train"]

    def test_a_bad_setting_raises_before_training(self, tmp_path, monkeypatch):
        from snnrobust import experiment as exp_mod
        trained = []
        monkeypatch.setattr(exp_mod, "train", lambda *a, **k: trained.append(a))
        manifest = tiny_manifest()
        manifest.pruning.alpha = 3.0
        with pytest.raises(ExperimentError, match="pruning .*need alpha in"):
            run_pruning_baseline(manifest, ResultsStore(tmp_path),
                                 resolve_data_source(manifest, None))
        assert trained == []

    def test_dense_stack_dag_layers(self):
        ld = layer_dag(dense_stack_dag([3, 4, 2]))
        assert [len(layer) for layer in ld.layers] == [3, 4, 2]
        net = build_network(ld, 5, 2)
        assert network_to_graph(net).edge_count == 3 * 4 + 4 * 2


class TestRerunAttacks:
    @pytest.fixture
    def store_with_model(self, tmp_path):
        manifest = tiny_manifest()
        store = ResultsStore(tmp_path)
        ld = layer_dag(generate_ws(30, 2, 0.5, seed=1))
        net = init_weights(build_network(ld, 784, 10), "He_N", seed=2)
        save_checkpoint(net, store.checkpoint_path("g0000", "He_N"))
        # as a sweep would: the manifest the model was trained under
        store.save_manifest(manifest.to_dict(), manifest.manifest_hash)
        store.mark_pair_done("g0000", "He_N", manifest.manifest_hash)
        return manifest, store

    def test_a_checkpoint_with_trailing_bytes_is_refused(self, store_with_model):
        manifest, store = store_with_model
        path = store.checkpoint_path("g0000", "He_N")
        path.write_bytes(path.read_bytes() + bytes(100))
        with pytest.raises(ExperimentError, match=r"^checkpoint of g0000/He_N refused: "
                           r"checkpoint .* has 100 bytes past its last bias$"):
            rerun_attacks(manifest, store, resolve_data_source(manifest, None))

    def test_loads_only_the_test_split(self, store_with_model, monkeypatch):
        from snnrobust import data
        manifest, store = store_with_model
        splits = []
        real = data.synthetic_dataset

        def counting(n, seed, split="train", **kwargs):
            splits.append(split)
            return real(n, seed, split, **kwargs)

        monkeypatch.setattr(data, "synthetic_dataset", counting)
        load_split.cache_clear()
        assert rerun_attacks(manifest, store, resolve_data_source(manifest, None)) == 1
        assert splits == ["test"]

    def test_reattack_rewrites_the_attack_time_and_generations(self, three_models):
        # a larger DE budget: the report's time line describes the stored
        # one-pixel rows, and each done.json keeps its training record
        manifest, store, source = three_models
        before = store.done_records(None)
        manifest.scale.de_iter = 0.04
        assert rerun_attacks(manifest, store, source) == 3
        after = store.done_records(None)
        kept = ("graph_id", "init_method", "manifest_hash", "seeds")
        for old, new in zip(before, after):
            assert [new[k] for k in kept] == [old[k] for k in kept]
            for stage in ("train", "evaluate", "checkpoint"):
                assert new["seconds"][stage] == old["seconds"][stage]
            with open(store.model_dir(new["graph_id"], new["init_method"])
                      / "one_pixel.csv") as f:
                rows = list(csv.DictReader(f))
            assert new["generations_used"] == sum(int(r["generations_used"]) for r in rows)
        generations = sum(d["generations_used"] for d in after)
        assert generations > sum(d["generations_used"] for d in before)
        [line] = [line for line in render_report(manifest, store).splitlines()
                  if line.startswith("  time: train ")]
        assert line.endswith(f" over 3 models; one-pixel ran {generations} generations")

    def test_provenance_records_attack_settings(self, store_with_model):
        manifest, store = store_with_model
        manifest.attacks.de_F = 0.7
        assert rerun_attacks(manifest, store, resolve_data_source(manifest, None)) == 1
        event = json.loads((store.root / "provenance.json").read_text())[-1]
        assert event["event"] == "attack"
        # the scaled values: pop 500 x 0.016, 500 generations x 0.004,
        # 90 test images x 0.04, 100 one-pixel images x 0.03
        assert event["settings"] == {
            "fgsm_eps": 0.1,
            "eps_grid": {"start": 0.001, "step": 0.01, "cap": 1.0},
            "de": {"pop_size": 8, "max_iter": 2, "F": 0.7, "CR": 0.9},
            "images": {"fgsm": 90, "fgsm_search": 4, "one_pixel": 3},
        }


    @pytest.mark.parametrize("change, fields", [
        ({"master_seed": 778}, "master_seed"),
        ({"synthetic_test_n": 80, "scale": ScaleFactors(test_subset=0.5)},
         "scale, synthetic_test_n")], ids=["seed", "test-set"])
    def test_refuses_a_change_outside_the_attack_plan(self, three_models, change, fields):
        # another master seed or test prefix would score the stored models on
        # other images: refused before any file under models/ is written
        _, store, _ = three_models
        files = sorted(store.root.glob("models/*/*"))
        before = [f.read_bytes() for f in files]
        other = tiny_manifest(target_graph_count=3, **change)
        with pytest.raises(ExperimentError, match=f"^the given manifest differs from the "
                           f"study's in {fields}; a change to them needs a sweep$"):
            rerun_attacks(other, store, resolve_data_source(other, None))
        assert sorted(store.root.glob("models/*/*")) == files
        assert [f.read_bytes() for f in files] == before

    def test_a_resumed_sweep_keeps_the_reattack_settings_in_the_report(
            self, three_models):
        # a re-attack under a larger DE budget, then a resume with nothing
        # pending: the stored records are still the re-attack's, and the
        # report names their settings
        manifest, store, source = three_models
        attacker = tiny_manifest(target_graph_count=3)
        attacker.attacks.de_max_iter = 5000
        assert rerun_attacks(attacker, store, source) == 3
        assert run_sweep(manifest, store, source) == []
        settings = json.dumps(attacker.attack_settings(90), sort_keys=True)
        lines = render_report(manifest, store).splitlines()
        assert [line for line in lines if line.startswith("attack settings of ")] == [
            f"attack settings of 3 models: {settings}"]

    def test_correlations_are_withheld_for_a_study_scored_under_two_plans(
            self, three_models, monkeypatch):
        # a re-attack under a larger DE budget stops at its 2nd model, so the
        # study's 3 models carry two plans: no table mixes them, and the
        # report shows both
        from snnrobust import experiment as exp_mod
        manifest, store, source = three_models
        attacker = tiny_manifest(target_graph_count=3)
        attacker.attacks.de_max_iter = 5000
        loads = []

        def failing(path):
            loads.append(path)
            if len(loads) == 2:
                raise OSError(f"injected failure loading {path}")
            return load_checkpoint(path)

        with monkeypatch.context() as mp:
            mp.setattr(exp_mod, "load_checkpoint", failing)
            with pytest.raises(OSError):
                rerun_attacks(attacker, store, source)
        reason = ("the study's 3 models were scored under 2 different data "
                  "kinds or attack settings")
        with pytest.raises(CorrelationWithheldError, match=reason):
            correlate(manifest, store)
        lines = render_report(manifest, store).splitlines()
        assert f"correlations withheld: {reason}" in lines
        assert sorted(line for line in lines if line.startswith("attack settings of ")) == [
            f"attack settings of {n} models: {json.dumps(m.attack_settings(90), sort_keys=True)}"
            for n, m in ((1, attacker), (2, manifest))]

    def test_a_missing_stamp_counts_as_its_own_plan(self, three_models):
        # done.json files written before the stamps lack both fields: a study
        # of such files alone is one plan, one beside stamped files another
        manifest, store, _ = three_models
        for k, done in enumerate(store.done_records(None)):
            store.mark_pair_done(**{f: v for f, v in done.items()
                                    if f not in ("dataset", "attacks")})
            if k == 0:
                with pytest.raises(CorrelationWithheldError, match="scored under 2 "):
                    correlate(manifest, store)
        assert correlate(manifest, store).cells

    @pytest.fixture
    def idx_study(self, tmp_path):
        """A sweep of 2 models on IDX files, then a pruning baseline on the
        synthetic fallback into the same store."""
        write_synthetic_idx(tmp_path / "idx", train_n=220, test_n=90, seed=0)
        manifest = tiny_manifest(dataset="auto")
        manifest.pruning.hidden_layers = [4, 6, 4]
        manifest.pruning.steps = 1
        manifest.pruning.retrain_epochs = 1
        store = ResultsStore(tmp_path / "out")
        build_graph_dataset(manifest, store)
        run_sweep(manifest, store, resolve_data_source(manifest, tmp_path / "idx"))
        fallback = resolve_data_source(manifest, None)
        assert fallback[0] == "synthetic"
        run_pruning_baseline(manifest, store, fallback)
        return manifest, store, fallback

    def test_the_dataset_line_names_the_data_that_scored_the_models(self, idx_study):
        manifest, store, _ = idx_study
        assert ("dataset: mnist (manifest requests auto)"
                in render_report(manifest, store).splitlines())

    def test_refuses_to_reattack_on_other_data(self, idx_study):
        manifest, store, fallback = idx_study
        files = sorted(store.root.glob("models/*/robustness.json"))
        before = [f.read_bytes() for f in files]
        assert len(files) == 2
        with pytest.raises(ExperimentError, match="scored on mnist data"):
            rerun_attacks(manifest, store, fallback)
        assert [f.read_bytes() for f in files] == before

    def test_refuses_to_resume_on_other_data(self, idx_study):
        # one pair left to resume, on the synthetic fallback: refused before
        # any task runs; --no-resume sweeps both pairs again on it
        manifest, store, fallback = idx_study
        (store.model_dir("g0001", "He_N") / "done.json").unlink()
        files = sorted(store.root.glob("models/*/*"))
        before = [f.read_bytes() for f in files]
        with pytest.raises(ExperimentError, match="; sweep --no-resume retrains every pair"):
            run_sweep(manifest, store, fallback)
        assert sorted(store.root.glob("models/*/*")) == files
        assert [f.read_bytes() for f in files] == before
        assert len(run_sweep(manifest, store, fallback, resume=False)) == 2
        assert {d["dataset"] for d in store.done_records(None)} == {"synthetic"}

    def test_a_refused_resume_leaves_the_study_as_it_was(self, idx_study, tmp_path):
        # study A on IDX files, then a sweep of B (init U only) as the study:
        # a resume of A on the synthetic fallback is refused, and B stays it
        manifest, store, fallback = idx_study
        other = tiny_manifest(dataset="auto", init_methods=["U"])
        run_sweep(other, store, resolve_data_source(other, tmp_path / "idx"))
        stored = (store.root / "manifest.json").read_bytes()
        with pytest.raises(ExperimentError, match="refusing to resume it on synthetic"):
            run_sweep(manifest, store, fallback)
        assert (store.root / "manifest.json").read_bytes() == stored
        assert json.loads(stored)["manifest_hash"] == other.manifest_hash
        assert ("models: 2 graphs x 1 initializations, 2 left out (completed under "
                "another manifest)") in render_report(other, store).splitlines()


class TestOneCleanPass:
    """Each model's clean test prefix runs through predict once: the
    predictions that score it also pick the images the attacks target."""

    @pytest.fixture
    def predicted(self, monkeypatch):
        """The row count of every predict call, whichever module calls it."""
        from snnrobust import experiment as exp_mod
        train_mod = importlib.import_module("snnrobust.train")
        real = train_mod.predict
        rows = []

        def counting(net, images, *args, **kwargs):
            rows.append(images.shape[0])
            return real(net, images, *args, **kwargs)

        monkeypatch.setattr(train_mod, "predict", counting)
        monkeypatch.setattr(exp_mod, "predict", counting)
        return rows

    def test_sweep_then_reattack(self, tmp_path, predicted):
        manifest = tiny_manifest(target_graph_count=1)
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        source = resolve_data_source(manifest, None)
        run_sweep(manifest, store, source)
        assert predicted == [90]
        predicted.clear()
        assert rerun_attacks(manifest, store, source) == 1
        assert predicted == [90]

    def test_pruning_baseline(self, tmp_path, predicted):
        manifest = tiny_manifest()
        manifest.pruning.hidden_layers = [4, 6, 4]
        manifest.pruning.steps = 1
        manifest.pruning.retrain_epochs = 1
        steps = run_pruning_baseline(manifest, ResultsStore(tmp_path),
                                     resolve_data_source(manifest, None))
        assert len(steps) == 2
        assert predicted == [90, 90]


class TestThePlanIsWhatRan:
    """The epsilon searches and DE runs of a sweep and of a re-attack are
    the ones each model's done.json records: its first correct images, up
    to the plan's image counts, under the plan's grid and DE settings."""

    @pytest.fixture
    def attacked(self, monkeypatch):
        """Each model's wrapped attack calls, by pair: (kind, image index,
        epsilon grid or DEConfig), closed when the model is committed."""
        from snnrobust import experiment as exp_mod
        calls, by_pair = [], {}
        real_search, real_de = exp_mod.fgsm_eps_search, exp_mod.one_pixel
        real_save = exp_mod._save_attacks

        def search(net, x, y, start, step, cap, index, **kwargs):
            calls.append(("fgsm_search", index, {"start": start, "step": step, "cap": cap}))
            return real_search(net, x, y, start=start, step=step, cap=cap,
                               index=index, **kwargs)

        def de(net, x, y, cfg, **kwargs):
            calls.append(("one_pixel", kwargs["index"], cfg))
            return real_de(net, x, y, cfg, **kwargs)

        def save(store, done, outcomes):
            by_pair[done["graph_id"], done["init_method"]] = calls[:]
            calls.clear()
            return real_save(store, done, outcomes)

        monkeypatch.setattr(exp_mod, "fgsm_eps_search", search)
        monkeypatch.setattr(exp_mod, "one_pixel", de)
        monkeypatch.setattr(exp_mod, "_save_attacks", save)
        return by_pair

    @staticmethod
    def check(store, source, by_pair) -> None:
        test_set = load_split(source, "test", 90)
        dones = store.done_records(None)
        assert sorted(by_pair) == sorted((d["graph_id"], d["init_method"]) for d in dones)
        for done in dones:
            plan = done["attacks"]
            net, _ = load_checkpoint(store.checkpoint_path(done["graph_id"],
                                                           done["init_method"]))
            correct = np.flatnonzero(predict(net, test_set.images).argmax(axis=1)
                                     == test_set.labels).tolist()
            calls = by_pair[done["graph_id"], done["init_method"]]
            for kind in ("fgsm_search", "one_pixel"):
                cap = plan["images"][kind]
                assert len(correct) > cap  # the count binds
                assert [i for k, i, _ in calls if k == kind] == correct[:cap]
            assert all(grid == plan["eps_grid"]
                       for k, _, grid in calls if k == "fgsm_search")
            assert all({f: getattr(cfg, f) for f in plan["de"]} == plan["de"]
                       for k, _, cfg in calls if k == "one_pixel")

    def test_sweep_then_reattack(self, tmp_path, attacked):
        manifest = tiny_manifest()
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        source = resolve_data_source(manifest, None)
        run_sweep(manifest, store, source)
        self.check(store, source, attacked)

        attacked.clear()
        attacker = tiny_manifest()
        attacker.attacks.de_F = 0.7
        attacker.scale.search_subset = 0.03
        attacker.scale.one_pixel = 0.04
        attacker.scale.de_iter = 0.008
        assert rerun_attacks(attacker, store, source) == 2
        assert all(d["attacks"] == attacker.attack_settings(90)
                   for d in store.done_records(None))
        self.check(store, source, attacked)


class TestDeterminism:
    def test_same_manifest_reproduces_records(self, tmp_path):
        manifest = tiny_manifest()
        outputs = []
        for sub in ("a", "b"):
            store = ResultsStore(tmp_path / sub)
            build_graph_dataset(manifest, store)
            run_sweep(manifest, store, resolve_data_source(manifest, None))
            outputs.append(
                (tmp_path / sub / "models" / "g0000__He_N" / "robustness.json")
                .read_text())
        assert outputs[0] == outputs[1]

    def test_reattack_under_the_same_manifest_rewrites_the_same_bytes(self, tmp_path):
        # the sweep attacks the model it stores, so attacking the reloaded
        # checkpoint again reproduces every attack record
        manifest = tiny_manifest(init_methods=["He_N", "U"])
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        source = resolve_data_source(manifest, None)
        run_sweep(manifest, store, source)
        files = [store.model_dir(g, init) / name
                 for g, init in store.completed_pairs(None)
                 for name in ("fgsm.csv", "fgsm_search.csv", "one_pixel.csv",
                              "robustness.json")]
        before = [f.read_bytes() for f in files]
        assert rerun_attacks(manifest, store, source) == 4
        assert [f.read_bytes() for f in files] == before


class TestGoldenFingerprint:
    # the outputs that fix a run's results, as perfbench/validate.py lists them
    FINGERPRINT_GLOBS = ("graphs/*.json", "gen/graphs/*.json",
                         "models/*/robustness.json", "models/*/checkpoint.bin",
                         "correlations_long.csv", "pruning/correlations_long.csv",
                         "pruning/steps.csv")
    # recorded on an Intel Xeon x86-64 VM (2 cores; Python 3.11, numpy 2.4
    # with OpenBLAS, scipy 1.17) at 1 and 2 BLAS threads; a change of outputs
    # updates it and says why in CHANGES.md
    GOLDEN = "020d2016156549aeae7628483556065fddb5b9f45708240d244b4fe4eb6700c8"

    @classmethod
    def fingerprint(cls, root) -> str:
        """SHA-256 over the fingerprinted files, each framed by its
        relative path and length."""
        h = hashlib.sha256()
        paths = sorted({p for pattern in cls.FINGERPRINT_GLOBS
                        for p in root.glob(pattern)})
        for path in paths:
            rel = path.relative_to(root).as_posix().encode()
            data = path.read_bytes()
            h.update(len(rel).to_bytes(4, "little") + rel)
            h.update(len(data).to_bytes(8, "little") + data)
        return h.hexdigest()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_desk_pipeline_digest(self, tmp_path, workers):
        manifest = tiny_manifest(init_methods=["He_N", "U"], target_graph_count=3)
        manifest.pruning.hidden_layers = [6, 8]
        manifest.pruning.steps = 2
        store = ResultsStore(tmp_path)
        source = resolve_data_source(manifest, None)
        build_graph_dataset(manifest, store)
        run_sweep(manifest, store, source, workers=workers)
        correlate(manifest, store)
        run_pruning_baseline(manifest, store, source)
        assert self.fingerprint(tmp_path) == self.GOLDEN


class TestCrashAtAnyPoint:
    """A one-task sweep, or a re-attack of its model, that fails at any one
    of its file writes and then runs again leaves the outputs of an
    uninterrupted run."""

    @staticmethod
    def crashing(stage, fail_at: int | None, monkeypatch) -> int:
        """Run stage() with atomic_open raising after writing the body of its
        fail_at-th call, before the rename; returns the call count."""
        from snnrobust import network, store as store_mod
        real = store_mod.atomic_open
        calls = 0

        @contextlib.contextmanager
        def crashing(path, mode="w", **kwargs):
            nonlocal calls
            calls += 1
            with real(path, mode, **kwargs) as f:
                yield f
                if calls == fail_at:
                    raise OSError(f"injected crash writing {path}")

        with monkeypatch.context() as mp:
            for module in (store_mod, network):
                mp.setattr(module, "atomic_open", crashing)
            try:
                stage()
            except OSError:
                pass
        return calls

    def sweep(self, root, fail_at: int | None, monkeypatch) -> int:
        """Sweep one (graph, init) pair into root, the graph generated
        first, crashing at the sweep's fail_at-th write; returns the sweep's
        write count."""
        manifest = tiny_manifest(target_graph_count=1)
        store = ResultsStore(root)
        build_graph_dataset(manifest, store)
        calls = self.crashing(
            lambda: run_sweep(manifest, store, resolve_data_source(manifest, None)),
            fail_at, monkeypatch)
        assert not list(root.rglob("*.tmp"))
        return calls

    def test_resume_after_a_crash_at_every_write(self, tmp_path, monkeypatch):
        calls = self.sweep(tmp_path / "clean", None, monkeypatch)
        want = TestGoldenFingerprint.fingerprint(tmp_path / "clean")
        # manifest.json, the checkpoint, history, eval, three attack CSVs,
        # robustness.json, done.json, the provenance event
        assert calls == 10
        manifest = tiny_manifest(target_graph_count=1)
        for k in range(1, calls + 1):
            root = tmp_path / f"crash{k}"
            assert self.sweep(root, k, monkeypatch) >= k  # the crash happened
            run_sweep(manifest, ResultsStore(root), resolve_data_source(manifest, None))
            assert TestGoldenFingerprint.fingerprint(root) == want, f"crash at write {k}"

    def test_reattack_again_after_a_crash_at_every_write(self, tmp_path, monkeypatch):
        # a re-attack under a larger DE budget crashes; the next one leaves
        # the records and done.json (but for its timings) of one that did not
        attacker = tiny_manifest(target_graph_count=1)
        attacker.scale.de_iter = 0.04
        source = resolve_data_source(attacker, None)

        def reattack(root, fail_at: int | None) -> int:
            self.sweep(root, None, monkeypatch)
            store = ResultsStore(root)
            calls = self.crashing(lambda: rerun_attacks(attacker, store, source),
                                  fail_at, monkeypatch)
            assert not list(root.rglob("*.tmp"))
            return calls

        def outputs(root):
            [done] = ResultsStore(root).done_records(None)
            del done["seconds"]
            model = root / "models" / "g0000__He_N"
            return (TestGoldenFingerprint.fingerprint(root), done,
                    [(model / f"{kind}.csv").read_bytes()
                     for kind in ("fgsm", "fgsm_search", "one_pixel")])

        # three attack CSVs, robustness.json, done.json, the provenance event
        assert reattack(tmp_path / "clean", None) == 6
        want = outputs(tmp_path / "clean")
        assert want[1]["attacks"] == attacker.attack_settings(90)
        for k in range(1, 7):
            root = tmp_path / f"crash{k}"
            assert reattack(root, k) >= k  # the crash happened
            assert rerun_attacks(attacker, ResultsStore(root), source) == 1
            assert outputs(root) == want, f"crash at write {k}"


def test_desk_pipeline_report_text(tmp_path):
    # the report of TestGoldenFingerprint's pipeline, line for line, but
    # for gen-graphs' timing line
    manifest = tiny_manifest(init_methods=["He_N", "U"], target_graph_count=3)
    manifest.pruning.hidden_layers = [6, 8]
    manifest.pruning.steps = 2
    store = ResultsStore(tmp_path)
    source = resolve_data_source(manifest, None)
    build_graph_dataset(manifest, store)
    run_sweep(manifest, store, source)
    correlate(manifest, store)
    run_pruning_baseline(manifest, store, source)
    lines = [line for line in render_report(manifest, store).splitlines()
             if not line.startswith("  time: ")]
    assert lines == [
        "Sparse network robustness study",
        "==================================",
        "manifest_hash: c82e7757188f773a",
        "mode: desk (scale factors {'epochs': 0.03333333333333333, "
        "'train_subset': 1.0, 'test_subset': 1.0, 'search_subset': 0.04, "
        "'one_pixel': 0.03, 'de_pop': 0.016, 'de_iter': 0.004})",
        "dataset: synthetic (manifest requests synthetic)",
        "note: parameter counts include biases",
        'attack settings of 6 models: {"de": {"CR": 0.9, "F": 0.5, "max_iter": 2, '
        '"pop_size": 8}, "eps_grid": {"cap": 1.0, "start": 0.001, "step": 0.01}, '
        '"fgsm_eps": 0.1, "images": {"fgsm": 90, "fgsm_search": 4, "one_pixel": 3}}',
        "",
        "graphs: 3 accepted, 0 rejected by the parameter filter",
        "  size=250,nei=2,p=0.5: 2 accepted, 0 rejected",
        "  size=250,nei=2,p=0.9: 1 accepted, 0 rejected",
        "models: 3 graphs x 2 initializations",
        "epsilon search: 1 of 24 searched images censored (no flip within the cap)",
        "failed tasks: 0",
        "graph properties over the 3 correlated models:",
        "  num_parameters: 3 distinct, [23656, 40420]",
        "  density: 1 distinct, [0.0160643, 0.0160643]",
        "  avg_path_length: 3 distinct, [4.19682, 4.34962]",
        "  avg_eccentricity: 3 distinct, [6.292, 6.536]",
        "  diameter: 2 distinct, [7, 8]",
        "properties that rank the models identically (- marks a reversed ranking):",
        "  num_parameters = -avg_eccentricity",
        "",
        "strongest correlations per measure (two largest |rho| per column):",
        "  fgsm / error_rate:",
        "    avg_path_length: rho=-1.000 tau=-1.000 (large, n=3)",
        "    num_parameters: rho=+0.500 tau=+0.333 (large, n=3)",
        "  fgsm / avg_confidence:",
        "    diameter: rho=+0.866 tau=+0.816 (large, n=3)",
        "    num_parameters: rho=-0.500 tau=-0.333 (large, n=3)",
        "  fgsm_search / avg_epsilon:",
        "    diameter: rho=-0.866 tau=-0.816 (large, n=3)",
        "    num_parameters: rho=+0.500 tau=+0.333 (large, n=3)",
        "  one_pixel / error_rate:",
        "    avg_path_length: rho=+0.866 tau=+0.816 (large, n=3)",
        "    diameter: rho=-0.500 tau=-0.500 (large, n=3)",
        "  one_pixel / avg_confidence:",
        "    num_parameters: rho=-1.000 tau=-1.000 (large, n=3)",
        "    avg_eccentricity: rho=+1.000 tau=+1.000 (large, n=3)",
        "",
        "pruning baseline: see pruning/steps.csv and pruning/correlations.csv",
    ]


class TestDataResolution:
    def test_synthetic_source(self):
        manifest = tiny_manifest()
        source = resolve_data_source(manifest, None)
        assert source[0] == "synthetic"
        train, test = load_data_source(source)
        assert train.n == 220 and test.n == 90

    def test_mnist_missing_raises_when_required(self, tmp_path):
        manifest = tiny_manifest(dataset="mnist")
        with pytest.raises(ExperimentError):
            resolve_data_source(manifest, tmp_path)

    def test_auto_falls_back(self, tmp_path):
        manifest = tiny_manifest(dataset="auto")
        assert resolve_data_source(manifest, tmp_path)[0] == "synthetic"

    def test_report_names_dataset_used(self, tmp_path):
        manifest = tiny_manifest(dataset="auto")
        store = ResultsStore(tmp_path / "out")
        build_graph_dataset(manifest, store)
        run_sweep(manifest, store, resolve_data_source(manifest, tmp_path))
        text = render_report(manifest, store)
        assert "dataset: synthetic (manifest requests auto)" in text.splitlines()

    def test_auto_prefers_idx_files(self, tmp_path):
        write_synthetic_idx(tmp_path, train_n=12, test_n=6, seed=0)
        manifest = tiny_manifest(dataset="auto")
        source = resolve_data_source(manifest, tmp_path)
        assert source[0] == "mnist"
        train, test = load_data_source(source)
        assert train.n == 12 and test.n == 6

    def test_idx_subset_sizes_from_headers(self, tmp_path):
        write_synthetic_idx(tmp_path, train_n=12, test_n=6, seed=0)
        manifest = tiny_manifest(dataset="auto")
        manifest.scale.train_subset = 0.5
        manifest.scale.test_subset = 0.5
        source = resolve_data_source(manifest, tmp_path)
        assert manifest.subset_sizes(source) == (6, 3)
        full_train, full_test = load_data_source(source)
        train, test = load_data_source(source, manifest.subset_sizes(source))
        assert np.array_equal(train.images, full_train.images[:6])
        assert np.array_equal(test.labels, full_test.labels[:3])


class TestSubsetsAtLoad:
    """The manifest's subsets are taken once, where a split is loaded."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        load_split.cache_clear()

    def test_sweep_task_uses_views_of_the_cached_arrays(self, tmp_path, monkeypatch):
        from snnrobust import experiment as exp_mod
        seen = {}
        real_train, real_eval, real_fgsm = (exp_mod.train, exp_mod.evaluate_f1,
                                            exp_mod.fgsm_many)

        def spy_train(net, train_set, cfg):
            seen["train"] = train_set.images
            return real_train(net, train_set, cfg)

        def spy_eval(net, test_set, *args):
            seen["evaluated"] = test_set.images
            return real_eval(net, test_set, *args)

        def spy_fgsm(net, images, labels, eps, indices, **kwargs):
            seen["attacked"] = images, indices
            return real_fgsm(net, images, labels, eps, indices, **kwargs)

        monkeypatch.setattr(exp_mod, "train", spy_train)
        monkeypatch.setattr(exp_mod, "evaluate_f1", spy_eval)
        monkeypatch.setattr(exp_mod, "fgsm_many", spy_fgsm)
        manifest = tiny_manifest(target_graph_count=1)
        manifest.scale.train_subset = 0.5
        manifest.scale.test_subset = 0.5
        store = ResultsStore(tmp_path)
        build_graph_dataset(manifest, store)
        source = resolve_data_source(manifest, None)
        run_sweep(manifest, store, source)
        cached_train, cached_test = load_data_source(source, manifest.subset_sizes(source))
        assert (cached_train.n, cached_test.n) == (110, 45)
        assert seen["train"].shape[0] == 110
        assert np.shares_memory(seen["train"], cached_train.images)
        assert np.shares_memory(seen["evaluated"], cached_test.images)
        # FGSM takes its targets from the cached prefix, by their indices
        attacked, indices = seen["attacked"]
        assert np.array_equal(attacked, cached_test.images[indices])
        assert not any(a.flags.writeable for ds in (cached_train, cached_test)
                       for a in (ds.images, ds.labels))

    def test_each_manifest_gets_its_own_prefix(self, tmp_path):
        full_test = load_data_source(resolve_data_source(tiny_manifest(), None))[1]
        for i, (fraction, want) in enumerate(((1.0, 90), (0.5, 45), (1.0, 90))):
            manifest = tiny_manifest(target_graph_count=1)
            manifest.scale.test_subset = fraction
            store = ResultsStore(tmp_path / str(i))
            build_graph_dataset(manifest, store)
            source = resolve_data_source(manifest, None)
            run_sweep(manifest, store, source)
            test_set = load_data_source(source, manifest.subset_sizes(source))[1]
            assert test_set.n == want
            assert np.array_equal(test_set.images, full_test.images[:want])
            evaluated = json.loads((store.model_dir("g0000", "He_N")
                                    / "eval.json").read_text())
            assert np.sum(evaluated["confusion"]) == want

    def test_load_peaks_near_what_it_keeps(self):
        import tracemalloc
        manifest = tiny_manifest(synthetic_train_n=3000, synthetic_test_n=1000)
        manifest.scale.test_subset = 0.2
        source = resolve_data_source(manifest, None)
        tracemalloc.start()
        try:
            train, test = load_data_source(source, manifest.subset_sizes(source))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (train.n, test.n) == (3000, 200)
        assert peak < 1.1 * kept
