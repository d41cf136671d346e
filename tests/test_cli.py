from __future__ import annotations

import csv
import json
import re
from dataclasses import asdict

import pytest

from snnrobust.cli import main
from snnrobust.data import MNIST_FILES
from snnrobust.experiment import ExperimentManifest

from tests.oracles import write_synthetic_idx


@pytest.fixture
def desk_manifest_path(tmp_path):
    path = tmp_path / "manifest.json"
    assert main(["init-manifest", "--out", str(path), "--desk"]) == 0
    # shrink the desk defaults further for a unit-test-speed pipeline
    m = ExperimentManifest.from_file(path)
    m.target_graph_count = 3
    m.init_methods = ["He_N"]
    m.dataset = "synthetic"
    m.synthetic_train_n = 200
    m.synthetic_test_n = 80
    m.scale.epochs = 1 / 30
    m.scale.search_subset = 0.05
    m.scale.one_pixel = 0.02
    m.scale.de_pop = 0.016
    m.scale.de_iter = 0.004
    m.pruning.hidden_layers = [6, 8]
    m.pruning.steps = 2
    m.save(path)
    return path


def test_init_manifest_full_scale_defaults(tmp_path):
    path = tmp_path / "full.json"
    assert main(["init-manifest", "--out", str(path)]) == 0
    m = ExperimentManifest.from_file(path)
    assert m.mode == "full"
    assert m.target_graph_count == 100
    assert m.param_range == (50_000, 91_000)
    assert m.init_methods == ["G_N", "G_U", "He_N", "He_U", "N", "U"]
    assert m.grid.size == [250, 300, 350, 400, 500]
    assert m.grid.nei == [2, 4, 6, 8, 10, 20]
    assert m.grid.p == [0.5, 0.6, 0.7, 0.8, 0.9]
    assert (m.train.learning_rate, m.train.beta1, m.train.beta2) == (1e-3, 0.9, 0.999)
    assert m.train.adam_eps == 1e-8
    assert m.train.epochs == 30
    assert m.attacks.fgsm_eps == 0.1
    assert (m.attacks.search_start, m.attacks.search_step) == (0.001, 0.01)
    assert m.attacks.de_pop_size == 500 and m.attacks.de_max_iter == 500
    assert m.attacks.one_pixel_images == 100
    assert m.pruning.steps == 20
    assert m.pruning.hidden_layers == [50, 100, 100, 50]

def test_full_pipeline_via_cli(desk_manifest_path, tmp_path):
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    data = ["--data-dir", str(tmp_path / "nodata")]

    assert main(["gen-graphs", *args]) == 0
    assert len(list((out / "graphs").glob("*.json"))) == 3

    assert main(["sweep", *args, *data]) == 0
    assert len(list((out / "models").glob("*/done.json"))) == 3

    assert main(["correlate", *args]) == 0
    with open(out / "correlations.csv") as f:
        rows = list(csv.reader(f))
    assert len(rows) == 6  # header + 5 properties

    assert main(["attack", *args, *data]) == 0

    assert main(["prune-baseline", *args, *data]) == 0
    assert (out / "pruning" / "steps.csv").exists()

    assert main(["report", *args]) == 0
    report = (out / "report.txt").read_text()
    assert "mode: desk" in report
    assert "strongest correlations" in report


def test_correlate_withheld_is_an_error(desk_manifest_path, tmp_path):
    out = tmp_path / "empty"
    out.mkdir()
    code = main(["correlate", "--manifest", str(desk_manifest_path),
                 "--out-dir", str(out)])
    assert code == 1


def errors(caplog) -> list[str]:
    return [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]


def test_a_sweep_with_no_graphs_is_one_error_line(desk_manifest_path, tmp_path, caplog):
    code = main(["sweep", "--manifest", str(desk_manifest_path),
                 "--out-dir", str(tmp_path / "empty"),
                 "--data-dir", str(tmp_path / "nodata")])
    assert code == 1
    assert errors(caplog) == ["sweep failed: no graphs in store; run gen-graphs first"]


def test_a_sweep_with_fewer_than_one_worker_is_one_error_line(desk_manifest_path, tmp_path,
                                                              caplog, capsys):
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(tmp_path / "results")]
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *args, "--workers", "0"]) == 1
    assert errors(caplog) == ["sweep failed: workers must be >= 1"]
    assert "Traceback" not in capsys.readouterr().err
    assert not list((tmp_path / "results").glob("models/*"))


def test_a_pruning_alpha_above_one_is_one_error_line(desk_manifest_path, tmp_path,
                                                     caplog, capsys):
    m = json.loads(desk_manifest_path.read_text())
    m["pruning"]["alpha"] = 1.5
    desk_manifest_path.write_text(json.dumps(m))
    out = tmp_path / "results"
    assert main(["prune-baseline", "--manifest", str(desk_manifest_path),
                 "--out-dir", str(out), "--data-dir", str(tmp_path / "nodata")]) == 1
    [line] = errors(caplog)
    assert line.startswith(f"prune-baseline failed: bad manifest {desk_manifest_path}: pruning ")
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_attack_on_other_data_is_one_error_line(desk_manifest_path, tmp_path, caplog):
    write_synthetic_idx(tmp_path / "idx", train_n=200, test_n=80, seed=0)
    m = ExperimentManifest.from_file(desk_manifest_path)
    m.dataset = "auto"
    m.save(desk_manifest_path)
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(tmp_path / "results")]
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *args, "--data-dir", str(tmp_path / "idx")]) == 0
    assert main(["attack", *args, "--data-dir", str(tmp_path / "nodata")]) == 1
    assert errors(caplog) == ["attack failed: the study was scored on mnist data; "
                              "refusing to re-attack it on synthetic"]


def test_a_resume_on_other_data_is_one_error_line(desk_manifest_path, tmp_path, caplog):
    # a sweep on IDX files, then one on the synthetic fallback: refused with
    # resume on, and with --no-resume every pair is swept again
    write_synthetic_idx(tmp_path / "idx", train_n=200, test_n=80, seed=0)
    m = ExperimentManifest.from_file(desk_manifest_path)
    m.dataset = "auto"
    m.save(desk_manifest_path)
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *args, "--data-dir", str(tmp_path / "idx")]) == 0
    (out / "models" / "g0001__He_N" / "done.json").unlink()
    assert main(["sweep", *args, "--data-dir", str(tmp_path / "nodata")]) == 1
    assert errors(caplog) == ["sweep failed: the study was scored on mnist data; "
                              "refusing to resume it on synthetic; sweep --no-resume "
                              "retrains every pair"]
    assert main(["sweep", *args, "--data-dir", str(tmp_path / "nodata"), "--no-resume"]) == 0
    assert {json.loads(p.read_text())["dataset"]
            for p in out.glob("models/*/done.json")} == {"synthetic"}


@pytest.mark.parametrize("break_manifest", [
    lambda text: text.replace('"master_seed"', '"no_such_field": 1, "master_seed"'),
    lambda text: text[:-1],
    lambda text: text.replace('"batch_size": 128', '"batch_size": 0'),
    lambda text: text.replace('"schema_version": 1', '"schema_version": 2'),
    lambda text: text.replace('"target_graph_count": 3', '"target_graph_count": "3"'),
    lambda text: re.sub(r'"param_range": \[[^]]*\]', '"param_range": [5]', text),
], ids=["unknown-field", "invalid-json", "bad-train", "schema-version", "count-text",
        "param-range"])
def test_a_malformed_manifest_is_one_error_line(desk_manifest_path, tmp_path, caplog,
                                                capsys, break_manifest):
    text = desk_manifest_path.read_text()
    desk_manifest_path.write_text(break_manifest(text))
    assert desk_manifest_path.read_text() != text
    out = tmp_path / "results"
    assert main(["gen-graphs", "--manifest", str(desk_manifest_path),
                 "--out-dir", str(out)]) == 1
    [line] = errors(caplog)
    assert line.startswith(f"gen-graphs failed: bad manifest {desk_manifest_path}: ")
    assert "Traceback" not in capsys.readouterr().err
    assert not list(out.glob("graphs/*"))


def test_a_missing_manifest_is_one_error_line(tmp_path, caplog, capsys):
    path = tmp_path / "no_such.json"
    out = tmp_path / "results"
    assert main(["gen-graphs", "--manifest", str(path), "--out-dir", str(out)]) == 1
    [line] = errors(caplog)
    assert line.startswith(f"gen-graphs failed: bad manifest {path}: ")
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture
def malformed_idx_dir(desk_manifest_path, tmp_path):
    """A --data-dir whose four MNIST files hold 2 bytes each; the desk
    manifest is set to request MNIST."""
    m = ExperimentManifest.from_file(desk_manifest_path)
    m.dataset = "mnist"
    m.save(desk_manifest_path)
    path = tmp_path / "badidx"
    path.mkdir()
    for name in (name for pair in MNIST_FILES.values() for name in pair):
        (path / name).write_bytes(b"\x00\x00")
    return path


def test_a_sweep_on_malformed_idx_files_is_one_error_line_and_writes_nothing(
        desk_manifest_path, tmp_path, malformed_idx_dir, caplog, capsys):
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    assert main(["gen-graphs", *args]) == 0
    (out / "manifest.json").unlink()
    before = {f: f.read_bytes() for f in out.rglob("*") if f.is_file()}
    assert main(["sweep", *args, "--data-dir", str(malformed_idx_dir)]) == 1
    [line] = errors(caplog)
    assert line.startswith(f"sweep failed: {malformed_idx_dir}")
    assert line.endswith(": truncated header")
    assert "Traceback" not in capsys.readouterr().err
    # no manifest.json, model or task-failed event
    assert {f: f.read_bytes() for f in out.rglob("*") if f.is_file()} == before


def test_a_pruning_baseline_on_malformed_idx_files_is_one_error_line(
        desk_manifest_path, tmp_path, malformed_idx_dir, caplog, capsys):
    assert main(["prune-baseline", "--manifest", str(desk_manifest_path),
                 "--out-dir", str(tmp_path / "results"),
                 "--data-dir", str(malformed_idx_dir)]) == 1
    [line] = errors(caplog)
    assert line.startswith(f"prune-baseline failed: {malformed_idx_dir}")
    assert line.endswith(": truncated header")
    assert "Traceback" not in capsys.readouterr().err


def changed_manifest(path, out, **scale_factors) -> list[str]:
    """The --manifest arguments of a copy of the manifest at path, written
    to out, with each given scale factor multiplied by its value."""
    m = ExperimentManifest.from_file(path)
    for name, factor in scale_factors.items():
        setattr(m.scale, name, getattr(m.scale, name) * factor)
    m.save(out)
    return ["--manifest", str(out)]


def test_an_attack_on_a_checkpoint_with_trailing_bytes_is_one_error_line(
        desk_manifest_path, tmp_path, caplog, capsys):
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    data = ["--data-dir", str(tmp_path / "nodata")]
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *args, *data]) == 0
    path = out / "models" / "g0001__He_N" / "checkpoint.bin"
    path.write_bytes(path.read_bytes() + bytes(100))
    assert main(["attack", *args, *data]) == 1
    [line] = errors(caplog)
    assert line.startswith("attack failed: checkpoint of g0001/He_N refused: ")
    assert line.endswith(" has 100 bytes past its last bias")
    assert "Traceback" not in capsys.readouterr().err


def test_an_attack_with_de_cr_above_one_is_one_error_line(desk_manifest_path, tmp_path,
                                                          caplog, capsys):
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    data = ["--data-dir", str(tmp_path / "nodata")]
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *args, *data]) == 0
    m = json.loads(desk_manifest_path.read_text())
    m["attacks"]["de_CR"] = 3.0
    bad = tmp_path / "de_cr.json"
    bad.write_text(json.dumps(m))
    files = sorted(out.glob("models/*/*"))
    before = [f.read_bytes() for f in files]
    assert main(["attack", "--manifest", str(bad), "--out-dir", str(out), *data]) == 1
    [line] = errors(caplog)
    assert line.startswith(f"attack failed: bad manifest {bad}: attacks ")
    assert "Traceback" not in capsys.readouterr().err
    assert [f.read_bytes() for f in files] == before


def test_an_attack_under_another_seed_is_one_error_line(desk_manifest_path, tmp_path,
                                                        caplog):
    # the master seed picks the synthetic test set, so only a sweep may change it
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    data = ["--data-dir", str(tmp_path / "nodata")]
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *args, *data]) == 0
    m = ExperimentManifest.from_file(desk_manifest_path)
    m.master_seed += 1
    m.save(tmp_path / "seed.json")
    files = sorted(out.glob("models/*/*"))
    before = [f.read_bytes() for f in files]
    assert main(["attack", "--manifest", str(tmp_path / "seed.json"),
                 "--out-dir", str(out), *data]) == 1
    assert errors(caplog) == ["attack failed: the given manifest differs from the "
                              "study's in master_seed; a change to them needs a sweep"]
    assert sorted(out.glob("models/*/*")) == files
    assert [f.read_bytes() for f in files] == before


def test_report_shows_the_settings_the_sweep_ran_under(desk_manifest_path, tmp_path):
    # gen-graphs and the report under the given manifest, the sweep under a
    # copy with every scale factor halved
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    given = ExperimentManifest.from_file(desk_manifest_path)
    halved = changed_manifest(desk_manifest_path, tmp_path / "halved.json",
                              **dict.fromkeys(asdict(given.scale), 0.5))
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *halved, "--out-dir", str(out),
                 "--data-dir", str(tmp_path / "nodata")]) == 0
    assert main(["report", *args]) == 0

    stored = json.loads((out / "manifest.json").read_text())
    ran = ExperimentManifest.from_dict(stored["manifest"])
    assert asdict(ran.scale) == {k: v * 0.5 for k, v in asdict(given.scale).items()}
    lines = (out / "report.txt").read_text().splitlines()
    assert f"manifest_hash: {stored['manifest_hash']}" in lines
    assert f"mode: desk (scale factors {asdict(ran.scale)})" in lines
    assert (f"note: the given manifest ({given.manifest_hash}) differs from the "
            "one the models were trained under") in lines


def test_report_shows_the_settings_of_a_later_attack(desk_manifest_path, tmp_path):
    out = tmp_path / "results"
    args = ["--manifest", str(desk_manifest_path), "--out-dir", str(out)]
    data = ["--data-dir", str(tmp_path / "nodata")]
    assert main(["gen-graphs", *args]) == 0
    assert main(["sweep", *args, *data]) == 0
    # the four scale factors of the attack plan x 4
    attacker = changed_manifest(desk_manifest_path, tmp_path / "attacker.json",
                                search_subset=4, one_pixel=4, de_pop=4, de_iter=4)
    assert main(["attack", *attacker, "--out-dir", str(out), *data]) == 0
    assert main(["report", *args]) == 0

    events = json.loads((out / "provenance.json").read_text())
    attack = events[-1]
    assert attack["event"] == "attack"
    given = ExperimentManifest.from_file(desk_manifest_path)
    swept = given.attack_settings(given.test_subset_n(given.synthetic_test_n))
    assert attack["settings"]["images"]["fgsm_search"] > swept["images"]["fgsm_search"]
    # every model now carries the re-attack's settings, as the report says
    prefix = "attack settings of 3 models: "
    [line] = [line for line in (out / "report.txt").read_text().splitlines()
              if line.startswith("attack settings of ")]
    assert line.startswith(prefix)
    assert json.loads(line[len(prefix):]) == attack["settings"]
