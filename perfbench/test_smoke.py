"""Smoke test of the benchmark: every workload, the stage workloads too, at
a tiny size emits every metric BENCHMARK.json names, with its unit, and a
corrupted record is counted as failed.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from snnrobust.attack import ATTACK_CSV_HEADER, DEConfig, one_pixel  # noqa: E402
from snnrobust.data import synthetic_dataset  # noqa: E402
from snnrobust.experiment import dense_stack_dag  # noqa: E402
from snnrobust.graph import layer_dag  # noqa: E402
from snnrobust.network import build_network, init_weights  # noqa: E402
from validate import Report, check_one_pixel  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_workload_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in wanted)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "graphs", "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_corrupted_one_pixel_record_counts_as_failed():
    ds = synthetic_dataset(4, seed=5, split="test")
    net = init_weights(build_network(layer_dag(dense_stack_dag([6, 8])), 784, 10),
                       "He_N", 7)
    x, y = ds.images[0], int(ds.labels[0])
    out = one_pixel(net, x, y, DEConfig(pop_size=8, max_iter=3, seed=1))
    row = dict(zip(ATTACK_CSV_HEADER, map(str, out.csv_row())))

    report = Report()
    report.add("recorded", check_one_pixel(net, x, y, row, max_iter=3))
    two_pixels = out.perturbed_image.copy()
    other = 0 if np.flatnonzero(two_pixels != x).tolist() != [0] else 1
    two_pixels[other] = 1.0 - x[other]
    report.add("two pixels", check_one_pixel(net, x, y, row, 3, x_adv=two_pixels))
    wrong_conf = dict(row, confidence=str(out.confidence / 2))
    report.add("confidence", check_one_pixel(net, x, y, wrong_conf, max_iter=3))

    assert report.attempted == 3
    assert report.failed_ops == 2
    assert any("pixels changed" in f for f in report.failures)
