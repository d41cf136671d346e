"""Set-ups and rounds of one workload, each in a child forked from a process
that has imported the program but run none of it. Forking after the imports
gives every child the state of a fresh interpreter, so module caches such as
``experiment._WORKER_DATA`` and ``data._STENCILS`` start empty, without
paying the imports again. The process forks from a single thread, so the
fork is safe.

A run sets up the workload SETUPS times, each into its own results store,
and keeps the first store as a template. Each timed round copies the
template into a fresh store and runs the timed phase (traced or not) on it,
as a fresh ``snnrobust`` command would on a prepared results directory,
validates the outputs and fingerprints them."""

from __future__ import annotations

import json
import os
import resource
import shutil
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

from snnrobust.store import ResultsStore
from spans import Tracer
from validate import CHECKS, fingerprint
from workloads import WORKLOADS

SETUPS = 3
MIN_ROUNDS = 2
BUDGET_S = 170.0  # a run must end within 180 s


def one_setup(workload: str, seed: int, tiny: bool, store_dir: Path) -> dict:
    wl = WORKLOADS[workload]
    t0 = time.perf_counter()
    wl.setup(wl.manifest(seed, tiny), ResultsStore(store_dir), tiny)
    return {"setup_s": time.perf_counter() - t0}


def one_round(workload: str, seed: int, tiny: bool, template: Path,
              store_dir: Path, traced: bool) -> dict:
    wl = WORKLOADS[workload]
    manifest = wl.manifest(seed, tiny)
    shutil.copytree(template, store_dir)
    store = ResultsStore(store_dir)

    tracer = Tracer() if traced else None
    if tracer is not None:
        tracer.install()
        root = tracer.begin("workload")
    error = None
    start = time.perf_counter()
    stages = {}
    try:
        stages = wl.run(manifest, store)
    except Exception:
        error = traceback.format_exc()
    wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    result = {"wall_s": wall_s, "stages": stages, "peak_rss_mb": peak_rss_mb,
              "traced": traced, "dataset": manifest.dataset}
    if error is None:
        try:
            report = CHECKS[workload](manifest, store)
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        sys.stderr.write(error)
        result.update(ops=0, attempted=1, failed=1, counts={},
                      failures=[error.strip().splitlines()[-1]], fingerprint=None)
    else:
        result.update(ops=report.ops, attempted=report.attempted,
                      failed=report.failed_ops, counts=report.counts,
                      failures=report.failures[:20],
                      fingerprint=fingerprint(store.root))
    if tracer is not None:
        result["layers"] = tracer.metrics(root, store.root)
    return result


def _forked(work: Path, deadline: float, fn, **kwargs) -> dict:
    """Run ``fn(**kwargs)`` in a forked child and return its result; the
    child is killed if it outlives the deadline."""
    out = work / "result.json"
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            out.write_text(json.dumps(fn(**kwargs)))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            raise RuntimeError("a set-up or round overran the time budget")
        time.sleep(0.02)
    if status != 0 or not out.exists():
        raise RuntimeError(f"{fn.__name__} failed with wait status {status}")
    return json.loads(out.read_text())


def run_rounds(workload: str, seed: int, seconds: float, trace: bool, tiny: bool,
               work_root: Path) -> tuple[list[float], list[dict]]:
    """SETUPS set-ups and identical timed rounds until at least MIN_ROUNDS
    have run and their timed phases add up to ``seconds``; with ``trace``
    every other round is traced and twice as many rounds are the minimum.
    The set-ups after the first go between the first rounds, which spreads
    the rounds over a longer stretch of the host's changing speed at no
    cost. Returns the set-up times and the rounds."""
    started = time.monotonic()
    deadline = started + BUDGET_S
    work_root.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(dir=work_root))
    setups: list[float] = []

    def set_up() -> None:
        setups.append(_forked(run_dir, deadline, one_setup, workload=workload,
                              seed=seed, tiny=tiny,
                              store_dir=run_dir / f"setup{len(setups)}")["setup_s"])

    try:
        set_up()
        template = run_dir / "setup0"
        rounds: list[dict] = []
        measured = longest = 0.0
        min_rounds = 2 * MIN_ROUNDS if trace else MIN_ROUNDS
        while len(rounds) < min_rounds or measured < seconds:
            if rounds and time.monotonic() + 1.5 * longest > deadline:
                break
            if rounds and len(setups) < SETUPS:
                set_up()
            store_dir = run_dir / "store"
            t0 = time.monotonic()
            try:
                rounds.append(_forked(run_dir, deadline, one_round, workload=workload,
                                      seed=seed, tiny=tiny, template=template,
                                      store_dir=store_dir,
                                      traced=trace and len(rounds) % 2 == 0))
            finally:
                shutil.rmtree(store_dir, ignore_errors=True)
            longest = max(longest, time.monotonic() - t0)
            measured += rounds[-1]["wall_s"]
        while len(setups) < SETUPS:
            set_up()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return setups, rounds
