"""snnrobust benchmark: run one workload for a number of seconds and print
its metrics.

    python3 perfbench/run.py --workload {desk,reattack,graphs,sweep,prune} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout that holds ``src/snnrobust`` and
``BENCHMARK.json``. The run imports the program once, with one BLAS thread,
sets the workload up three times, then repeats identical timed rounds on
copies of the first set-up, each in a forked child (see rounds.py), until
at least two rounds have run and their timed phases add up to
``--seconds``. Every round must produce the same output fingerprint. With
``--trace 0`` the result carries the end-to-end metrics (medians over the
set-ups and rounds); with ``--trace 1`` every other round is traced and the
result carries the per-layer metrics plus the tracing overhead. The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path.cwd()


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(setups: list[float], import_s: float,
               rounds: list[dict]) -> dict[str, float]:
    """End-to-end metrics, medians over the untraced rounds; set-up is
    never traced."""
    plain = [r for r in rounds if not r["traced"]]
    return {
        "setup_s": import_s + median(setups),
        "wall_s": median(r["wall_s"] for r in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r in plain),
    }


# (rate, count, stage, scale, unit): count per second of the stage's wall time
RATES = (("graphs_per_min", "graphs", "graphs", 60.0, "graphs/min"),
         ("candidates_per_s", "candidates", "graphs", 1.0, "1/s"),
         ("models_per_h", "models", "sweep", 3600.0, "models/h"),
         ("prune_steps_per_min", "prune_steps", "prune", 60.0, "steps/min"),
         ("one_pixel_images_per_min", "one_pixel_images", "reattack", 60.0,
          "images/min"),
         ("de_generations_per_s", "de_generations", "reattack", 1.0,
          "generations/s"))


def stage_rates(rounds: list[dict]) -> dict[str, tuple[float, str]]:
    """Each stage's wall time and the rates that belong to it, medians over
    the untraced rounds."""
    plain = [r for r in rounds if not r["traced"]]
    out = {f"{stage}_s": (median(r["stages"][stage] for r in plain), "s")
           for stage in plain[0]["stages"]}
    for name, count, stage, scale, unit in RATES:
        if count in plain[0]["counts"] and stage in plain[0]["stages"]:
            out[name] = (median(scale * r["counts"][count] / r["stages"][stage]
                                for r in plain), unit)
    return out


def per_layer(rounds: list[dict]) -> dict[str, float]:
    traced = [r for r in rounds if r["traced"]]
    out = {k: median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
    plain_wall = median(r["wall_s"] for r in rounds if not r["traced"])
    out["trace.overhead_frac"] = median(r["wall_s"] for r in traced) / plain_wall - 1.0
    return out


def environment(rounds: list[dict]) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": 1, "nproc": os.cpu_count(),
            "dataset": sorted({r["dataset"] for r in rounds})}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=("desk", "reattack", "graphs", "sweep", "prune"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny workload sizes, for the smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "snnrobust" / "__init__.py").is_file():
        print(f"perfbench: no src/snnrobust under {ROOT}; run from the repo root",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    # one BLAS thread, set before numpy loads OpenBLAS
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    from rounds import run_rounds

    import_s = time.perf_counter() - T0
    try:
        setups, rounds = run_rounds(args.workload, args.seed, args.seconds,
                                    bool(args.trace), args.tiny, ROOT / ".perfbench_work")
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    failures = []
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    for i, r in enumerate(rounds):
        failures += [f"round {i}: {f}" for f in r["failures"]]
        if r["fingerprint"] != rounds[0]["fingerprint"]:
            failures.append(f"round {i}: output fingerprint differs from round 0")
            failed += r["attempted"] - r["failed"]

    e2e = end_to_end(setups, import_s, rounds)
    rates = stage_rates(rounds)
    print(f"perfbench {args.workload} seed={args.seed} rounds={len(rounds)} "
          f"traced={sum(r['traced'] for r in rounds)}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    for name, value in e2e.items():
        print(f"  {name:26s} {value:12.4f} {units[name]}")
    print(f"  {'failed_ops_frac':26s} {failed / attempted:12.4f} ratio")
    for name, (value, unit) in rates.items():
        print(f"  {name:26s} {value:12.4f} {unit}")
    for f in failures[:20]:
        print(f"  FAILED {f}")
    print("info " + json.dumps({
        "workload": args.workload, "seed": args.seed, "rounds": len(rounds),
        "fingerprint": rounds[0]["fingerprint"], "env": environment(rounds),
        "counts": rounds[0]["counts"], "failed_ops_frac": failed / attempted,
        "round_wall_s": [round(r["wall_s"], 4) for r in rounds],
        "setup_s": [round(import_s + s, 4) for s in setups],
        "rates": {k: v for k, (v, _) in rates.items()}}, sort_keys=True))

    values = per_layer(rounds) if args.trace else e2e
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
