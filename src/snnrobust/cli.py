"""Command-line interface for the robustness laboratory.

Subcommands mirror the pipeline stages: gen-graphs, sweep, attack,
correlate, prune-baseline, report, plus init-manifest to emit a starting
manifest file.
"""

from __future__ import annotations

import argparse
import logging
import sys

from .data import DataFormatError
from .experiment import (ExperimentError, ExperimentManifest,
                         ScaleFactors, build_graph_dataset, correlate,
                         render_report, rerun_attacks, resolve_data_source,
                         run_pruning_baseline, run_sweep)
from .store import ResultsStore

log = logging.getLogger("snnrobust")


def _add_common(p: argparse.ArgumentParser, data: bool = False) -> None:
    p.add_argument("--manifest", required=True, help="path to the manifest JSON")
    p.add_argument("--out-dir", required=True, help="results directory")
    if data:
        p.add_argument("--data-dir", default="data",
                       help="directory holding the MNIST IDX files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="snnrobust",
        description="Sparse networks from random-graph priors: train, attack, correlate.")
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("init-manifest", help="write a default manifest")
    p.add_argument("--out", required=True)
    p.add_argument("--desk", action="store_true",
                   help="desk-scale defaults (small epochs/subsets/DE budget)")

    p = sub.add_parser("gen-graphs", help="build the filtered graph dataset")
    _add_common(p)

    p = sub.add_parser("sweep", help="train and attack every (graph, init) pair")
    _add_common(p, data=True)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--no-resume", dest="resume", action="store_false")

    p = sub.add_parser("attack", help="re-run attacks on stored checkpoints")
    _add_common(p, data=True)

    p = sub.add_parser("correlate", help="correlate graph properties with measures")
    _add_common(p)

    p = sub.add_parser("prune-baseline", help="dense model, random pruning steps")
    _add_common(p, data=True)

    p = sub.add_parser("report", help="render the summary report")
    _add_common(p)
    return parser


def desk_manifest() -> ExperimentManifest:
    m = ExperimentManifest()
    m.target_graph_count = 10
    m.init_methods = ["G_N", "U"]
    m.dataset = "auto"
    m.scale = ScaleFactors(epochs=0.1, train_subset=0.5, test_subset=0.5,
                           search_subset=0.1, one_pixel=0.2,
                           de_pop=0.06, de_iter=0.04)
    m.pruning.steps = 20
    return m


def main(argv=None) -> int:
    """Run one subcommand; an ExperimentError, or a DataFormatError (which
    names its file), is logged as one line and exits 1."""
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(asctime)s %(name)s %(levelname)s %(message)s")
    try:
        _dispatch(args)
    except (ExperimentError, DataFormatError) as exc:
        log.error("%s failed: %s", args.command, exc)
        return 1
    return 0


def _dispatch(args) -> None:
    if args.command == "init-manifest":
        manifest = desk_manifest() if args.desk else ExperimentManifest()
        manifest.save(args.out)
        log.info("wrote %s manifest to %s",
                 "desk-scale" if args.desk else "full-scale", args.out)
        return

    manifest = ExperimentManifest.from_file(args.manifest)
    store = ResultsStore(args.out_dir)
    # the subcommands that train or attack take a --data-dir
    source = resolve_data_source(manifest, args.data_dir) if "data_dir" in args else None
    if args.command == "gen-graphs":
        log.info("accepted %d graphs", len(build_graph_dataset(manifest, store)))
    elif args.command == "sweep":
        summaries = run_sweep(manifest, store, source,
                              workers=args.workers, resume=args.resume)
        log.info("sweep finished: %d models", len(summaries))
    elif args.command == "attack":
        log.info("re-attacked %d models", rerun_attacks(manifest, store, source))
    elif args.command == "correlate":
        table = correlate(manifest, store)
        log.info("correlations written (%d/%d cells defined)",
                 sum(c.defined for c in table.cells), len(table.cells))
    elif args.command == "prune-baseline":
        steps = run_pruning_baseline(manifest, store, source)
        log.info("pruning baseline finished: %d step records", len(steps))
    else:  # report
        sys.stdout.write(render_report(manifest, store))


if __name__ == "__main__":
    raise SystemExit(main())
