"""Command line front end.

Subcommands: build-graph (graph summary, node/edge lists, cached
eigendecomposition), run (Monte Carlo plus theory curves to CSV, with a
manifest at <out>.manifest.json), theory (theory curves only), compare
(tail deviation report for a results CSV). run and theory take every run
setting from the config file alone.

Exit codes: 0 success, 2 configuration or usage error (an unwritable or
unreadable path, an output path naming an input or another output, and a
LinAlgError included), 3 input data error or missing file or directory.
"""

import argparse
import os
import sys
import time
from dataclasses import replace
from functools import cache

import numpy as np

from . import io as gio
from ._version import __version__
from .graph import build_knn_graph, gft_basis, laplacian
from .harness import (DEFAULT_BURN_IN, ConfigError, _to_db, prepare_experiment,
                      run_experiment, synthetic_stations, tail_report, theory_curves)

DEFAULT_CACHE_DIR = ".gspest-cache"


def _cached_basis(cache_dir, stations, k):
    basis = gio.load_graph_cache(cache_dir, stations, k)
    if basis is None:
        basis = gft_basis(laplacian(build_knn_graph(stations, k)))
        gio.save_graph_cache(cache_dir, stations, k, basis)
    return basis


def claim_outputs(inputs, outputs):
    """Refuse each (label, path) output that names an input or an earlier
    output (after resolving links), then open it for appending, so a missing
    directory (exit 3) or an unwritable path (exit 2) fails before anything is
    read or computed. An input path of None is skipped."""
    seen = {os.path.realpath(path): f"{label} {path}" for label, path in inputs if path}
    for label, path in outputs:
        real = os.path.realpath(path)
        if real in seen:
            raise ValueError(f"{label} {path} is the same file as {seen[real]}")
        seen[real] = f"{label} {path}"
        existed = os.path.lexists(path)
        with open(path, "a", encoding="utf-8"):
            pass
        if not existed:
            os.remove(path)


def _inputs(args, *outputs):
    """Config, station table and graph basis of a run or theory command,
    after its outputs are claimed. The config names the table by its absolute
    path, so the manifest's copy reruns from any working directory."""
    config = gio.load_config(args.config)
    claim_outputs([("config", args.config), ("stations", config.stations_csv)], outputs)
    if config.stations_csv is None:
        stations = synthetic_stations(config.n_stations, config.stations_seed)
    else:
        stations = gio.read_station_csv(config.stations_csv)
        config = replace(config, stations_csv=os.path.abspath(config.stations_csv))
    return config, stations, _cached_basis(args.cache_dir, stations, config.k)


def cmd_build_graph(args) -> int:
    stations = gio.read_station_csv(args.stations_csv)
    graph = build_knn_graph(stations, args.k)
    basis = gft_basis(laplacian(graph))
    cache_path = gio.save_graph_cache(args.cache_dir, stations, args.k, basis)
    degrees = graph.adjacency.sum(axis=1)
    digest = gio.station_digest(stations)
    nodes_path = cache_path[:-4] + "_nodes.csv"
    edges_path = cache_path[:-4] + "_edges.csv"
    gio.write_node_list(nodes_path, stations)
    gio.write_edge_list(edges_path, stations, graph)
    print(f"stations: {stations.n} (digest {digest[:16]})")
    print(f"edges: {graph.n_edges}")
    print(f"degree: min {int(degrees.min())}, mean {degrees.mean():.2f}, max {int(degrees.max())}")
    print(f"spectrum: [{basis.eigenvalues[0]:.3e}, {basis.eigenvalues[-1]:.6g}]")
    print(f"cache: {cache_path}")
    print(f"nodes: {nodes_path}")
    print(f"edges: {edges_path}")
    return 0


def row_outputs(label, out):
    """The (label, path) outputs that run_row writes for one row, to claim
    first: the results CSV at out and its manifest at <out>.manifest.json."""
    return [(label, out), ("manifest", out + ".manifest.json")]


def run_row(config, stations, basis, out):
    """Run one row, write its results CSV to out and its manifest to
    <out>.manifest.json, and return the RunResult and the run's seconds.
    gspest run and scripts/run_reference_cases.py write every row here.
    run_experiment is looked up in this module at call time, so a caller
    may replace cli.run_experiment to keep each result (perfbench does)."""
    started = time.monotonic()
    result = run_experiment(config, stations, basis)
    duration = time.monotonic() - started
    gio.write_results_csv(out, result)
    gio.write_manifest(out + ".manifest.json", gio.build_manifest(result, stations, duration))
    return result, duration


def cmd_run(args) -> int:
    config, stations, basis = _inputs(args, *row_outputs("--out", args.out))
    result, _ = run_row(config, stations, basis, args.out)
    dev = result.deviation
    print(f"wrote {args.out} ({config.iterations} iterations, {config.runs} runs)")
    print(f"manifest: {args.out}.manifest.json")
    print(f"tail mean |emp - theory| dB: paper {dev.paper_mean_abs_db:.3f} "
          f"({dev.paper_n_nonfinite} non-finite points), exact {dev.exact_mean_abs_db:.3f} "
          f"({dev.exact_n_nonfinite} non-finite points); burn-in {dev.burn_in_fraction:g}")
    return 0


def cmd_theory(args) -> int:
    config, stations, basis = _inputs(args, ("--out", args.out))
    paper, exact = theory_curves(config, prepare_experiment(config, stations, basis))
    t = np.arange(1, config.iterations + 1)
    gio.write_theory_csv(args.out, t, _to_db(paper.values), _to_db(exact.values))
    print(f"wrote {args.out} ({config.iterations} iterations, no simulation)")
    return 0


def cmd_compare(args) -> int:
    if not 0 <= args.burn_in < 1:
        raise ConfigError([f"--burn-in must lie in [0, 1), got {args.burn_in}"])
    if args.json:
        claim_outputs([("results", args.results_csv)], [("--json", args.json)])
    cols = gio.read_results_csv(args.results_csv)
    n_tail, modes = tail_report(cols["msd_emp_db"], cols["msd_theory_paper_db"],
                                cols["msd_theory_exact_db"], args.burn_in)
    report = {"burn_in_fraction": args.burn_in, "n_tail": n_tail, "modes": {}}
    for mode, dev in modes.items():
        max_abs, mean_abs, nonfinite = dev["max_abs_db"], dev["mean_abs_db"], dev["by_kind"]
        report["modes"][mode] = gio.finite_or_null(
            {"max_abs_db": max_abs, "mean_abs_db": mean_abs, "n_nonfinite": nonfinite})
        print(f"{mode}: tail mean |emp - theory| = {mean_abs:.4f} dB, "
              f"max = {max_abs:.4f} dB over {n_tail} iterations "
              f"({', '.join(f'{n} {kind}' for kind, n in nonfinite.items())} points)")
    if args.json:
        gio.write_json(args.json, report)
        print(f"report: {args.json}")
    return 0


@cache  # once per process: a sampling sweep calls main once per row
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gspest",
        description="Adaptive estimation of bandlimited graph signals: simulate, predict, compare.")
    parser.add_argument("--version", action="version", version=f"gspest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-graph", help="build the station graph and cache its spectrum")
    p.add_argument("stations_csv", help="station table (id,lat,lon,value)")
    p.add_argument("--k", type=int, required=True, help="neighbours per station")
    p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
    p.set_defaults(func=cmd_build_graph)

    for name, helptext, func in (
            ("run", "simulate and write empirical plus theory curves", cmd_run),
            ("theory", "write theory curves only", cmd_theory)):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("config", help="experiment config (flat JSON)")
        p.add_argument("--out", required=True, help="output CSV path")
        p.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR)
        p.set_defaults(func=func)

    p = sub.add_parser("compare", help="tail deviation report for a results CSV")
    p.add_argument("results_csv")
    p.add_argument("--burn-in", type=float, default=DEFAULT_BURN_IN)
    p.add_argument("--json", default=None, help="also write the report as JSON")
    p.set_defaults(func=cmd_compare)
    return parser


def exit_code(entry, *args) -> int:
    """Return entry(*args), or print the error it raises without a traceback and
    return 2 for a config or usage error, 3 for bad or missing data."""
    try:
        return entry(*args)
    except ConfigError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except gio.DataError as exc:
        print(str(exc), file=sys.stderr)
        return 3
    except FileNotFoundError as exc:
        print(f"file not found: {exc.filename}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc.strerror}: {exc.filename}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return exit_code(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
