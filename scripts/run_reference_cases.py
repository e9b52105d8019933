#!/usr/bin/env python3
"""Run the full 299-station study grid and write one results CSV per row.

Takes every row of gspest.reference_grid (both estimators, both graph/band
cases, the chosen noise scenarios, both parameters per case) and checks them
all, then claims every row's CSV and manifest as `gspest run` claims its
outputs, before it builds a graph. Each row is run and written by
gspest.cli.run_row, the function behind `gspest run`, and a tail-deviation
summary for the two theory modes is printed. The CSV columns are t,
msd_emp_db, msd_theory_paper_db, msd_theory_exact_db. Each manifest config
names the --stations file by its absolute path, so `gspest run` of the
config reproduces the row's CSV from any directory. Errors exit as
gspest's do.
"""

import argparse
import os

from gspest import (SCENARIOS, build_knn_graph, gft_basis, laplacian, reference_grid,
                    synthetic_stations)
from gspest import io as gio
from gspest.cli import claim_outputs, exit_code, row_outputs, run_row
from gspest.estimators import ESTIMATORS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="results", help="directory for CSVs")
    parser.add_argument("--stations", default=None,
                        help="station CSV, recorded as each row's stations_csv "
                             "(default: synthetic 299-station table)")
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument("--runs", type=int, default=50, help="Monte Carlo runs per row")
    parser.add_argument("--scenarios", nargs="+", default=list(SCENARIOS),
                        choices=list(SCENARIOS))
    parser.add_argument("--algorithms", nargs="+", default=list(ESTIMATORS),
                        choices=list(ESTIMATORS))
    args = parser.parse_args()

    if args.stations is None:
        stations_csv, stations = None, synthetic_stations(299, 2018)
    else:
        stations_csv, stations = os.path.abspath(args.stations), gio.read_station_csv(args.stations)
    rows = [(os.path.join(args.out_dir, stem + ".csv"), config) for stem, _, config in
            reference_grid(args.algorithms, args.scenarios, args.runs, args.seed,
                           stations_csv, stations.n)]
    os.makedirs(args.out_dir, exist_ok=True)
    claim_outputs([("--stations", args.stations)],
                  [output for path, _ in rows for output in row_outputs("row", path)])
    bases = {k: gft_basis(laplacian(build_knn_graph(stations, k)))
             for k in dict.fromkeys(config.k for _, config in rows)}

    # "gap dB" is the predicted literal - exact steady-state gap; on a
    # redrawn-noise row the measured "literal dB" tail deviation tends to it
    print(f"{'file':<34} {'literal dB':>10} {'gap dB':>7} {'exact dB':>9} {'exact z':>8} "
          f"{'secs':>6}")
    for path, config in rows:
        result, duration = run_row(config, stations, bases[config.k], path)
        dev = result.deviation
        gap = result.metadata["predicted_gap_db"]
        gap_text = "-" if gap is None else f"{gap:.3f}"
        print(f"{os.path.basename(path):<34} {dev.paper_mean_abs_db:>10.3f} {gap_text:>7} "
              f"{dev.exact_mean_abs_db:>9.3f} {dev.exact_tail_z:>8.2f} {duration:>6.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
