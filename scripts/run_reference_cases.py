#!/usr/bin/env python3
"""Run the full 299-station study grid and write one results CSV per row.

Covers both estimators, both graph/bandwidth cases, all three noise
scenarios and both parameter values per case, then prints a tail-deviation
summary for the two theory modes. Plot the CSVs with any tool; the columns
are t, msd_emp_db, msd_theory_paper_db, msd_theory_exact_db. With
--stations, each row's manifest config names that path as stations_csv, so
`gspest run` of the config reproduces the row's CSV.
"""

import argparse
import os
import time

from gspest import (SCENARIOS, ExperimentConfig, build_knn_graph, gft_basis, laplacian,
                    run_experiment, synthetic_stations)
from gspest import io as gio
from gspest.estimators import ESTIMATORS

CASES = {
    1: dict(k=8, bandwidth=200, params={"lms": (0.43, 1.57), "rls": (0.61, 0.85)}),
    2: dict(k=16, bandwidth=160, params={"lms": (0.2, 1.1), "rls": (0.55, 0.79)}),
}
ITERATIONS = {"lms": 1000, "rls": 200}


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

    os.makedirs(args.out_dir, exist_ok=True)
    if args.stations is not None:
        stations = gio.read_station_csv(args.stations)
    else:
        stations = synthetic_stations(299, 2018)
    bases = {}
    for spec in CASES.values():
        if spec["k"] not in bases:
            bases[spec["k"]] = gft_basis(laplacian(build_knn_graph(stations, spec["k"])))

    # "gap dB" is the predicted literal - exact steady-state gap; on a
    # redrawn-noise row the measured "literal dB" tail deviation tends to it
    print(f"{'file':<34} {'literal dB':>10} {'gap dB':>7} {'exact dB':>9} {'exact z':>8} "
          f"{'secs':>6}")
    for algorithm in args.algorithms:
        for case, spec in CASES.items():
            for scenario in args.scenarios:
                for param in spec["params"][algorithm]:
                    config = ExperimentConfig(
                        algorithm=algorithm, param=param, k=spec["k"],
                        bandwidth=spec["bandwidth"], sample_size=210,
                        scenario=scenario, iterations=ITERATIONS[algorithm],
                        runs=args.runs, master_seed=args.seed,
                        stations_csv=args.stations, n_stations=stations.n)
                    started = time.monotonic()
                    result = run_experiment(config, stations, bases[spec["k"]])
                    duration = time.monotonic() - started
                    name = f"{algorithm}_case{case}_{scenario}_p{param}.csv"
                    path = os.path.join(args.out_dir, name)
                    gio.write_results_csv(path, result)
                    gio.write_manifest(path + ".manifest.json",
                                       gio.build_manifest(result, stations, duration))
                    dev = result.deviation
                    gap = result.metadata["predicted_gap_db"]
                    gap_text = "-" if gap is None else f"{gap:.3f}"
                    print(f"{name:<34} {dev.paper_mean_abs_db:>10.3f} {gap_text:>7} "
                          f"{dev.exact_mean_abs_db:>9.3f} {dev.exact_tail_z:>8.2f} "
                          f"{duration:>6.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
