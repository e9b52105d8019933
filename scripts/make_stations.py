#!/usr/bin/env python3
"""Write a synthetic station table so the CLI pipeline can run end to end
without the real temperature dataset. Errors exit as gspest's do."""

import argparse

from gspest import synthetic_stations
from gspest.cli import exit_code
from gspest.io import write_station_csv


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=299, help="number of stations")
    parser.add_argument("--seed", type=int, default=2018, help="placement seed")
    parser.add_argument("--out", default="stations.csv", help="output CSV path")
    args = parser.parse_args()

    stations = synthetic_stations(args.n, args.seed)
    write_station_csv(args.out, stations)
    print(f"wrote {args.out}: {stations.n} stations")
    return 0


if __name__ == "__main__":
    raise SystemExit(exit_code(main))
