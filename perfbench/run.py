"""gspest benchmark: one workload per call, figures as one JSON line.

    python3 perfbench/run.py --workload grid299 --seed 42 --seconds 45 --trace 0

Run from the root of a checkout. Each workload runs in fresh processes, one
after another: with --trace 0, four set-up-only processes (for the set-up
time median) and then the timed one; with --trace 1, the timed process alone
with every layer wrapped. The last line of standard output is
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Files go to
.perfbench-out/<workload>/ in the checkout. See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("grid299", "mc-small", "sampling-sweep")
SETUP_ONLY_RUNS = 4
TIME_LIMIT_S = 170.0


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child(args, deadline, extra) -> dict:
    """Start workload.py, wait for it, and return its JSON report."""
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--t0", repr(time.monotonic())] + extra
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(main: dict, setup_samples: list) -> dict:
    rounds = main["rounds"]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(r["wall_s"] for r in rounds),
        "first_row_s": statistics.median(r["first_row_s"] for r in rounds),
        "row_p50_s": statistics.median(main["row_s"]),
        "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
        "peak_rss_mb": main["peak_rss_mb"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure whole rounds for about this long (at least one round)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for perfbench/selfcheck.py")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "gspest", "__init__.py")):
        print(f"no gspest sources under {ROOT}/src: run from a checkout", file=sys.stderr)
        return 2
    spec = load_spec()
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setup_samples = []
        if not args.trace:
            for i in range(SETUP_ONLY_RUNS):
                report = child(args, deadline, ["--setup-only", "--tag", f"setup{i}"])
                setup_samples.append(report["setup_s"])
        main_report = child(args, deadline, [])
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setup_samples.append(main_report["setup_s"])

    if args.trace:
        values = main_report["per_layer"]
        wanted = spec["per_layer"]
    else:
        values = end_to_end(main_report, setup_samples)
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in wanted}
    result = {"correct": main_report["correct"], "attempted": main_report["attempted"],
              "failed": main_report["failed"], "metrics": metrics}
    name = args.workload if args.size == "full" else f"{args.workload}-{args.size}"
    out_dir = os.path.join(ROOT, ".perfbench-out", name)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "setup_samples_s": setup_samples,
              "environment": main_report["environment"], "rounds": main_report["rounds"],
              "row_s": main_report["row_s"], **result}
    with open(os.path.join(out_dir, f"result-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
