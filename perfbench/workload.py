"""Run one benchmark workload in this process and print its figures as JSON.

Started by run.py, one fresh process per workload run. The process imports
gspest from the checkout's ``src``, sets the workload up, runs whole rounds
of timed rows until the time is up, then checks every row of the first round
and prints one JSON object as its last line of standard output.

    python3 perfbench/workload.py --workload grid299 --seed 42 --seconds 45 \
        --trace 0 --t0 <time.monotonic() of the parent just before the start>
"""

import argparse
import contextlib
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from itertools import count

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".perfbench-out")
STATION_SEED = 2018

sys.path.insert(0, HERE)
import checks  # noqa: E402
from tracer import Tracer  # noqa: E402

# Each workload at full size, and at a tiny size for the self-check.
GRID_CASES = {
    "full": ((1, 8, 200, (0.43, 1.57), (0.61, 0.85)), (2, 16, 160, (0.2, 1.1), (0.55, 0.79))),
    "tiny": ((1, 4, 8, (0.43, 1.57), (0.61, 0.85)), (2, 6, 6, (0.2, 1.1), (0.55, 0.79))),
}
SIZES = {
    "full": {
        # One of the three noise scenarios keeps a round of the grid within a
        # run; estimators, cases and parameters are all kept.
        "grid299": dict(n_stations=299, sample_size=210, scenarios=("iii",), runs=50,
                        iterations={"lms": 1000, "rls": 200}),
        "mc-small": dict(n_stations=10, runs=2000, iterations=200),
        "sampling-sweep": dict(
            n_stations=299, runs=30, iterations=200,
            # largest first, so that the first row is mostly greedy sampling
            greedy=((16, 200, 240), (8, 180, 220), (16, 160, 200), (8, 120, 150), (16, 80, 110),
                    (8, 40, 60)),
            random=((8, 40, 60), (16, 80, 110))),
    },
    "tiny": {
        "grid299": dict(n_stations=40, sample_size=12, scenarios=("iii",), runs=8,
                        iterations={"lms": 60, "rls": 30}),
        "mc-small": dict(n_stations=10, runs=300, iterations=40),
        "sampling-sweep": dict(n_stations=40, runs=8, iterations=40,
                               greedy=((4, 6, 10), (6, 8, 14)), random=((4, 6, 10),)),
    },
}


def output_dir(workload: str, size: str) -> str:
    """Where a workload's files go; tiny runs keep apart from full-size ones."""
    return os.path.join(OUT_ROOT, workload if size == "full" else f"{workload}-{size}")


def import_gspest() -> dict:
    """Import gspest from the checkout; return its modules by layer name."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gspest", "__init__.py")):
        raise SystemExit(f"no gspest sources under {src}: run from a checkout of the repository")
    sys.path.insert(0, src)
    import gspest
    import gspest.cli
    import gspest.io
    mods = {"gspest": gspest}
    for layer in ("graph", "sampling", "noise", "estimators", "theory", "harness", "io", "cli"):
        mods[layer] = sys.modules[f"gspest.{layer}"]
    return mods


def environment() -> dict:
    cfg = np.show_config(mode="dicts")
    blas = cfg["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if not found."""
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


@dataclass
class RowData:
    """What the checks need from one row, taken after its timer stopped."""

    name: str
    config: object
    emp: np.ndarray  # linear mean over runs
    emp_db: np.ndarray
    paper_db: np.ndarray
    exact: np.ndarray  # linear
    exact_db: np.ndarray
    mean: np.ndarray  # recomputed from the per-run curves
    se: np.ndarray
    run_tail_means: np.ndarray
    indices: tuple
    cw_digest: str
    csv_path: str | None
    manifest_path: str | None

    def digest(self) -> str:
        return checks.array_sha256(np.concatenate([self.emp, self.exact, self.paper_db]))


def row_data(name, result, csv_path=None, manifest_path=None) -> RowData:
    per_run = result.per_run
    runs = per_run.shape[0]
    tail = checks.tail_slice(per_run.shape[1])
    return RowData(
        name=name, config=result.config, emp=result.msd_mean, emp_db=result.msd_mean_db,
        paper_db=result.theory_paper_db, exact=np.asarray(result.theory_exact.values),
        exact_db=result.theory_exact_db, mean=per_run.mean(axis=0),
        se=per_run.std(axis=0, ddof=1) / np.sqrt(runs),
        run_tail_means=per_run[:, tail].mean(axis=1),
        indices=tuple(result.metadata["sampling_indices"]),
        cw_digest=result.metadata["cw_digest"], csv_path=csv_path, manifest_path=manifest_path)


def common_checks(row: RowData, u_f: np.ndarray, signal: np.ndarray, master_seed: int) -> list:
    """Checks every row gets; returns failures and the sampled rows for the rest."""
    cfg = row.config
    out = checks.finite_positive(row.name, row.emp, row.exact)
    out += checks.first_point(row.name, row.exact, u_f, signal)
    n_a, n_b = cfg.scenario_pair()
    c_w = checks.covariance_diagonal(n_a, n_b, u_f.shape[0], master_seed)
    out += checks.covariance_digest(row.name, c_w, row.cw_digest)
    idx = list(row.indices)
    u_s, c_s, s = u_f[idx, :], c_w[idx], u_f.T @ signal
    if cfg.algorithm == "rls":
        out += checks.rls_tail(row.name, row.exact, u_s, c_s, s, cfg.param)
    else:
        out += checks.lms_last_point(row.name, row.exact, u_s, c_s, s, cfg.param)
    return out, u_s, c_s, s


class Grid299:
    """The reference grid as scripts/run_reference_cases.py runs it."""

    def __init__(self, gs, seed, out_dir, size):
        self.gs, self.seed, self.out_dir = gs, seed, out_dir
        self.size = SIZES[size]["grid299"]
        self.cases = GRID_CASES[size]

    def setup(self):
        gs, sz = self.gs["gspest"], self.size
        self.stations = gs.synthetic_stations(sz["n_stations"], STATION_SEED)
        self.bases = {}
        for _, k, _, _, _ in self.cases:
            if k not in self.bases:
                self.bases[k] = gs.gft_basis(gs.laplacian(gs.build_knn_graph(self.stations, k)))
        self.rows = []
        for algorithm in ("lms", "rls"):
            for case, k, f, mus, lams in self.cases:
                for scenario in sz["scenarios"]:
                    for param in (mus if algorithm == "lms" else lams):
                        name = f"{algorithm}_case{case}_{scenario}_p{param}"
                        self.rows.append((name, gs.ExperimentConfig(
                            algorithm=algorithm, param=param, k=k, bandwidth=f,
                            sample_size=sz["sample_size"], scenario=scenario,
                            iterations=sz["iterations"][algorithm], runs=sz["runs"],
                            master_seed=self.seed, n_stations=self.stations.n)))

    def run_row(self, name, config):
        gs, gio = self.gs["gspest"], self.gs["io"]
        started = time.monotonic()
        result = gs.run_experiment(config, self.stations, self.bases[config.k])
        duration = time.monotonic() - started
        path = os.path.join(self.out_dir, name + ".csv")
        gio.write_results_csv(path, result)
        gio.write_manifest(path + ".manifest.json",
                           gio.build_manifest(result, self.stations, duration))
        return result, path, path + ".manifest.json"

    def check(self, rows):
        out = []
        for row in rows:
            cfg = row.config
            u_f = self.bases[cfg.k].vectors[:, :cfg.bandwidth]
            fails, _, _, _ = common_checks(row, u_f, self.stations.signal, self.seed)
            out += fails
            out += checks.tail_z_within(row.name, row.run_tail_means, row.exact)
            out += checks.csv_matches(row.name, row.csv_path, row.emp_db, row.paper_db,
                                      row.exact_db)
        return out


class McSmall:
    """The 10-station instance of acceptance check c03, under both noise protocols."""

    def __init__(self, gs, seed, out_dir, size):
        self.gs, self.seed = gs, seed
        self.size = SIZES[size]["mc-small"]

    def setup(self):
        gs, sz = self.gs["gspest"], self.size
        self.stations = gs.synthetic_stations(sz["n_stations"], STATION_SEED)
        self.basis = gs.gft_basis(gs.laplacian(gs.build_knn_graph(self.stations, 3)))
        self.rows = []
        for algorithm, param in (("lms", 0.5), ("rls", 0.7)):
            for protocol in ("iid", "frozen"):
                self.rows.append((f"{algorithm}_{protocol}", gs.ExperimentConfig(
                    algorithm=algorithm, param=param, k=3, bandwidth=4, sample_size=6,
                    scenario="iii", iterations=sz["iterations"], runs=sz["runs"],
                    master_seed=self.seed, noise_protocol=protocol,
                    n_stations=self.stations.n)))

    def run_row(self, name, config):
        return self.gs["gspest"].run_experiment(config, self.stations, self.basis), None, None

    def check(self, rows):
        out = []
        u_f = self.basis.vectors[:, :4]
        for row in rows:
            cfg = row.config
            fails, u_s, c_s, s = common_checks(row, u_f, self.stations.signal, self.seed)
            out += fails
            t_count = row.exact.shape[0]
            if cfg.algorithm == "lms":
                stepped = checks.lms_second_moment_curve(u_s, c_s, s, cfg.param, t_count)
                out += checks.close_curves(row.name, "exact curve", row.exact, stepped)
            if cfg.noise_protocol == "frozen":
                expected = checks.frozen_expectation(cfg.algorithm, u_s, c_s, s, cfg.param,
                                                     t_count)
            else:
                expected = row.exact
            out += checks.per_point_within(row.name, row.mean, row.se, expected)
            out += checks.tail_z_within(row.name, row.run_tail_means, expected)
        return out


class SamplingSweep:
    """`gspest run` through cli.main over distinct sampling keys, graph cache filled at set-up."""

    def __init__(self, gs, seed, out_dir, size):
        self.gs, self.seed, self.out_dir = gs, seed, out_dir
        self.size = SIZES[size]["sampling-sweep"]
        self.cache_dir = os.path.join(out_dir, "cache")
        self.captured = []

    def setup(self):
        gs, gio, cli, sz = self.gs["gspest"], self.gs["io"], self.gs["cli"], self.size
        stations = gs.synthetic_stations(sz["n_stations"], STATION_SEED)
        self.stations_csv = os.path.join(self.out_dir, "stations.csv")
        gio.write_station_csv(self.stations_csv, stations)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            for k in sorted({k for k, _, _ in sz["greedy"]}):
                rc = cli.main(["build-graph", self.stations_csv, "--k", str(k),
                               "--cache-dir", self.cache_dir])
                if rc != 0:
                    raise RuntimeError(f"gspest build-graph --k {k} exited with {rc}")
        keys = [(k, f, m, "greedy") for k, f, m in sz["greedy"]]
        keys += [(k, f, m, "random") for k, f, m in sz["random"]]
        self.rows = []
        for k, f, m, strategy in keys:
            name = f"{strategy}_k{k}_f{f}_m{m}"
            config = {"algorithm": "lms", "param": 0.5, "k": k, "bandwidth": f,
                      "sample_size": m, "scenario": "iii", "iterations": sz["iterations"],
                      "runs": sz["runs"], "master_seed": self.seed,
                      "sampling_strategy": strategy, "stations_csv": self.stations_csv}
            path = os.path.join(self.out_dir, name + ".json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(config, fh)
            self.rows.append((name, path))
        # keep the RunResult that cli.main computes, for the checks
        inner = cli.run_experiment

        def capture(*args, **kwargs):
            result = inner(*args, **kwargs)
            self.captured.append(result)
            return result

        cli.run_experiment = capture

    def run_row(self, name, config_path):
        out = os.path.join(self.out_dir, name + ".csv")
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            rc = self.gs["cli"].main(["run", config_path, "--out", out,
                                      "--cache-dir", self.cache_dir])
        if rc != 0:
            raise RuntimeError(f"gspest run {config_path} exited with {rc}")
        return self.captured.pop(), out, out + ".manifest.json"

    def _cached_basis(self, k):
        (path,) = glob.glob(os.path.join(self.cache_dir, f"graph_*_k{k}.npz"))
        with np.load(path) as data:
            return data["vectors"]

    def check(self, rows):
        with open(self.stations_csv, newline="", encoding="utf-8") as fh:
            body = list(fh)[1:]
        signal = np.array([float(line.rstrip("\n").split(",")[3]) for line in body])
        random_lambda = {}
        for row in rows:
            cfg = row.config
            if cfg.sampling_strategy == "random":
                u_f = self._cached_basis(cfg.k)[:, :cfg.bandwidth]
                random_lambda[(cfg.k, cfg.bandwidth, cfg.sample_size)] = checks.lambda_min(
                    u_f, row.indices)
        out = []
        for row in rows:
            cfg = row.config
            u_f = self._cached_basis(cfg.k)[:, :cfg.bandwidth]
            fails, _, _, _ = common_checks(row, u_f, signal, self.seed)
            out += fails
            out += checks.tail_z_within(row.name, row.run_tail_means, row.exact)
            out += checks.csv_matches(row.name, row.csv_path, row.emp_db, row.paper_db,
                                      row.exact_db)
            with open(row.manifest_path, encoding="utf-8") as fh:
                manifest = json.load(fh)
            if tuple(manifest["sampling_indices"]) != row.indices:
                out.append(f"{row.name}: manifest sampling set differs from the run's")
            if manifest["covariance_digest"] != row.cw_digest:
                out.append(f"{row.name}: manifest covariance digest differs from the run's")
            if cfg.sampling_strategy == "greedy":
                out += checks.greedy_lambda(
                    row.name, u_f, manifest["sampling_indices"], manifest["lambda_min"],
                    random_lambda.get((cfg.k, cfg.bandwidth, cfg.sample_size)))
        return out


WORKLOADS = {"grid299": Grid299, "mc-small": McSmall, "sampling-sweep": SamplingSweep}


def run_rounds(workload, seconds, tracer):
    """Whole rounds of the workload's rows until the next round would overrun.

    Returns the first round's row data, per-round figures, every row time,
    the number of rows attempted and failed, and determinism failures.
    """
    first_rows, rounds, row_times, failures = [], [], [], []
    reference, ends = {}, []
    attempted = failed = 0
    started = time.monotonic()
    for index in count():
        if tracer is not None:
            tracer.begin_round(index)
        walls, cpus = [], []
        for name, spec in workload.rows:
            attempted += 1
            w0, c0 = time.monotonic(), time.process_time()
            try:
                result, csv_path, manifest_path = workload.run_row(name, spec)
            except Exception:  # a failed row is counted and the run goes on
                traceback.print_exc()
                failed += 1
                continue
            finally:
                walls.append(time.monotonic() - w0)
                cpus.append(time.process_time() - c0)
            if tracer is not None:
                tracer.enabled = False
            data = row_data(name, result, csv_path, manifest_path)
            del result
            if index == 0:
                first_rows.append(data)
                reference[name] = data.digest()
            elif data.digest() != reference.get(name):
                failures.append(f"{name}: round {index} differs from round 0 (not deterministic)")
            if tracer is not None:
                tracer.enabled = True
        row_times += walls
        rounds.append({"wall_s": sum(walls), "cpu_s": sum(cpus), "first_row_s": walls[0]})
        ends.append(time.monotonic())
        spans = [b - a for a, b in zip([started] + ends[:-1], ends)]
        if ends[-1] - started + statistics.median(spans) > seconds:
            break
    return first_rows, rounds, row_times, attempted, failed, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() of the parent just before starting this process")
    parser.add_argument("--tag", default="main", help="output subdirectory")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args(argv)

    gs = import_gspest()
    tracer = Tracer(gs) if args.trace else None
    out_dir = os.path.join(output_dir(args.workload, args.size), args.tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    workload = WORKLOADS[args.workload](gs, args.seed, out_dir, args.size)
    workload.setup()
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    rows, rounds, row_times, attempted, failed, failures = run_rounds(
        workload, args.seconds, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.enabled = False
    failures += workload.check(rows)
    for message in failures:
        print(f"check failed: {message}", file=sys.stderr)
    report = {
        "setup_s": setup_s,
        "rounds": rounds,
        "row_s": row_times,
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "correct": not failures,
        "environment": environment(),
    }
    if tracer is not None:
        report["per_layer"] = {name: value for name, (value, _unit) in tracer.metrics().items()}
        report["rounds_agree"] = tracer.rounds_agree()
        with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "environment": report["environment"], "rounds": rounds,
                       "per_layer": report["per_layer"],
                       "rounds_agree": report["rounds_agree"], **tracer.dump()}, fh)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
