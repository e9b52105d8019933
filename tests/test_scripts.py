"""The reproduction entry point, scripts/run_reference_cases.py, runs end to
end on a reduced grid and writes one results CSV and manifest per row, and
each manifest's config reruns its row's CSV from any working directory.
Both scripts exit with gspest's codes, without a traceback, before they
write anything, and the reference script claims every row's outputs as
gspest run does before it builds a graph. A row whose Monte Carlo splits
writes the same CSV under any OPENBLAS_NUM_THREADS."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gspest
from gspest import build_knn_graph, estimators, gft_basis, laplacian
from gspest import io as gio
from gspest.cli import main
from gspest.harness import synthetic_stations

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_python(cwd, *args, **env_overrides):
    env = {**os.environ, **env_overrides}
    src = str(pathlib.Path(gspest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)


def run_script(cwd, script, *args):
    return run_python(cwd, str(ROOT / "scripts" / script), *args)


REDUCED = ("--runs", "2", "--scenarios", "iii", "--algorithms", "rls")


def run_reference_cases(tmp_path, *args):
    proc = run_script(tmp_path, "run_reference_cases.py", *REDUCED, "--out-dir", str(tmp_path),
                      *args)
    assert proc.returncode == 0, proc.stderr


def test_reference_cases_script_writes_results_and_manifests(tmp_path):
    run_reference_cases(tmp_path)
    names = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert names == ["rls_case1_iii_p0.61.csv", "rls_case1_iii_p0.85.csv",
                     "rls_case2_iii_p0.55.csv", "rls_case2_iii_p0.79.csv"]
    for name in names:
        columns = gio.read_results_csv(tmp_path / name)  # checks the header
        assert tuple(columns) == gio.RESULTS_HEADER
        assert columns["t"].shape == (200,)
        manifest = gio.read_manifest(tmp_path / (name + ".manifest.json"))
        assert manifest["config"]["algorithm"] == "rls" and manifest["config"]["runs"] == 2
        assert str(manifest["config"]["param"]) in name
        assert len(manifest["sampling_indices"]) == 210


def test_manifest_config_reruns_the_csv_of_a_station_file(tmp_path, monkeypatch):
    # a table other than the default synthetic one, named relative to the
    # script's working directory: the manifest's config must name it by its
    # absolute path, so that the config reruns from another directory
    stations_path = str(tmp_path / "stations7.csv")
    gio.write_station_csv(stations_path, synthetic_stations(299, 7))
    run_reference_cases(tmp_path, "--stations", "stations7.csv")
    (tmp_path / "elsewhere").mkdir()
    monkeypatch.chdir(tmp_path / "elsewhere")
    names = sorted(p.name for p in tmp_path.glob("rls_*.csv"))
    assert len(names) == 4
    for name in names:
        config = gio.read_manifest(tmp_path / (name + ".manifest.json"))["config"]
        assert os.path.isabs(config["stations_csv"])
        assert os.path.samefile(config["stations_csv"], stations_path)
        config_path = tmp_path / "rerun.json"
        config_path.write_text(json.dumps(config))
        rerun = tmp_path / "rerun" / name
        rerun.parent.mkdir(exist_ok=True)
        assert main(["run", str(config_path), "--out", str(rerun),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        assert rerun.read_bytes() == (tmp_path / name).read_bytes()


@pytest.mark.parametrize("script, args, code, message", [
    ("run_reference_cases.py", ["--runs", "0", "--out-dir", "new"], 2,
     "runs must be an integer >= 1, got 0"),
    ("run_reference_cases.py", ["--stations", "nope.csv"], 3, "file not found: nope.csv"),
    ("run_reference_cases.py", ["--out-dir", "taken"], 2, "File exists: taken"),
    ("make_stations.py", ["--n", "1"], 2, "need at least 2 stations, got 1"),
    ("make_stations.py", ["--out", "missing_dir/s.csv"], 3, "file not found: missing_dir/s.csv"),
], ids=["runs-0", "missing-stations", "out-dir-is-a-file", "one-station", "missing-out-dir"])
def test_script_errors_exit_like_gspest_writing_nothing(tmp_path, script, args, code, message):
    (tmp_path / "taken").write_text("")
    proc = run_script(tmp_path, script, *args)
    assert proc.returncode == code, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    # no output directory, CSV or graph cache: the settings are checked first
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]


def test_station_count_limits_checked_before_writing(tmp_path):
    assert run_script(tmp_path, "make_stations.py", "--n", "50", "--out", "s50.csv").returncode == 0
    proc = run_script(tmp_path, "run_reference_cases.py", "--stations", "s50.csv",
                      "--out-dir", "new")
    assert proc.returncode == 2, proc.stderr
    assert "bandwidth (200) must be at most n (50)" in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s50.csv"]


def assert_refused_before_any_row(proc, message, out_dir, left):
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr and proc.stdout == ""
    # every row's CSV and manifest is claimed before a graph is built
    assert sorted(p.name for p in out_dir.iterdir()) == left


def test_row_path_that_cannot_be_written_fails_before_any_row(tmp_path):
    (tmp_path / "out" / "rls_case2_iii_p0.55.csv").mkdir(parents=True)
    proc = run_script(tmp_path, "run_reference_cases.py", *REDUCED, "--out-dir", "out")
    assert_refused_before_any_row(proc, "Is a directory: out/rls_case2_iii_p0.55.csv",
                                  tmp_path / "out", ["rls_case2_iii_p0.55.csv"])


def test_row_path_that_is_the_station_file_is_refused(tmp_path):
    stations = tmp_path / "out" / "rls_case1_iii_p0.61.csv"
    stations.parent.mkdir()
    gio.write_station_csv(stations, synthetic_stations(299, 7))
    table = stations.read_bytes()
    proc = run_script(tmp_path, "run_reference_cases.py", *REDUCED, "--out-dir", "out",
                      "--stations", str(stations))
    assert_refused_before_any_row(
        proc, f"row out/rls_case1_iii_p0.61.csv is the same file as --stations {stations}",
        tmp_path / "out", ["rls_case1_iii_p0.61.csv"])
    assert stations.read_bytes() == table


@pytest.mark.skipif(estimators._openblas() is None, reason="no OpenBLAS thread control found")
def test_split_row_csv_does_not_depend_on_the_blas_thread_count(tmp_path):
    # 64 runs x 1025 steps: 2 chunks of 32 runs, 32 x 130 = 4160 draws per
    # step, so the row splits and holds one BLAS thread from its set on; a
    # random set and one cached basis leave the sampling nothing to move
    assert estimators.row_schedule(64, 1025, 130, False).hold
    config = {"algorithm": "lms", "param": 0.5, "k": 6, "bandwidth": 20, "sample_size": 130,
              "scenario": "iii", "iterations": 1025, "runs": 64, "master_seed": 42,
              "sampling_strategy": "random", "n_stations": 150}
    (tmp_path / "row.json").write_text(json.dumps(config))
    stations = synthetic_stations(150, 2018)
    gio.save_graph_cache(tmp_path / "cache", stations, 6,
                         gft_basis(laplacian(build_knn_graph(stations, 6))))
    csvs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.csv"
        proc = run_python(tmp_path, "-m", "gspest.cli", "run", "row.json", "--out", str(out),
                          "--cache-dir", "cache", OPENBLAS_NUM_THREADS=threads)
        assert proc.returncode == 0, proc.stderr
        assert gio.read_manifest(str(out) + ".manifest.json")["mc_lanes"] >= 1
        csvs.append(out.read_bytes())
    assert csvs[0] == csvs[1]
