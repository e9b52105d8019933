"""The reproduction entry point, scripts/run_reference_cases.py, runs end to
end on a reduced grid and writes one results CSV and manifest per row, and
each manifest's config reruns its row's CSV from any working directory.
Both scripts exit with gspest's codes, without a traceback, before they
write anything."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gspest
from gspest import io as gio
from gspest.cli import main
from gspest.harness import synthetic_stations

ROOT = pathlib.Path(__file__).resolve().parents[1]


def run_script(cwd, script, *args):
    env = dict(os.environ)
    src = str(pathlib.Path(gspest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args], cwd=cwd, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)


def run_reference_cases(tmp_path, *args):
    proc = run_script(tmp_path, "run_reference_cases.py", "--runs", "2", "--scenarios", "iii",
                      "--algorithms", "rls", "--out-dir", str(tmp_path), *args)
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
