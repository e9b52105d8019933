"""The reproduction entry point, scripts/run_reference_cases.py, runs end to
end on a reduced grid and writes one results CSV and manifest per row."""

import os
import pathlib
import subprocess
import sys

import gspest
from gspest import io as gio

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_reference_cases_script_writes_results_and_manifests(tmp_path):
    env = dict(os.environ)
    src = str(pathlib.Path(gspest.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_reference_cases.py"), "--runs", "2",
         "--scenarios", "iii", "--algorithms", "rls", "--out-dir", str(tmp_path)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120)
    assert proc.returncode == 0, proc.stderr
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
