"""The benchmark's contract with the package: perfbench/run.py reads the
last line of standard output as a strict-JSON result, and its tracer finds
every function it reports by name. Only reads perfbench/."""

import importlib
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


def test_traced_tiny_run_ends_with_a_strict_json_result():
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--workload", "grid299", "--size", "tiny",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    values = {name: m["value"] for name, m in result["metrics"].items()}
    bad = {name: v for name, v in values.items()
           if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v)}
    assert values and not bad, f"metrics not finite numbers: {bad}"


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{layer}.{func}" for layer, func, _timed in tracer.REPORTED
               if not callable(getattr(importlib.import_module(f"gspest.{layer}"), func, None))]
    assert missing == []
