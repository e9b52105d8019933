"""The benchmark's contract with the package: perfbench/run.py reads the
last line of standard output as a strict-JSON result, its tracer finds
every function it reports by name, and its copy of the reference grid
agrees with gspest.reference_grid. Only reads perfbench/."""

import ast
import importlib
import importlib.util
import json
import math
import pathlib
import subprocess
import sys

from gspest import SCENARIOS, reference_grid

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


def _literal(node):
    """The value of a literal that may hold dict(key=value, ...) calls."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "dict":
        return {kw.arg: _literal(kw.value) for kw in node.keywords}
    if isinstance(node, ast.Dict):
        return {_literal(k): _literal(v) for k, v in zip(node.keys, node.values)}
    return ast.literal_eval(node)


def test_benchmark_grid_copy_matches_the_reference_grid():
    tree = ast.parse((PERFBENCH / "workload.py").read_text(encoding="utf-8"))
    names = {target.id: _literal(node.value) for node in tree.body if isinstance(node, ast.Assign)
             for target in node.targets if getattr(target, "id", None) in ("GRID_CASES", "SIZES")}
    cases, size = names["GRID_CASES"]["full"], names["SIZES"]["full"]["grid299"]
    assert size["scenarios"] == ("iii",) and size["n_stations"] == 299

    # the grid's shape and row order: estimator, case, scenario, parameter
    rows = reference_grid(["lms", "rls"], list(SCENARIOS), 50, 42)
    assert len(rows) == 24 == len({stem for stem, _, _ in rows})
    assert [stem for stem, _, _ in rows] == [
        f"{algorithm}_case{case}_{scenario}_p{param}" for algorithm in ("lms", "rls")
        for case, _, _, mus, lams in cases for scenario in SCENARIOS
        for param in (mus if algorithm == "lms" else lams)]

    # the benchmark's numbers, row by row
    bench = {(algorithm, case): (k, bandwidth, mus if algorithm == "lms" else lams)
             for case, k, bandwidth, mus, lams in cases for algorithm in ("lms", "rls")}
    for _, case, config in rows:
        k, bandwidth, params = bench[config.algorithm, case]
        assert (config.k, config.bandwidth) == (k, bandwidth) and config.param in params
        assert config.sample_size == size["sample_size"]
        assert config.iterations == size["iterations"][config.algorithm]
