"""Package hygiene: no module imports a name it never uses, every exported
name resolves and has a caller outside the tests, only estimators.py
branches on an estimator's name, only harness.py lists the config's fields,
only io.py's one reader or writer per format calls csv or json, no
constructor freezes its caller's arrays, one cli function writes a row's
CSV and manifest, and the version has one source."""

import ast
import dataclasses
import pathlib

import numpy as np
import pytest

import gspest
from gspest.estimators import ESTIMATORS, ErrorRecursion

import oracle

SRC = pathlib.Path(gspest.__file__).parent
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
ROOT = pathlib.Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement that the module never refers to."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda x: x[1])
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == [
        "line 1: os", "line 2: b"]


def test_every_exported_name_resolves():
    missing = [name for name in gspest.__all__ if not hasattr(gspest, name)]
    assert missing == []
    assert len(set(gspest.__all__)) == len(gspest.__all__)


def test_version_has_one_source():
    # pyproject.toml reads the version gspest --version and every manifest report
    pyproject = ROOT / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("no pyproject.toml beside the tests")
    tomllib = pytest.importorskip("tomllib")
    data = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in data["project"] and data["project"]["dynamic"] == ["version"]
    assert data["tool"]["setuptools"]["dynamic"]["version"] == {
        "attr": "gspest._version.__version__"}


def names_referenced_outside_tests() -> set[str]:
    """Every name the package modules, scripts/ and perfbench/ refer to (as a
    bare name or an attribute), plus the strings of perfbench/tracer.py, which
    looks functions up by name."""
    paths = MODULES + sorted((ROOT / "scripts").glob("*.py")) + sorted(
        (ROOT / "perfbench").glob("*.py"))
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif path.name == "tracer.py" and isinstance(node, ast.Constant):
                names.add(node.value)
    return names


def test_every_exported_name_has_a_caller_outside_tests():
    # a name only the tests call belongs in the tests (see tests/oracle.py)
    assert sorted(set(gspest.__all__) - names_referenced_outside_tests()) == []


def estimator_name_comparisons(source: str) -> list[str]:
    """Lines that compare a value with a key of ESTIMATORS, or match on one."""
    def names(node):
        elts = node.elts if isinstance(node, (ast.Tuple, ast.List, ast.Set)) else [node]
        return [e for e in elts if isinstance(e, ast.Constant) and e.value in ESTIMATORS]

    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if (isinstance(node, ast.Compare) and any(map(names, [node.left, *node.comparators])))
            or (isinstance(node, ast.MatchValue) and names(node.value))]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "estimators.py"]
                         + sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_only_the_estimator_table_branches_on_an_estimator_name(path):
    # each estimator's rules live in estimators.ESTIMATORS; a branch elsewhere
    # would state one of them a second time
    assert estimator_name_comparisons(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_name_comparison():
    source = ('if a == "lms": pass\nif b not in ("x", "rls"): pass\nif c != "x": pass\n'
              'd = {"lms": 1}\nmatch a:\n    case "rls": pass\n')
    assert estimator_name_comparisons(source) == ["line 1", "line 2", "line 6"]


CONFIG_FIELDS = {f.name for f in dataclasses.fields(gspest.ExperimentConfig)}


def config_field_lists(source: str) -> list[str]:
    """Lines of tuple, list or set literals holding three or more config field names."""
    return [f"line {node.lineno}" for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Tuple, ast.List, ast.Set))
            and sum(isinstance(e, ast.Constant) and e.value in CONFIG_FIELDS
                    for e in node.elts) >= 3]


@pytest.mark.parametrize("path", [p for p in sorted(SRC.glob("*.py")) if p.name != "harness.py"]
                         + sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_only_the_config_lists_its_fields(path):
    # ExperimentConfig checks its own fields on construction; a list of them
    # elsewhere (the required keys, say) would state its rules a second time
    assert config_field_lists(path.read_text(encoding="utf-8")) == []


def test_checker_flags_a_config_field_list():
    source = ('a = ("algorithm", "param", "k")\nb = ["runs", "k", 3]\n'
              'c = {"runs", "k", "iterations", "x"}\nd = f(runs=1, k=2, param=3)\n')
    assert config_field_lists(source) == ["line 1", "line 3"]


def row_writer_calls(paths) -> list[str]:
    """Each call of write_results_csv, build_manifest or write_manifest in the
    files, as "<file>:<enclosing top-level function>:<name>"."""
    found = []
    for path in paths:
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                if name in ("write_results_csv", "build_manifest", "write_manifest"):
                    found.append(f"{path.name}:{getattr(top, 'name', '')}:{name}")
    return found


def test_one_function_runs_and_writes_a_row():
    # gspest run and the reference script write a row's CSV and manifest
    # through cli.run_row alone, so both follow one set of output rules
    assert sorted(row_writer_calls(MODULES + sorted((ROOT / "scripts").glob("*.py")))) == [
        "cli.py:run_row:build_manifest", "cli.py:run_row:write_manifest",
        "cli.py:run_row:write_results_csv"]


# each file-format call and the one function in io.py allowed to make it
FORMAT_CALLS = {("csv", "reader"): "_read_csv", ("csv", "writer"): "_write_csv",
                ("json", "load"): "_read_json", ("json", "dump"): "write_json",
                ("json", "dumps"): "write_json"}


def format_calls_outside_owner(source: str, module: str) -> list[str]:
    """Lines that refer to csv.reader, csv.writer, json.load, json.dump or
    json.dumps (or import one by name) outside the function of io.py that owns
    it."""
    found = []
    for top in ast.parse(source).body:
        owner = top.name if module == "io" and isinstance(top, ast.FunctionDef) else None
        for node in ast.walk(top):
            if isinstance(node, ast.ImportFrom):
                names = [(node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [(node.value.id, node.attr)]
            else:
                continue
            found += [f"line {node.lineno}: {'.'.join(name)}" for name in names
                      if name in FORMAT_CALLS and FORMAT_CALLS[name] != owner]
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_one_reader_and_writer_per_file_format(path):
    # every input gets the same byte-order-mark, blank-row and line-number
    # rules, and every CSV output the same line ends, from one place each
    assert format_calls_outside_owner(path.read_text(encoding="utf-8"), path.stem) == []


def test_checker_flags_a_format_call_outside_its_owner():
    source = ("import csv, json\nfrom csv import writer\n"
              "def _read_csv(p):\n    return csv.reader(p), json.load(p)\n"
              "def _write_csv(p):\n    return csv.writer(p), csv.DictWriter(p)\n"
              "def _read_json(p):\n    return json.load(p), json.dump(1, p)\n"
              "def write_json(p):\n    return json.dumps(1), json.dump(1, p)\n"
              "r = csv.reader\n")
    assert format_calls_outside_owner(source, "io") == [
        "line 2: csv.writer", "line 4: json.load", "line 8: json.dump", "line 11: csv.reader"]
    assert format_calls_outside_owner(source, "cli") == [
        "line 2: csv.writer", "line 4: csv.reader", "line 4: json.load", "line 6: csv.writer",
        "line 8: json.load", "line 8: json.dump", "line 10: json.dumps", "line 10: json.dump",
        "line 11: csv.reader"]


def _constructors(arr):
    """Each frozen dataclass that stores arrays, built from arrays made by arr."""
    band = gspest.BandBasis(f=1, u_f=np.array([[0.6], [0.8]]))
    return {
        "StationTable": lambda: gspest.StationTable(ids=("a", "b"), coords=arr([[0, 0], [1, 1]]),
                                                    signal=arr([1, 2])),
        "Graph": lambda: gspest.Graph(adjacency=arr([[0, 1], [1, 0]])),
        "GftBasis": lambda: gspest.GftBasis(eigenvalues=arr([0, 2]), vectors=arr(np.eye(2))),
        "BandBasis": lambda: gspest.BandBasis(f=1, u_f=arr([[0.6], [0.8]])),
        "NoiseModel": lambda: gspest.NoiseModel(c_w=arr([0.25, 0.5])),
        "SignalModel": lambda: gspest.SignalModel(
            band=band, s_f=arr([2.0]),
            sampling=gspest.SamplingSet(indices=(0,), n=2), noise=gspest.build_cw(0.0, 0.0, 2, 0)),
        "LmsState": lambda: oracle.LmsState(s_hat=arr([0.0]), mu=0.5, t=1),
        "RlsState": lambda: oracle.RlsState(s_hat=arr([0.0]), lam=0.5, m_mat=arr([[1.0]]), t=1),
        "TheoryCurve": lambda: gspest.TheoryCurve(mode="exact", values=arr([4.0, 1.0])),
        "ErrorRecursion": lambda: ErrorRecursion(decay=arr([0.5]), step=0.5, response=arr([[1.0]]),
                                                 delta0=arr([-2.0]), c_s=arr([0.25])),
    }


@pytest.mark.parametrize("name", sorted(_constructors(np.asarray)))
def test_constructor_leaves_caller_arrays_writeable(name):
    given = []

    def arr(values):
        given.append(np.array(values, dtype=float))
        return given[-1]

    _constructors(arr)[name]()
    assert given and all(a.flags.writeable for a in given)
