"""Every bench record at the repository root (BENCH_*.json) parses as strict
JSON, says what it measured against what and how, and names the machine it
was measured on."""

import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _reject_constant(token):
    raise ValueError(f"non-finite JSON token {token}")


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_names_its_run_and_machine(path):
    record = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
    assert {"change", "parent", "command", "protocol", "claim"} <= record.keys()
    assert {"nproc", "python", "numpy", "blas", "blas_version",
            "blas_threads"} <= record["machine"].keys()
