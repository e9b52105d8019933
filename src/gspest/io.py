"""File interfaces: station tables, configs, result curves, manifests, caches.

All numeric CSV output uses shortest round-trip float formatting, so readers
recover the exact binary values and byte-level comparison of two runs is
meaningful.
"""

import csv
import dataclasses
import hashlib
import json
import math
import os
import zipfile

import numpy as np

from ._version import __version__
from .graph import GftBasis, Graph, StationTable
from .harness import ConfigError, ExperimentConfig, RunResult

STATION_HEADER = ("id", "lat", "lon", "value")
RESULTS_HEADER = ("t", "msd_emp_db", "msd_theory_paper_db", "msd_theory_exact_db")
THEORY_HEADER = ("t", "msd_theory_paper_db", "msd_theory_exact_db")


class DataError(ValueError):
    """Malformed input data; carries every failure at once."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("invalid data:\n" + "\n".join(f"- {e}" for e in self.errors))


def _not_utf8(path, exc: UnicodeDecodeError) -> DataError:
    return DataError([f"{path}: not UTF-8 text (cannot decode byte "
                      f"0x{exc.object[exc.start]:02x}); save it as UTF-8"])


def _read_csv(path, header: tuple[str, ...]) -> list[tuple[int, list[str]]]:
    """The non-blank rows below the header, each with its file line number.

    A UTF-8 byte-order mark is skipped, and the header must be `header` with
    case and surrounding spaces ignored.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            got = next(reader, None)
            rows = [(reader.line_num, row) for row in reader if "".join(row).strip()]
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
    if got is None:
        raise DataError([f"{path}: empty file, expected header {','.join(header)}"])
    if tuple(h.strip().lower() for h in got) != header:
        raise DataError([f"{path}: header must be {','.join(header)}, got {','.join(got)}"])
    return rows


def _write_csv(path, header, rows) -> None:
    """Write a header and rows with LF line ends; csv writes floats by repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path):
    """Parse a JSON file; a UTF-8 byte-order mark is skipped."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from exc
        except json.JSONDecodeError as exc:
            raise DataError([f"{path}: not valid JSON ({exc})"]) from exc


def read_station_csv(path) -> StationTable:
    """Load a station table with header id,lat,lon,value.

    Every malformed row is reported with its line number in one error.
    """
    errors: list[str] = []
    ids: list[str] = []
    coords: list[tuple[float, float]] = []
    values: list[float] = []
    seen: dict[str, int] = {}
    for line_no, row in _read_csv(path, STATION_HEADER):
        if len(row) != 4:
            errors.append(f"line {line_no}: expected 4 fields, got {len(row)}")
            continue
        sid = row[0].strip()
        if not sid:
            errors.append(f"line {line_no}: empty station id")
            continue
        if sid in seen:
            errors.append(f"line {line_no}: duplicate station id {sid!r} (first at line {seen[sid]})")
            continue
        try:
            lat, lon, value = (float(row[i]) for i in (1, 2, 3))
        except ValueError:
            errors.append(f"line {line_no}: non-numeric lat/lon/value")
            continue
        if not all(map(math.isfinite, (lat, lon, value))):
            errors.append(f"line {line_no}: non-finite lat/lon/value")
            continue
        seen[sid] = line_no
        ids.append(sid)
        coords.append((lat, lon))
        values.append(value)
    if errors:
        raise DataError([f"{path}: {e}" for e in errors])
    try:
        return StationTable(ids=tuple(ids), coords=np.array(coords, dtype=float),
                            signal=np.array(values, dtype=float))
    except ValueError as exc:
        raise DataError([f"{path}: {exc}"]) from exc


def write_station_csv(path, stations: StationTable) -> None:
    _write_csv(path, STATION_HEADER,
               zip(stations.ids, *stations.coords.T.tolist(), stations.signal.tolist()))


def station_digest(stations: StationTable) -> str:
    """Content hash of a station table (ids, coordinates, values)."""
    h = hashlib.sha256()
    h.update("\x1f".join(stations.ids).encode("utf-8"))
    h.update(np.ascontiguousarray(stations.coords).tobytes())
    h.update(np.ascontiguousarray(stations.signal).tobytes())
    return h.hexdigest()


def parse_config(data: dict, source: str = "config") -> ExperimentConfig:
    """Build an ExperimentConfig from a flat JSON object.

    Unknown and missing keys are reported together; the config's own
    construction then reports every problem with the values.
    """
    if not isinstance(data, dict):
        raise ConfigError([f"{source}: top level must be a JSON object"])
    fields = dataclasses.fields(ExperimentConfig)
    errors = [f"{source}: unknown key {k!r}"
              for k in sorted(set(data) - {f.name for f in fields})]
    errors += [f"{source}: missing required key {f.name!r}" for f in fields
               if f.default is dataclasses.MISSING and f.name not in data]
    if errors:
        raise ConfigError(errors)
    return ExperimentConfig(**data)


def load_config(path) -> ExperimentConfig:
    return parse_config(_read_json(path), source=str(path))


def config_to_dict(config: ExperimentConfig) -> dict:
    out = dataclasses.asdict(config)
    if isinstance(out["scenario"], tuple):
        out["scenario"] = list(out["scenario"])
    return out


def write_results_csv(path, result: RunResult) -> None:
    """Empirical and theory curves, one row per iteration."""
    _write_csv(path, RESULTS_HEADER, zip(result.t.tolist(), result.msd_mean_db.tolist(),
                                         result.theory_paper_db.tolist(),
                                         result.theory_exact_db.tolist()))


def write_theory_csv(path, t: np.ndarray, paper_db: np.ndarray, exact_db: np.ndarray) -> None:
    """Theory-only curves: the run schema minus the empirical column."""
    _write_csv(path, THEORY_HEADER, zip(t.tolist(), paper_db.tolist(), exact_db.tolist()))


def read_results_csv(path) -> dict[str, np.ndarray]:
    """Read a results CSV back into column arrays, validating the header."""
    errors = []
    parsed = []
    for line_no, row in _read_csv(path, RESULTS_HEADER):
        if len(row) != len(RESULTS_HEADER):
            errors.append(f"line {line_no}: expected {len(RESULTS_HEADER)} fields, got {len(row)}")
            continue
        try:
            parsed.append([float(c) for c in row])
        except ValueError:
            errors.append(f"line {line_no}: non-numeric field")
    if errors:
        raise DataError([f"{path}: {e}" for e in errors])
    if not parsed:
        raise DataError([f"{path}: no data rows"])
    cols = np.array(parsed, dtype=float).T
    return {name: cols[i] for i, name in enumerate(RESULTS_HEADER)}


def build_manifest(result: RunResult, stations: StationTable, duration_seconds: float) -> dict:
    """Reproduction record for one run: effective config, provenance, the run's
    metadata (cw_digest as covariance_digest), which holds the numbers that
    decide whether the run can be trusted, and its tail deviation."""
    meta = {("covariance_digest" if key == "cw_digest" else key): value
            for key, value in result.metadata.items()}
    return {
        **meta,
        "format": "gspest-run-manifest/1",
        "package_version": __version__,
        "config": config_to_dict(result.config),
        "station_digest": station_digest(stations),
        "deviation": finite_or_null(dataclasses.asdict(result.deviation)),
        "duration_seconds": float(duration_seconds),
    }


def finite_or_null(figures: dict) -> dict:
    """figures with each nan or infinite float as None, strict JSON's null."""
    return {key: None if isinstance(value, float) and not math.isfinite(value) else value
            for key, value in figures.items()}


def write_json(path, document) -> None:
    """Write strict JSON: a nan or infinite float raises ValueError, before
    the file is opened, so a refused document writes nothing."""
    text = json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def write_manifest(path, manifest: dict) -> None:
    write_json(path, manifest)


def read_manifest(path) -> dict:
    data = _read_json(path)
    if not isinstance(data, dict) or "config" not in data:
        raise DataError([f"{path}: not a run manifest"])
    return data


def _cache_basename(digest: str, k: int) -> str:
    return f"graph_{digest[:16]}_k{k}"


def load_graph_cache(cache_dir, stations: StationTable, k: int) -> GftBasis | None:
    """Return the cached Laplacian spectrum, or None on a miss: no file, a
    mismatch, or a file that cannot be read or validated, which the caller
    then rebuilds and overwrites."""
    digest = station_digest(stations)
    path = os.path.join(cache_dir, _cache_basename(digest, k) + ".npz")
    try:  # a missing file raises FileNotFoundError, an OSError
        with np.load(path, allow_pickle=False) as data:
            if str(data["digest"]) != digest or int(data["k"]) != k:
                return None
            return GftBasis(eigenvalues=data["eigenvalues"], vectors=data["vectors"])
    except (OSError, EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile):
        return None


def save_graph_cache(cache_dir, stations: StationTable, k: int, basis: GftBasis) -> str:
    os.makedirs(cache_dir, exist_ok=True)
    digest = station_digest(stations)
    path = os.path.join(cache_dir, _cache_basename(digest, k) + ".npz")
    np.savez(path, digest=digest, k=k, eigenvalues=basis.eigenvalues, vectors=basis.vectors)
    return path


def write_node_list(path, stations: StationTable) -> None:
    _write_csv(path, ("id", "lat", "lon"), zip(stations.ids, *stations.coords.T.tolist()))


def write_edge_list(path, stations: StationTable, graph: Graph) -> None:
    _write_csv(path, ("source", "target"),
               ((stations.ids[i], stations.ids[j]) for i, j in graph.edge_list()))
