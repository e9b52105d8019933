"""File formats and the command line front end.

CSV writers use shortest round-trip float formatting, so most checks here
can compare byte-for-byte instead of within tolerance.
"""

import csv
import dataclasses
import errno
import json
import math
import os
import pathlib
import shlex

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from gspest import (
    DataError,
    ConfigError,
    ExperimentConfig,
    build_knn_graph,
    compare,
    gft_basis,
    laplacian,
    prepare_experiment,
    run_experiment,
    synthetic_stations,
)
from gspest import io as gio
from gspest import cli
from gspest.cli import main
from gspest.theory import limits

from conftest import SMALL_CONFIG


def small_config(**overrides) -> ExperimentConfig:
    return ExperimentConfig(**{**SMALL_CONFIG, **overrides})


def write_config(tmp_path, name="config.json", **overrides):
    path = tmp_path / name
    data = {**SMALL_CONFIG, **overrides}
    path.write_text(json.dumps(data))
    return str(path)


def write_stations(tmp_path, n=10, seed=2018, name="stations.csv"):
    path = tmp_path / name
    gio.write_station_csv(path, synthetic_stations(n, seed))
    return str(path)


@pytest.fixture(scope="module")
def result():
    return run_experiment(small_config(iterations=20, runs=3))


@pytest.fixture(scope="module")
def cache_pieces():
    stations = synthetic_stations(12, seed=5)
    graph = build_knn_graph(stations, 3)
    basis = gft_basis(laplacian(graph))
    return stations, graph, basis


class TestStationCsv:
    def test_round_trip_is_exact(self, tmp_path):
        stations = synthetic_stations(25, seed=7)
        path = tmp_path / "st.csv"
        gio.write_station_csv(path, stations)
        back = gio.read_station_csv(path)
        assert back.ids == stations.ids
        assert_array_equal(back.coords, stations.coords)
        assert_array_equal(back.signal, stations.signal)
        assert gio.station_digest(back) == gio.station_digest(stations)

    def test_header_case_and_padding_tolerated(self, tmp_path):
        path = tmp_path / "st.csv"
        path.write_text("ID, Lat ,LON,Value\na,0.0,0.0,1.0\nb,1.0,1.0,2.0\n")
        assert gio.read_station_csv(path).ids == ("a", "b")

    def test_wrong_header_rejected(self, tmp_path):
        path = tmp_path / "st.csv"
        path.write_text("id,latitude,lon,value\na,0,0,1\n")
        with pytest.raises(DataError, match="header must be id,lat,lon,value"):
            gio.read_station_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "st.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            gio.read_station_csv(path)

    def test_all_bad_rows_reported_with_line_numbers(self, tmp_path):
        path = tmp_path / "st.csv"
        path.write_text(
            "id,lat,lon,value\n"
            "a,1.0,2.0,3.0\n"       # line 2: fine
            ",1.0,2.0,3.0\n"        # line 3: empty id
            "a,1.5,2.5,3.5\n"       # line 4: duplicate of line 2
            "b,north,2.0,3.0\n"     # line 5: non-numeric
            "c,inf,2.0,3.0\n"       # line 6: non-finite
            "d,1.0,2.0\n"           # line 7: short row
            "\n"                    # line 8: blank, skipped silently
            "e,1.0,2.5,3.0\n"       # line 9: fine
        )
        with pytest.raises(DataError) as err:
            gio.read_station_csv(path)
        messages = err.value.errors
        assert len(messages) == 5
        for line_no, fragment in [(3, "empty station id"),
                                  (4, "duplicate station id 'a'"),
                                  (5, "non-numeric"),
                                  (6, "non-finite"),
                                  (7, "expected 4 fields, got 3")]:
            matching = [m for m in messages if f"line {line_no}:" in m]
            assert matching and fragment in matching[0]
        # the duplicate message points back at the first occurrence
        assert "first at line 2" in [m for m in messages if "duplicate" in m][0]

    def test_byte_order_mark_ignored(self, tmp_path, cache_pieces):
        # spreadsheet programs may save UTF-8 with a byte-order mark before the header
        stations, _, basis = cache_pieces
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        gio.write_station_csv(plain, stations)
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        want, back = gio.read_station_csv(plain), gio.read_station_csv(marked)
        assert back.ids == want.ids
        assert_array_equal(back.coords, want.coords)
        assert_array_equal(back.signal, want.signal)
        cache = tmp_path / "cache"
        path = gio.save_graph_cache(cache, want, 3, basis)
        assert gio.load_graph_cache(cache, back, 3) is not None
        assert gio.save_graph_cache(cache, back, 3, basis) == path

    def test_single_station_rejected_via_table_validation(self, tmp_path):
        path = tmp_path / "st.csv"
        path.write_text("id,lat,lon,value\nonly,0.0,0.0,1.0\n")
        with pytest.raises(DataError, match="at least 2 stations"):
            gio.read_station_csv(path)


class TestParseConfig:
    def test_minimal_dict_parses(self):
        config = gio.parse_config(dict(SMALL_CONFIG))
        assert config == small_config()

    def test_unknown_keys_sorted_in_error(self):
        data = {**SMALL_CONFIG, "zeta": 1, "alpha": 2}
        with pytest.raises(ConfigError) as err:
            gio.parse_config(data)
        text = str(err.value)
        assert text.index("'alpha'") < text.index("'zeta'")

    def test_missing_keys_all_reported(self):
        data = dict(SMALL_CONFIG)
        del data["param"], data["runs"]
        with pytest.raises(ConfigError) as err:
            gio.parse_config(data)
        assert "missing required key 'param'" in str(err.value)
        assert "missing required key 'runs'" in str(err.value)

    def test_non_dict_rejected(self):
        with pytest.raises(ConfigError, match="top level must be a JSON object"):
            gio.parse_config([1, 2, 3])

    def test_boolean_masquerading_as_number_rejected(self):
        with pytest.raises(ConfigError, match="boolean"):
            gio.parse_config({**SMALL_CONFIG, "runs": True})

    def test_boolean_param_not_promoted_to_float(self):
        with pytest.raises(ConfigError, match="param must be a number, not a boolean"):
            gio.parse_config({**SMALL_CONFIG, "param": True})

    @pytest.mark.parametrize("scenario", [[True, 0], [0.05, False]])
    def test_boolean_scenario_entry_rejected(self, scenario):
        with pytest.raises(ConfigError, match="scenario coefficients must be numbers, not booleans"):
            gio.parse_config({**SMALL_CONFIG, "scenario": scenario})

    @pytest.mark.parametrize("scenario", [["0.05", "1e-2"], ["iii", 0.05], {"0.05": 1, "0.01": 2},
                                          [0.05], [0.05, 0.05, 0.05]])
    def test_scenario_pair_must_be_two_numbers(self, scenario):
        with pytest.raises(ConfigError, match="scenario"):
            gio.parse_config({**SMALL_CONFIG, "scenario": scenario})

    @pytest.mark.parametrize("value", [0, True, "", 1.5, ["stations.csv"]])
    def test_stations_csv_must_be_a_path(self, value):
        with pytest.raises(ConfigError, match="stations_csv"):
            gio.parse_config({**SMALL_CONFIG, "stations_csv": value})

    def test_integer_param_promoted_to_float(self):
        config = gio.parse_config({**SMALL_CONFIG, "algorithm": "lms", "param": 1})
        assert isinstance(config.param, float) and config.param == 1.0

    def test_scenario_list_becomes_tuple(self):
        config = gio.parse_config({**SMALL_CONFIG, "scenario": [0.02, 0.01]})
        assert config.scenario == (0.02, 0.01)

    def test_semantic_validation_still_runs(self):
        with pytest.raises(ConfigError, match="step size"):
            gio.parse_config({**SMALL_CONFIG, "param": -0.5})

    def test_config_to_dict_round_trip(self):
        config = small_config(scenario=(0.03, 0.01))
        assert gio.parse_config(gio.config_to_dict(config)) == config

    def test_load_config_rejects_bad_json(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text("{not json")
        with pytest.raises(DataError, match="not valid JSON"):
            gio.load_config(path)


class TestResultsCsv:
    HEADER = "t,msd_emp_db,msd_theory_paper_db,msd_theory_exact_db"

    def test_golden_header(self, tmp_path, result):
        path = tmp_path / "r.csv"
        gio.write_results_csv(path, result)
        assert path.read_text().splitlines()[0] == self.HEADER

    def test_round_trip_is_exact(self, tmp_path, result):
        path = tmp_path / "r.csv"
        gio.write_results_csv(path, result)
        cols = gio.read_results_csv(path)
        assert_array_equal(cols["t"], result.t)
        assert_array_equal(cols["msd_emp_db"], result.msd_mean_db)
        assert_array_equal(cols["msd_theory_paper_db"], result.theory_paper_db)
        assert_array_equal(cols["msd_theory_exact_db"], result.theory_exact_db)

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("t,msd\n1,0.0\n")
        with pytest.raises(DataError, match="header must be"):
            gio.read_results_csv(path)

    def test_read_rejects_empty_and_headerless(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("")
        with pytest.raises(DataError, match="empty file"):
            gio.read_results_csv(path)
        path.write_text(self.HEADER + "\n")
        with pytest.raises(DataError, match="no data rows"):
            gio.read_results_csv(path)

    def test_read_reports_bad_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\n1,0.0,0.0,0.0\n2,x,0.0,0.0\n3,0.0,0.0\n")
        with pytest.raises(DataError) as err:
            gio.read_results_csv(path)
        text = str(err.value)
        assert "line 3: non-numeric field" in text
        assert "line 4: expected 4 fields, got 3" in text

    def test_bad_line_named_by_its_file_line_after_blank_lines(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(self.HEADER + "\n1,0.0,0.0,0.0\n\n \n3,x,0.0,0.0\n")
        with pytest.raises(DataError) as err:
            gio.read_results_csv(path)
        assert err.value.errors == [f"{path}: line 5: non-numeric field"]

    def test_header_case_and_padding_tolerated(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(" T,MSD_emp_db , msd_theory_paper_db,msd_theory_exact_DB\n1,-1.5,-2.0,-2.5\n")
        assert gio.read_results_csv(path)["msd_theory_exact_db"].tolist() == [-2.5]


class TestTheoryCsv:
    def test_header_and_values(self, tmp_path):
        t = np.arange(1, 4)
        paper = np.array([1.5, -2.25, np.nan])
        exact = np.array([0.5, 0.25, -np.inf])
        path = tmp_path / "th.csv"
        gio.write_theory_csv(path, t, paper, exact)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,msd_theory_paper_db,msd_theory_exact_db"
        assert lines[1] == "1,1.5,0.5"
        assert lines[3] == "3,nan,-inf"


class TestManifest:
    def test_build_and_round_trip(self, tmp_path):
        config = small_config(iterations=15, runs=2)
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        result = run_experiment(config, stations)
        manifest = gio.build_manifest(result, stations, duration_seconds=1.25)
        assert manifest["format"] == "gspest-run-manifest/1"
        assert manifest["config"]["master_seed"] == config.master_seed
        assert manifest["station_digest"] == gio.station_digest(stations)
        assert manifest["duration_seconds"] == 1.25
        path = tmp_path / "m.json"
        gio.write_manifest(path, manifest)
        assert gio.read_manifest(path) == manifest

    def test_numpy_number_config_runs_as_its_builtin_twin(self, tmp_path):
        plain = small_config(iterations=15, runs=2)
        numpy_cfg = dataclasses.replace(
            plain, param=np.float64(plain.param), k=np.int64(plain.k),
            bandwidth=np.int64(plain.bandwidth), sample_size=np.int32(plain.sample_size),
            iterations=np.int64(15), runs=np.int64(2), master_seed=np.uint32(plain.master_seed),
            n_stations=np.int64(plain.n_stations), stations_seed=np.int64(plain.stations_seed))
        stations = synthetic_stations(plain.n_stations, plain.stations_seed)
        want, got = run_experiment(plain, stations), run_experiment(numpy_cfg, stations)
        assert_array_equal(got.per_run, want.per_run)
        assert_array_equal(got.theory_paper.values, want.theory_paper.values)
        assert_array_equal(got.theory_exact.values, want.theory_exact.values)
        path = tmp_path / "m.json"
        gio.write_manifest(path, gio.build_manifest(got, stations, 0.0))
        assert gio.read_manifest(path)["config"] == gio.config_to_dict(plain)

    def test_integer_param_from_json_or_numpy_gives_one_config(self, tmp_path):
        from_json = gio.parse_config({**SMALL_CONFIG, "algorithm": "rls", "param": 1,
                                      "iterations": 15, "runs": 2})
        from_numpy = small_config(algorithm="rls", param=np.int64(1), iterations=15, runs=2)
        assert repr(from_json) == repr(from_numpy)
        stations = synthetic_stations(from_json.n_stations, from_json.stations_seed)
        blocks = []
        for i, config in enumerate((from_json, from_numpy)):
            path = tmp_path / f"m{i}.json"
            gio.write_manifest(path, gio.build_manifest(run_experiment(config, stations),
                                                        stations, 0.0))
            blocks.append(json.dumps(gio.read_manifest(path)["config"], sort_keys=True))
        assert blocks[0] == blocks[1]

    def test_lms_records_deviation(self, tmp_path):
        config = small_config(iterations=15, runs=2)
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        result = run_experiment(config, stations)
        # non-finite figures are written as null, so the file stays strict JSON;
        # here the literal curve dips below zero in the tail, so its deviations are nan
        deviation = dataclasses.replace(result.deviation, tail_se_db=math.inf)
        manifest = gio.build_manifest(dataclasses.replace(result, deviation=deviation),
                                      stations, 0.0)
        for key, value in dataclasses.asdict(deviation).items():
            assert manifest["deviation"][key] == (value if math.isfinite(value) else None)
        assert manifest["deviation"]["paper_max_abs_db"] is None
        assert manifest["deviation"]["paper_n_nonfinite"] > 0  # the null's cause
        assert manifest["deviation"]["tail_se_db"] is None
        assert manifest["deviation"]["n_tail"] == 8
        path = tmp_path / "m.json"
        gio.write_manifest(path, manifest)
        json.loads(path.read_text(), parse_constant=pytest.fail)

    def test_non_finite_float_refused_and_no_file_written(self, tmp_path, result):
        stations = synthetic_stations(result.config.n_stations, result.config.stations_seed)
        manifest = gio.build_manifest(result, stations, math.nan)
        path = tmp_path / "m.json"
        with pytest.raises(ValueError, match="not JSON compliant"):
            gio.write_manifest(path, manifest)
        assert not path.exists()

    def test_every_metadata_key_is_recorded(self):
        config = small_config(iterations=15, runs=2)
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        result = run_experiment(config, stations)
        manifest = gio.build_manifest(result, stations, 0.0)
        written_as = {"cw_digest": "covariance_digest"}
        for key, value in result.metadata.items():
            assert manifest[written_as.get(key, key)] == value, key

    def test_records_blas_threads_and_mc_lanes(self):
        config = small_config(iterations=15, runs=2)
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        manifest = gio.build_manifest(run_experiment(config, stations), stations, 0.0)
        assert manifest["blas_threads"] is None or type(manifest["blas_threads"]) is int
        assert manifest["mc_lanes"] == 1  # m = 6 draws per step: under the gate

    def test_rls_records_predicted_gap(self):
        lam = 0.7
        config = small_config(algorithm="rls", param=lam, iterations=15, runs=2)
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        manifest = gio.build_manifest(run_experiment(config, stations), stations, 0.0)
        assert manifest["spectral_radius"] == lam
        assert set(manifest["steady_state"]) == {"paper", "exact"}
        assert math.isclose(manifest["predicted_gap_db"], 10 * math.log10((1 + lam) / (1 - lam)),
                            rel_tol=1e-12)
        assert manifest["mu_max"] is None and manifest["stable"] is None

    def test_lms_records_stability_and_limits(self):
        config = small_config(iterations=15, runs=2)
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        result = run_experiment(config, stations)
        manifest = gio.build_manifest(result, stations, 0.0)
        model = prepare_experiment(config, stations)
        assert manifest["mu_max"] == model.mu_max and manifest["stable"] is True
        assert manifest["spectral_radius"] == float(
            np.max(np.abs(1 - config.param * model.gram_eigh[0])))
        assert manifest["steady_state"] == {
            mode: limits(model.recursion("lms", config.param))[mode] for mode in ("paper", "exact")}
        steady = manifest["steady_state"]
        assert manifest["predicted_gap_db"] == 10 * math.log10(steady["paper"] / steady["exact"])

        unstable = dataclasses.replace(config, param=1.05 * model.mu_max)
        with pytest.warns(RuntimeWarning, match="stability limit"):
            result = run_experiment(unstable, stations)
        manifest = gio.build_manifest(result, stations, 0.0)
        assert manifest["stable"] is False and manifest["spectral_radius"] > 1
        assert manifest["steady_state"] is None and manifest["predicted_gap_db"] is None

    def test_read_rejects_non_manifest(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"hello": 1}))
        with pytest.raises(DataError, match="not a run manifest"):
            gio.read_manifest(path)

    def test_read_rejects_bad_json_as_data_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text('{"config": ')
        with pytest.raises(DataError, match="not valid JSON"):
            gio.read_manifest(path)

    def test_rerun_from_manifest_config_reproduces_csv(self, tmp_path):
        config = small_config(iterations=25, runs=3)
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        result = run_experiment(config, stations)
        first = tmp_path / "first.csv"
        gio.write_results_csv(first, result)
        manifest = gio.build_manifest(result, stations, 0.0)
        gio.write_manifest(tmp_path / "m.json", manifest)

        reloaded = gio.read_manifest(tmp_path / "m.json")
        config2 = gio.parse_config(reloaded["config"])
        second = tmp_path / "second.csv"
        gio.write_results_csv(second, run_experiment(config2, stations))
        assert first.read_bytes() == second.read_bytes()


class TestByteOrderMark:
    """Every input may start with the UTF-8 byte-order mark that spreadsheet
    programs and some editors write; it reads like the plain file."""

    @staticmethod
    def marked_copy(path):
        marked = path.with_name("marked-" + path.name)
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        return marked

    def test_config_runs_like_the_plain_file(self, tmp_path, capsys):
        plain = tmp_path / "config.json"
        plain.write_text(json.dumps(SMALL_CONFIG))
        cache = str(tmp_path / "cache")
        for config, out in ((plain, "plain.csv"), (self.marked_copy(plain), "marked.csv")):
            assert main(["theory", str(config), "--out", str(tmp_path / out),
                         "--cache-dir", cache]) == 0, capsys.readouterr().err
        assert (tmp_path / "marked.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_results_csv_compares_like_the_plain_file(self, tmp_path, result):
        plain = tmp_path / "res.csv"
        gio.write_results_csv(plain, result)
        for csv_path, report in ((plain, "plain.json"), (self.marked_copy(plain), "marked.json")):
            assert main(["compare", str(csv_path), "--json", str(tmp_path / report)]) == 0
        assert (json.loads((tmp_path / "marked.json").read_text())
                == json.loads((tmp_path / "plain.json").read_text()))

    def test_manifest_reads_like_the_plain_file(self, tmp_path, result):
        plain = tmp_path / "m.json"
        stations = synthetic_stations(result.config.n_stations, result.config.stations_seed)
        gio.write_manifest(plain, gio.build_manifest(result, stations, 0.5))
        assert gio.read_manifest(self.marked_copy(plain)) == gio.read_manifest(plain)


class TestCsvWriters:
    @staticmethod
    def write_each(tmp_path, result, cache_pieces):
        stations, graph, _ = cache_pieces
        paths = {name: tmp_path / f"{name}.csv" for name in
                 ("results", "theory", "stations", "nodes", "edges")}
        gio.write_results_csv(paths["results"], result)
        gio.write_theory_csv(paths["theory"], result.t, result.theory_paper_db,
                             result.theory_exact_db)
        gio.write_station_csv(paths["stations"], stations)
        gio.write_node_list(paths["nodes"], stations)
        gio.write_edge_list(paths["edges"], stations, graph)
        return paths

    def test_every_line_ends_with_lf(self, tmp_path, result, cache_pieces):
        for name, path in self.write_each(tmp_path, result, cache_pieces).items():
            data = path.read_bytes()
            assert data.endswith(b"\n") and b"\r" not in data, name

    def test_node_and_edge_lists_parse_with_csv(self, tmp_path, result, cache_pieces):
        # the station table's read-back is TestStationCsv.test_round_trip_is_exact
        stations, graph, _ = cache_pieces
        paths = self.write_each(tmp_path, result, cache_pieces)
        with open(paths["nodes"], newline="") as fh:
            nodes = list(csv.reader(fh))
        assert nodes[0] == ["id", "lat", "lon"]
        assert [row[0] for row in nodes[1:]] == list(stations.ids)
        assert_array_equal([[float(c) for c in row[1:]] for row in nodes[1:]], stations.coords)
        with open(paths["edges"], newline="") as fh:
            edges = list(csv.reader(fh))
        ids = stations.ids
        assert edges == [["source", "target"]] + [[ids[i], ids[j]] for i, j in graph.edge_list()]


class TestGraphCache:
    def test_save_then_load_hit(self, tmp_path, cache_pieces):
        stations, _, basis = cache_pieces
        gio.save_graph_cache(tmp_path, stations, 3, basis)
        hit = gio.load_graph_cache(tmp_path, stations, 3)
        assert hit is not None
        assert_array_equal(hit.eigenvalues, basis.eigenvalues)
        assert_array_equal(hit.vectors, basis.vectors)

    def test_miss_on_other_k_or_stations(self, tmp_path, cache_pieces):
        stations, _, basis = cache_pieces
        gio.save_graph_cache(tmp_path, stations, 3, basis)
        assert gio.load_graph_cache(tmp_path, stations, 4) is None
        other = synthetic_stations(12, seed=6)
        assert gio.load_graph_cache(tmp_path, other, 3) is None

    def test_creates_cache_dir(self, tmp_path, cache_pieces):
        stations, _, basis = cache_pieces
        target = tmp_path / "fresh" / "nested"
        path = gio.save_graph_cache(target, stations, 3, basis)
        assert gio.load_graph_cache(target, stations, 3) is not None
        assert str(target) in path

    def test_file_with_adjacency_still_hits(self, tmp_path, cache_pieces):
        # caches written before the adjacency was dropped carry it as a fifth key
        stations, graph, basis = cache_pieces
        path = gio.save_graph_cache(tmp_path, stations, 3, basis)
        np.savez(path, digest=gio.station_digest(stations), k=3, adjacency=graph.adjacency,
                 eigenvalues=basis.eigenvalues, vectors=basis.vectors)
        hit = gio.load_graph_cache(tmp_path, stations, 3)
        assert hit is not None
        assert_array_equal(hit.vectors, basis.vectors)

    @pytest.mark.parametrize("command", ["run", "theory"])
    @pytest.mark.parametrize("damage", ["truncated", "no_digest"])
    def test_unreadable_cache_file_is_rebuilt(self, tmp_path, command, damage):
        config_path = write_config(tmp_path, iterations=5, runs=1)
        cache = tmp_path / "cache"
        clean, again = tmp_path / "clean.csv", tmp_path / "again.csv"
        assert main([command, config_path, "--out", str(clean), "--cache-dir", str(cache)]) == 0
        (npz,) = cache.glob("graph_*.npz")
        if damage == "truncated":
            npz.write_bytes(npz.read_bytes()[:200])
        else:
            with np.load(npz) as data:
                kept = {key: data[key] for key in data.files if key != "digest"}
            np.savez(npz, **kept)
        assert main([command, config_path, "--out", str(again), "--cache-dir", str(cache)]) == 0
        assert again.read_bytes() == clean.read_bytes()
        config = small_config()
        stations = synthetic_stations(config.n_stations, config.stations_seed)
        assert gio.load_graph_cache(cache, stations, config.k) is not None

    def test_build_graph_writes_spectrum_and_lists(self, tmp_path, capsys):
        stations_path = write_stations(tmp_path)
        cache = tmp_path / "cache"
        assert main(["build-graph", stations_path, "--k", "3", "--cache-dir", str(cache)]) == 0
        stations = gio.read_station_csv(stations_path)
        (npz,) = cache.glob(f"graph_{gio.station_digest(stations)[:16]}_k3.npz")
        with np.load(npz) as data:
            assert sorted(data.files) == ["digest", "eigenvalues", "k", "vectors"]
        (nodes,) = cache.glob("graph_*_k3_nodes.csv")
        (edges,) = cache.glob("graph_*_k3_edges.csv")
        assert nodes.read_text().splitlines()[1:] == [
            f"{sid},{lat!r},{lon!r}" for sid, (lat, lon) in
            zip(stations.ids, stations.coords.tolist())]
        ids = stations.ids
        assert edges.read_text().splitlines() == ["source,target"] + [
            f"{ids[i]},{ids[j]}" for i, j in build_knn_graph(stations, 3).edge_list()]


class TestCliBuildGraph:
    def test_summary_and_artifacts(self, tmp_path, capsys):
        stations_path = write_stations(tmp_path)
        cache = tmp_path / "cache"
        code = main(["build-graph", stations_path, "--k", "3",
                     "--cache-dir", str(cache)])
        assert code == 0
        out = capsys.readouterr().out
        assert "stations: 10" in out
        assert "edges:" in out and "spectrum:" in out
        npz = list(cache.glob("graph_*_k3.npz"))
        assert len(npz) == 1
        assert list(cache.glob("*_nodes.csv")) and list(cache.glob("*_edges.csv"))

    def test_bad_station_file_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("id,lat,lon,value\nx,oops,0,1\ny,0,0,1\n")
        code = main(["build-graph", str(bad), "--k", "2", "--cache-dir", str(tmp_path / "c")])
        assert code == 3
        assert "non-numeric" in capsys.readouterr().err


def test_run_experiment_writes_nothing_to_stdout(capfd):
    # perfbench/run.py takes its result from the last line of stdout
    run_experiment(small_config(iterations=20, runs=3))
    assert capfd.readouterr().out == ""


class TestCliRun:
    def test_writes_csv_and_manifest(self, tmp_path, capsys):
        config_path = write_config(tmp_path, iterations=20, runs=3)
        out = tmp_path / "res.csv"
        code = main(["run", config_path, "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert out.exists()
        manifest = gio.read_manifest(str(out) + ".manifest.json")
        assert manifest["config"]["iterations"] == 20
        assert sorted(manifest["stages"]) == ["prepare", "simulate", "theory"]
        assert all(math.isfinite(v) and v >= 0 for v in manifest["stages"].values())
        stdout = capsys.readouterr().out
        assert "tail mean |emp - theory|" in stdout

    def test_stdout_holds_only_the_report(self, tmp_path, capfd):
        config_path = write_config(tmp_path, iterations=20, runs=3)
        out = tmp_path / "res.csv"
        assert main(["run", config_path, "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        lines = capfd.readouterr().out.splitlines()
        assert len(lines) == 3
        assert lines[0] == f"wrote {out} (20 iterations, 3 runs)"
        assert lines[1] == f"manifest: {out}.manifest.json"
        assert lines[2].startswith("tail mean |emp - theory| dB: ")

    def test_summary_counts_nonfinite_tail_points(self, tmp_path, capsys):
        # on this config the literal curve dips below zero in the tail, so its
        # mean is nan; the summary and the manifest both say at how many points
        config_path = write_config(tmp_path, iterations=30, runs=4)
        out = tmp_path / "res.csv"
        assert main(["run", config_path, "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        deviation = gio.read_manifest(str(out) + ".manifest.json")["deviation"]
        assert deviation["paper_mean_abs_db"] is None and deviation["paper_n_nonfinite"] == 2
        assert deviation["exact_n_nonfinite"] == 0
        summary = capsys.readouterr().out.splitlines()[2]
        assert summary.startswith("tail mean |emp - theory| dB: paper nan (2 non-finite points), ")
        assert summary.endswith(" (0 non-finite points); burn-in 0.5")

    def test_repeat_run_byte_identical(self, tmp_path):
        config_path = write_config(tmp_path, iterations=15, runs=2)
        cache = str(tmp_path / "cache")
        first, second = tmp_path / "one.csv", tmp_path / "two.csv"
        main(["run", config_path, "--out", str(first), "--cache-dir", cache])
        main(["run", config_path, "--out", str(second), "--cache-dir", cache])
        assert first.read_bytes() == second.read_bytes()

    def test_config_names_the_station_table(self, tmp_path, capsys):
        synthetic = write_config(tmp_path, iterations=10, runs=2)
        stations_path = write_stations(tmp_path, n=10, seed=2018)
        named = write_config(tmp_path, name="named.json", iterations=10, runs=2,
                             stations_csv=stations_path)
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        cache = str(tmp_path / "cache")
        assert main(["run", synthetic, "--out", str(out_a), "--cache-dir", cache]) == 0
        assert main(["run", named, "--out", str(out_b), "--cache-dir", cache]) == 0
        # same synthetic table either way, so identical output
        assert out_a.read_bytes() == out_b.read_bytes()
        # the config is the one place that names the table
        for command in ("run", "theory"):
            with pytest.raises(SystemExit) as exc:
                main([command, synthetic, "--out", str(tmp_path / "c.csv"),
                      "--stations", stations_path])
            assert exc.value.code == 2
            assert "unrecognized arguments: --stations" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    def test_manifest_config_reruns_from_another_directory(self, tmp_path, monkeypatch):
        # a relative stations_csv is read against the working directory and
        # recorded by its absolute path
        here, there = tmp_path / "a", tmp_path / "b"
        here.mkdir()
        there.mkdir()
        write_stations(here, n=10, seed=2018, name="st.csv")
        write_config(here, iterations=10, runs=2, stations_csv="st.csv")
        monkeypatch.chdir(here)
        assert main(["run", "config.json", "--out", "res.csv", "--cache-dir", "cache"]) == 0
        manifest = gio.read_manifest(str(here / "res.csv.manifest.json"))
        assert manifest["config"]["stations_csv"] == str(here / "st.csv")
        (there / "config.json").write_text(json.dumps(manifest["config"]))
        monkeypatch.chdir(there)
        assert main(["run", "config.json", "--out", "res.csv", "--cache-dir", "cache"]) == 0
        assert (there / "res.csv").read_bytes() == (here / "res.csv").read_bytes()


class TestCliTheory:
    def test_theory_columns_match_run_output(self, tmp_path):
        config_path = write_config(tmp_path, iterations=25, runs=2)
        cache = str(tmp_path / "cache")
        run_csv, th_csv = tmp_path / "run.csv", tmp_path / "th.csv"
        assert main(["run", config_path, "--out", str(run_csv), "--cache-dir", cache]) == 0
        assert main(["theory", config_path, "--out", str(th_csv), "--cache-dir", cache]) == 0
        run_rows = [line.split(",") for line in run_csv.read_text().splitlines()[1:]]
        th_rows = [line.split(",") for line in th_csv.read_text().splitlines()[1:]]
        assert len(run_rows) == len(th_rows) == 25
        for run_row, th_row in zip(run_rows, th_rows):
            assert run_row[0] == th_row[0]
            assert run_row[2:4] == th_row[1:3]

    def test_rls_theory_writes_without_warnings(self, tmp_path, recwarn):
        # the literal transient expression can go negative, which has no dB
        # value; the writer must emit nan quietly rather than warn
        config_path = write_config(tmp_path, algorithm="rls", param=0.7,
                                   iterations=30, runs=2)
        th_csv = tmp_path / "th.csv"
        code = main(["theory", config_path, "--out", str(th_csv),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 0
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestCliCompare:
    def make_results(self, tmp_path):
        config_path = write_config(tmp_path, iterations=30, runs=4)
        out = tmp_path / "res.csv"
        main(["run", config_path, "--out", str(out), "--cache-dir", str(tmp_path / "cache")])
        return out

    def test_report_printed(self, tmp_path, capsys):
        out = self.make_results(tmp_path)
        capsys.readouterr()
        assert main(["compare", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "paper:" in stdout and "exact:" in stdout
        assert "over 15 iterations" in stdout  # default burn-in keeps half of 30

    def test_json_report(self, tmp_path, capsys):
        out = self.make_results(tmp_path)
        report_path = tmp_path / "report.json"
        assert main(["compare", str(out), "--burn-in", "0.8", "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["n_tail"] == 6
        assert set(report["modes"]) == {"paper", "exact"}
        assert report["modes"]["exact"]["max_abs_db"] >= report["modes"]["exact"]["mean_abs_db"]

    @staticmethod
    def compare_with_nan_in_tail(tmp_path) -> str:
        """Compare a results CSV whose literal column has one nan tail point;
        returns the text of the --json report."""
        path = tmp_path / "res.csv"
        rows = [f"{t},-{t}.5,-{t}.0,-{t}.25" for t in range(1, 9)]
        rows[6] = "7,-7.5,nan,-7.25"
        path.write_text(",".join(gio.RESULTS_HEADER) + "\n" + "\n".join(rows) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["compare", str(path), "--burn-in", "0.5", "--json", str(report_path)]) == 0
        return report_path.read_text()

    def test_counts_nonfinite_tail_points(self, tmp_path, capsys):
        # a negative literal value is written as nan; it still makes the
        # paper max nan, and the report says how many points did so
        report = json.loads(self.compare_with_nan_in_tail(tmp_path))
        assert report["modes"]["paper"]["n_nonfinite"] == {"nan": 1, "-inf": 0, "+inf": 0}
        assert report["modes"]["exact"]["n_nonfinite"] == {"nan": 0, "-inf": 0, "+inf": 0}
        assert report["modes"]["paper"]["max_abs_db"] is None
        assert report["modes"]["exact"]["max_abs_db"] == 0.25
        stdout = capsys.readouterr().out
        assert "(1 nan, 0 -inf, 0 +inf points)" in stdout
        assert "(0 nan, 0 -inf, 0 +inf points)" in stdout

    def test_counts_positive_infinite_tail_points_without_a_warning(self, tmp_path, capsys,
                                                                   recwarn):
        # a diverging run writes inf; inf - inf is nan, and numpy would warn of it
        path = tmp_path / "res.csv"
        rows = [f"{t},-{t}.5,-{t}.0,-{t}.25" for t in range(1, 9)]
        rows[5], rows[6] = "6,inf,-6.0,inf", "7,inf,nan,inf"
        path.write_text(",".join(gio.RESULTS_HEADER) + "\n" + "\n".join(rows) + "\n")
        report_path = tmp_path / "report.json"
        assert main(["compare", str(path), "--burn-in", "0.5", "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["modes"]["paper"]["n_nonfinite"] == {"nan": 1, "-inf": 0, "+inf": 2}
        assert report["modes"]["exact"]["n_nonfinite"] == {"nan": 0, "-inf": 0, "+inf": 2}
        assert report["modes"]["exact"]["max_abs_db"] is None
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        stdout = capsys.readouterr().out
        assert "(1 nan, 0 -inf, 2 +inf points)" in stdout
        assert "(0 nan, 0 -inf, 2 +inf points)" in stdout

    def test_nonfinite_deviation_written_as_strict_json_null(self, tmp_path):
        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        report = json.loads(self.compare_with_nan_in_tail(tmp_path), parse_constant=reject)
        paper, exact = report["modes"]["paper"], report["modes"]["exact"]
        assert paper["max_abs_db"] is None and paper["mean_abs_db"] is None
        assert exact["max_abs_db"] == 0.25 and exact["mean_abs_db"] == 0.25

    @pytest.mark.parametrize("burn_in", [0.0, 0.3, 0.5, 0.8, 0.99])
    def test_tail_is_the_one_compare_takes(self, tmp_path, result, burn_in):
        path, report_path = tmp_path / "res.csv", tmp_path / "report.json"
        gio.write_results_csv(path, result)
        assert main(["compare", str(path), "--burn-in", str(burn_in),
                     "--json", str(report_path)]) == 0
        report, stats = json.loads(report_path.read_text()), compare(result, burn_in)
        assert report["n_tail"] == stats.n_tail
        for mode in ("paper", "exact"):
            got = report["modes"][mode]
            for key in ("max_abs_db", "mean_abs_db"):
                want = getattr(stats, f"{mode}_{key}")
                assert got[key] == (want if math.isfinite(want) else None), (mode, key)
            # no tail point here is nan in one curve and -inf in the other
            assert sum(got["n_nonfinite"].values()) == getattr(stats, f"{mode}_n_nonfinite")

    def test_bad_burn_in_exits_2(self, tmp_path, capsys):
        out = self.make_results(tmp_path)
        assert main(["compare", str(out), "--burn-in", "1.5"]) == 2
        assert "--burn-in" in capsys.readouterr().err

    def test_burn_in_checked_before_reading_the_csv(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "missing.csv"), "--burn-in", "2"]) == 2
        assert "--burn-in must lie in [0, 1), got 2.0" in capsys.readouterr().err


def readme_commands() -> list[str]:
    """Every `gspest ...` line of the README's sh code blocks."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```")[1::2]
    return [line for block in blocks if block.startswith("sh\n")
            for line in block.splitlines() if line.startswith("gspest ")]


class TestReadmeExamples:
    def test_readme_shows_every_subcommand(self):
        assert {shlex.split(line)[1] for line in readme_commands()} == {
            "build-graph", "run", "theory", "compare"}

    @pytest.mark.parametrize("line", readme_commands(), ids=lambda line: shlex.split(line)[1])
    def test_readme_command_parses(self, line):
        # parsing only: a flag the README shows must be one the parser has
        cli.build_parser().parse_args(shlex.split(line)[1:])


class TestCliErrors:
    def test_missing_config_file_exits_3(self, tmp_path, capsys):
        code = main(["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o.csv")])
        assert code == 3
        assert "file not found" in capsys.readouterr().err

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, runs=0)
        code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "runs" in capsys.readouterr().err

    @pytest.mark.parametrize("command, name", [("run", "runs"), ("theory", "iterations")],
                             ids=["run", "theory"])
    def test_bad_config_value_exits_2_before_building_the_graph(self, tmp_path, capsys,
                                                                command, name):
        code = main([command, write_config(tmp_path, **{name: 0}),
                     "--out", str(tmp_path / "o.csv"), "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert f"{name} must be an integer >= 1, got 0" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command, flag", [
        ("run", "--seed"), ("run", "--runs"), ("run", "--iterations"), ("run", "--manifest"),
        ("theory", "--seed"), ("theory", "--runs"), ("theory", "--iterations")])
    def test_removed_flag_exits_2_writing_nothing(self, tmp_path, capsys, command, flag):
        # every run setting comes from the config, and the manifest path from --out
        config_path = write_config(tmp_path)
        before = sorted(tmp_path.iterdir())
        with pytest.raises(SystemExit) as exc:
            main([command, config_path, "--out", str(tmp_path / "o.csv"),
                  "--cache-dir", str(tmp_path / "cache"), flag, "2"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_non_finite_scenario_exits_2_before_building_the_graph(self, tmp_path, capsys):
        config_path = write_config(tmp_path, scenario=[math.nan, 0.0])
        code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "scenario" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_boolean_scenario_entry_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, scenario=[True, 0])
        code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        err = capsys.readouterr().err
        assert "scenario" in err and "boolean" in err
        assert not (tmp_path / "o.csv").exists()

    def test_string_scenario_pair_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, scenario=["0.05", "1e-2"])
        code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "scenario" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("value", [0, True])
    def test_stations_csv_not_a_path_exits_2(self, tmp_path, capsys, value):
        # open() takes 0 and True as file descriptors: stdin and stdout
        config_path = write_config(tmp_path, stations_csv=value)
        header = b"id,lat,lon,value\n"
        read_end, write_end = os.pipe()
        os.write(write_end, header)
        os.close(write_end)
        saved = os.dup(0)
        os.dup2(read_end, 0)
        try:
            code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                         "--cache-dir", str(tmp_path / "cache")])
            left = os.read(0, 64)
        finally:
            os.dup2(saved, 0)
            os.close(saved)
            os.close(read_end)
        assert code == 2
        assert "stations_csv" in capsys.readouterr().err
        assert left == header

    @pytest.mark.parametrize("command", ["build-graph", "theory"])
    def test_non_utf8_input_exits_3_naming_the_file(self, tmp_path, capsys, command):
        # a Latin-1 file: "ã" is the one byte 0xe3, which is no UTF-8 sequence
        if command == "build-graph":
            path = tmp_path / "stations.csv"
            path.write_bytes("id,lat,lon,value\nSão,-23.5,-46.6,20\nRio,-22.9,-43.2,25\n"
                             "Bsb,-15.8,-47.9,22\n".encode("latin-1"))
            argv = ["build-graph", str(path), "--k", "1"]
        else:
            path = tmp_path / "config.json"
            data = {**SMALL_CONFIG, "stations_csv": "São.csv"}
            path.write_bytes(json.dumps(data, ensure_ascii=False).encode("latin-1"))
            argv = ["theory", str(path), "--out", str(tmp_path / "o.csv")]
        code = main(argv + ["--cache-dir", str(tmp_path / "cache")])
        assert code == 3
        assert capsys.readouterr().err.splitlines()[1:] == [
            f"- {path}: not UTF-8 text (cannot decode byte 0xe3); save it as UTF-8"]
        assert not (tmp_path / "cache").exists()

    def test_workers_key_rejected(self, tmp_path, capsys):
        config_path = write_config(tmp_path, workers=1)
        code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "unknown key 'workers'" in capsys.readouterr().err

    def test_store_per_run_key_rejected(self, tmp_path, capsys):
        # store_per_run was a config field once; a config that still sets it is rejected
        config_path = write_config(tmp_path, store_per_run=True)
        code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert "unknown key 'store_per_run'" in capsys.readouterr().err

    def test_linalg_error_exits_2(self, tmp_path, capsys, monkeypatch):
        # LinAlgError subclasses ValueError, so it takes the one-line exit-2 path
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cli, "run_experiment", fail)
        code = main(["run", write_config(tmp_path), "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["error: Eigenvalues did not converge"]
        assert "Traceback" not in captured.err + captured.out

    def test_random_sampling_without_recoverable_set_exits_2(self, tmp_path, capsys):
        # on the 299-station table at k=8, f=120, m=150, master seed 23 draws
        # no recoverable random set within the attempt limit
        config_path = write_config(tmp_path, sampling_strategy="random", k=8, bandwidth=120,
                                   sample_size=150, master_seed=23, n_stations=299)
        code = main(["run", config_path, "--out", str(tmp_path / "o.csv"),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "error: no recoverable sampling set found in 100 attempts"]

    def test_run_out_directory_exits_2(self, tmp_path, capsys):
        config_path = write_config(tmp_path, iterations=5, runs=1)
        out = tmp_path / "out"
        out.mkdir()
        code = main(["run", config_path, "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {os.strerror(errno.EISDIR)}: {out}"]

    @pytest.mark.parametrize("command, stage", [("run", "run_experiment"),
                                                ("theory", "prepare_experiment")])
    def test_out_path_checked_before_computing(self, tmp_path, monkeypatch, capsys,
                                               command, stage):
        def fail(*args, **kwargs):
            raise AssertionError(f"{stage} ran before the output path was checked")

        monkeypatch.setattr(cli, stage, fail)
        config_path = write_config(tmp_path, iterations=5, runs=1)
        cache = str(tmp_path / "cache")
        directory = tmp_path / "out"
        directory.mkdir()
        assert main([command, config_path, "--out", str(directory), "--cache-dir", cache]) == 2
        missing = tmp_path / "no" / "such" / "res.csv"
        assert main([command, config_path, "--out", str(missing), "--cache-dir", cache]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"error: {os.strerror(errno.EISDIR)}: {directory}",
            f"file not found: {missing}"]

    def test_run_manifest_path_checked_before_simulating(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("run_experiment ran before the manifest path was checked")

        monkeypatch.setattr(cli, "run_experiment", fail)
        config_path = write_config(tmp_path, iterations=5, runs=1)
        out = tmp_path / "res.csv"
        manifest = tmp_path / "res.csv.manifest.json"
        manifest.mkdir()
        code = main(["run", config_path, "--out", str(out), "--cache-dir", str(tmp_path / "c")])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {os.strerror(errno.EISDIR)}: {manifest}"]
        assert not out.exists()  # the probe of --out leaves nothing behind

    def test_run_output_naming_another_file_exits_2(self, tmp_path, monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise AssertionError("run_experiment ran before the paths were checked")

        out = tmp_path / "res.csv"
        config_path = write_config(tmp_path, name="res.csv.manifest.json", iterations=5, runs=1)
        cache = tmp_path / "cache"
        before = pathlib.Path(config_path).read_bytes()
        monkeypatch.setattr(cli, "run_experiment", fail)
        assert main(["run", config_path, "--out", str(out), "--cache-dir", str(cache)]) == 2
        assert main(["run", config_path, "--out", config_path, "--cache-dir", str(cache)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: manifest {config_path} is the same file as config {config_path}",
            f"error: --out {config_path} is the same file as config {config_path}"]
        assert pathlib.Path(config_path).read_bytes() == before
        assert not out.exists() and not cache.exists()

    def test_compare_json_naming_its_input_exits_2(self, tmp_path, capsys):
        results = tmp_path / "res.csv"
        assert main(["run", write_config(tmp_path, iterations=5, runs=1), "--out", str(results),
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        before = results.read_bytes()
        capsys.readouterr()
        assert main(["compare", str(results), "--json", str(results)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --json {results} is the same file as results {results}"]
        assert results.read_bytes() == before

    def test_compare_json_path_checked_before_reading_the_csv(self, tmp_path, monkeypatch,
                                                             capsys):
        def fail(*args, **kwargs):
            raise AssertionError("the results CSV was read before --json was checked")

        monkeypatch.setattr(gio, "read_results_csv", fail)
        results = tmp_path / "res.csv"
        missing = tmp_path / "nodir" / "rep.json"
        assert main(["compare", str(results), "--json", str(missing)]) == 3
        assert capsys.readouterr().out == ""
        assert not missing.parent.exists()
        assert main(["compare", str(results), "--json", str(tmp_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: {os.strerror(errno.EISDIR)}: {tmp_path}"]

    def test_compare_directory_exits_2(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {os.strerror(errno.EISDIR)}: {tmp_path}"]

    def test_malformed_results_csv_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "res.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert main(["compare", str(bad)]) == 3
        assert "header" in capsys.readouterr().err

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "gspest" in capsys.readouterr().out
