"""CLI: ingestion, config validation, fit/predict/experiment round trips."""

import codecs
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import orjson
import pytest

from graphkern import (
    KernelGrid, SolverConfig, build_dictionary, cli, experiment, mkl, optimize, solver,
)

from . import oracles


def write_measurements(path, names, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows(rows)


def write_coords(path, entries, header=True):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        if header:
            writer.writerow(["node", "lat", "lon"])
        writer.writerows(entries)


@pytest.fixture
def csv_dataset(tmp_path):
    rng = np.random.default_rng(0)
    names = ["alpha_town", "beta_town", "gamma_town"]
    rows = rng.normal(5.0, 2.0, size=(13, 3)).round(3).tolist()
    measurements = tmp_path / "measurements.csv"
    coords = tmp_path / "coords.csv"
    write_measurements(measurements, names, rows)
    write_coords(
        coords,
        [["alpha_town", 59.3, 18.1], ["beta_town", 57.7, 12.0], ["gamma_town", 55.6, 13.0]],
    )
    return measurements, coords


class TestIngest:
    def test_rows_to_pairs(self, csv_dataset):
        measurements, coords = csv_dataset
        matrix, node_coords, _ = cli.ingest_dataset(measurements, coords)
        assert matrix.shape == (13, 3)  # 13 rows give 12 (input, target) pairs
        assert node_coords.num_nodes == 3
        assert node_coords.mode == "geodesic"

    def test_measurements_read_without_a_python_float_per_cell(self, tmp_path):
        rng = np.random.default_rng(1)
        values = rng.normal(size=(400, 100))
        m = tmp_path / "m.csv"
        write_measurements(m, [f"n{i}" for i in range(100)], values.tolist())
        tracemalloc.start()
        try:
            _, matrix = cli._read_measurements(m)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(matrix, values)
        # a list of Python floats per row held about 15 times the matrix
        assert peak < 4 * values.nbytes, f"peak traced allocation {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize(
        "body",
        [
            "\n".join(",".join(repr(v) for v in row) for row in
                      np.random.default_rng(2).normal(scale=1e3, size=(20, 3))) + "\n",
            "1.5,2,3\r\n4,5,6\r\n",
            "1.5,2,3\r4,5,6\r",
            ' 1.5 ,"2", +.5\n\n  \n1e-400,-0,1.\n,,\n',
            "1_0,2,3\n4,5,٣\n",  # underscores and non-ASCII digits, as float() reads them
            "1,2,3\n4,5\n",
            "1,2,3\n4,5,6,7\n",
            "1,2\n4,5\n",
            "1,2,3\n4,,6\n",
            "1,2,3\nnan,5,6\n",
            "1,2,3\n4,5,1e400\n",
            '1,2,3\n4,"5,5",6\n',
            "1,2,3\n",
            "",
            "-0,1,2\n3,-0 ,-0",  # a bare -0 ends a cell, a padded cell and the file
            "1e-400,-1e-400,1\n2,3,4\n",
            "123456789012345678901234567890,2,3\n4,5,6\n",
            "1E5,2e+3,1e-0\n4,5,6\n",
            "00,1,2\n3,4,5\n",
            "1,2,3],[4,5,6\n7,8,9\n",  # brackets must not make two rows of one line
            "1,2\n3,4\n5,6\n",  # six cells, as in two rows of three
            "".join(f"{i},{i}.5,-{i}e-3\n" for i in range(129)) + "1,x,3\n",
        ],
        ids=["repr", "crlf", "cr", "spacing", "float-syntax", "short-row", "long-row",
             "narrow", "missing", "nan", "overflow", "quoted-comma", "one-row", "no-rows",
             "negative-zero", "underflow", "long-integer", "exponent-syntax", "leading-zero",
             "brackets", "narrow-rows-fill-the-width", "bad-cell-third-block"],
    )
    def test_measurements_read_as_cell_by_cell(self, tmp_path, body):
        m = tmp_path / "m.csv"
        m.write_text("a,b,c\n" + body, newline="")

        def by_cell():
            with open(m, newline="") as fh:
                reader = csv.reader(fh)
                names = [c.strip() for c in next(reader)]
                return names, cli._read_cells(reader, m, names, 2)

        try:
            expected = by_cell()
        except cli.ConfigError as err:
            with pytest.raises(cli.ConfigError) as got:
                cli._read_measurements(m)
            assert str(got.value) == str(err)
            return
        names, matrix = cli._read_measurements(m)
        assert names == expected[0]
        np.testing.assert_array_equal(matrix.view(np.uint64), expected[1].view(np.uint64))

    def test_number_rows_written_as_csv_writer_writes_them(self, tmp_path):
        rng = np.random.default_rng(3)
        matrix = rng.normal(scale=1e3, size=(150, 9))
        special = [0.0, -0.0, 1e-4, 9.99e-5, 5e-324, 1e16, -1.5e300, 1e-5, 9999999999999998.0,
                   math.inf, -math.inf, math.nan]
        for i, v in enumerate(special):
            matrix[10 * i + 3, i % 9] = v  # rows in each of the three blocks
        matrix[70] = 0.0
        matrix[140] = -0.0
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        with open(got, "w", newline="") as fh:
            cli._write_number_rows(fh, matrix)
        with open(expected, "w", newline="") as fh:
            csv.writer(fh).writerows([[repr(v) for v in row] for row in matrix.tolist()])
        assert got.read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("shape", [(150, 9), (1, 200), (256, 200)])
    def test_matrix_orjson_writes_as_repr_written_as_csv_writer_writes_it(self, tmp_path,
                                                                          shape):
        # magnitudes in [1e-4, 1e16), where orjson writes every value as repr does
        rng = np.random.default_rng(shape[0])
        matrix = rng.choice([-1.0, 1.0], size=shape) * 10.0 ** rng.uniform(-4, 16, size=shape)
        matrix[0, 0] = 0.0
        got, expected = tmp_path / "got.csv", tmp_path / "expected.csv"
        with open(got, "w", newline="") as fh:
            cli._write_number_rows(fh, matrix)
        with open(expected, "w", newline="") as fh:
            csv.writer(fh).writerows(matrix.tolist())
        assert got.read_bytes() == expected.read_bytes()

    def test_two_rows_one_pair(self, tmp_path):
        m = tmp_path / "m.csv"
        c = tmp_path / "c.csv"
        write_measurements(m, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        write_coords(c, [["a", 10.0, 10.0], ["b", 11.0, 11.0]])
        matrix, _, _ = cli.ingest_dataset(m, c)
        assert matrix.shape == (2, 2)

    def test_non_numeric_cell_names_location(self, tmp_path):
        m = tmp_path / "m.csv"
        c = tmp_path / "c.csv"
        write_measurements(m, ["a", "b"], [[1.0, 2.0], ["oops", 4.0], [5.0, 6.0]])
        write_coords(c, [["a", 10.0, 10.0], ["b", 11.0, 11.0]])
        with pytest.raises(cli.ConfigError, match="line 3.*column 1"):
            cli.ingest_dataset(m, c)

    def test_missing_value_reported(self, tmp_path):
        m = tmp_path / "m.csv"
        c = tmp_path / "c.csv"
        write_measurements(m, ["a", "b"], [[1.0, 2.0], ["", 4.0]])
        write_coords(c, [["a", 10.0, 10.0], ["b", 11.0, 11.0]])
        with pytest.raises(cli.ConfigError, match="missing value"):
            cli.ingest_dataset(m, c)

    def test_name_mismatch(self, tmp_path):
        m = tmp_path / "m.csv"
        c = tmp_path / "c.csv"
        write_measurements(m, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        write_coords(c, [["a", 10.0, 10.0], ["z", 11.0, 11.0]])
        with pytest.raises(cli.ConfigError, match="differ"):
            cli.ingest_dataset(m, c)

    def test_empty_measurements_file(self, tmp_path, csv_dataset):
        m = tmp_path / "empty.csv"
        m.write_text("")
        with pytest.raises(cli.ConfigError, match=f"^{m}: empty measurements file$"):
            cli.ingest_dataset(m, csv_dataset[1])

    @pytest.mark.parametrize("header", [True, False])
    def test_coordinates_without_rows(self, tmp_path, csv_dataset, header):
        c = tmp_path / "c.csv"
        write_coords(c, [], header=header)
        with pytest.raises(cli.ConfigError, match=f"^{c}: no coordinate rows found$"):
            cli.ingest_dataset(csv_dataset[0], c)

    def test_coords_without_header(self, tmp_path):
        m = tmp_path / "m.csv"
        c = tmp_path / "c.csv"
        write_measurements(m, ["a", "b"], [[1.0, 2.0], [3.0, 4.0]])
        write_coords(c, [["a", 10.0, 10.0], ["b", 11.0, 11.0]], header=False)
        matrix, node_coords, _ = cli.ingest_dataset(m, c)
        assert node_coords.num_nodes == 2


def synthetic_config(tmp_path, **overrides):
    cfg = {
        "synthetic": {"num_nodes": 8, "num_pairs": 14, "num_modes": 3},
        "kernel_grid": {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 12},
        "alpha": 0.1,
        "beta": 2.0,
        "optimizer": {"max_iterations": 60},
        "experiment": {
            "n_train_values": [4, 6],
            "n_realizations": 2,
            "params_by_n_train": {"4": [0.02, 5.5], "6": [0.05, 5.5]},
        },
        "seed": 11,
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def edit_config(path, keys, value):
    """Set the entry at the key path ``keys`` of the config file at ``path``."""
    cfg = json.loads(path.read_text())
    block = cfg
    for key in keys[:-1]:
        block = block[key]
    block[keys[-1]] = value
    path.write_text(json.dumps(cfg))  # NaN and Infinity as JSON literals


def run_on_config(command, path, out):
    """Run a subcommand on a config; ``validate-config`` takes no ``--out``."""
    argv = [command, "--config", str(path)]
    if command != "validate-config":
        argv += ["--out", str(out)]
    return cli.main(argv)


def assert_input_error(capsys, rc):
    """Exit 2 with a one-line ``error:`` message and no traceback."""
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


class TestValidateConfig:
    def test_good_config(self, tmp_path, capsys):
        path = synthetic_config(tmp_path)
        assert cli.main(["validate-config", "--config", str(path)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_missing_file_exit_code(self, tmp_path, capsys):
        rc = cli.main(["validate-config", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "nope.json" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    def test_non_utf8_config_exit_code(self, tmp_path, capsys, command):
        path = synthetic_config(tmp_path)
        path.write_bytes(path.read_bytes().replace(b'"seed": 11', b'"seed": "\xff"'))
        rc = run_on_config(command, path, tmp_path / "out")
        assert "invalid JSON" in assert_input_error(capsys, rc)
        assert not (tmp_path / "out").exists()

    def test_both_modes_rejected(self, tmp_path, capsys):
        path = synthetic_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["data"] = {"measurements": "x.csv", "coordinates": "y.csv"}
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate-config", "--config", str(path)]) == 2

    def test_bad_optimizer_value(self, tmp_path):
        path = synthetic_config(tmp_path, optimizer={"mu0": -1.0})
        assert cli.main(["validate-config", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "overrides",
        [{"optimizer": {"mu0": 10**400}}, {"synthetic": {"num_nodes": 8, "num_pairs": 10**400}}],
    )
    def test_number_beyond_float_range(self, tmp_path, capsys, overrides):
        path = synthetic_config(tmp_path, **overrides)
        assert_input_error(capsys, cli.main(["validate-config", "--config", str(path)]))

    @pytest.mark.parametrize("bound", [{"hi": math.inf}, {"lo": math.nan}])
    def test_non_finite_grid_span(self, tmp_path, capsys, bound):
        grid = {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 12}
        path = synthetic_config(tmp_path, kernel_grid={**grid, **bound})
        err = assert_input_error(capsys, cli.main(["validate-config", "--config", str(path)]))
        assert "invalid parameter span" in err

    @pytest.mark.parametrize("bound", [{"lo": math.nan}, {"hi": math.inf}, {"lo": -math.inf}])
    def test_non_finite_linear_grid_span(self, tmp_path, capsys, bound):
        # a linear grid uses no bounds, but a model file records them, and
        # one holding null would load in no predict
        grid = {"family": "linear", "lo": 0.01, "hi": 10.0, "count": 2}
        path = synthetic_config(tmp_path, kernel_grid={**grid, **bound})
        for argv in (["validate-config"], ["fit", "--out", str(tmp_path / "out")],
                     ["experiment", "--out", str(tmp_path / "exp")]):
            err = assert_input_error(capsys, cli.main([*argv, "--config", str(path)]))
            assert "invalid parameter span" in err
        assert not (tmp_path / "out").exists() and not (tmp_path / "exp").exists()

    def test_unknown_kernel_family(self, tmp_path):
        path = synthetic_config(
            tmp_path, kernel_grid={"family": "poly", "lo": 0.1, "hi": 1.0, "count": 3}
        )
        assert cli.main(["validate-config", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "grid_search",
        [
            {"betas": [0.0, 5.5]},  # no alphas
            {"alphas": [], "betas": [0.0, 5.5]},
            {"alphas": [0.1], "betas": [-1.0]},
            {"alphas": [0.1, math.inf], "betas": [0.0]},
        ],
    )
    def test_bad_grid_search_block(self, tmp_path, capsys, grid_search):
        path = synthetic_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["experiment"]["grid_search"] = grid_search
        path.write_text(json.dumps(cfg))
        assert_input_error(capsys, cli.main(["validate-config", "--config", str(path)]))
        rc = cli.main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
        assert_input_error(capsys, rc)

    @pytest.mark.parametrize(
        "params", [[math.nan, 5.5], [0.02, math.inf], [0.02], [0.02, 5.5, 9.0]]
    )
    def test_bad_params_by_n_train(self, tmp_path, capsys, params):
        path = synthetic_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["experiment"]["params_by_n_train"]["4"] = params
        path.write_text(json.dumps(cfg))
        assert_input_error(capsys, cli.main(["validate-config", "--config", str(path)]))
        rc = cli.main(["experiment", "--config", str(path), "--out", str(tmp_path / "out")])
        assert_input_error(capsys, rc)

    def test_training_size_without_test_pairs_exit_code(self, tmp_path, capsys):
        path = synthetic_config(tmp_path, synthetic={"num_nodes": 8, "num_pairs": 20})
        cfg = json.loads(path.read_text())
        cfg["experiment"]["n_train_values"] = [4, 20]
        path.write_text(json.dumps(cfg))
        rc = cli.main(["validate-config", "--config", str(path)])
        assert "[20]" in assert_input_error(capsys, rc)

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize(
        "keys, value",
        [
            (("optimizer", "q"), 1.5),
            (("optimizer", "max_iterations"), 2.9),
            (("kernel_grid", "count"), 8.5),
            (("experiment", "n_realizations"), 2.5),
            (("experiment", "n_train_values"), [4.5]),
            (("experiment", "n_train_values"), [True]),
            (("seed",), 1.5),
            (("seed",), True),
            (("synthetic", "num_pairs"), 12.5),
            (("optimizer", "q"), "1"),  # a string of digits is no integer
            (("seed",), "3"),
            (("synthetic", "num_pairs"), "14"),
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
    )
    def test_fractional_or_boolean_integer_exit_code(self, tmp_path, capsys, command, keys,
                                                      value):
        path = synthetic_config(tmp_path)
        edit_config(path, keys, value)
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert f"{'.'.join(keys)}: expected an integer" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("alpha",), True, "alpha: expected a number, got True"),
            (("beta",), "1.0", "beta: expected a number, got '1.0'"),
            (("kernel_grid", "lo"), "0.01", "kernel_grid.lo: expected a number, got '0.01'"),
            (("optimizer", "mu0"), False, "optimizer.mu0: expected a number, got False"),
            (("experiment", "snr_db"), "0", "experiment.snr_db: expected a number, got '0'"),
            (("experiment", "params_by_n_train"), {"4": ["0.02", 5.5]},
             "experiment.params_by_n_train[4]: expected a number, got '0.02'"),
            (("experiment", "grid_search"), {"alphas": [True], "betas": [1.0]},
             "experiment.grid_search.alphas: expected a number, got True"),
            (("synthetic", "mean_sq_distance"), "2.0",
             "synthetic.mean_sq_distance: expected a number, got '2.0'"),
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
    )
    def test_boolean_or_string_number_exit_code(self, tmp_path, capsys, command, keys, value,
                                                message):
        # float() would read true as 1.0 and "0.01" as 0.01
        path = synthetic_config(tmp_path)
        edit_config(path, keys, value)
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "experiment"])
    @pytest.mark.parametrize("bound", [{"lo": 1e-320}, {"hi": 1e308}], ids=["lo", "hi"])
    def test_grid_bound_at_the_ends_of_float_range_runs(self, tmp_path, command, bound):
        # -2 s2 or a distance over it leaves float range; no RuntimeWarning escapes
        grid = {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 12}
        path = synthetic_config(tmp_path, kernel_grid={**grid, **bound})
        assert run_on_config(command, path, tmp_path / "out") == 0

    @pytest.mark.parametrize("count", [1e308, 2**63, 10**30, 100_001])
    def test_realization_count_beyond_bound_exit_code(self, tmp_path, capsys, count):
        # validate-config first: it refuses, before any trial runs, a count
        # that experiment refuses too
        path = synthetic_config(tmp_path)
        edit_config(path, ("experiment", "n_realizations"), count)
        err = assert_input_error(capsys, cli.main(["validate-config", "--config", str(path)]))
        assert "n_realizations must be between 1 and 100000" in err
        err = assert_input_error(capsys, run_on_config("experiment", path, tmp_path / "out"))
        assert "n_realizations must be between 1 and 100000" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, flag",
        [("validate-config", False), ("fit", False), ("experiment", False),
         ("fit", True), ("experiment", True)],
        ids=["validate-config", "fit", "experiment", "fit--seed", "experiment--seed"],
    )
    def test_negative_seed_exit_code(self, tmp_path, capsys, command, flag):
        # the synthetic block's own seed builds the dataset, so only the
        # master seed of the Monte-Carlo trials is out of range
        path = synthetic_config(
            tmp_path, synthetic={"num_nodes": 8, "num_pairs": 14, "num_modes": 3, "seed": 3}
        )
        argv = [command, "--config", str(path)]
        if command != "validate-config":
            argv += ["--out", str(tmp_path / "out")]
        if flag:
            argv += ["--seed", "-1"]
        else:
            edit_config(path, ("seed",), -1)
        err = assert_input_error(capsys, cli.main(argv))
        assert "seed" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize(
        "block, value, message",
        [
            ("synthetic", {"num_nodes": 8, "num_node": 8, "num_pairs": 14},
             "unknown config key 'synthetic.num_node'"),
            ("synthetic", None, "cannot build the dataset"),
            ("synthetic", {"num_nodes": 8, "num_pairs": 0}, "num_pairs must be at least 1"),
            ("synthetic", {"num_nodes": 8, "num_pairs": -3}, "num_pairs must be at least 1"),
            ("synthetic", {"num_nodes": 8, "num_pairs": 14, "num_modes": 0},
             "num_modes must be at least 1"),
            ("synthetic", {"num_nodes": 8, "num_pairs": 14, "mean_sq_distance": 0},
             "mean_sq_distance must be positive and finite"),
            ("synthetic", {"num_nodes": 8, "num_pairs": 14, "mean_sq_distance": -1},
             "mean_sq_distance must be positive and finite"),
            ("synthetic", {"num_nodes": 8, "num_pairs": 14, "mean_sq_distance": math.inf},
             "mean_sq_distance must be positive and finite"),
            ("synthetic", {"num_nodes": 8, "num_pairs": 14, "mode_decay": math.nan},
             "mode_decay must be finite"),
            ("synthetic", {"num_nodes": 8, "num_pairs": 14, "mean_level": math.inf},
             "mean_level must be finite"),
            ("experiment", {"params_by_n_train": None}, "invalid configuration"),
            ("experiment", {"params_by_n_train": []}, "invalid configuration"),
            ("data", 5, "cannot build the dataset"),
            ("data", {"measurements": 5, "coordinates": "c.csv"}, "cannot build the dataset"),
            ("data", {"measurements": "m.csv"}, "data block is missing 'coordinates'"),
            ("data", {"measurements": "none.csv", "coordinates": "none.csv"},
             "cannot open measurements file none.csv"),
            ("optimizer", {"momentum": "fista"}, "unknown config key 'optimizer.momentum'"),
        ],
    )
    def test_malformed_block_exit_code(self, tmp_path, capsys, monkeypatch, command, block,
                                       value, message):
        monkeypatch.chdir(tmp_path)
        cfg = json.loads(synthetic_config(tmp_path).read_text())
        if block == "data":
            del cfg["synthetic"]
        cfg[block] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert message in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "keys, value, message",
        [
            (("kernel_grid",), 0, "kernel_grid: expected an object, got 0"),
            (("experiment",), 0, "experiment: expected an object, got 0"),
            (("optimizer",), [], "optimizer: expected an object, got []"),
            (("synthetic",), 0, "synthetic: expected an object, got 0"),
            (("data",), 0, "data: expected an object, got 0"),
            (("experiment", "params_by_n_train"), 5,
             "experiment.params_by_n_train: expected an object, got 5"),
            (("experiment", "params_by_n_train"), {"x": [0.02, 5.5]},
             "experiment.params_by_n_train[x]: expected an integer training size, got 'x'"),
            (("model", "kernel_grid"), 0, "kernel_grid: expected an object, got 0"),
            (("model", "kernel_grid"), [], "kernel_grid: expected an object, got []"),
        ],
    )
    def test_block_of_the_wrong_type_names_its_field(self, tmp_path, capsys, fitted_model, keys,
                                                     value, message):
        # one reader takes the kernel_grid block of a config and of a model file
        if keys[0] == "model":
            rc = predict_with_edited_model(tmp_path, fitted_model,
                                           lambda p: p.update({keys[1]: value}))
        else:
            path = synthetic_config(tmp_path)
            if keys == ("data",):
                cfg = json.loads(path.read_text())
                del cfg["synthetic"]
                path.write_text(json.dumps({**cfg, "data": value}))
            else:
                edit_config(path, keys, value)
            rc = cli.main(["validate-config", "--config", str(path)])
        assert assert_input_error(capsys, rc).endswith(f"{message}\n")

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize(
        "keys, value, name",
        [
            (("experiment", "n_realisations"), 3, "experiment.n_realisations"),
            (("optimizer", "max_iteration"), 5, "optimizer.max_iteration"),
            (("n_realizations",), 3, "n_realizations"),  # the experiment block's, at the top
            # beyond 64 bits, as no model file may hold
            (("kernel_grid", "note"), 10**30, "kernel_grid.note"),
            (("experiment", "grid_search"), {"alphas": [0.1], "betas": [5.5], "alpha": [0.2]},
             "experiment.grid_search.alpha"),
        ],
    )
    def test_unknown_key_exit_code(self, tmp_path, capsys, command, keys, value, name):
        path = synthetic_config(tmp_path)
        edit_config(path, keys, value)
        rc = run_on_config(command, path, tmp_path / "out")
        assert assert_input_error(capsys, rc).endswith(f"unknown config key {name!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    def test_misspelt_synthetic_key_exit_code(self, tmp_path, capsys, command):
        # the synthetic block's keys are the generator's parameter names
        path = synthetic_config(
            tmp_path, synthetic={"num_nodes": 8, "num_pairs": 14, "num_mode": 3}
        )
        rc = run_on_config(command, path, tmp_path / "out")
        assert assert_input_error(capsys, rc) == (
            f"error: {path}: unknown config key 'synthetic.num_mode'\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    def test_config_not_an_object_exit_code(self, tmp_path, capsys, command):
        path = tmp_path / "config.json"
        path.write_text("[1]")
        rc = run_on_config(command, path, tmp_path / "out")
        assert assert_input_error(capsys, rc) == f"error: {path}: config must be a JSON object\n"
        assert not (tmp_path / "out").exists()

    def test_params_by_n_train_replaces_the_defaults(self, tmp_path):
        # sizes the config's map leaves out run at its own alpha and beta
        path = synthetic_config(tmp_path, alpha=0.5, beta=1.0)
        edit_config(path, ("experiment", "params_by_n_train"), {"6": [0.7, 2.0]})
        config, sizes, params, _ = cli.load_config(path)[1]
        assert sizes == [4, 6]
        assert params == {6: (0.7, 2.0)}
        assert (config.alpha, config.beta) == (0.5, 1.0)

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize("value", [5, None])
    def test_output_dir_not_a_path_exit_code(self, tmp_path, capsys, monkeypatch, command,
                                             value):
        monkeypatch.chdir(tmp_path)
        path = synthetic_config(tmp_path, output_dir=value)
        # no --out, so fit and experiment would write to output_dir
        err = assert_input_error(capsys, cli.main([command, "--config", str(path)]))
        assert f"output_dir must be a path string, got {value!r}" in err
        assert [p.name for p in tmp_path.iterdir()] == ["config.json"]

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize("count", [10**41, 2**60], ids=["10**41", "2**60"])
    def test_oversized_grid_count_exit_code(self, tmp_path, capsys, command, count):
        # numpy refuses a grid of either count without allocating it
        path = synthetic_config(tmp_path)
        edit_config(path, ("kernel_grid", "count"), count)
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert f"kernel grid count {count} exceeds" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    def test_unallocatable_grid_exit_code(self, tmp_path, capsys, command):
        # 2**50 kernels are within the count bound, but their 8 PiB of
        # parameters exceed any machine's memory
        path = synthetic_config(tmp_path)
        edit_config(path, ("kernel_grid", "count"), 2**50)
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert err.startswith("error: out of memory: kernel grid count 1125899906842624")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("family", ["gaussian", "linear"])
    def test_load_config_refuses_a_grid_beyond_memory(self, tmp_path, family):
        # the check every command runs on the grid before allocating it
        path = synthetic_config(tmp_path)
        edit_config(path, ("kernel_grid", "family"), family)
        assert cli.load_config(path)[1][0].grid.family == family
        edit_config(path, ("kernel_grid", "count"), 2**50)
        with pytest.raises(MemoryError, match="kernel grid count 1125899906842624: its param"):
            cli.load_config(path)

    @pytest.mark.parametrize("error", [AttributeError, ValueError, OSError])
    def test_grid_unchecked_without_a_memory_query(self, monkeypatch, error):
        # where the physical memory cannot be read, numpy's own check stands
        def sysconf(name):
            raise error(name)

        monkeypatch.setattr(cli.os, "sysconf", sysconf)
        block = {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 2**50}
        assert cli._kernel_grid(block) == KernelGrid("gaussian", 0.01, 10.0, 2**50)

    def test_data_mode_requires_existing_files(self, tmp_path):
        cfg = {
            "data": {
                "measurements": str(tmp_path / "missing.csv"),
                "coordinates": str(tmp_path / "missing2.csv"),
            }
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert cli.main(["validate-config", "--config", str(path)]) == 2


class TestFitAndPredict:
    def test_fit_writes_model_and_trace(self, tmp_path, capsys):
        path = synthetic_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 0
        assert (out / "model.json").exists()
        assert (out / "trace.csv").exists()
        payload = json.loads((out / "model.json").read_text())
        assert payload["format_version"] == 1
        assert len(payload["rho"]) == 12
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "iteration"
        assert len(rows) > 1

    def test_max_iterations_caps_the_trace(self, tmp_path):
        path = synthetic_config(tmp_path, optimizer={"max_iterations": 1})
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 0
        with open(out / "trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 2  # the header and one iteration

    @pytest.mark.parametrize("command", ["fit", "experiment", "validate-config"])
    def test_single_node_graph_exit_code(self, tmp_path, capsys, command):
        path = synthetic_config(tmp_path, synthetic={"num_nodes": 1, "num_pairs": 14})
        rc = run_on_config(command, path, tmp_path / "out")
        assert "at least two nodes" in assert_input_error(capsys, rc)

    @pytest.mark.parametrize("command", ["fit", "experiment", "validate-config"])
    def test_non_finite_measurement_exit_code(self, tmp_path, capsys, csv_dataset, command):
        measurements, coords = csv_dataset
        lines = measurements.read_text().splitlines()
        lines[4] = "nan," + lines[4].split(",", 1)[1]
        measurements.write_text("\n".join(lines) + "\n")
        cfg = {"data": {"measurements": str(measurements), "coordinates": str(coords)}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = run_on_config(command, path, tmp_path / "out")
        err = assert_input_error(capsys, rc)
        assert "line 5" in err and "'nan' in column 1" in err

    @pytest.mark.parametrize("command", ["fit", "experiment", "validate-config"])
    @pytest.mark.parametrize("cell, column", [("nan", 2), ("inf", 3), ("-1e400", 2)])
    def test_non_finite_coordinate_exit_code(self, tmp_path, capsys, csv_dataset, command, cell,
                                             column):
        measurements, coords = csv_dataset
        lines = coords.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column - 1] = cell
        lines[2] = ",".join(cells)
        coords.write_text("\n".join(lines) + "\n")
        cfg = {"data": {"measurements": str(measurements), "coordinates": str(coords)}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = run_on_config(command, path, tmp_path / "out")
        err = assert_input_error(capsys, rc)
        assert f"{coords}: line 3: non-finite coordinate {cell!r} in column {column}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["fit", "experiment", "validate-config"])
    @pytest.mark.parametrize("cell, column, axis", [("95", 2, "latitude in [-90, 90]"),
                                                    ("200", 3, "longitude in [-180, 180]")],
                             ids=["latitude", "longitude"])
    def test_out_of_range_coordinate_exit_code(self, tmp_path, capsys, csv_dataset, command,
                                               cell, column, axis):
        measurements, coords = csv_dataset
        lines = coords.read_text().splitlines()
        cells = lines[2].split(",")
        cells[column - 1] = cell
        lines[2] = ",".join(cells)
        coords.write_text("\n".join(lines) + "\n")
        cfg = {"data": {"measurements": str(measurements), "coordinates": str(coords)}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        rc = run_on_config(command, path, tmp_path / "out")
        assert assert_input_error(capsys, rc) == (
            f"error: {coords}: line 3: out-of-range coordinate {cell!r} "
            f"in column {column} ({axis})\n")
        assert not (tmp_path / "out").exists()

    def test_all_zero_measurements_fail_the_experiment(self, tmp_path, capsys):
        # a fit needs no SNR, but every trial's training block is zero
        names = [f"town{i}" for i in range(5)]
        write_measurements(tmp_path / "m.csv", names, np.zeros((12, 5)).tolist())
        write_coords(tmp_path / "c.csv", [[n, 55.0 + i, 12.0 + i] for i, n in enumerate(names)])
        cfg = {"data": {"measurements": str(tmp_path / "m.csv"),
                        "coordinates": str(tmp_path / "c.csv")},
               "experiment": {"n_train_values": [4], "n_realizations": 3}}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert run_on_config("validate-config", path, None) == 0
        assert run_on_config("fit", path, tmp_path / "fit") == 0
        capsys.readouterr()
        assert run_on_config("experiment", path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "numeric failure: 3 of 3 trials failed" in err and "Traceback" not in err
        cfg["experiment"]["grid_search"] = {"alphas": [0.1], "betas": [1.0]}
        path.write_text(json.dumps(cfg))
        assert run_on_config("experiment", path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert "numeric failure: grid search: target block is identically zero" in err
        assert not (tmp_path / "out").exists()

    def test_unconverged_eigh_exit_code(self, tmp_path, capsys, monkeypatch):
        # every eigh of a kernel matrix fails, the graph's (8 x 8) does not
        eigh = np.linalg.eigh

        def failing(a):
            if a.shape[-1] != 8:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", failing)
        rc = run_on_config("fit", synthetic_config(tmp_path), tmp_path / "out")
        assert rc == 1
        assert capsys.readouterr().err == "numeric failure: Eigenvalues did not converge\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize("out", ["file", "file/sub"])
    def test_unusable_output_dir_exits_before_fitting(self, tmp_path, capsys, monkeypatch,
                                                      command, out):
        fits = []
        # fit calls optimize itself, experiment through its methods
        monkeypatch.setattr(experiment, "_fit_method", lambda *args: fits.append(args))
        monkeypatch.setattr(cli, "optimize", lambda *args: fits.append(args))
        (tmp_path / "file").write_text("")
        # validate-config checks output_dir; fit and experiment keep the
        # default there, so the path they refuse can only be --out
        path = synthetic_config(
            tmp_path, **({"output_dir": str(tmp_path / out)} if command == "validate-config"
                         else {}))
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / out))
        assert str(tmp_path / out) in err and "not a directory" in err
        assert fits == []

    @pytest.mark.parametrize("command, output", [("fit", "trace.csv"),
                                                 ("experiment", "report.json")])
    def test_unwritable_output_exit_code(self, tmp_path, capsys, command, output):
        # the directory passes the check, but an output in it is a directory
        (tmp_path / "out" / output).mkdir(parents=True)
        path = synthetic_config(tmp_path)
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert str(tmp_path / "out" / output) in err

    @pytest.mark.parametrize(
        "command, keys, value, message",
        [("fit", ("optimizer", "mu0"), 1e308, "the step of iteration 1 leaves float range"),
         ("fit", ("alpha",), 1e-300, "the step of iteration 1 leaves float range"),
         # every trial's multi-kernel fit records the message
         ("experiment", ("optimizer", "mu0"), 1e308, "2 of 2 trials failed")],
    )
    def test_step_outside_float_range_exit_code(self, tmp_path, capsys, command, keys, value,
                                                message):
        path = synthetic_config(tmp_path)
        edit_config(path, keys, value)
        assert run_on_config("validate-config", path, None) == 0
        capsys.readouterr()
        assert run_on_config(command, path, tmp_path / "out") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"numeric failure: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "command, keys, value, rc, message",
        [("fit", ("beta",), 1e308, 1,
          "numeric failure: column systems have condition estimate inf"),
         *[(command, ("synthetic", "mode_decay"), 1e308, 2,
            "error: cannot build the dataset: training data contains NaN or Inf")
           for command in ("validate-config", "fit", "experiment")],
         # Psi~ = T~ / alpha leaves float range
         ("fit", ("alpha",), 1e-320, 1, "numeric failure: the step of iteration 1 leaves"),
         ("fit", ("synthetic", "mean_level"), 1e308, 1,
          "numeric failure: the step of iteration 1 leaves"),
         # the training targets' power leaves float range: no SNR
         ("experiment", ("synthetic", "mean_level"), 1e308, 1,
          "numeric failure: 2 of 2 trials failed"),
         ("experiment", ("synthetic", "mean_level"), 1e30, 1,
          "numeric failure: 2 of 2 trials failed"),
         # a step so large that its projection onto the ball rounds to 0
         ("fit", ("synthetic", "mean_sq_distance"), 2**63, 0, None)],
        ids=["fit-beta", "validate-config-mode_decay", "fit-mode_decay", "experiment-mode_decay",
             "fit-alpha", "fit-mean_level", "experiment-mean_level",
             "experiment-mean_level-1e30", "fit-mean_sq_distance"],
    )
    def test_float_overflow_prints_the_error_line_only(self, tmp_path, capsys, command, keys,
                                                       value, rc, message):
        # pytest raises a RuntimeWarning, so a warning on the way fails here
        path = synthetic_config(tmp_path)
        edit_config(path, keys, value)
        assert run_on_config(command, path, tmp_path / "out") == rc
        err = capsys.readouterr().err
        assert err == "" if message is None else (
            err.startswith(message) and err.count("\n") == 1)

    @pytest.mark.parametrize("command", ["validate-config", "fit", "experiment"])
    @pytest.mark.parametrize(
        "keys, value",
        [
            (("alpha",), math.nan),
            (("alpha",), -0.1),
            (("beta",), math.inf),
            (("beta",), -1.0),
            (("experiment", "linear_alpha"), math.nan),
            (("experiment", "linear_alpha"), -4.3),
            (("experiment", "single_sigma_sq"), 0.0),
            (("experiment", "single_sigma_sq"), math.inf),
            (("experiment", "snr_db"), -math.inf),
            (("experiment", "snr_db"), math.nan),
            (("experiment", "snr_db"), 5000.0),
            (("experiment", "snr_db"), -5000.0),
            (("optimizer", "mu0"), math.inf),
            (("optimizer", "epsilon"), math.inf),
            (("optimizer", "radius"), math.inf),
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
    )
    def test_bad_regularization_exit_code(self, tmp_path, capsys, command, keys, value):
        path = synthetic_config(tmp_path)
        edit_config(path, keys, value)
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert f"{keys[-1]} must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_roundtrip_prediction_matches_in_process(self, tmp_path):
        path = synthetic_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 0
        model, names = cli.load_model(out / "model.json")

        cfg, _ = cli.load_config(path)
        dataset, _ = cli._dataset_from_config(cfg)
        expected = model.predict(dataset.inputs[:3])

        inputs_csv = tmp_path / "inputs.csv"
        write_measurements(
            inputs_csv,
            names,
            [[repr(float(v)) for v in row] for row in dataset.inputs[:3]],
        )
        pred_csv = tmp_path / "pred.csv"
        rc = cli.main(
            [
                "predict",
                "--model", str(out / "model.json"),
                "--inputs", str(inputs_csv),
                "--output", str(pred_csv),
            ]
        )
        assert rc == 0
        with open(pred_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == names
        got = np.array([[float(c) for c in row] for row in rows[1:]])
        np.testing.assert_array_equal(got, expected)  # lossless float round trip
        oracle = tmp_path / "oracle.csv"
        write_measurements(oracle, names, expected.tolist())  # csv.writer, repr per value
        assert pred_csv.read_bytes() == oracle.read_bytes()

    def test_fit_refuses_threads(self, tmp_path):
        path = synthetic_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "out"),
                      "--threads", "2"])
        assert excinfo.value.code == 2

    def test_model_file_is_the_payload_dumped_at_once(self, tmp_path):
        cfg, _ = cli.load_config(synthetic_config(tmp_path))
        dataset, names = cli._dataset_from_config(cfg)
        d = build_dictionary(dataset.inputs, KernelGrid(count=12))
        fitted, trace = optimize(d, dataset.graph, dataset.targets, SolverConfig(), 0.1, 2.0)
        args = (fitted, names, trace.iterations_used, trace.final_gamma)
        path = tmp_path / "model.json"
        cli.save_model(path, *args)
        whole = orjson.dumps(cli._model_payload(*args), option=orjson.OPT_SERIALIZE_NUMPY)
        assert path.read_bytes() == whole

    def test_model_file_round_trips_arrays_bit_exactly(self, tmp_path):
        cfg, _ = cli.load_config(synthetic_config(tmp_path))
        dataset, names = cli._dataset_from_config(cfg)
        d = build_dictionary(dataset.inputs, KernelGrid(count=12))
        fitted, trace = optimize(d, dataset.graph, dataset.targets, SolverConfig(), 0.1, 2.0)
        path = tmp_path / "model.json"
        cli.save_model(path, fitted, names, trace.iterations_used, trace.final_gamma)
        model, _ = cli.load_model(path)
        np.testing.assert_array_equal(model.psi, fitted.psi)
        np.testing.assert_array_equal(model.rho, fitted.rho)
        np.testing.assert_array_equal(
            model.dictionary.training_inputs, fitted.dictionary.training_inputs
        )
        # the standard library parses the file to the same bits, sign of zero included
        payload = json.loads(path.read_text())
        assert list(payload) == [
            "format_version", "alpha", "beta", "kernel_grid", "rho", "training_inputs",
            "psi", "target_names", "iterations", "gamma",
        ]
        for key, expected in (
            ("rho", fitted.rho),
            ("training_inputs", fitted.dictionary.training_inputs),
            ("psi", fitted.psi),
        ):
            np.testing.assert_array_equal(
                np.array(payload[key]).view(np.uint64), expected.view(np.uint64)
            )
        assert payload["gamma"] == trace.final_gamma
        assert payload["kernel_grid"] == cfg["kernel_grid"]

    def test_model_file_records_the_models_own_grid(self, tmp_path):
        # a grid other than the config's: the file records the one the model
        # predicts with, so the loaded model predicts the same bits
        cfg, _ = cli.load_config(synthetic_config(tmp_path))
        dataset, names = cli._dataset_from_config(cfg)
        grid = KernelGrid(lo=0.5, hi=5.0, count=12)
        fitted, trace = optimize(build_dictionary(dataset.inputs, grid), dataset.graph,
                                 dataset.targets, SolverConfig(), 0.1, 2.0)
        path = tmp_path / "model.json"
        cli.save_model(path, fitted, names, trace.iterations_used, trace.final_gamma)
        assert json.loads(path.read_text())["kernel_grid"] == {
            "family": "gaussian", "lo": 0.5, "hi": 5.0, "count": 12}
        model, _ = cli.load_model(path)
        assert model.dictionary.grid == grid
        assert_same_bits(model.predict(dataset.inputs), fitted.predict(dataset.inputs))

    def test_training_inputs_are_held_without_a_copy(self, tmp_path, csv_dataset):
        # the measurement rows and a model file's training inputs arrive read-only,
        # so the dictionary holds them as they are
        measurements, coords = csv_dataset
        _, matrix = cli._read_measurements(measurements)
        assert not matrix.flags.writeable
        cfg = {"data": {"measurements": str(measurements), "coordinates": str(coords)}}
        dataset, names = cli._dataset_from_config(cfg)
        d = build_dictionary(dataset.inputs, KernelGrid(count=12))
        assert np.shares_memory(d.training_inputs, dataset.inputs)
        fitted, trace = optimize(d, dataset.graph, dataset.targets, SolverConfig(), 0.1, 2.0)
        path = tmp_path / "model.json"
        cli.save_model(path, fitted, names, trace.iterations_used, trace.final_gamma)
        payload = cli._parse_model(path.read_bytes())
        assert not payload["training_inputs"].flags.writeable

    def test_predict_missing_model_exit_code(self, tmp_path):
        rc = cli.main(
            [
                "predict",
                "--model", str(tmp_path / "none.json"),
                "--inputs", str(tmp_path / "none.csv"),
                "--output", str(tmp_path / "out.csv"),
            ]
        )
        assert rc == 2


@pytest.fixture(scope="module")
def fitted_model(tmp_path_factory):
    """A fitted model file and a CSV of inputs it can predict from."""
    base = tmp_path_factory.mktemp("fitted")
    path = synthetic_config(base)
    assert cli.main(["fit", "--config", str(path), "--out", str(base / "out")]) == 0
    model, names = cli.load_model(base / "out" / "model.json")
    inputs_csv = base / "inputs.csv"
    write_measurements(inputs_csv, names, model.dictionary.training_inputs[:2].tolist())
    return base / "out" / "model.json", inputs_csv


def predict_with_model_text(tmp_path, fitted_model, text):
    """Exit code of ``predict`` from a model file holding ``text`` (str or bytes)."""
    _, inputs_csv = fitted_model
    edited = tmp_path / "edited.json"
    edited.write_bytes(text if isinstance(text, bytes) else text.encode())
    return cli.main(
        ["predict", "--model", str(edited), "--inputs", str(inputs_csv),
         "--output", str(tmp_path / "pred.csv")]
    )


def predict_with_edited_model(tmp_path, fitted_model, edit):
    payload = json.loads(fitted_model[0].read_text())
    edit(payload)
    return predict_with_model_text(tmp_path, fitted_model, json.dumps(payload))


# Target names holding what the model reader looks for around arrays.
AWKWARD_NAMES = ['"psi":[', "]", 'a\\"b', "\\", '"rho": [1, 2]}', "\u00fc", "[[", 'x"']


def reserialize(payload, rng):
    """``payload`` as JSON text in a form that ``rng`` picks among those a writer may use.

    Keys come in a shuffled order, ``psi`` and ``rho`` spelled with
    escapes, after a first ``psi`` and ``rho`` that the last ones replace.
    The target names and a nested object hold brackets, quotes and keys
    of the model.  Whitespace surrounds the object.
    """
    payload = {**payload, "target_names": AWKWARD_NAMES[: len(payload["target_names"])]}
    payload["extra"] = {"psi": [[1.0, "]"]], "rho": {"a": [1, {"b": ']"'}]}, "n": None}
    keys = list(payload)
    rng.shuffle(keys)
    text = json.dumps(
        {key: payload[key] for key in keys},
        indent=[None, 0, 2, "\t"][rng.integers(4)],
        separators=[(",", ":"), (", ", ": ")][rng.integers(2)],
        ensure_ascii=bool(rng.integers(2)),
    )
    text = text.replace('"psi"', '"\\u0070si"').replace('"rho"', '"\\u0072ho"')
    return ' \n\t{"psi": [[0.5]], "rho": [],' + text[1:] + "\n \r\n"


def number_block_by_rule(block, ndim):
    """``block`` as ``json`` reads it, or None where the codec must refuse it.

    The codec refuses a byte outside the characters of number text, what
    orjson refuses, and anything but an ndim-D array of numbers.
    """
    if oracles.refused_as_number_text(block):
        return None
    try:
        orjson.loads(block)
        values = np.array(json.loads(block), dtype=np.float64)
    except (orjson.JSONDecodeError, ValueError):
        return None
    return values if values.ndim == ndim else None


def assert_same_bits(got, expected):
    expected = np.array(expected, dtype=float)
    assert got.dtype == np.float64 and got.shape == expected.shape
    np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))


class TestModelFile:
    @pytest.mark.parametrize("key", cli.MODEL_KEYS)
    def test_missing_key_exit_code(self, tmp_path, fitted_model, capsys, key):
        rc = predict_with_edited_model(tmp_path, fitted_model, lambda p: p.pop(key))
        assert rc == 2
        assert key in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p["psi"].pop(),  # psi has N - 1 rows
            lambda p: [row.pop() for row in p["psi"]],  # psi has M - 1 columns
            lambda p: p["psi"][0].pop(),  # ragged psi
            lambda p: p["rho"].pop(),  # one weight fewer than grid kernels
            lambda p: p["training_inputs"].pop(),  # N - 1 training inputs
            lambda p: p["target_names"].pop(),  # M - 1 target names
            lambda p: p.update(target_names="node0"),
            lambda p: p["kernel_grid"].update(lo=-1.0),
            lambda p: p["kernel_grid"].pop("count"),
            lambda p: p.update(alpha="none"),
            lambda p: p.update(alpha=10**400),  # beyond float range
            lambda p: p["rho"].__setitem__(0, math.nan),
            lambda p: p["psi"][0].__setitem__(0, math.inf),
            lambda p: p["rho"].__setitem__(0, -5.0),  # a negative weight
            lambda p: p["kernel_grid"].update(count=12.5),  # not truncated to the 12 of rho
            lambda p: [row.pop() for row in p["training_inputs"]],  # M - 1 input columns
            lambda p: p["target_names"].__setitem__(0, None),  # a name that is not a string
        ],
    )
    def test_malformed_model_exit_code(self, tmp_path, fitted_model, edit):
        assert predict_with_edited_model(tmp_path, fitted_model, edit) == 2

    def test_unallocatable_grid_exit_code(self, tmp_path, fitted_model, capsys):
        rc = predict_with_edited_model(
            tmp_path, fitted_model, lambda p: p["kernel_grid"].update(count=2**50)
        )
        assert assert_input_error(capsys, rc).startswith(
            "error: out of memory: kernel grid count 1125899906842624")
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("count", 12.5, "kernel_grid.count: expected an integer, got 12.5"),
            ("count", True, "kernel_grid.count: expected an integer, got True"),
            ("count", 0, "kernel count must be at least 1"),
            ("lo", 0, "invalid parameter span [0.0, 10.0]: need 0 < lo < hi < inf"),
            ("hi", math.inf, "invalid parameter span [0.01, inf]: need 0 < lo < hi < inf"),
            ("family", "Gaussian", "unknown kernel family 'Gaussian'"),
            ("lo", "0.01", "kernel_grid.lo: expected a number, got '0.01'"),
            ("hi", True, "kernel_grid.hi: expected a number, got True"),
            ("count", "12", "kernel_grid.count: expected an integer, got '12'"),
        ],
    )
    def test_grid_refused_alike_in_config_and_model(self, tmp_path, fitted_model, capsys, key,
                                                    value, message):
        # one reader takes the kernel_grid block of a config and of a model file
        path = synthetic_config(tmp_path)
        edit_config(path, ("kernel_grid", key), value)
        err = assert_input_error(capsys, cli.main(["validate-config", "--config", str(path)]))
        assert err.endswith(f": invalid configuration: {message}\n")
        rc = predict_with_edited_model(
            tmp_path, fitted_model, lambda p: p["kernel_grid"].update({key: value})
        )
        err = assert_input_error(capsys, rc)
        assert err.endswith(f": invalid model: {message}\n")

    def test_unedited_model_predicts(self, tmp_path, fitted_model):
        assert predict_with_edited_model(tmp_path, fitted_model, lambda p: None) == 0

    def test_output_directory_missing_exit_code(self, tmp_path, fitted_model, capsys):
        model_path, inputs_csv = fitted_model
        rc = cli.main(
            ["predict", "--model", str(model_path), "--inputs", str(inputs_csv),
             "--output", str(tmp_path / "nodir" / "pred.csv")]
        )
        assert rc == 2
        assert "nodir" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", range(8))
    def test_reserialized_model_reads_as_json_does(self, tmp_path, fitted_model, seed):
        text = reserialize(json.loads(fitted_model[0].read_text()), np.random.default_rng(seed))
        expected = json.loads(text)
        got = cli._parse_model(text)
        assert list(got) == list(expected)
        for key, value in expected.items():
            if key in cli._ARRAY_KEYS:
                assert_same_bits(got[key], value)
            else:
                assert got[key] == value
        path = tmp_path / "model.json"
        path.write_text(text, encoding="utf-8")
        model, names = cli.load_model(path)
        assert names == expected["target_names"]
        assert_same_bits(model.psi, expected["psi"])
        assert_same_bits(model.rho, expected["rho"])
        assert_same_bits(model.dictionary.training_inputs, expected["training_inputs"])

    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 128, 129, 300])
    def test_rows_parse_in_blocks_as_json_does(self, rows):
        rng = np.random.default_rng(rows)
        a = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-300, 300, size=(rows, 3))
        a[rng.random(size=a.shape) < 0.1] = -0.0
        for indent in (None, 1):
            text = json.dumps({"psi": a.tolist(), "rho": a[:, 0].tolist()}, indent=indent)
            got = cli._parse_model(text)
            assert_same_bits(got["psi"], a if rows else [])
            assert_same_bits(got["rho"], a[:, 0])

    @pytest.mark.parametrize(
        "text",
        [
            '{"psi": [' + ",".join(["[1.0, 2.0]"] * 65) + ', [1.0]]}',  # ragged across blocks
            '{"psi": [' + ",".join(["[1.0, 2.0]"] * 64) + ', [1.0, 2.0], 3.0]}',
            '{"psi": [' + ",".join(["[1.0, 2.0]"] * 64) + ',]}',
            '{"psi": [' + ",".join(["[1.0, 2.0]"] * 64) + ' [1.0, 2.0]]}',  # no comma
            '{"psi": [' + ",".join(["[1.0, 2.0]"] * 64) + '1[1.0, 2.0]]}',
            '{"training_inputs": [[[1.0]], [[2.0]]]}',
            '{"psi": [[1.0, 2.0] [3.0, 4.0]]}',
            '{"psi": [[1.0, 2.0]] ]}',
            '{"rho": [1.0, 2.0}',
            '{"rho": 1.0}',
            '{"rho": "1.0"}',
            '{"rho": [true]}',
            '{"rho": [null]}',
            '{"rho": [1.0, 1e400]}',
            '{"rho": [1.0, Infinity]}',
        ],
    )
    def test_malformed_array_is_refused(self, text):
        with pytest.raises(json.JSONDecodeError):
            cli._parse_model(text)

    @pytest.mark.parametrize("seed", range(6))
    def test_kind_check_refuses_what_the_character_rule_or_orjson_refuses(self, seed):
        rng = np.random.default_rng(seed)
        tokens = ['"', '"x"', '"1"', "{", "{}", "t", "true", "false", "null", "NaN", "Infinity",
                  "x", "_", "+1", "\x00", "\x0c", "\xa0", "\ufeff", "[", "]", ",", "-0", "1e400"]
        outcomes = set()
        for ndim in (1, 2):
            shape = tuple(rng.integers(1, 5, size=ndim))
            a = rng.normal(size=shape) * 10.0 ** rng.integers(-30, 30, size=shape)
            for text in (json.dumps(a.tolist()).encode(),
                         orjson.dumps(a, option=orjson.OPT_SERIALIZE_NUMPY)):
                # anywhere, and as an item of its own after a "[" or ","
                items = [i + 1 for i, byte in enumerate(text) if byte in b"[,"]
                for token in tokens:
                    token = token.encode()
                    for i, inserted in [*((i, token) for i in rng.integers(len(text) + 1, size=3)),
                                        *((i, token + b",") for i in rng.choice(items, size=2))]:
                        block = text[:i] + inserted + text[i:]
                        expected = number_block_by_rule(block, ndim)
                        outcomes.add(expected is None)
                        for typed in (block, block.decode()):  # model file, CSV file
                            if expected is None:
                                with pytest.raises(ValueError):
                                    cli._parse_number_block(typed, ndim)
                            else:
                                assert_same_bits(cli._parse_number_block(typed, ndim), expected)
        assert outcomes == {False, True}

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t[: len(t) // 2],  # truncated inside an array
            lambda t: t[: t.index("]", t.index('"psi"')) + 1],  # truncated after a row
            lambda t: t.rstrip()[:-1],  # no closing brace
            lambda t: t + " x",  # trailing data
            lambda t: t + "{}",
            lambda t: t + "]",
            lambda t: t.replace('"rho":[', '"rho":["1.0",', 1),  # a string in an array
            lambda t: t.replace('"rho":[', '"rho":[{},', 1),  # an object in an array
            lambda t: t.replace('"rho":[', '"rho":[{"a":1},', 1),
            lambda t: t.replace('"rho":[', '"rho":[null,', 1),
            lambda t: t.replace('"rho":[', '"rho":[true,', 1),
            lambda t: t.replace('"psi":[', '"psi":[[', 1)  # 3-D
            .replace('],"target_names"', ']],"target_names"', 1),
            lambda t: t.replace('"psi":[[', '"psi":[[1.0,', 1),  # ragged rows
            lambda t: t.replace('"training_inputs":[[', '"training_inputs":[[NaN,', 1),
            lambda t: t.replace('"psi":[[', '"psi":[[1e400,', 1),
            lambda t: t.replace('"psi":[[', '"psi":[[' + "1" + "0" * 400 + ",", 1),
            lambda t: t.replace('"alpha":', '"alpha":' + "1" * 5000 + ',"a":', 1),
            lambda t: "[" + t + "]",  # a top level that is not an object
            lambda t: '"model"',
            lambda t: "",
            lambda t: b"\xff" + t.encode(),  # not UTF-8
        ],
    )
    def test_malformed_model_text_exit_code(self, tmp_path, fitted_model, capsys, edit):
        rc = predict_with_model_text(tmp_path, fitted_model, edit(fitted_model[0].read_text()))
        assert_input_error(capsys, rc)

    @pytest.mark.parametrize(
        "old, new", [(b'"node0"', b'"node\xff"'), (b'"gamma"', b'"gamm\xe9"')],
        ids=["in-a-value", "in-a-key"],
    )
    def test_non_utf8_byte_exit_code(self, tmp_path, fitted_model, capsys, old, new):
        data = fitted_model[0].read_bytes()
        assert old in data
        rc = predict_with_model_text(tmp_path, fitted_model, data.replace(old, new, 1))
        assert "not UTF-8" in assert_input_error(capsys, rc)

    @pytest.mark.parametrize("key", ["rho", "psi", "training_inputs"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_entry_is_invalid_json(self, tmp_path, fitted_model, capsys,
                                                    key, value):
        def edit(p):
            row = p[key] if key == "rho" else p[key][0]
            row[0] = value

        rc = predict_with_edited_model(tmp_path, fitted_model, edit)
        assert "invalid JSON" in assert_input_error(capsys, rc)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("format_version", True, "unsupported model format version True"),
            ("format_version", 1.0, "unsupported model format version 1.0"),
            ("alpha", True, "invalid model: alpha: expected a number, got True"),
            ("beta", "1.0", "invalid model: beta: expected a number, got '1.0'"),
            ("alpha", -1, "invalid model: alpha and beta must be finite and nonnegative, "
                          "got -1.0, 2.0"),
            ("beta", math.inf, "invalid model: alpha and beta must be finite and nonnegative, "
                               "got 0.1, inf"),
        ],
    )
    def test_number_field_of_the_wrong_kind_exit_code(self, tmp_path, fitted_model, capsys, key,
                                                      value, message):
        rc = predict_with_edited_model(tmp_path, fitted_model, lambda p: p.update({key: value}))
        assert assert_input_error(capsys, rc).endswith(f": {message}\n")
        assert not (tmp_path / "pred.csv").exists()

    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
    @pytest.mark.parametrize(
        "old, new, at, message",
        [
            ('"gamma"', '"gamma" x', "x", "Expecting ':' delimiter"),
            ('"target_names"', '"target_names":@', "@", "Expecting value"),
            ('"gamma"', '"gam\x01ma"', "\x01", "Invalid control character at"),  # in a key
            ('"node1"', '"no\tde1"', "\t", "Invalid control character at"),  # in a value
            ('"iterations"', '"iterations":1,"x":[1 2],"iterations"', "2]",
             "Expecting ',' delimiter"),
        ],
    )
    def test_error_after_the_arrays_is_placed_in_the_file(self, tmp_path, fitted_model, capsys,
                                                          indent, old, new, at, message):
        # the arrays come first and are cut out of the text that json reads;
        # the message still gives the place in the file
        text = fitted_model[0].read_text()
        if indent:
            text = json.dumps(json.loads(text), indent=indent)
        text = text.replace(old, new, 1)
        pos = text.index(new) + new.index(at)
        line = text.count("\n", 0, pos) + 1
        column = pos - text.rfind("\n", 0, pos)
        err = assert_input_error(capsys, predict_with_model_text(tmp_path, fitted_model, text))
        assert err.endswith(f": invalid JSON: {message}: line {line} column {column} "
                            f"(char {pos})\n")

    @pytest.mark.parametrize("indent", [None, 2], ids=["compact", "indented"])
    def test_non_utf8_byte_after_the_arrays_is_placed_in_the_file(self, tmp_path, fitted_model,
                                                                  capsys, indent):
        text = fitted_model[0].read_text()
        if indent:
            text = json.dumps(json.loads(text), indent=indent)
        data = text.encode().replace(b'"node1"', b'"node\xff"', 1)
        pos = data.index(b"\xff")
        err = assert_input_error(capsys, predict_with_model_text(tmp_path, fitted_model, data))
        assert err.endswith(f"not UTF-8 text: 'utf-8' codec can't decode byte 0xff in position "
                            f"{pos}: invalid start byte\n")

    def test_nesting_beyond_json_depth_exit_code(self, tmp_path, fitted_model, capsys):
        # json.loads raises RecursionError, not a JSONDecodeError, in a model and a config
        nested = "[" * 100_000 + "]" * 100_000
        text = fitted_model[0].read_text()
        rc = predict_with_model_text(tmp_path, fitted_model, f'{text[:-1]},"extra":{nested}}}')
        assert "invalid JSON: maximum recursion depth exceeded" in assert_input_error(capsys, rc)
        path = synthetic_config(tmp_path)
        path.write_text(f'{path.read_text()[:-1]}, "extra": {nested}}}')
        rc = cli.main(["validate-config", "--config", str(path)])
        assert "invalid JSON: maximum recursion depth exceeded" in assert_input_error(capsys, rc)

    def test_utf8_bom_exit_code(self, tmp_path, fitted_model, capsys):
        # json.loads would take a BOM in bytes; a model file is read as strict UTF-8 text
        data = b"\xef\xbb\xbf" + fitted_model[0].read_bytes()
        err = assert_input_error(capsys, predict_with_model_text(tmp_path, fitted_model, data))
        assert "invalid JSON: Expecting '{'" in err
        assert not (tmp_path / "pred.csv").exists()

    def test_load_model_holds_no_float_per_number(self, tmp_path):
        # N = 300 training inputs, M = 100 nodes: 70k numbers, a 1.4 MB file
        rng = np.random.default_rng(3)
        n, m = 300, 100
        model = solver.KrgModel(
            psi=rng.normal(size=(n, m)), alpha=0.1, beta=2.0,
            dictionary=build_dictionary(rng.normal(size=(n, m)), KernelGrid(count=12)),
            rho=rng.uniform(size=12),
        )
        path = tmp_path / "model.json"
        cli.save_model(path, model, [f"n{i}" for i in range(m)], 3, 1.0)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded, _ = cli.load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_bits(loaded.psi, model.psi)
        # The file is held once, as bytes, and the parse adds 0.85 MB over it
        # (a 1.2 MB file).  Reading it as text held it twice, bytes and str,
        # and json.load peaked at 2.7 times the file, from its tree of
        # Python floats on top of the text.
        assert peak < size + 1024 * 1024, f"peak traced allocation {peak / 1e6:.2f} MB"

    def test_legacy_adjacency_loads_without_a_float_per_number(self, tmp_path):
        # M = 200 nodes, as earlier versions of fit wrote them: the M x M
        # adjacency last, 40k numbers, 0.7 of the 0.85 MB file
        rng = np.random.default_rng(4)
        n, m = 10, 200
        model = solver.KrgModel(
            psi=rng.normal(size=(n, m)), alpha=0.1, beta=2.0,
            dictionary=build_dictionary(rng.normal(size=(n, m)), KernelGrid(count=12)),
            rho=rng.uniform(size=12),
        )
        path = tmp_path / "model.json"
        cli.save_model(path, model, [f"n{i}" for i in range(m)], 3, 1.0)
        adjacency = orjson.dumps(rng.uniform(size=(m, m)), option=orjson.OPT_SERIALIZE_NUMPY)
        path.write_bytes(path.read_bytes()[:-1] + b',"adjacency":' + adjacency + b"}")
        size = path.stat().st_size
        tracemalloc.start()
        try:
            loaded, _ = cli.load_model(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_bits(loaded.psi, model.psi)
        # json held a Python float per number of the adjacency: 2.1 MB over the file
        assert peak < size + 1024 * 1024, f"peak traced allocation {peak / 1e6:.2f} MB"
        assert "adjacency" not in cli._parse_model(path.read_bytes())


# The model file sweep sets each top-level key and each kernel_grid field to
# each of these: numbers at and beyond the ends of float range, a subnormal,
# a signed zero, and JSON values of every other kind.
SWEEP_VALUES = [
    0, -1, 1, 1.0, 0.5, 1e308, 1e-320, -0.0, 2**63, 10**30, 10**400, math.nan, -math.inf,
    True, False, None, "x", "1.0", "", [], {}, [1], [[1]], [1, "x"], {"a": 1},
]
SWEEP_FIELDS = [
    "format_version", "alpha", "beta", "kernel_grid", "rho", "training_inputs", "psi",
    "target_names", "iterations", "gamma",
    *(("kernel_grid", name) for name in ("family", "lo", "hi", "count")),
]


def sweep_accepts(field, value, payload):
    """Whether ``predict`` takes ``payload`` with ``field`` set to ``value``, by the README.

    None of the sweep's values is a kernel family, an array of the model's
    shape or a list of its target names, so only number fields and the
    keys no prediction reads take any.
    """
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    finite = number and abs(value) <= sys.float_info.max
    grid = payload["kernel_grid"]
    return {
        "format_version": type(value) is int and value == 1,
        "alpha": finite and value >= 0,
        "beta": finite and value >= 0,
        "iterations": True,
        "gamma": True,
        ("kernel_grid", "lo"): finite and 0 < value < grid["hi"],
        ("kernel_grid", "hi"): finite and grid["lo"] < value,
        ("kernel_grid", "count"): number and value == len(payload["rho"]),
    }.get(field, False)


class TestModelFileSweep:
    """``predict`` on seeded mutations of a model file: exit 0 or 2, never a traceback."""

    @pytest.fixture(autouse=True)
    def one_parser(self, monkeypatch):
        # building the argument parser is most of a refused predict's time
        parser = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)

    @staticmethod
    def outcome(tmp_path, fitted_model, capsys, text):
        """``predict``'s exit code on a model file holding ``text``; checks what it leaves."""
        rc = predict_with_model_text(tmp_path, fitted_model, text)
        err, pred = capsys.readouterr().err, tmp_path / "pred.csv"
        if rc == 0:
            assert err == "" and pred.exists()
            pred.unlink()
        else:
            assert rc == 2 and err.startswith("error: ") and err.count("\n") == 1, err
            assert not pred.exists()
        return rc

    @pytest.mark.parametrize(
        "field", SWEEP_FIELDS, ids=lambda f: ".".join(f) if isinstance(f, tuple) else f
    )
    def test_each_value_deletion_and_duplicate(self, tmp_path, fitted_model, capsys, field):
        payload = json.loads(fitted_model[0].read_text())
        *path, key = field if isinstance(field, tuple) else (field,)
        for value in [*SWEEP_VALUES, "deleted"]:
            edited = json.loads(json.dumps(payload))
            block = edited[path[0]] if path else edited
            if value == "deleted":
                del block[key]
            else:
                block[key] = value
            rc = self.outcome(tmp_path, fitted_model, capsys, json.dumps(edited))
            accepted = key in ("iterations", "gamma") if value == "deleted" else sweep_accepts(
                field, value, payload)
            assert rc == (0 if accepted else 2), (field, value)
        # a first value that the last one replaces, as in json
        text = json.dumps(payload, separators=(",", ":"))
        opening = f'"{path[0]}":{{' if path else "{"
        text = text.replace(opening, f'{opening}"{key}":[1],', 1)
        assert self.outcome(tmp_path, fitted_model, capsys, text) == 0

    def test_truncated_or_inserted_byte(self, tmp_path, fitted_model, capsys):
        data = fitted_model[0].read_bytes()
        rng = np.random.default_rng(27)
        for offset in rng.integers(len(data), size=16):
            assert self.outcome(tmp_path, fitted_model, capsys, data[:offset]) == 2, offset
        inserts = zip(rng.integers(len(data) + 1, size=64),
                      rng.choice(list(b' \n,:[]{}"0-.eEx\\\xff\x00'), size=64))
        for offset, byte in inserts:
            text = data[:offset] + bytes([byte]) + data[offset:]
            rc = self.outcome(tmp_path, fitted_model, capsys, text)
            try:
                unchanged = json.loads(text.decode("utf-8")) == json.loads(data)
            except ValueError:  # not UTF-8, or not JSON
                assert rc == 2, (offset, byte)
            else:
                assert rc == 0 or not unchanged, (offset, byte)


# The config sweep sets each of these fields of a small synthetic config, a
# block or a value in one, to each of SWEEP_VALUES.  None of those values
# makes a command allocate more than a few MB: sizes of 2^63 and beyond are
# refused before numpy allocates them, and grid counts by the memory check.
CONFIG_SWEEP_FIELDS = [
    ("alpha",), ("beta",), ("seed",), ("output_dir",), ("kernel_grid",),
    *(("kernel_grid", key) for key in ("family", "lo", "hi", "count")),
    ("optimizer",),
    *(("optimizer", key) for key in ("radius", "mu0", "q", "epsilon", "max_iterations",
                                     "momentum")),
    ("experiment",),
    *(("experiment", key) for key in ("snr_db", "n_train_values", "n_realizations",
                                      "linear_alpha", "single_sigma_sq", "params_by_n_train",
                                      "grid_search")),
    ("synthetic",),
    *(("synthetic", key) for key in ("num_nodes", "num_pairs", "num_modes", "mean_sq_distance",
                                     "mode_decay", "mean_level", "mode", "seed")),
]


class TestConfigSweep:
    """``validate-config``, ``fit`` and ``experiment`` on every config mutation of the table.

    Each exits 0, 1 or 2, never with a traceback or a numpy warning, and
    leaves nothing on exit 2; ``validate-config`` refuses what either of the
    others refuses as input, and what it refuses ``experiment`` refuses.
    """

    BASE = {
        "synthetic": {"num_nodes": 6, "num_pairs": 12, "num_modes": 3},
        "kernel_grid": {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 8},
        "optimizer": {"max_iterations": 60},
        "experiment": {"n_train_values": [4, 8], "n_realizations": 2},
        "output_dir": "out",
    }

    def test_exit_codes(self, tmp_path, capsys, monkeypatch):
        # building the argument parser is most of a refused command's time
        parser = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)
        path = tmp_path / "config.json"
        table = [(field, value) for field in CONFIG_SWEEP_FIELDS for value in SWEEP_VALUES]
        for i, (field, value) in enumerate(table):
            cfg = json.loads(json.dumps(self.BASE))
            *keys, key = field
            block = cfg[keys[0]] if keys else cfg
            block[key] = value
            path.write_text(json.dumps(cfg))
            codes = {}
            for command in ("validate-config", "fit", "experiment"):
                case = (field, value, command)
                work = tmp_path / f"{i}-{command}"
                work.mkdir()
                monkeypatch.chdir(work)  # output_dir is relative
                try:
                    codes[command] = rc = cli.main([command, "--config", str(path)])
                except Exception as exc:  # a RuntimeWarning too, as pytest is configured
                    pytest.fail(f"{case}: {exc!r}")
                err = capsys.readouterr().err
                assert rc in (0, 1, 2) and "Traceback" not in err, (case, rc, err)
                if rc == 2:
                    assert not any(work.iterdir()), case
            refused = [codes[command] == 2 for command in ("validate-config", "fit", "experiment")]
            assert refused[0] == refused[2] and refused[0] >= refused[1], (field, value, codes)


# The CSV sweep puts each of these in place of a cell: non-finite and
# overflowing numbers, an empty cell, a word and a quoted number.
HOSTILE_CELLS = ["nan", "inf", "1e400", "", "x", '"1.5"']


def line_edits(text, data_lines, columns):
    """Edits of the CSV ``text``: each hostile cell, ragged rows and duplicate nodes.

    ``data_lines`` and ``columns`` are the line and cell indices whose cells
    are replaced.  The duplicates repeat the first node: in the header of a
    measurements file, or as a row of its own in a coordinates file.
    """
    lines = text.splitlines()

    def edited(j, line):
        return "\n".join(lines[:j] + [line] + lines[j + 1:]) + "\n"

    for j in data_lines:
        for col in columns:
            for value in HOSTILE_CELLS:
                cells = lines[j].split(",")
                cells[col] = value
                yield edited(j, ",".join(cells))
        yield edited(j, lines[j] + ",1")
        yield edited(j, lines[j].rsplit(",", 1)[0])
    header = lines[0].split(",")
    yield edited(0, ",".join([header[0]] + header[:-1]))
    yield text + lines[1] + "\n"


def byte_edits(data, rng, truncations=6, insertions=20):
    """``data`` cut at seeded offsets, and with one seeded byte inserted at others."""
    for offset in rng.integers(1, len(data), size=truncations):
        yield data[:offset]
    for offset, byte in zip(rng.integers(len(data) + 1, size=insertions),
                            rng.choice(list(b' \n\r,"0-.eEx\xff\x00'), size=insertions)):
        yield data[:offset] + bytes([byte]) + data[offset:]


class TestCsvSweep:
    """``validate-config``, ``fit`` and ``experiment`` on seeded mutations of the CSV inputs.

    The measurements and coordinates files of a data-mode config take each
    hostile cell, ragged rows, a duplicate node, truncations and inserted
    bytes.  Each command exits 0 or 2: on 2 with one ``error:`` line and
    nothing written, never with a traceback or a numpy warning; and
    ``validate-config`` refuses exactly what ``experiment`` refuses.
    """

    @pytest.fixture
    def run(self, tmp_path, monkeypatch, capsys):
        # building the argument parser is most of a refused command's time
        parser = cli._build_parser()
        monkeypatch.setattr(cli, "_build_parser", lambda: parser)
        rng = np.random.default_rng(31)
        files = {"measurements": tmp_path / "m.csv", "coordinates": tmp_path / "c.csv"}
        write_measurements(files["measurements"], ["n0", "n1", "n2", "n3"],
                           rng.normal(5.0, 2.0, size=(9, 4)).round(3).tolist())
        write_coords(files["coordinates"], [["n0", 59.3, 18.1], ["n1", 57.7, 12.0],
                                            ["n2", 55.6, 13.0], ["n3", 60.1, 24.9]])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {key: str(path) for key, path in files.items()},
            "kernel_grid": {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 4},
            "optimizer": {"max_iterations": 20},
            "experiment": {"n_train_values": [4], "n_realizations": 1},
            "output_dir": "out",
        }))
        cases = itertools.count()

        def outcome(key, data):
            """The three commands on the config with file ``key`` holding ``data``; asserts."""
            files[key].write_bytes(data.encode() if isinstance(data, str) else data)
            codes = {}
            for command in ("validate-config", "fit", "experiment"):
                work = tmp_path / f"{next(cases)}"
                work.mkdir()
                monkeypatch.chdir(work)  # output_dir is relative
                case = (key, data, command)
                try:
                    codes[command] = rc = cli.main([command, "--config", str(config)])
                except Exception as exc:  # a RuntimeWarning too, as pytest is configured
                    pytest.fail(f"{case}: {exc!r}")
                err = capsys.readouterr().err
                assert rc in (0, 2) and "Traceback" not in err, (case, rc, err)
                if rc == 2:
                    assert err.startswith("error: ") and err.count("\n") == 1, (case, err)
                    assert not any(work.iterdir()), case
            refused = [codes[command] == 2 for command in ("validate-config", "fit", "experiment")]
            assert refused[0] == refused[2] and refused[0] >= refused[1], (key, data, codes)
            return codes["experiment"]

        return files, outcome

    def test_measurements(self, run):
        files, outcome = run
        data = files["measurements"].read_bytes()
        assert outcome("measurements", data) == 0
        for text in line_edits(data.decode(), data_lines=(1, 5), columns=(0, 3)):
            outcome("measurements", text)
        for edited in byte_edits(data, np.random.default_rng(32)):
            outcome("measurements", edited)

    def test_coordinates(self, run):
        files, outcome = run
        data = files["coordinates"].read_bytes()
        assert outcome("coordinates", data) == 0
        for text in line_edits(data.decode(), data_lines=(2,), columns=(0, 1, 2)):
            outcome("coordinates", text)
        for edited in byte_edits(data, np.random.default_rng(33)):
            outcome("coordinates", edited)


def predict_to(tmp_path, model_path, inputs_csv, name):
    """Exit code of ``predict`` writing to ``tmp_path / name``, and that path."""
    out = tmp_path / name
    rc = cli.main(["predict", "--model", str(model_path), "--inputs", str(inputs_csv),
                   "--output", str(out)])
    return rc, out


class TestModelWithoutGraph:
    def test_fit_writes_no_graph(self, fitted_model):
        payload = json.loads(fitted_model[0].read_text())
        assert list(payload) == [
            "format_version", "alpha", "beta", "kernel_grid", "rho", "training_inputs",
            "psi", "target_names", "iterations", "gamma",
        ]

    @pytest.mark.parametrize(
        "adjacency",
        [
            None,  # the graph of the fitted data, as fit wrote it before
            "[[0.0]]",  # a 1-node graph
            "[[-Infinity,1.0],[NaN,0.0]]",
            '"none"',
            "null",
            '[[1,["]"]],{"psi":[]}]',
            '[[1, "x"], {"a": null}]',
        ],
    )
    def test_model_with_a_graph_predicts_the_same(self, tmp_path, fitted_model, adjacency):
        model_path, inputs_csv = fitted_model
        if adjacency is None:
            cfg, _ = cli.load_config(model_path.parent.parent / "config.json")
            graph = cli._dataset_from_config(cfg)[0].graph
            adjacency = orjson.dumps(graph.adjacency, option=orjson.OPT_SERIALIZE_NUMPY).decode()
            assert graph.num_nodes == len(json.loads(model_path.read_text())["target_names"])
        text = model_path.read_text()
        assert text.endswith("}")
        with_graph = tmp_path / "with_graph.json"
        with_graph.write_text(text[:-1] + ',"adjacency":' + adjacency + "}")
        rc, expected = predict_to(tmp_path, model_path, inputs_csv, "pred.csv")
        assert rc == 0
        rc, got = predict_to(tmp_path, with_graph, inputs_csv, "pred-with-graph.csv")
        assert rc == 0
        assert got.read_bytes() == expected.read_bytes()
        model, _ = cli.load_model(with_graph)
        assert not hasattr(model, "graph")


class TestPredictHeader:
    @pytest.mark.parametrize(
        "reorder, column",
        [
            (lambda names, rows: (names[::-1], [row[::-1] for row in rows]), 1),
            (lambda names, rows: ([f"x{i}" for i in range(len(names))], rows), 1),
            (lambda names, rows: (names[:2] + names[3:], [r[:2] + r[3:] for r in rows]), 3),
            (lambda names, rows: (names + ["extra"], [r + [0.5] for r in rows]), 9),
        ],
        ids=["permuted", "foreign", "column-dropped", "column-added"],
    )
    def test_header_other_than_the_target_names_exit_code(self, tmp_path, fitted_model,
                                                          capsys, reorder, column):
        model_path, inputs_csv = fitted_model
        with open(inputs_csv, newline="") as fh:
            names, *rows = list(csv.reader(fh))
        assert len(names) == 8
        names, rows = reorder(names, rows)
        edited = tmp_path / "inputs.csv"
        write_measurements(edited, names, rows)
        rc, out = predict_to(tmp_path, model_path, edited, "pred.csv")
        err = assert_input_error(capsys, rc)
        assert f"column {column} is " in err and "target names" in err
        assert not out.exists()

    def test_non_utf8_inputs_exit_code(self, tmp_path, fitted_model, capsys):
        model_path, inputs_csv = fitted_model
        edited = tmp_path / "inputs.csv"
        edited.write_bytes(inputs_csv.read_bytes() + b"0.5\xff\n")
        rc, out = predict_to(tmp_path, model_path, edited, "pred.csv")
        assert f"{edited}: cannot decode the measurements file" in assert_input_error(capsys, rc)
        assert not out.exists()


class TestTextEncoding:
    def test_fit_and_predict_write_the_same_bytes_under_an_ascii_locale(self, tmp_path,
                                                                        csv_dataset):
        # a node named with a non-ASCII letter, in the files fit reads and in pred.csv's header
        measurements, coords = csv_dataset
        for path in (measurements, coords):
            path.write_text(path.read_text(encoding="utf-8").replace("beta_town", "Tromsø"),
                            encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "data": {"measurements": str(measurements), "coordinates": str(coords)},
            "kernel_grid": {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 8},
        }))
        package_root = str(Path(cli.__file__).resolve().parents[1])
        outputs = []
        for locale_env in ({}, {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}):
            out = tmp_path / f"out{len(outputs)}"
            script = f"""
import locale, sys
import graphkern.cli as cli
print(locale.getpreferredencoding(False))
sys.exit(cli.main(["fit", "--config", {str(config)!r}, "--out", {str(out)!r}])
         or cli.main(["predict", "--model", {str(out / "model.json")!r}, "--inputs",
                      {str(measurements)!r}, "--output", {str(out / "pred.csv")!r}]))
"""
            env = {**os.environ, **locale_env}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                              env.get("PYTHONPATH")]))
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            outputs.append((proc.stdout.split()[0],
                            *((out / name).read_bytes()
                              for name in ("model.json", "trace.csv", "pred.csv"))))
        (_, *expected), (encoding, *got) = outputs
        assert codecs.lookup(encoding).name == "ascii"
        assert got == expected
        assert "Tromsø".encode() in expected[2].splitlines()[0]


class TestCommandImports:
    def test_no_command_loads_scipy(self, tmp_path, fitted_model):
        # a fresh interpreter, so that no other test has loaded scipy yet
        model_path, inputs_csv = fitted_model
        config = synthetic_config(tmp_path)
        script = f"""
import sys
import graphkern.cli as cli
assert "scipy" not in sys.modules, "import graphkern.cli"
assert cli.main(["validate-config", "--config", {str(config)!r}]) == 0
assert "scipy" not in sys.modules, "validate-config"
assert cli.main(["predict", "--model", {str(model_path)!r}, "--inputs",
                 {str(inputs_csv)!r}, "--output", {str(tmp_path / "pred.csv")!r}]) == 0
assert "scipy" not in sys.modules, "predict"
assert cli.main(["fit", "--config", {str(config)!r}, "--out", {str(tmp_path / "fit")!r}]) == 0
assert "scipy" not in sys.modules, "fit"
assert cli.main(["experiment", "--config", {str(config)!r}, "--out",
                 {str(tmp_path / "exp")!r}]) == 0
assert "scipy" not in sys.modules, "experiment"
"""
        package_root = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestFitCost:
    def test_one_solve_per_iteration_plus_one(self, tmp_path, monkeypatch):
        solves = []

        route = solver._solve_rotated

        def counting(*args):
            solves.append(args)
            return route(*args)

        # every solve: the optimizer's and public solve_structured's
        for module in (solver, mkl):
            monkeypatch.setattr(module, "_solve_rotated", counting)
        path = synthetic_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 0
        iterations = json.loads((out / "model.json").read_text())["iterations"]
        assert len(solves) == iterations + 1

    def test_fit_never_allocates_the_kernel_stack(self, tmp_path):
        # 300 training inputs and 100 kernels: the S x N x N stack would be 72 MB
        path = synthetic_config(
            tmp_path,
            synthetic={"num_nodes": 8, "num_pairs": 300, "num_modes": 3},
            kernel_grid={"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 100},
        )
        stack_bytes = 100 * 300 * 300 * 8
        tracemalloc.start()
        try:
            rc = cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "out")])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < stack_bytes / 4, f"peak traced allocation {peak / 1e6:.1f} MB"


class TestExperimentCommand:
    def test_smoke_run_produces_schema_valid_outputs(self, tmp_path):
        path = synthetic_config(tmp_path)
        out = tmp_path / "exp"
        assert cli.main(["experiment", "--config", str(path), "--out", str(out)]) == 0

        with open(out / "nmse_vs_ntrain.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "method", "n_train", "nmse_mean", "nmse_std", "n_ok", "mean_iterations",
        ]
        assert len(rows) == 1 + 3 * 2  # three methods, two training sizes
        for row in rows[1:]:
            assert float(row[2]) >= 0.0

        with open(out / "rho_instance.csv", newline="") as fh:
            rho_rows = list(csv.reader(fh))
        assert rho_rows[0] == ["kernel_index", "parameter", "rho"]
        assert len(rho_rows) == 1 + 12  # one row per kernel
        parameters = KernelGrid("gaussian", 0.01, 10.0, 12).parameters()
        assert [float(r[1]) for r in rho_rows[1:]] == parameters.tolist()

        report = json.loads((out / "report.json").read_text())
        assert [r["n_train"] for r in report["results"]] == [4, 6]
        assert all("nmse_mean" in r for r in report["results"])
        assert all(r["mean_fw_gap"] >= 0.0 for r in report["results"])

    def test_seed_override_changes_results(self, tmp_path):
        path = synthetic_config(tmp_path)
        out1, out2, out3 = (tmp_path / d for d in ("e1", "e2", "e3"))
        for out, seed in ((out1, "99"), (out2, "99"), (out3, "7")):
            rc = cli.main(
                ["experiment", "--config", str(path), "--out", str(out), "--seed", seed]
            )
            assert rc == 0
        r1 = (out1 / "nmse_vs_ntrain.csv").read_text()
        r2 = (out2 / "nmse_vs_ntrain.csv").read_text()
        r3 = (out3 / "nmse_vs_ntrain.csv").read_text()
        assert r1 == r2
        assert r1 != r3

    def test_training_size_without_test_pairs_exit_code(self, tmp_path, capsys):
        path = synthetic_config(tmp_path, synthetic={"num_nodes": 8, "num_pairs": 20})
        cfg = json.loads(path.read_text())
        cfg["experiment"]["n_train_values"] = [4, 30]
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        rc = cli.main(["experiment", "--config", str(path), "--out", str(out)])
        assert "[30]" in assert_input_error(capsys, rc)
        assert not out.exists()  # refused before fitting

    def test_grid_search_block(self, tmp_path):
        path = synthetic_config(tmp_path)
        cfg = json.loads(path.read_text())
        cfg["experiment"]["grid_search"] = {"alphas": [0.05, 0.5], "betas": [0.0, 5.5]}
        cfg["experiment"]["n_train_values"] = [6]
        path.write_text(json.dumps(cfg))
        out = tmp_path / "gs"
        assert cli.main(["experiment", "--config", str(path), "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert len(report["results"]) == 1

    def test_threads_other_than_one_exit_code(self, tmp_path):
        path = synthetic_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["experiment", "--config", str(path), "--out", str(tmp_path / "out"),
                      "--threads", "2"])
        assert excinfo.value.code == 2
        assert not (tmp_path / "out").exists()

    def test_threads_one_writes_the_outputs_of_no_flag(self, tmp_path):
        path = synthetic_config(tmp_path)
        plain, one = tmp_path / "plain", tmp_path / "one"
        assert cli.main(["experiment", "--config", str(path), "--out", str(plain)]) == 0
        assert cli.main(["experiment", "--config", str(path), "--out", str(one),
                         "--threads", "1"]) == 0
        for name in ("nmse_vs_ntrain.csv", "report.json"):
            assert (plain / name).read_bytes() == (one / name).read_bytes()


class TestDefaults:
    def test_defaults_are_those_of_the_config_classes(self):
        cfg = cli._merge_defaults(cli.DEFAULT_CONFIG, {})
        assert cli._read_run(cfg)[0] == experiment.ExperimentConfig()
        assert cfg["experiment"]["n_train_values"] == list(experiment.DEFAULT_N_TRAIN_SWEEP)
        # report.json repeats the block in this order, with integer counts
        assert list(cfg["optimizer"]) == ["radius", "mu0", "q", "epsilon", "max_iterations"]
        assert all(type(cfg["optimizer"][k]) is int for k in ("q", "max_iterations"))
        assert type(cfg["kernel_grid"]["count"]) is int
