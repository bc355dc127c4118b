"""CLI: ingestion, config validation, fit/predict/experiment round trips."""

import csv
import json
import math
import tracemalloc

import numpy as np
import pytest

from graphkern import (
    SolverConfig, build_dictionary, cli, experiment, grid_specs, mkl, optimize, solver,
)


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

    @pytest.mark.parametrize("params", [[math.nan, 5.5], [0.02, math.inf], [0.02]])
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

    @pytest.mark.parametrize("command", ["validate-config", "fit"])
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
        ],
        ids=lambda v: ".".join(v) if isinstance(v, tuple) else repr(v),
    )
    def test_bad_regularization_exit_code(self, tmp_path, capsys, command, keys, value):
        path = synthetic_config(tmp_path)
        cfg = json.loads(path.read_text())
        block = cfg
        for key in keys[:-1]:
            block = block[key]
        block[keys[-1]] = value
        path.write_text(json.dumps(cfg))  # NaN and Infinity as JSON literals
        err = assert_input_error(capsys, run_on_config(command, path, tmp_path / "out"))
        assert f"{keys[-1]} must be finite" in err
        assert not (tmp_path / "out").exists()

    def test_roundtrip_prediction_matches_in_process(self, tmp_path):
        path = synthetic_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 0
        model, names = cli.load_model(out / "model.json")

        cfg = cli.load_config(path)
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

    def test_fit_refuses_threads(self, tmp_path):
        path = synthetic_config(tmp_path)
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fit", "--config", str(path), "--out", str(tmp_path / "out"),
                      "--threads", "2"])
        assert excinfo.value.code == 2

    def test_model_file_round_trips_arrays_bit_exactly(self, tmp_path):
        cfg = cli.load_config(synthetic_config(tmp_path))
        dataset, names = cli._dataset_from_config(cfg)
        d = build_dictionary(dataset.inputs, count=12)
        _, trace, fitted = optimize(d, dataset.graph, dataset.targets, SolverConfig(), 0.1, 2.0)
        path = tmp_path / "model.json"
        cli.save_model(path, fitted, cfg["kernel_grid"], names, trace.iterations_used,
                       trace.final_gamma)
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
            "psi", "target_names", "iterations", "gamma", "adjacency",
        ]
        for key, expected in (
            ("rho", fitted.rho),
            ("training_inputs", fitted.dictionary.training_inputs),
            ("psi", fitted.psi),
            ("adjacency", fitted.graph.adjacency),
        ):
            np.testing.assert_array_equal(
                np.array(payload[key]).view(np.uint64), expected.view(np.uint64)
            )
        assert payload["gamma"] == trace.final_gamma
        assert payload["kernel_grid"] == cfg["kernel_grid"]

    def test_extra_grid_key_is_not_written(self, tmp_path):
        # an integer beyond 64 bits, which the model encoder cannot write
        grid = {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 12}
        path = synthetic_config(tmp_path, kernel_grid={**grid, "note": 10**30})
        out = tmp_path / "out"
        assert cli.main(["fit", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "model.json").read_text())["kernel_grid"] == grid
        model, names = cli.load_model(out / "model.json")
        inputs_csv = tmp_path / "inputs.csv"
        write_measurements(inputs_csv, names, model.dictionary.training_inputs[:2].tolist())
        rc = cli.main(["predict", "--model", str(out / "model.json"), "--inputs",
                       str(inputs_csv), "--output", str(tmp_path / "pred.csv")])
        assert rc == 0

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


def predict_with_edited_model(tmp_path, fitted_model, edit):
    model_path, inputs_csv = fitted_model
    payload = json.loads(model_path.read_text())
    edit(payload)
    edited = tmp_path / "edited.json"
    edited.write_text(json.dumps(payload))
    return cli.main(
        ["predict", "--model", str(edited), "--inputs", str(inputs_csv),
         "--output", str(tmp_path / "pred.csv")]
    )


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
            lambda p: p.update(adjacency=[[0.0]]),  # 1-node graph
            lambda p: p["kernel_grid"].update(lo=-1.0),
            lambda p: p["kernel_grid"].pop("count"),
            lambda p: p.update(alpha="none"),
            lambda p: p.update(alpha=10**400),  # beyond float range
            lambda p: p["rho"].__setitem__(0, math.nan),
            lambda p: p["psi"][0].__setitem__(0, math.inf),
            lambda p: p["rho"].__setitem__(0, -5.0),  # a negative weight
        ],
    )
    def test_malformed_model_exit_code(self, tmp_path, fitted_model, edit):
        assert predict_with_edited_model(tmp_path, fitted_model, edit) == 2

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


class TestFitCost:
    def test_one_solve_per_iteration_plus_one(self, tmp_path, monkeypatch):
        solves = []

        def counting(*args):
            solves.append(args)
            return solver.solve_structured(*args)

        for module in (mkl, cli):
            monkeypatch.setattr(module, "solve_structured", counting)
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
        specs = grid_specs("gaussian", (0.01, 10.0), 12)
        assert [float(r[1]) for r in rho_rows[1:]] == [s.parameter for s in specs]

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
        assert cli._experiment_config(cfg, 30) == experiment.ExperimentConfig()
        assert cfg["experiment"]["n_train_values"] == list(experiment.DEFAULT_N_TRAIN_SWEEP)
        # report.json repeats the block in this order, with integer counts
        assert list(cfg["optimizer"]) == [
            "radius", "mu0", "q", "epsilon", "max_iterations", "momentum",
        ]
        assert all(type(cfg["optimizer"][k]) is int for k in ("q", "max_iterations"))
        assert type(cfg["kernel_grid"]["count"]) is int
