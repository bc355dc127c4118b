"""Tests of the benchmark's own code: inputs, output checks, tracing.

Run from the root of a checkout:

    PYTHONPATH=src python3 -m pytest perfbench -q

Each oracle is shown to accept a real output of the program and to
reject the same output after one corruption.
"""

import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

import gen
import oracles
import run
import speed
import tracer
import worker
from graphkern import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def fitted(tmp_path_factory):
    """A small dataset, its fitted model and predictions for later rows."""
    base = tmp_path_factory.mktemp("fit")
    lat, lon, rows = gen.make_series((0, 9), 12, 41, scale_rows=30)
    data = base / "data"
    worker._write_dataset(data, lat, lon, rows[:30])
    worker._write_config(data / "config.json", data, {"seed": 0})
    assert cli.main(["fit", "--config", str(data / "config.json"), "--out", str(base / "out")]) == 0
    names = gen.node_names(12)
    gen.write_measurements(base / "new.csv", names, rows[30:40])
    assert cli.main(["predict", "--model", str(base / "out" / "model.json"),
                     "--inputs", str(base / "new.csv"), "--output", str(base / "pred.csv")]) == 0
    return {"base": base, "rows": rows, "adjacency": gen.adjacency(lat, lon), "names": names}


def _rewrite(src, dest, edit):
    payload = json.loads(Path(src).read_text())
    edit(payload)
    Path(dest).write_text(json.dumps(payload))
    return dest


def _check_fit(fitted, model):
    rows = fitted["rows"][:30]
    return oracles.check_fit(model, rows[:-1], rows[1:], fitted["adjacency"],
                             worker.GRID, worker.RADIUS, worker.Q)


def test_generator_is_seeded_and_extends():
    a = gen.make_series((4, 1), 20, 50, scale_rows=40)
    b = gen.make_series((4, 1), 20, 40)
    c = gen.make_series((5, 1), 20, 40)
    np.testing.assert_array_equal(a[0], b[0])
    np.testing.assert_allclose(a[2][:40], b[2], rtol=1e-12)
    assert not np.allclose(b[2], c[2])


def test_fit_oracle_accepts_program_output(fitted):
    r = _check_fit(fitted, fitted["base"] / "out" / "model.json")
    assert r["residual"] < oracles.RESIDUAL_TOL
    assert 0.0 < r["nmse"] < 1.0


@pytest.mark.parametrize("edit", [
    lambda p: p["psi"][3].__setitem__(2, p["psi"][3][2] * (1 + 1e-6)),
    lambda p: p["rho"].__setitem__(int(np.argmax(p["rho"])), -1e-3),
    lambda p: p.__setitem__("rho", [2.0 * v for v in p["rho"]]),
    lambda p: p["training_inputs"][0].__setitem__(0, 0.5),
    lambda p: p.__delitem__("psi"),
], ids=["psi", "negative-rho", "rho-outside-ball", "inputs", "missing-key"])
def test_fit_oracle_rejects_corruption(fitted, tmp_path, edit):
    model = _rewrite(fitted["base"] / "out" / "model.json", tmp_path / "model.json", edit)
    with pytest.raises(oracles.OracleError):
        _check_fit(fitted, model)


def _check_predict(fitted, pred):
    new = fitted["rows"][30:40]
    return oracles.check_predict(fitted["base"] / "out" / "model.json", pred, new,
                                 fitted["names"], worker.GRID, np.arange(0, 10, 3))


def test_predict_oracle_accepts_program_output(fitted):
    pred = _check_predict(fitted, fitted["base"] / "pred.csv")
    assert pred.shape == (10, 12)


@pytest.mark.parametrize("corrupt", ["value", "header", "row"])
def test_predict_oracle_rejects_corruption(fitted, tmp_path, corrupt):
    lines = (fitted["base"] / "pred.csv").read_text().splitlines()
    if corrupt == "value":
        cells = lines[4].split(",")
        cells[5] = repr(float(cells[5]) * (1 + 1e-6))
        lines[4] = ",".join(cells)
    elif corrupt == "header":
        lines[0] = lines[0].replace("n0003", "n9999")
    else:
        del lines[-1]
    bad = tmp_path / "pred.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(oracles.OracleError):
        _check_predict(fitted, bad)


@pytest.fixture(scope="module")
def swept(tmp_path_factory):
    base = tmp_path_factory.mktemp("sweep")
    lat, lon, rows = gen.make_series((1, 0, 0), 10, 21)
    worker._write_dataset(base, lat, lon, rows)
    worker._write_config(base / "config.json", base, {
        "experiment": {"n_train_values": [4, 8], "n_realizations": 3}, "seed": 0})
    assert cli.main(["experiment", "--config", str(base / "config.json"),
                     "--out", str(base / "out")]) == 0
    return base / "out"


def _check_sweep(out):
    return oracles.check_sweep(out, (4, 8), 3, worker.METHODS, worker.RADIUS)


def test_sweep_oracle_accepts_program_output(swept):
    r = _check_sweep(swept)
    assert r["trials"] == 6 and r["failed"] == 0 and r["ok_multi"] == 6
    assert np.isfinite(r["nmse_sum"]) and r["nmse_sum"] > 0


def _nan_nmse(p):
    p["results"][1]["nmse_mean"]["multi_kernel"] = float("nan")


def _uncounted_failure(p):
    p["results"][0]["n_ok"]["single_kernel"] = 2


@pytest.mark.parametrize("edit", [_nan_nmse, _uncounted_failure],
                         ids=["nan-nmse", "n_failed-not-counted"])
def test_sweep_oracle_rejects_corruption(swept, tmp_path, edit):
    out = tmp_path / "out"
    shutil.copytree(swept, out)
    _rewrite(out / "report.json", out / "report.json", edit)
    with pytest.raises(oracles.OracleError):
        _check_sweep(out)


def test_sweep_oracle_rejects_csv_disagreeing_with_report(swept, tmp_path):
    out = tmp_path / "out"
    shutil.copytree(swept, out)
    text = (out / "nmse_vs_ntrain.csv").read_text().splitlines()
    cells = text[1].split(",")
    cells[2] = repr(float(cells[2]) + 1e-3)
    text[1] = ",".join(cells)
    (out / "nmse_vs_ntrain.csv").write_text("\n".join(text) + "\n")
    with pytest.raises(oracles.OracleError):
        _check_sweep(out)


def test_frank_wolfe_gap_is_zero_at_the_best_vertex():
    grad = np.array([-1.0, -3.0, -2.0])
    assert oracles.frank_wolfe_gap(grad, np.array([0.0, 5.0, 0.0]), 5.0, 1) == 0.0
    assert oracles.frank_wolfe_gap(grad, np.array([5.0, 0.0, 0.0]), 5.0, 1) == 10.0


def test_tracer_wraps_every_binding_and_restores(fitted, tmp_path):
    import graphkern.experiment
    import graphkern.mkl
    import graphkern.solver

    original = graphkern.solver.solve_structured
    t = tracer.Tracer()
    t.install()
    try:
        assert not t.missing
        for mod in (graphkern.solver, graphkern.mkl, graphkern.experiment, cli):
            assert mod.solve_structured.__wrapped__ is original
        assert cli.main(["predict", "--model", str(fitted["base"] / "out" / "model.json"),
                         "--inputs", str(fitted["base"] / "new.csv"),
                         "--output", str(tmp_path / "pred.csv")]) == 0
    finally:
        t.uninstall()
    assert graphkern.mkl.solve_structured is original
    m = t.metrics(1)
    assert m["cli.cmd_predict.calls"] == 1 and m["cli.load_model.calls"] == 1
    assert m["kernels.KernelDictionary.from_specs.under_load_model_ms"] > 0
    for mod, attr in tracer.TRACED:
        name = f"{mod}.{attr}"
        assert 0.0 <= m[f"{name}.self_ms"] <= m[f"{name}.total_ms"] + 1e-9
    # the command's self time excludes the load and the kernel evaluation
    assert m["cli.cmd_predict.self_ms"] < m["cli.cmd_predict.total_ms"] - m["cli.load_model.total_ms"] + 1e-6


def test_speed_samples_come_from_a_helper_process():
    for cpu_share in (1.0, 0.5):
        with speed.Helper(cpu_share) as helper:
            pid = helper._proc.pid
            factor = helper.sample()
        assert pid != os.getpid() and helper._proc.returncode == 0
        assert factor > 0
    assert speed.rescale(1.0, 2.0, 2.0) == pytest.approx(0.5)


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_run_refuses_a_directory_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "scale-fit", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
