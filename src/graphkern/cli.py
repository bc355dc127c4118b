"""Command-line entry point: fit, predict, experiment, validate-config.

Datasets come either from a pair of CSV files (a measurements table whose
header names the graph nodes plus a node/latitude/longitude table) or from
the built-in synthetic generator.  Consecutive measurement rows form the
(input, target) pairs: row n predicts row n+1.

All run parameters live in a JSON config file; ``--seed``, ``--out`` and
``--threads`` override it from the command line.  Results are written as
CSV (for external plotting) and JSON.  Exit codes: 0 success, 1 numeric
failure, 2 input or config error.  Set the ``GRAPHKERN_LOG`` environment
variable (DEBUG/INFO/WARNING/...) to control verbosity.
"""

import argparse
import csv
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import experiment as exp
from .graph import NodeCoordinates, build_graph, geodesic_adjacency
from .kernels import GAUSSIAN, KernelDictionary, build_dictionary, grid_specs
from .mkl import optimize
# solve_structured is not called here; it stays bound in this module like in
# every other that reaches the solver route, for tools that wrap the route
# at each binding (perfbench/tracer.py).
from .solver import KrgModel, SingularSystemError, solve_structured  # noqa: F401

log = logging.getLogger("graphkern.cli")

MODEL_FORMAT_VERSION = 1


class ConfigError(Exception):
    """Bad input file or configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------

def ingest_dataset(measurements_path, coords_path):
    """Load a measurements table and matching node coordinates.

    The measurements CSV has a header row of node names and one row of
    numeric cells per time step.  The coordinates CSV has rows of
    ``node,lat,lon`` (an optional header row is skipped) and must cover
    exactly the nodes named in the measurements header.  Returns the
    (days, M) measurement matrix and the aligned
    :class:`~graphkern.graph.NodeCoordinates`.
    """
    names, matrix = _read_measurements(measurements_path)
    coord_map = _read_coordinates(coords_path)
    missing = [n for n in names if n not in coord_map]
    extra = [n for n in coord_map if n not in names]
    if missing or extra:
        raise ConfigError(
            f"node names differ between {measurements_path} and {coords_path}: "
            f"missing {missing[:5]}, extra {extra[:5]}"
        )
    positions = np.array([coord_map[n] for n in names])
    return matrix, NodeCoordinates(positions, mode="geodesic")


def _read_measurements(path, min_rows=2):
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ConfigError(f"cannot open measurements file {path}: {err}") from err
    with fh:
        reader = csv.reader(fh)
        rows = list(reader)
    if not rows:
        raise ConfigError(f"{path}: empty measurements file")
    names = [c.strip() for c in rows[0]]
    if len(set(names)) != len(names):
        raise ConfigError(f"{path}: duplicate node names in header")
    data = []
    for line_no, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(names):
            raise ConfigError(
                f"{path}: line {line_no}: expected {len(names)} cells, got {len(row)}"
            )
        values = []
        for col, cell in enumerate(row):
            cell = cell.strip()
            if not cell:
                raise ConfigError(
                    f"{path}: line {line_no}: missing value in column "
                    f"{col + 1} ({names[col]})"
                )
            try:
                values.append(float(cell))
            except ValueError as err:
                raise ConfigError(
                    f"{path}: line {line_no}: non-numeric cell {cell!r} in "
                    f"column {col + 1} ({names[col]})"
                ) from err
        data.append(values)
    if len(data) < min_rows:
        raise ConfigError(f"{path}: need at least {min_rows} measurement rows")
    return names, np.array(data)


def _read_coordinates(path):
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ConfigError(f"cannot open coordinates file {path}: {err}") from err
    coord_map = {}
    with fh:
        for line_no, row in enumerate(csv.reader(fh), start=1):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != 3:
                raise ConfigError(
                    f"{path}: line {line_no}: expected node,lat,lon; got {len(row)} cells"
                )
            name = row[0].strip()
            try:
                lat, lon = float(row[1]), float(row[2])
            except ValueError:
                if line_no == 1:
                    continue  # header row
                raise ConfigError(
                    f"{path}: line {line_no}: non-numeric coordinates {row[1:]!r}"
                ) from None
            if name in coord_map:
                raise ConfigError(f"{path}: line {line_no}: duplicate node {name!r}")
            coord_map[name] = (lat, lon)
    if not coord_map:
        raise ConfigError(f"{path}: no coordinate rows found")
    return coord_map


# ---------------------------------------------------------------------------
# Config handling
# ---------------------------------------------------------------------------

DEFAULT_CONFIG = {
    "kernel_grid": {"family": GAUSSIAN, "lo": 0.01, "hi": 10.0, "count": 100},
    "alpha": 0.1,
    "beta": 5.5,
    "optimizer": {
        "radius": 5.0,
        "mu0": 0.01,
        "q": 1,
        "epsilon": 1e-4,
        "max_iterations": 500,
        "momentum": "damped",
    },
    "experiment": {
        "snr_db": 0.0,
        "n_train_values": [4, 8, 16, 30],
        "n_realizations": 100,
        "linear_alpha": exp.DEFAULT_LINEAR_ALPHA,
        "single_sigma_sq": 1.0,
        "params_by_n_train": {str(k): list(v) for k, v in exp.DEFAULT_SINGLE_PARAMS.items()},
    },
    "seed": 0,
    "output_dir": "graphkern-out",
}


def load_config(path):
    """Parse and validate a JSON run config, filling in defaults."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot open config file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    cfg = _merge_defaults(DEFAULT_CONFIG, raw)
    _validate_config(cfg, path)
    return cfg


def _merge_defaults(defaults, overrides):
    merged = {}
    for key, value in defaults.items():
        if key in overrides and isinstance(value, dict) and isinstance(overrides[key], dict):
            merged[key] = _merge_defaults(value, overrides[key])
        elif key in overrides:
            merged[key] = overrides[key]
        else:
            merged[key] = value
    for key, value in overrides.items():
        if key not in merged:
            merged[key] = value
    return merged


def _validate_config(cfg, path):
    has_files = "data" in cfg
    has_synth = "synthetic" in cfg
    if has_files == has_synth:
        raise ConfigError(
            f"{path}: exactly one of 'data' (file mode) or 'synthetic' "
            f"(generator mode) must be present"
        )
    if has_files:
        data = cfg["data"]
        for key in ("measurements", "coordinates"):
            if key not in data:
                raise ConfigError(f"{path}: data block is missing {key!r}")
            if not Path(data[key]).exists():
                raise ConfigError(f"{path}: referenced file does not exist: {data[key]}")
    exp_cfg = cfg["experiment"]
    try:
        sizes = [int(n) for n in exp_cfg["n_train_values"]]
        if not sizes or any(n < 1 for n in sizes):
            raise ValueError("n_train_values must be positive integers")
        for key, value in exp_cfg.get("params_by_n_train", {}).items():
            int(key)
            a, b = float(value[0]), float(value[1])
            if a < 0 or b < 0:
                raise ValueError(f"params_by_n_train[{key}] must be nonnegative")
    except (KeyError, TypeError, ValueError, IndexError) as err:
        raise ConfigError(f"{path}: invalid experiment block: {err}") from err
    grid = cfg["kernel_grid"]
    try:
        exp.ExperimentConfig(
            snr_db=float(cfg["experiment"]["snr_db"]),
            n_train=2,
            n_realizations=int(cfg["experiment"]["n_realizations"]),
            grid_family=grid["family"],
            grid_span=(float(grid["lo"]), float(grid["hi"])),
            grid_count=int(grid["count"]),
            linear_alpha=float(cfg["experiment"]["linear_alpha"]),
            single_sigma_sq=float(cfg["experiment"]["single_sigma_sq"]),
            alpha=float(cfg["alpha"]),
            beta=float(cfg["beta"]),
            radius=float(cfg["optimizer"]["radius"]),
            mu0=float(cfg["optimizer"]["mu0"]),
            q=int(cfg["optimizer"]["q"]),
            epsilon=float(cfg["optimizer"]["epsilon"]),
            max_iterations=int(cfg["optimizer"]["max_iterations"]),
            momentum=cfg["optimizer"]["momentum"],
            master_seed=int(cfg["seed"]),
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: invalid configuration: {err}") from err


def _experiment_config(cfg, n_train):
    grid = cfg["kernel_grid"]
    e = cfg["experiment"]
    return exp.ExperimentConfig(
        snr_db=float(e["snr_db"]),
        n_train=int(n_train),
        n_realizations=int(e["n_realizations"]),
        grid_family=grid["family"],
        grid_span=(float(grid["lo"]), float(grid["hi"])),
        grid_count=int(grid["count"]),
        linear_alpha=float(e["linear_alpha"]),
        single_sigma_sq=float(e["single_sigma_sq"]),
        alpha=float(cfg["alpha"]),
        beta=float(cfg["beta"]),
        radius=float(cfg["optimizer"]["radius"]),
        mu0=float(cfg["optimizer"]["mu0"]),
        q=int(cfg["optimizer"]["q"]),
        epsilon=float(cfg["optimizer"]["epsilon"]),
        max_iterations=int(cfg["optimizer"]["max_iterations"]),
        momentum=cfg["optimizer"]["momentum"],
        master_seed=int(cfg["seed"]),
    )


def _dataset_from_config(cfg):
    """Build the ExperimentDataset plus node names from a validated config."""
    if "data" in cfg:
        matrix, coords = ingest_dataset(
            cfg["data"]["measurements"], cfg["data"]["coordinates"]
        )
        graph = build_graph(geodesic_adjacency(coords))
        with open(cfg["data"]["measurements"], newline="") as fh:
            names = [c.strip() for c in next(csv.reader(fh))]
        dataset = exp.ExperimentDataset(
            inputs=matrix[:-1], targets=matrix[1:], graph=graph, coords=coords
        )
        return dataset, names
    synth = cfg["synthetic"]
    dataset = exp.make_synthetic_dataset(
        num_nodes=int(synth.get("num_nodes", 45)),
        num_pairs=int(synth.get("num_pairs", 60)),
        num_modes=int(synth.get("num_modes", 8)),
        seed=int(synth.get("seed", cfg["seed"])),
        mean_sq_distance=float(synth.get("mean_sq_distance", 6.0)),
        mode_decay=float(synth.get("mode_decay", 0.7)),
        mean_level=float(synth.get("mean_level", 1.0)),
        mode=synth.get("mode", "euclidean"),
    )
    names = [f"node{i}" for i in range(dataset.graph.num_nodes)]
    return dataset, names


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(path, model, grid_cfg, names, iterations, final_gamma):
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "alpha": model.alpha,
        "beta": model.beta,
        "kernel_grid": grid_cfg,
        "rho": [float(v) for v in model.rho],
        "training_inputs": model.dictionary.training_inputs.tolist(),
        "psi": model.psi.tolist(),
        "target_names": list(names),
        "iterations": int(iterations),
        "gamma": float(final_gamma),
        "adjacency": model.graph.adjacency.tolist(),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


# Keys of a model file that predictions depend on.
MODEL_KEYS = (
    "alpha", "beta", "kernel_grid", "rho", "training_inputs", "psi",
    "target_names", "adjacency",
)


def load_model(path):
    """Rebuild a fitted model from a model file; returns (model, names).

    The file is checked against the schema :func:`save_model` writes: every
    key in ``MODEL_KEYS``, ``psi`` of shape N x M for N training inputs and
    M target names, one weight per grid kernel and an M-node graph.
    """
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot open model file {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: model file must hold a JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise ConfigError(
            f"{path}: unsupported model format version {payload.get('format_version')!r}"
        )
    missing = [key for key in MODEL_KEYS if key not in payload]
    if missing:
        raise ConfigError(f"{path}: model file is missing {missing}")
    names = payload["target_names"]
    if not isinstance(names, list):
        raise ConfigError(f"{path}: target_names must be a list")
    try:
        grid = payload["kernel_grid"]
        specs = grid_specs(grid["family"], (grid["lo"], grid["hi"]), int(grid["count"]))
        x = np.array(payload["training_inputs"], dtype=float)
        dictionary = KernelDictionary.from_specs(x, specs)
        psi = np.array(payload["psi"], dtype=float)
        rho = np.array(payload["rho"], dtype=float)
        graph = build_graph(np.array(payload["adjacency"], dtype=float))
        alpha, beta = float(payload["alpha"]), float(payload["beta"])
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: invalid model: {err}") from err
    n, m = dictionary.num_samples, len(names)
    if psi.shape != (n, m):
        raise ConfigError(
            f"{path}: psi has shape {psi.shape}, expected ({n}, {m}) for {n} "
            f"training inputs and {m} target names"
        )
    if rho.shape != (dictionary.num_kernels,):
        raise ConfigError(
            f"{path}: rho has shape {rho.shape}, expected ({dictionary.num_kernels},)"
        )
    if graph.num_nodes != m:
        raise ConfigError(f"{path}: adjacency has {graph.num_nodes} nodes, expected {m}")
    model = KrgModel(psi=psi, alpha=alpha, beta=beta, dictionary=dictionary, rho=rho, graph=graph)
    return model, names


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg, out_dir, threads):
    dataset, names = _dataset_from_config(cfg)
    config = _experiment_config(cfg, n_train=max(1, dataset.num_pairs - 1))
    dictionary = build_dictionary(
        dataset.inputs,
        family=config.grid_family,
        span=config.grid_span,
        count=config.grid_count,
    )
    _, trace, model = optimize(
        dictionary, dataset.graph, dataset.targets, config.solver_config(),
        config.alpha, config.beta,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    grid_cfg = dict(cfg["kernel_grid"])
    save_model(
        out_dir / "model.json", model, grid_cfg, names,
        trace.iterations_used, trace.final_gamma,
    )
    trace.write_csv(out_dir / "trace.csv")
    log.info(
        "fitted multi-kernel model on %d pairs in %d iterations (gamma=%.6g)",
        dataset.num_pairs, trace.iterations_used, trace.final_gamma,
    )
    print(f"model written to {out_dir / 'model.json'}")
    print(f"trace written to {out_dir / 'trace.csv'}")
    return 0


def cmd_predict(model_path, inputs_path, output_path):
    model, names = load_model(model_path)
    in_names, matrix = _read_measurements(inputs_path, min_rows=1)
    if len(in_names) != model.dictionary.training_inputs.shape[1]:
        raise ConfigError(
            f"{inputs_path}: expected {model.dictionary.training_inputs.shape[1]} "
            f"input columns, got {len(in_names)}"
        )
    predictions = model.predict(matrix)
    try:
        fh = open(output_path, "w", newline="")
    except OSError as err:
        raise ConfigError(f"cannot open output file {output_path}: {err}") from err
    with fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        for row in predictions:
            writer.writerow([repr(float(v)) for v in row])
    print(f"predictions written to {output_path}")
    return 0


def cmd_experiment(cfg, out_dir, threads):
    dataset, _ = _dataset_from_config(cfg)
    e = cfg["experiment"]
    n_values = [int(n) for n in e["n_train_values"]]
    params = {int(k): tuple(v) for k, v in e.get("params_by_n_train", {}).items()}

    if "grid_search" in e:
        gs = e["grid_search"]
        for n in n_values:
            cfg_n = _experiment_config(cfg, n)
            a, b = exp.grid_search_hyperparams(
                dataset, exp.METHOD_SINGLE, gs["alphas"], gs["betas"], cfg_n
            )
            params[n] = (a, b)
            log.info("grid search at n_train=%d selected alpha=%g beta=%g", n, a, b)

    config = _experiment_config(cfg, n_values[0])
    reports = exp.n_train_sweep(
        dataset, config, n_train_values=n_values, params_by_n=params,
        max_workers=threads,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    nmse_path = out_dir / "nmse_vs_ntrain.csv"
    with open(nmse_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["method", "n_train", "nmse_mean", "nmse_std", "n_ok", "mean_iterations"]
        )
        for report in reports:
            for method in exp.METHODS:
                writer.writerow(
                    [
                        method,
                        report.config.n_train,
                        repr(report.nmse_mean[method]),
                        repr(report.nmse_std[method]),
                        report.n_ok[method],
                        repr(report.mean_iterations) if method == exp.METHOD_MULTI else "",
                    ]
                )

    rho_path = out_dir / "rho_instance.csv"
    rho_report = reports[-1]
    specs = grid_specs(config.grid_family, config.grid_span, config.grid_count)
    with open(rho_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel_index", "parameter", "rho"])
        rho = rho_report.representative_rho
        for i, spec in enumerate(specs):
            value = 0.0 if rho is None else float(rho[i])
            writer.writerow([i + 1, repr(float(spec.parameter)), repr(value)])

    report_path = out_dir / "report.json"
    with open(report_path, "w") as fh:
        json.dump(
            {"config": cfg, "results": [r.to_dict() for r in reports]},
            fh,
            indent=2,
        )
    for path in (nmse_path, rho_path, report_path):
        print(f"wrote {path}")
    return 0


def cmd_validate_config(config_path):
    load_config(config_path)
    print(f"{config_path}: OK")
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _build_parser():
    parser = argparse.ArgumentParser(
        prog="graphkern",
        description="Multi-kernel regression for smooth graph signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, config_required=True):
        p.add_argument("--config", required=config_required, help="JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        p.add_argument("--threads", type=int, default=1, help="worker threads")

    add_common(sub.add_parser("fit", help="fit a multi-kernel model"))
    p_pred = sub.add_parser("predict", help="predict with a saved model")
    p_pred.add_argument("--model", required=True, help="model.json from fit")
    p_pred.add_argument("--inputs", required=True, help="CSV of input rows")
    p_pred.add_argument("--output", required=True, help="where to write predictions")
    add_common(sub.add_parser("experiment", help="run the Monte-Carlo protocol"))
    p_val = sub.add_parser("validate-config", help="check a config file")
    p_val.add_argument("--config", required=True)
    return parser


def main(argv=None):
    level = os.environ.get("GRAPHKERN_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "validate-config":
            return cmd_validate_config(args.config)
        if args.command == "predict":
            return cmd_predict(args.model, args.inputs, args.output)
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
        if args.command == "fit":
            return cmd_fit(cfg, out_dir, args.threads)
        return cmd_experiment(cfg, out_dir, args.threads)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (SingularSystemError, exp.ExperimentError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
