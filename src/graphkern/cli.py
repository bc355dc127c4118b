"""Command-line entry point: fit, predict, experiment, validate-config.

Datasets come either from a pair of CSV files (a measurements table whose
header names the graph nodes plus a node/latitude/longitude table) or from
the built-in synthetic generator.  Consecutive measurement rows form the
(input, target) pairs: row n predicts row n+1.

All run parameters live in a JSON config file; ``--seed`` and ``--out``
override it from the command line.  Results are written as CSV (for
external plotting) and JSON.  Exit codes: 0 success, 1 numeric failure,
2 input or config error.  Set the ``GRAPHKERN_LOG`` environment
variable (DEBUG/INFO/WARNING/...) to control verbosity.
"""

import argparse
import array
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiment as exp
from .graph import NodeCoordinates, build_graph, geodesic_adjacency
from .kernels import KernelDictionary, grid_specs
from .mkl import SolverConfig
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
    (days, M) measurement matrix, the aligned
    :class:`~graphkern.graph.NodeCoordinates` and the node names.
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
    return matrix, NodeCoordinates(positions, mode="geodesic"), names


def _read_measurements(path, min_rows=2):
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ConfigError(f"cannot open measurements file {path}: {err}") from err
    # Cells go into one buffer of doubles as the rows stream by.  Holding
    # every row as a list of Python floats left the allocator fragmented:
    # resident memory grew by about 1 MB with each 1000 x 200 file read in
    # one process.
    data = array.array("d")
    num_rows = 0
    with fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty measurements file")
        names = [c.strip() for c in header]
        if len(set(names)) != len(names):
            raise ConfigError(f"{path}: duplicate node names in header")
        for line_no, row in enumerate(reader, start=2):
            if not row or all(not c.strip() for c in row):
                continue
            if len(row) != len(names):
                raise ConfigError(
                    f"{path}: line {line_no}: expected {len(names)} cells, got {len(row)}"
                )
            for col, cell in enumerate(row):
                cell = cell.strip()
                if not cell:
                    raise ConfigError(
                        f"{path}: line {line_no}: missing value in column "
                        f"{col + 1} ({names[col]})"
                    )
                try:
                    value = float(cell)
                except ValueError:
                    value = math.nan
                if not math.isfinite(value):
                    raise ConfigError(
                        f"{path}: line {line_no}: non-numeric or non-finite cell {cell!r} "
                        f"in column {col + 1} ({names[col]})"
                    )
                data.append(value)
            num_rows += 1
    if num_rows < min_rows:
        raise ConfigError(f"{path}: need at least {min_rows} measurement rows")
    return names, np.frombuffer(data).reshape(num_rows, len(names))


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

def _default_config():
    # The defaults of ExperimentConfig and SolverConfig, in the key order
    # that report.json repeats.
    e = exp.ExperimentConfig()
    opt = e.solver
    return {
        "kernel_grid": {
            "family": e.grid_family, "lo": e.grid_span[0], "hi": e.grid_span[1],
            "count": e.grid_count,
        },
        "alpha": e.alpha,
        "beta": e.beta,
        "optimizer": {
            "radius": opt.radius,
            "mu0": opt.mu0,
            "q": opt.q,
            "epsilon": opt.epsilon,
            "max_iterations": opt.i_max,
            "momentum": opt.momentum,
        },
        "experiment": {
            "snr_db": e.snr_db,
            "n_train_values": list(exp.DEFAULT_N_TRAIN_SWEEP),
            "n_realizations": e.n_realizations,
            "linear_alpha": e.linear_alpha,
            "single_sigma_sq": e.single_sigma_sq,
            "params_by_n_train": {
                str(k): list(v) for k, v in exp.DEFAULT_SINGLE_PARAMS.items()
            },
        },
        "seed": e.master_seed,
        "output_dir": "graphkern-out",
    }


DEFAULT_CONFIG = _default_config()


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
            if not (_nonnegative(value[0]) and _nonnegative(value[1])):
                raise ValueError(f"params_by_n_train[{key}] must be finite and nonnegative")
        if "grid_search" in exp_cfg:
            search = exp_cfg["grid_search"]
            for key in ("alphas", "betas"):
                grid = search.get(key) if isinstance(search, dict) else None
                if not isinstance(grid, list) or not grid:
                    raise ValueError(f"grid_search.{key} must be a nonempty list")
                if not all(_nonnegative(v) for v in grid):
                    raise ValueError(f"grid_search.{key} must be finite nonnegative numbers")
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as err:
        raise ConfigError(f"{path}: invalid experiment block: {err}") from err
    try:
        _experiment_config(cfg, 2)
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{path}: invalid configuration: {err}") from err


def _nonnegative(value):
    value = float(value)
    return math.isfinite(value) and value >= 0


def _experiment_config(cfg, n_train):
    """The ExperimentConfig of a run config at one training-set size.

    The only place where the ``optimizer`` block becomes a SolverConfig,
    with ``max_iterations`` as ``i_max``.
    """
    grid = cfg["kernel_grid"]
    e = cfg["experiment"]
    opt = cfg["optimizer"]
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
        solver=SolverConfig(
            mu0=float(opt["mu0"]),
            i_max=int(opt["max_iterations"]),
            epsilon=float(opt["epsilon"]),
            radius=float(opt["radius"]),
            q=int(opt["q"]),
            momentum=opt["momentum"],
        ),
        master_seed=int(cfg["seed"]),
    )


def _dataset_from_config(cfg):
    """Build the ExperimentDataset plus node names from a validated config.

    Values from which no dataset or graph can be built (say, a single
    node) raise :class:`ConfigError`.
    """
    try:
        if "data" in cfg:
            matrix, coords, names = ingest_dataset(
                cfg["data"]["measurements"], cfg["data"]["coordinates"]
            )
            graph = build_graph(geodesic_adjacency(coords))
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
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"cannot build the dataset: {err}") from err
    names = [f"node{i}" for i in range(dataset.graph.num_nodes)]
    return dataset, names


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def save_model(path, model, grid_cfg, names, iterations, final_gamma):
    """Write a fitted model as one compact JSON object.

    The arrays go to orjson as float64 buffers, which it formats without
    making a Python float of each entry; every double is written in its
    shortest round-trip form, so :func:`load_model` (which reads with the
    standard library, see there) gets back the same bits.  Of the grid
    block only the four fields that :func:`load_model` reads are kept.
    orjson is imported here because only ``fit`` writes models.
    """
    import orjson

    def doubles(a):
        return np.ascontiguousarray(a, dtype=np.float64)

    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "alpha": model.alpha,
        "beta": model.beta,
        "kernel_grid": {
            "family": grid_cfg["family"],
            "lo": float(grid_cfg["lo"]),
            "hi": float(grid_cfg["hi"]),
            "count": int(grid_cfg["count"]),
        },
        "rho": doubles(model.rho),
        "training_inputs": doubles(model.dictionary.training_inputs),
        "psi": doubles(model.psi),
        "target_names": list(names),
        "iterations": int(iterations),
        "gamma": float(final_gamma),
        "adjacency": doubles(model.graph.adjacency),
    }
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY))


# Keys of a model file that predictions depend on.
MODEL_KEYS = (
    "alpha", "beta", "kernel_grid", "rho", "training_inputs", "psi",
    "target_names", "adjacency",
)


def load_model(path):
    """Rebuild a fitted model from a model file; returns (model, names).

    The file is checked against the schema :func:`save_model` writes: every
    key in ``MODEL_KEYS``, finite ``psi`` of shape N x M for N training
    inputs and M target names, one finite nonnegative weight per grid
    kernel and an M-node graph.
    The file is parsed with the standard library's ``json``, not with the
    orjson that :func:`save_model` writes it with: orjson parses faster but
    holds more memory at its peak, and ``predict`` is bounded by memory.
    """
    try:
        with open(path) as fh:
            # At N = 999, M = 200 orjson.loads cut predict's time by 42% but
            # raised its peak RSS by 6.5 MB (parse alone: 42.5 MB against
            # json's 26.3 MB, from orjson's document tree).
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
    except (KeyError, TypeError, ValueError, OverflowError) as err:
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
    if not np.isfinite(psi).all():
        raise ConfigError(f"{path}: psi holds a non-finite entry")
    if not (np.isfinite(rho) & (rho >= 0)).all():
        raise ConfigError(f"{path}: rho must be finite and nonnegative")
    model = KrgModel(psi=psi, alpha=alpha, beta=beta, dictionary=dictionary, rho=rho, graph=graph)
    return model, names


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg, out_dir):
    dataset, names = _dataset_from_config(cfg)
    config = _experiment_config(cfg, n_train=max(1, dataset.num_pairs - 1))
    model, trace = exp._fit_method(
        exp.METHOD_MULTI, dataset.inputs, dataset.targets, dataset.graph, config
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(
        out_dir / "model.json", model, cfg["kernel_grid"], names,
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


def _training_sizes(cfg, dataset):
    """The config's ``n_train_values``; each must leave the dataset a test pair."""
    n_values = [int(n) for n in cfg["experiment"]["n_train_values"]]
    too_large = [n for n in n_values if n >= dataset.num_pairs]
    if too_large:
        raise ConfigError(
            f"n_train_values {too_large} leave no test pairs: the dataset has "
            f"{dataset.num_pairs} pairs"
        )
    return n_values


def cmd_experiment(cfg, out_dir):
    dataset, _ = _dataset_from_config(cfg)
    e = cfg["experiment"]
    n_values = _training_sizes(cfg, dataset)
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
    reports = exp.n_train_sweep(dataset, config, n_train_values=n_values, params_by_n=params)

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
    """Refuse what ``fit`` and ``experiment`` would refuse, short of fitting."""
    cfg = load_config(config_path)
    dataset, _ = _dataset_from_config(cfg)
    _training_sizes(cfg, dataset)
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

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON run config")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override master seed")
        return p

    add_common(sub.add_parser("fit", help="fit a multi-kernel model"))
    p_pred = sub.add_parser("predict", help="predict with a saved model")
    p_pred.add_argument("--model", required=True, help="model.json from fit")
    p_pred.add_argument("--inputs", required=True, help="CSV of input rows")
    p_pred.add_argument("--output", required=True, help="where to write predictions")
    p_exp = add_common(sub.add_parser("experiment", help="run the Monte-Carlo protocol"))
    p_exp.add_argument(
        "--threads", type=int, choices=[1], default=1,
        help="batches run one at a time; only 1 is accepted, for existing command lines",
    )
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
            return cmd_fit(cfg, out_dir)
        return cmd_experiment(cfg, out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (SingularSystemError, exp.ExperimentError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
