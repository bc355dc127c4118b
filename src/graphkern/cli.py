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
import contextlib
import csv
import inspect
import itertools
import json
import logging
import math
import os
import re
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import experiment as exp
from .graph import COORDINATE_LIMITS, NodeCoordinates, build_graph, geodesic_adjacency
from .kernels import KernelDictionary, KernelGrid, _checked_weights, build_dictionary
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
# Number text: the one codec of the CSV and model files
# ---------------------------------------------------------------------------

# Rows of numbers that orjson parses at a time, and the characters the
# text of an array of numbers may hold.  orjson is imported where it is
# used, so that importing this module does not load it.
_ROWS_PER_BLOCK = 64
_NUMBER_CHARS = b"0123456789+-.eE[], \t\n\r"


def _parse_number_block(items, ndim):
    """``items``, the bytes of an array's items, as an ndim-D float64 array."""
    import orjson

    if items.translate(None, _NUMBER_CHARS):
        raise ValueError
    block = np.array(orjson.loads(b"[" + items + b"]"), dtype=np.float64)
    if block.ndim != ndim:
        raise ValueError
    return block


def _write_number_rows(fh, matrix):
    """Write the rows of a float64 matrix as CSV lines, each value as ``repr`` writes it.

    The bytes are those of ``csv.writer(fh).writerows(matrix.tolist())``.
    orjson formats the whole matrix at once; it writes each double in the
    same shortest round-trip digits as ``repr``, but for a finite nonzero
    value with ``|x| < 1e-4`` or ``|x| >= 1e16`` in another style (it writes
    ``0.00001`` and ``1e16`` where ``repr`` writes ``1e-05`` and ``1e+16``)
    and for a non-finite one as ``null``.  A row holding such a value is
    written with ``repr`` instead.
    """
    import orjson

    if not len(matrix):
        return
    matrix = np.ascontiguousarray(matrix, dtype=np.float64)
    magnitudes = np.abs(matrix)
    by_repr = (
        ~np.isfinite(matrix) | ((magnitudes < 1e-4) & (matrix != 0.0)) | (magnitudes >= 1e16)
    ).any(axis=1)
    lines = orjson.dumps(matrix, option=orjson.OPT_SERIALIZE_NUMPY)[2:-2].decode().split("],[")
    for i in np.flatnonzero(by_repr):
        lines[i] = ",".join(map(repr, matrix[i].tolist()))
    lines.append("")
    fh.write("\r\n".join(lines))


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


@contextlib.contextmanager
def _csv_file(path, kind):
    """``path`` open for ``csv.reader``; failing to open or to decode it raises ConfigError."""
    try:
        fh = open(path, newline="")
    except OSError as err:
        raise ConfigError(f"cannot open {kind} file {path}: {err}") from err
    with fh:
        try:
            yield fh
        except UnicodeDecodeError as err:
            raise ConfigError(f"{path}: cannot decode the {kind} file: {err}") from None


def _read_measurements(path, min_rows=2):
    with _csv_file(path, "measurements") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ConfigError(f"{path}: empty measurements file")
        names = [c.strip() for c in header]
        if len(set(names)) != len(names):
            raise ConfigError(f"{path}: duplicate node names in header")
        # The body as rows of JSON numbers, parsed by orjson a block at a
        # time.  A body that is anything else (quotes, "+1", "1.", "nan",
        # ragged rows, an overflowing value, too few rows) is read again
        # cell by cell, which accepts what float() accepts and names the
        # offending cell.
        try:
            matrix = _parse_rows(fh, len(names), min_rows)
        except ValueError:
            fh.seek(0)
            next(reader)
            matrix = _read_cells(reader, path, names, min_rows)
    return names, matrix


# The end of a bare -0, which orjson reads as the integer 0 and so without
# its sign.  It also matches an exponent of -0 ("1e-0,"), which is then sent
# to the cell reader as well.
_NEGATIVE_ZERO = re.compile(r"-0[,\] \t\r\n]")


def _parse_rows(lines, width, min_rows):
    """The non-blank ``lines`` as a (rows, width) float64 array; ValueError if they are not that.

    Each line must hold ``width`` comma-separated JSON numbers.  The lines
    go to :func:`_parse_number_block` ``_ROWS_PER_BLOCK`` at a time, each
    wrapped as ``[...]``, and every block is appended to one buffer of
    doubles, so no Python float per cell outlives its block.  A JSON
    number is read as ``float()`` reads its text, and one that overflows
    is refused by orjson.
    """
    data = array.array("d")
    rows = (line for line in lines if line.strip())
    while block := list(itertools.islice(rows, _ROWS_PER_BLOCK)):
        items = "[" + "],[".join(block) + "]"
        # The brackets must be the wrapping ones: a line holding "],[" would
        # read as two rows.
        if items.count("[") + items.count("]") != 2 * len(block) or _NEGATIVE_ZERO.search(items):
            raise ValueError
        values = _parse_number_block(items.encode(), ndim=2)
        if values.shape[1] != width:
            raise ValueError
        data.frombytes(values.tobytes())
    if len(data) < min_rows * width:
        raise ValueError
    return np.frombuffer(data).reshape(-1, width)


def _read_cells(reader, path, names, min_rows):
    """The rows after the header of a measurements file, parsed cell by cell.

    The reader of last resort for a body :func:`_parse_rows` refuses: it
    accepts each cell ``float()`` reads (quoted, padded, ``+.5``,
    ``1_0``) and raises :class:`ConfigError` naming the first cell that is
    missing, non-numeric or non-finite, or the first ragged row.
    """
    # Cells go into one buffer of doubles as the rows stream by.  Holding
    # every row as a list of Python floats left the allocator fragmented:
    # resident memory grew by about 1 MB with each 1000 x 200 file read in
    # one process.
    data = array.array("d")
    num_rows = 0
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
    return np.frombuffer(data).reshape(num_rows, len(names))


def _read_coordinates(path):
    """The ``node,lat,lon`` rows of a coordinates file as ``{node: (lat, lon)}``.

    A first row that does not parse is a header and is skipped.  A later
    row that is not three cells, a coordinate ``float()`` does not read,
    non-finite (``1e400``) or beyond ``COORDINATE_LIMITS``, and a repeated
    node raise ConfigError naming the path, the line and a coordinate's column.
    """
    coord_map = {}
    with _csv_file(path, "coordinates") as fh:
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
            for col, value, (axis, limit) in zip((1, 2), (lat, lon), COORDINATE_LIMITS.items()):
                if not abs(value) <= limit:  # NaN included
                    kind = "non-finite" if not math.isfinite(value) else "out-of-range"
                    raise ConfigError(
                        f"{path}: line {line_no}: {kind} coordinate {row[col].strip()!r} "
                        f"in column {col + 1} ({axis} in [-{limit:g}, {limit:g}])"
                    )
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
        "kernel_grid": asdict(e.grid),
        "alpha": e.alpha,
        "beta": e.beta,
        "optimizer": {
            "radius": opt.radius,
            "mu0": opt.mu0,
            "q": opt.q,
            "epsilon": opt.epsilon,
            "max_iterations": opt.i_max,
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

# The keys a config may hold, by block: the defaults' plus the data modes
# and the grid search, and in the synthetic block the generator's parameters.
_SYNTHETIC_PARAMETERS = inspect.signature(exp.make_synthetic_dataset).parameters
_CONFIG_KEYS = {
    (): {*DEFAULT_CONFIG, "data", "synthetic"},
    ("data",): {"measurements", "coordinates"},
    ("synthetic",): set(_SYNTHETIC_PARAMETERS),
    ("kernel_grid",): set(DEFAULT_CONFIG["kernel_grid"]),
    ("optimizer",): set(DEFAULT_CONFIG["optimizer"]),
    ("experiment",): {*DEFAULT_CONFIG["experiment"], "grid_search"},
    ("experiment", "grid_search"): {"alphas", "betas"},
}


def _unknown_key(raw):
    """The dotted name of the first key of ``raw`` that no command reads, or None.

    A block that is not an object is left to the reader that names it.
    """
    for path, known in _CONFIG_KEYS.items():
        block = raw
        for name in path:
            block = block.get(name) if isinstance(block, dict) else None
        if isinstance(block, dict):
            for key in block:
                if key not in known:
                    return ".".join((*path, key))
    return None


def load_config(path, seed=None):
    """Parse and validate a JSON run config; returns it merged with the defaults, and its run.

    The run is what :func:`_read_run` takes from the config.  A ``seed``
    other than None replaces the config's, before validation.  A key that
    no command reads, a misspelt ``n_realisations`` say, raises
    :class:`ConfigError` naming it, rather than leaving its default in force.
    """
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot open config file {path}: {err}") from err
    # not JSON, not UTF-8, or nested beyond json's depth
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    unknown = _unknown_key(raw)
    if unknown is not None:
        raise ConfigError(f"{path}: unknown config key {unknown!r}")
    cfg = _merge_defaults(DEFAULT_CONFIG, raw)
    if seed is not None:
        cfg["seed"] = seed
    if ("data" in cfg) == ("synthetic" in cfg):
        raise ConfigError(
            f"{path}: exactly one of 'data' (file mode) or 'synthetic' "
            f"(generator mode) must be present"
        )
    if not isinstance(cfg["output_dir"], str):
        raise ConfigError(f"{path}: output_dir must be a path string, got {cfg['output_dir']!r}")
    try:
        return cfg, _read_run(cfg)
    except (AttributeError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{path}: invalid configuration: {err}") from err


def _merge_defaults(defaults, overrides):
    """The config over the defaults, merged one level deep.

    A block such as ``experiment`` is merged key by key; a value inside
    it, such as ``params_by_n_train``, replaces the default whole.
    """
    merged = {**defaults, **overrides}
    for key, value in defaults.items():
        if isinstance(value, dict) and isinstance(overrides.get(key), dict):
            merged[key] = {**value, **overrides[key]}
    return merged


def _integer(value, name):
    """An integer config value; a bool, string or fractional number is refused, not truncated."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or (
            isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{name}: expected an integer, got {value!r}")
    return int(value)


def _number(value, name):
    """A config or model value that must be a JSON number, as a float; a bool or string is not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name}: expected a number, got {value!r}")
    return float(value)


def _object(value, name):
    """A config or model block that must be a JSON object; ``name`` names it in the error."""
    if not isinstance(value, dict):
        raise ValueError(f"{name}: expected an object, got {value!r}")
    return value


def _held(config, name, **values):
    """``config`` with ``values``, checked by the class; errors name ``name``."""
    try:
        return replace(config, **values)
    except ValueError as err:
        raise ValueError(f"{name}: {err}") from None


def _read_run(cfg):
    """What a run takes from a merged config: ``(config, sizes, params, search)``.

    The one reader of the ``experiment`` and ``optimizer`` blocks, plus
    :func:`_kernel_grid`: the base ExperimentConfig (at the class's
    ``n_train``), the training sizes, the (alpha, beta) pair of each size,
    and None or the grid search's (alphas, betas).  The range rules are the
    config classes': each size, pair and grid-search value is checked by
    the ExperimentConfig that holds it.
    """
    e, opt = _object(cfg["experiment"], "experiment"), _object(cfg["optimizer"], "optimizer")
    config = exp.ExperimentConfig(
        snr_db=_number(e["snr_db"], "experiment.snr_db"),
        n_realizations=_integer(e["n_realizations"], "experiment.n_realizations"),
        grid=_kernel_grid(cfg["kernel_grid"]),
        linear_alpha=_number(e["linear_alpha"], "experiment.linear_alpha"),
        single_sigma_sq=_number(e["single_sigma_sq"], "experiment.single_sigma_sq"),
        alpha=_number(cfg["alpha"], "alpha"),
        beta=_number(cfg["beta"], "beta"),
        solver=SolverConfig(
            mu0=_number(opt["mu0"], "optimizer.mu0"),
            i_max=_integer(opt["max_iterations"], "optimizer.max_iterations"),
            epsilon=_number(opt["epsilon"], "optimizer.epsilon"),
            radius=_number(opt["radius"], "optimizer.radius"),
            q=_integer(opt["q"], "optimizer.q"),
        ),
        master_seed=_integer(cfg["seed"], "seed"),
    )
    name = "experiment.n_train_values"
    if not isinstance(e["n_train_values"], list) or not e["n_train_values"]:
        raise ValueError(f"{name} must be a nonempty list")
    sizes = [_held(config, name, n_train=_integer(n, name)).n_train for n in e["n_train_values"]]
    params = {}
    for key, pair in _object(e["params_by_n_train"], "experiment.params_by_n_train").items():
        name = f"experiment.params_by_n_train[{key}]"
        try:
            n_train = int(key)
        except ValueError:
            raise ValueError(f"{name}: expected an integer training size, got {key!r}") from None
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{name} must be an [alpha, beta] pair")
        held = _held(config, name, n_train=n_train, alpha=_number(pair[0], name),
                     beta=_number(pair[1], name))
        params[held.n_train] = (held.alpha, held.beta)
    search = None
    if "grid_search" in e:
        search = []
        for key, field in (("alphas", "alpha"), ("betas", "beta")):
            name = f"experiment.grid_search.{key}"
            values = _object(e["grid_search"], "experiment.grid_search").get(key)
            if not isinstance(values, list) or not values:
                raise ValueError(f"{name} must be a nonempty list")
            search.append([_number(v, name) for v in values])
            for value in search[-1]:
                _held(config, name, **{field: value})
    return config, sizes, params, search


def _dataset_from_config(cfg):
    """Build the ExperimentDataset plus node names from a validated config.

    The ``synthetic`` block holds keyword arguments of
    :func:`~graphkern.experiment.make_synthetic_dataset`, ``seed`` defaulting
    to the config's; one whose default is an int or a float is read as
    such, any other (``mode``) as it is.  Values from which no dataset can
    be built (say, a single node or a missing file) raise :class:`ConfigError`.
    """
    try:
        if "data" in cfg:
            data = _object(cfg["data"], "data")
            paths = (Path(data[key]) for key in ("measurements", "coordinates"))
            matrix, coords, names = ingest_dataset(*paths)
            graph = build_graph(geodesic_adjacency(coords))
            dataset = exp.ExperimentDataset(
                inputs=matrix[:-1], targets=matrix[1:], graph=graph, coords=coords
            )
            return dataset, names
        synth = {"seed": cfg["seed"], **_object(cfg["synthetic"], "synthetic")}
        for key, value in synth.items():
            read = {int: _integer, float: _number}.get(type(_SYNTHETIC_PARAMETERS[key].default))
            if read is not None:
                synth[key] = read(value, f"synthetic.{key}")
        dataset = exp.make_synthetic_dataset(**synth)
    except KeyError as err:
        raise ConfigError(f"data block is missing {err}") from err
    except (TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"cannot build the dataset: {err}") from err
    names = [f"node{i}" for i in range(dataset.graph.num_nodes)]
    return dataset, names


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

def _kernel_grid(block):
    """The KernelGrid of a config's or a model file's ``kernel_grid``; other keys are ignored.

    Every command reads the grid here, before it allocates anything for
    it: a grid whose parameter array, one double per kernel and all that a
    dictionary holds per kernel, exceeds the machine's physical memory
    raises ``MemoryError``, in ``validate-config``, ``fit``,
    ``experiment`` and ``predict`` alike.  The bound ignores a
    container's memory limit.
    """
    block = _object(block, "kernel_grid")
    grid = KernelGrid(block["family"], _number(block["lo"], "kernel_grid.lo"),
                      _number(block["hi"], "kernel_grid.hi"),
                      _integer(block["count"], "kernel_grid.count"))
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no such query here: numpy's own check stands
        return grid
    if 8 * grid.count > memory:
        raise MemoryError(
            f"kernel grid count {grid.count}: its parameters alone take "
            f"{8 * grid.count / 2**30:.4g} GiB, more than the {memory / 2**30:.4g} GiB "
            f"of physical memory"
        )
    return grid


def save_model(path, model, grid, names, iterations, final_gamma):
    """Write a fitted model as one compact JSON object, :func:`_model_payload`.

    ``grid`` is the :class:`~graphkern.kernels.KernelGrid` the model was
    fitted over.  The arrays go to orjson as float64 buffers, which it
    formats without making a Python float of each entry; every double is
    written in its shortest round-trip form, so :func:`load_model` gets
    back the same bits.
    """
    import orjson

    payload = _model_payload(model, grid, names, iterations, final_gamma)
    with open(path, "wb") as fh:
        fh.write(orjson.dumps(payload, option=orjson.OPT_SERIALIZE_NUMPY))


def _model_payload(model, grid, names, iterations, final_gamma):
    """The JSON object of a model file, key by key in file order."""

    def doubles(a):
        return np.ascontiguousarray(a, dtype=np.float64)

    return {
        "format_version": MODEL_FORMAT_VERSION,
        "alpha": model.alpha,
        "beta": model.beta,
        "kernel_grid": asdict(grid),
        "rho": doubles(model.rho),
        "training_inputs": doubles(model.dictionary.training_inputs),
        "psi": doubles(model.psi),
        "target_names": list(names),
        "iterations": int(iterations),
        "gamma": float(final_gamma),
    }


# Keys of a model file that predictions depend on.
MODEL_KEYS = ("alpha", "beta", "kernel_grid", "rho", "training_inputs", "psi", "target_names")

# Top-level keys of a model file whose values are arrays of numbers.
_ARRAY_KEYS = ("rho", "training_inputs", "psi")
_WHITESPACE = re.compile(rb"[ \t\n\r]*")
# A JSON string, delimited but not checked, or a bracket.
_TOKEN = re.compile(rb'"(?:[^"\\]|\\.)*"|[\[\]{}]', re.DOTALL)


def _skip(data, i):
    return _WHITESPACE.match(data, i).end()


def _decode_error(message, data, i):
    """A :class:`json.JSONDecodeError` at byte ``i`` of ``data``, placed in its decoded text."""
    text = data.decode("utf-8", "replace")
    return json.JSONDecodeError(message, text, len(data[:i].decode("utf-8", "replace")))


def _parse_model(data):
    """The top-level object of a model file, each ``_ARRAY_KEYS`` value a float64 array.

    ``data`` is the file's bytes (or its text).  Arrays of numbers hold no
    strings, so a string followed by ``:`` with one more ``[``/``{`` than
    ``]``/``}`` before it is a top-level key.  An array key's value is parsed
    by :func:`_parse_number_array` and cut out, a ``0`` in its place; one
    :func:`_load_json` reads the few kB left, and the arrays are put back,
    the last of a duplicate key winning as in :mod:`json`.  Input that is
    not one JSON object, or whose array keys hold anything but a 1-D or 2-D
    array of numbers, raises :class:`json.JSONDecodeError`.
    """
    if isinstance(data, str):
        data = data.encode()
    if not data.startswith(b"{", _skip(data, 0)):
        raise _decode_error("Expecting '{': a model file holds one object", data, _skip(data, 0))
    spans, arrays = [], {}
    kept = i = depth = 0
    while token := _TOKEN.search(data, i):
        i = token.end()
        if not data.startswith(b'"', token.start()):
            depth += 1 if data[token.start()] in b"[{" else -1
        elif depth == 1 and data.startswith(b":", i := _skip(data, i)):
            if (key := _load_json(data, [token.span()])) in _ARRAY_KEYS:
                spans.append((kept, _skip(data, i + 1)))
                arrays[key], i = _parse_number_array(data, spans[-1][1], key)
                kept = i
    payload = _load_json(data, spans + [(kept, len(data))])
    payload.update(arrays)
    return payload


def _load_json(data, spans):
    """The ``spans`` of ``data`` joined by ``0``s, read by :mod:`json`; errors placed in the file.

    They are decoded as strict UTF-8 first, as :mod:`json` takes a BOM or UTF-16 in bytes.
    """
    try:
        text = b"0".join(data[start:end] for start, end in spans).decode("utf-8")
        return json.loads(text)
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        i = err.start if isinstance(err, UnicodeDecodeError) else len(text[:err.pos].encode())
        for start, end in spans:
            if i <= end - start:
                break
            i -= end - start + 1
        if isinstance(err, UnicodeDecodeError):
            err.object, err.start, err.end = data, start + i, start + i + err.end - err.start
            raise
        raise _decode_error(err.msg, data, start + i) from None


def _parse_number_array(data, start, key):
    """The array of numbers, or of rows of numbers, at byte ``start``; returns (array, end)."""
    quote = data.find(b'"', start)
    end = data.rfind(b"]", start, len(data) if quote < 0 else quote) + 1
    try:
        if not (data.startswith(b"[", start) and end):
            raise ValueError
        first = _skip(data, start + 1)
        if not data.startswith(b"[", first):
            return _parse_number_block(data[start + 1:end - 1], ndim=1), end
        blocks = []
        while True:
            stop = first
            for _ in range(_ROWS_PER_BLOCK):
                row_end = data.find(b"]", stop, end - 1)
                if row_end < 0:
                    break
                stop = row_end + 1
            blocks.append(_parse_number_block(data[first:stop], ndim=2))
            first = _skip(data, stop)
            if first == end - 1:
                return np.concatenate(blocks), end
            if not data.startswith(b",", first):
                raise ValueError
            first = _skip(data, first + 1)
    except ValueError:
        raise _decode_error(f"{key} must be a 1-D or 2-D array of numbers", data, start) from None


def load_model(path):
    """Rebuild a fitted model from a model file; returns (model, names).

    The file is held once, as bytes, and read by :func:`_parse_model`, never
    with a Python float per array entry: ``predict`` is bounded by memory.
    It is checked against the schema :func:`save_model` writes:
    ``format_version`` the integer 1, every key in ``MODEL_KEYS``, ``alpha``
    and ``beta`` finite nonnegative numbers, N x M ``training_inputs`` and
    finite ``psi`` for M target names, and one finite nonnegative weight per
    grid kernel.  Other keys, such as the ``adjacency`` of older files, are
    read and not used; ``graph`` is None.
    """
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as err:
        raise ConfigError(f"cannot open model file {path}: {err}") from err
    try:
        payload = _parse_model(data)
    except UnicodeDecodeError as err:
        raise ConfigError(f"{path}: model file is not UTF-8 text: {err}") from err
    except (ValueError, RecursionError) as err:  # also too long an integer or too deep a nesting
        raise ConfigError(f"{path}: invalid JSON: {err}") from err
    version = payload.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # not true, not 1.0
        raise ConfigError(f"{path}: unsupported model format version {version!r}")
    missing = [key for key in MODEL_KEYS if key not in payload]
    if missing:
        raise ConfigError(f"{path}: model file is missing {missing}")
    names = payload["target_names"]
    if not (isinstance(names, list) and all(isinstance(name, str) for name in names)):
        raise ConfigError(f"{path}: target_names must be a list of strings")
    try:
        grid = _kernel_grid(payload["kernel_grid"])
        dictionary = KernelDictionary.from_specs(payload["training_inputs"], grid)
        psi, rho = payload["psi"], _checked_weights(dictionary, payload["rho"])
        alpha, beta = (_number(payload[key], key) for key in ("alpha", "beta"))
        if not all(math.isfinite(value) and value >= 0 for value in (alpha, beta)):
            raise ValueError(f"alpha and beta must be finite and nonnegative, got {alpha}, {beta}")
    except (KeyError, TypeError, ValueError, OverflowError) as err:
        raise ConfigError(f"{path}: invalid model: {err}") from err
    n, m = dictionary.num_samples, len(names)
    for key, array in (("training_inputs", dictionary.training_inputs), ("psi", psi)):
        if array.shape != (n, m):
            raise ConfigError(
                f"{path}: {key} has shape {array.shape}, expected ({n}, {m}) for {n} "
                f"training inputs and {m} target names"
            )
    if not np.isfinite(psi).all():
        raise ConfigError(f"{path}: psi holds a non-finite entry")
    model = KrgModel(psi=psi, alpha=alpha, beta=beta, dictionary=dictionary, rho=rho, graph=None)
    return model, names


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_fit(cfg, config, out_dir):
    dataset, names = _dataset_from_config(cfg)
    model, trace = exp._fit_method(
        exp.METHOD_MULTI, build_dictionary(dataset.inputs, config.grid), dataset.targets,
        dataset.graph, config,
    )
    out_dir.mkdir(parents=True, exist_ok=True)
    save_model(out_dir / "model.json", model, config.grid, names, trace.iterations_used,
               trace.final_gamma)
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
    if in_names != names:
        pairs = enumerate(itertools.zip_longest(in_names, names), start=1)
        col, got, want = next((i, a, b) for i, (a, b) in pairs if a != b)
        raise ConfigError(
            f"{inputs_path}: the header must be the model's target names in order; "
            f"column {col} is {got!r}, expected {want!r}"
        )
    predictions = model.predict(matrix)
    with open(output_path, "w", newline="") as fh:
        csv.writer(fh).writerow(names)
        _write_number_rows(fh, predictions)
    print(f"predictions written to {output_path}")
    return 0


def _check_output_dir(path):
    """Refuse, before any fitting, an output path whose nearest existing part is no directory."""
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise ConfigError(f"cannot create output directory {path}: {existing} is not a directory")


def _check_training_sizes(sizes, dataset):
    """Each training size must leave the dataset a test pair."""
    too_large = [n for n in sizes if n >= dataset.num_pairs]
    if too_large:
        raise ConfigError(
            f"n_train_values {too_large} leave no test pairs: the dataset has "
            f"{dataset.num_pairs} pairs"
        )


def cmd_experiment(cfg, run, out_dir):
    dataset, _ = _dataset_from_config(cfg)
    config, sizes, params, search = run
    _check_training_sizes(sizes, dataset)

    if search:
        for n in sizes:
            a, b = exp.grid_search_hyperparams(
                dataset, exp.METHOD_SINGLE, *search, replace(config, n_train=n)
            )
            params[n] = (a, b)
            log.info("grid search at n_train=%d selected alpha=%g beta=%g", n, a, b)

    reports = exp.n_train_sweep(dataset, config, n_train_values=sizes, params_by_n=params)

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
    with open(rho_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["kernel_index", "parameter", "rho"])
        rho = rho_report.representative_rho
        for i, parameter in enumerate(config.grid.parameters()):
            value = 0.0 if rho is None else float(rho[i])
            writer.writerow([i + 1, repr(float(parameter)), repr(value)])

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
    cfg, run = load_config(config_path)
    _check_output_dir(Path(cfg["output_dir"]))
    dataset, _ = _dataset_from_config(cfg)
    _check_training_sizes(run[1], dataset)
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
        cfg, run = load_config(args.config, args.seed)
        out_dir = Path(args.out) if args.out else Path(cfg["output_dir"])
        _check_output_dir(out_dir)
        if args.command == "fit":
            return cmd_fit(cfg, run[0], out_dir)
        return cmd_experiment(cfg, run, out_dir)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:  # inputs are read through ConfigError; this is an output
        print(f"error: cannot write the outputs: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:  # say, a kernel grid too large to allocate
        print(f"error: out of memory: {err}", file=sys.stderr)
        return 2
    except (SingularSystemError, FloatingPointError, exp.ExperimentError,
            np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
