"""The benchmark's measured process: inputs, closed loop, output checks.

``run.py`` starts this script with BLAS pinned to one thread through the
environment and with the checkout's ``src`` on ``PYTHONPATH``.  Modes:

- ``prep``: write a workload's inputs (and, for ``predict-batch``, the
  model that the program's own ``fit`` makes from them);
- ``run``: drive ``graphkern.cli.main`` in a closed loop, one command at
  a time, for the given seconds; then check every distinct output and
  write the result as JSON.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import gen
import oracles
import speed
import tracer

GRID = {"family": "gaussian", "lo": 0.01, "hi": 10.0, "count": 100}
RADIUS, Q = 5.0, 1
ALPHA, BETA = 0.1, 5.5
METHODS = ("linear", "single_kernel", "multi_kernel")

# paper-sweep: the paper's Monte-Carlo protocol on DATASETS independent
# graphs per round.  The mean NMSE of one graph differs from that of
# another by about 22% (interquartile range over median), and by only
# 2-3% between two sets of realizations on one graph.  Averaging 64
# graphs brings the reported mean to about 1% from seed to seed (ten
# seeds); 16 graphs left it at 4%.
PAPER_NODES, PAPER_PAIRS = 45, 60
PAPER_N_TRAIN = (4, 8, 16, 30)
PAPER_DATASETS, PAPER_REALIZATIONS = 64, 25

# scale-fit / predict-batch: 1000 rows (999 pairs) over 200 nodes.
SCALE_NODES, SCALE_ROWS, PREDICT_ROWS = 200, 1000, 256
PREDICT_SAMPLE = 32


def _write_config(path, data_dir, extra):
    cfg = {
        "data": {
            "measurements": str(data_dir / "measurements.csv"),
            "coordinates": str(data_dir / "coords.csv"),
        },
        "kernel_grid": GRID,
        "alpha": ALPHA,
        "beta": BETA,
        "optimizer": {"radius": RADIUS, "q": Q},
    }
    cfg.update(extra)
    path.write_text(json.dumps(cfg, indent=1))


def _write_dataset(data_dir, lat, lon, rows):
    data_dir.mkdir(parents=True, exist_ok=True)
    names = gen.node_names(len(lat))
    gen.write_measurements(data_dir / "measurements.csv", names, rows)
    gen.write_coordinates(data_dir / "coords.csv", names, lat, lon)


def _read_matrix(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class PaperSweep:
    """``graphkern experiment`` at paper scale, cycling over seeded datasets."""

    name = "paper-sweep"
    units = len(PAPER_N_TRAIN) * PAPER_REALIZATIONS  # trials per command
    # Interpreter-bound: the CPU part of the speed probe alone tracks it
    # (correlation 0.8 over the commands of a run; the memory part 0.2).
    cpu_share = 1.0

    def __init__(self, work, seed):
        self.work, self.seed = work, seed

    def shape(self):
        return {"N": list(PAPER_N_TRAIN), "M": PAPER_NODES, "S": GRID["count"],
                "rows": PAPER_PAIRS + 1, "datasets": PAPER_DATASETS,
                "realizations": PAPER_REALIZATIONS}

    def prep(self):
        for d in range(PAPER_DATASETS):
            lat, lon, rows = gen.make_series((self.seed, 0, d), PAPER_NODES, PAPER_PAIRS + 1)
            data = self.work / f"ds{d:02d}"
            _write_dataset(data, lat, lon, rows)
            _write_config(data / "config.json", data, {
                "experiment": {"n_train_values": list(PAPER_N_TRAIN),
                               "n_realizations": PAPER_REALIZATIONS},
                "seed": self.seed,
            })

    def round(self):
        # One trial thread, the program's default: trials hold the GIL, so
        # more threads are slower (see README), and the tracer's span stack
        # assumes that calls nest on one thread.
        return [
            (f"ds{d:02d}",
             ["experiment", "--config", str(self.work / f"ds{d:02d}" / "config.json"),
              "--out", str(self.work / "out" / f"ds{d:02d}"), "--threads", "1"],
             self.work / "out" / f"ds{d:02d}")
            for d in range(PAPER_DATASETS)
        ]

    def check(self, kept):
        r = oracles.check_sweep(kept, PAPER_N_TRAIN, PAPER_REALIZATIONS, METHODS, RADIUS)
        return {"failed_units": r["failed"], "ok_multi": r["ok_multi"],
                "nmse_sum": r["nmse_sum"], "iter_sum": r["iter_sum"]}

    @staticmethod
    def summarize(first):
        ok = sum(c["ok_multi"] for c in first)
        return {"nmse": sum(c["nmse_sum"] for c in first) / max(ok, 1),
                "mkl.optimize.iterations": sum(c["iter_sum"] for c in first) / max(ok, 1)}


class ScaleFit:
    """Repeated ``graphkern fit`` on 1000 rows over 200 nodes."""

    name = "scale-fit"
    units = 1
    # Streams the 800 MB dictionary as much as it computes.  Rescaled by
    # the CPU part alone, predict-batch's command time spread by 8-11%
    # between runs; with the memory part weighed in at one half, by 2-7%.
    cpu_share = 0.5

    def __init__(self, work, seed):
        self.work, self.seed = work, seed
        self.data = work / "scale"

    def shape(self):
        return {"N": SCALE_ROWS - 1, "M": SCALE_NODES, "S": GRID["count"], "rows": SCALE_ROWS}

    def prep(self):
        lat, lon, rows = gen.make_series(
            (self.seed, 1), SCALE_NODES, SCALE_ROWS + PREDICT_ROWS + 1, scale_rows=SCALE_ROWS)
        _write_dataset(self.data, lat, lon, rows[:SCALE_ROWS])
        names = gen.node_names(SCALE_NODES)
        gen.write_measurements(self.data / "new_inputs.csv", names, rows[SCALE_ROWS:-1])
        gen.write_measurements(self.data / "truth.csv", names, rows[SCALE_ROWS + 1:])
        _write_config(self.data / "config.json", self.data, {"seed": self.seed})

    def fit_argv(self, out):
        return ["fit", "--config", str(self.data / "config.json"), "--out", str(out)]

    def round(self):
        return [("fit", self.fit_argv(self.work / "out" / "fit"), self.work / "out" / "fit")]

    def _inputs(self):
        rows = _read_matrix(self.data / "measurements.csv")
        with open(self.data / "coords.csv") as fh:
            coords = np.array([[float(v) for v in line.split(",")[1:]] for line in list(fh)[1:]])
        return rows, gen.adjacency(coords[:, 0], coords[:, 1])

    def check(self, kept):
        rows, adjacency = self._inputs()
        r = oracles.check_fit(kept / "model.json", rows[:-1], rows[1:], adjacency, GRID, RADIUS, Q)
        with open(kept / "trace.csv") as fh:
            iterations = sum(1 for _ in fh) - 1
        return {"failed_units": 0, "nmse": r["nmse"],
                "mkl.optimize.iterations": iterations,
                "cli.model_json_mb": (kept / "model.json").stat().st_size / 1e6}

    @staticmethod
    def summarize(first):
        return {k: first[0][k] for k in ("nmse", "mkl.optimize.iterations", "cli.model_json_mb")}


class PredictBatch(ScaleFit):
    """Repeated ``graphkern predict`` of 256 new rows from a fitted model."""

    name = "predict-batch"

    def shape(self):
        return {**super().shape(), "predict_rows": PREDICT_ROWS}

    def prep(self):
        super().prep()
        from graphkern import cli

        rc = cli.main(self.fit_argv(self.work / "model"))
        if rc != 0:
            raise SystemExit(f"fit for predict-batch exited {rc}")

    def round(self):
        out = self.work / "out" / "pred.csv"
        return [("predict", ["predict", "--model", str(self.work / "model" / "model.json"),
                             "--inputs", str(self.data / "new_inputs.csv"),
                             "--output", str(out)], out)]

    def check(self, kept):
        new = _read_matrix(self.data / "new_inputs.csv")
        sample = np.random.default_rng((self.seed, 2)).choice(new.shape[0], PREDICT_SAMPLE, replace=False)
        pred = oracles.check_predict(self.work / "model" / "model.json", kept, new,
                                     gen.node_names(SCALE_NODES), GRID, np.sort(sample))
        return {"failed_units": 0,
                "nmse": oracles.nmse(pred, _read_matrix(self.data / "truth.csv")),
                "cli.model_json_mb": (self.work / "model" / "model.json").stat().st_size / 1e6}

    @staticmethod
    def summarize(first):
        return {k: first[0][k] for k in ("nmse", "cli.model_json_mb")}


WORKLOADS = {w.name: w for w in (PaperSweep, ScaleFit, PredictBatch)}


def _digest(path):
    h = hashlib.sha256()
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    for f in files:
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _clear(path):
    if path.is_dir():
        shutil.rmtree(path)
    elif path.exists():
        path.unlink()


def closed_loop(cli, commands, seconds, keep_dir, helper):
    """Run commands in round order, one at a time, until ``seconds`` of command time.

    The loop stops between two commands, but not before one whole round
    has run.  Outputs are removed before each command and fingerprinted
    after it; the first output with each fingerprint is kept for
    checking.  The speed ``helper`` takes a sample between commands; each
    command's time is also rescaled by the slowdowns just before and
    after it.  Returns one ``(slot, seconds, rescaled seconds, exit code
    or error, fingerprint)`` per command, the kept output of each
    ``(slot, fingerprint)`` and every slowdown sampled.
    """
    runs, kept = [], {}
    measured = 0.0
    for _, _, out in commands:
        out.parent.mkdir(parents=True, exist_ok=True)
    before = helper.sample()
    samples = [before]
    while True:
        for slot, argv, out in commands:
            _clear(out)
            start = time.perf_counter()
            try:
                rc = cli.main(argv)
            except Exception as err:  # a traceback is a failed command
                rc = f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - start
            measured += elapsed
            digest = _digest(out) if out.exists() else None
            if digest is not None and (slot, digest) not in kept:
                dest = keep_dir / f"{slot}-{len(kept)}{out.suffix}"
                (shutil.copytree if out.is_dir() else shutil.copyfile)(out, dest)
                kept[(slot, digest)] = dest
            after = helper.sample()
            samples.append(after)
            runs.append((slot, elapsed, speed.rescale(elapsed, before, after), rc, digest))
            before = after
            if measured >= seconds and len(runs) >= len(commands):
                return runs, kept, samples


def environment(seed, workload):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    a = np.ones((256, 256))
    a @ a  # starts the BLAS thread pool, if any, before threads are counted
    try:
        threads = len(os.listdir("/proc/self/task"))
    except OSError:
        threads = None
    import scipy

    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "process_threads": threads,
        "nproc": os.cpu_count(),
        "cpus_allowed": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "workload": workload.shape(),
    }


def _tracer_hooks(counts, captured):
    def dictionary_mb(args, kwargs, result):
        held = sum(v.nbytes for v in vars(result).values() if isinstance(v, np.ndarray))
        counts["kernels.dictionary_mb"] = max(counts["kernels.dictionary_mb"], held / 1e6)

    def trial(args, kwargs, result):
        counts["experiment.trial_errors"] += len(getattr(result, "errors", {}) or {})

    def optimize(args, kwargs, result):
        if not captured:
            dictionary, graph, targets, config, alpha, beta = args
            captured.update(x=dictionary.training_inputs, specs=dictionary.specs, graph=graph,
                            targets=targets, alpha=alpha, beta=beta, q=config.q,
                            radius=config.radius, rho=np.array(result[0].rho))

    def singular(exc):
        if type(exc).__name__ == "SingularSystemError":
            counts["solver.singular_errors"] += 1

    on_return = {"kernels.build_dictionary": dictionary_mb,
                 "kernels.KernelDictionary.from_specs": dictionary_mb,
                 "experiment.run_trial": trial,
                 "mkl.optimize": optimize}
    return on_return, {"solver.solve_structured": singular}


def _fw_gap(captured):
    """Frank-Wolfe gap at the weights the first traced ``optimize`` returned."""
    if not captured:
        return 0.0
    from graphkern.kernels import KernelDictionary
    from graphkern.mkl import gamma_gradient

    dictionary = KernelDictionary.from_specs(captured["x"], captured["specs"])
    grad = gamma_gradient(dictionary, captured["graph"], captured["targets"], captured["rho"],
                          captured["alpha"], captured["beta"])
    return oracles.frank_wolfe_gap(grad, captured["rho"], captured["radius"], captured["q"])


def run(args):
    workload = WORKLOADS[args.workload](Path(args.work), args.seed)
    from graphkern import cli

    keep_dir = workload.work / f"keep-{args.trace}"
    keep_dir.mkdir()
    # counts a workload does not reach stay 0
    counts = {"kernels.dictionary_mb": 0.0, "experiment.trial_errors": 0,
              "solver.singular_errors": 0, "cli.model_json_mb": 0.0,
              "mkl.optimize.iterations": 0, "mkl.fw_gap": 0.0}
    captured = {}
    spans = None
    if args.trace:
        spans = tracer.Tracer(*_tracer_hooks(counts, captured))
        spans.install()
    with speed.Helper(workload.cpu_share) as helper:
        runs, kept, samples = closed_loop(cli, workload.round(), args.seconds, keep_dir, helper)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spans is not None:
        spans.uninstall()

    verdicts, errors = {}, []
    for key, path in kept.items():
        try:
            verdicts[key] = workload.check(path)
        except Exception as err:  # any failure to check an output fails it
            verdicts[key] = None
            errors.append(f"{key[0]}: {type(err).__name__}: {err}")
    failed = 0
    first = {}
    for slot, _, _, rc, digest in runs:
        verdict = verdicts.get((slot, digest))
        if rc != 0 or verdict is None:
            failed += workload.units
            if rc != 0:
                errors.append(f"{slot}: {'raised' if isinstance(rc, str) else 'exit'} {rc}")
        else:
            failed += verdict["failed_units"]
            first.setdefault(slot, verdict)
    slots = len(workload.round())
    summary = workload.summarize(list(first.values())) if len(first) == slots else {}
    result = {
        "commands": [[slot, elapsed, rescaled] for slot, elapsed, rescaled, _, _ in runs],
        "units_per_command": workload.units,
        "attempted": workload.units * len(runs),
        "failed": failed,
        "errors": list(dict.fromkeys(errors))[:10],
        "peak_rss_mb": rss_mb,
        "speed_factor": statistics.median(samples),
        "nmse": summary.get("nmse"),
        "counts": {**counts, **{k: v for k, v in summary.items() if k != "nmse"}},
        "environment": environment(args.seed, workload),
    }
    if spans is not None:
        try:
            result["counts"]["mkl.fw_gap"] = _fw_gap(captured)
        except Exception as err:  # a count the program no longer supports
            spans.hook_errors.append(f"mkl.fw_gap: {type(err).__name__}: {err}")
        result["layers"] = spans.metrics(len(runs))
        result["not_traced"] = [f"{name}: absent" for name in spans.missing] + spans.hook_errors
    Path(args.result).write_text(json.dumps(result))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("prep", "run"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--work")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)
    if args.mode == "prep":
        WORKLOADS[args.workload](Path(args.work), args.seed).prep()
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
