"""graphkern benchmark: three closed-loop workloads through ``graphkern.cli.main``.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-sweep --seed 1 --seconds 20 --trace 0

``--workload all`` runs every workload in turn.  Each workload runs in
its own process with BLAS pinned to one thread through the environment
at spawn and the checkout's ``src`` on ``PYTHONPATH``.  With ``--trace
0`` the run prints the end-to-end metrics; with ``--trace 1`` it runs
the workload once untraced and once traced and prints the per-layer
metrics and the tracing overhead.  Every metric is printed by name and
unit; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

This script only starts processes and formats results; inputs, timing
and output checks live in ``worker.py``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import tracer

HERE = Path(__file__).resolve().parent
WORKLOADS = ("paper-sweep", "scale-fit", "predict-batch")
# What one command of each workload is, for the printed summary.
COMMAND = {"paper-sweep": "experiment", "scale-fit": "fit", "predict-batch": "predict"}
# Set-up is probed this many times before and again after the measured
# loop, so that the probes span the run's contention phases.
SETUP_PROBES = 5
# The set-up being timed: a fresh interpreter up to ``import graphkern.cli`` done.
SETUP_PROBE = "import graphkern.cli; print('ready', flush=True)"
# Start-up and imports are interpreter and file work, like the CPU part
# of the speed probe.
SETUP_CPU_SHARE = 1.0
# A run must end within 180 s; keep a margin for start-up and clean-up.
RUN_BUDGET_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("command_s", "s"),
    ("nmse.multi_kernel", "ratio"),
)
PER_LAYER = tuple(
    (f"{m}.{f}.{stat}", unit) for m, f in tracer.TRACED for stat, unit in tracer.STATS
) + (
    ("kernels.KernelDictionary.from_specs.under_load_model_ms", "ms"),
    ("experiment.trial_errors", "count"),
    ("solver.singular_errors", "count"),
    ("kernels.dictionary_mb", "MB"),
    ("cli.model_json_mb", "MB"),
    ("mkl.optimize.iterations", "count"),
    ("mkl.fw_gap", "gap"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.setup_wall_s", "s"),
    ("bench.command_wall_s", "s"),
    ("bench.speed_factor", "ratio"),
)


def pin_to_one_cpu():
    """Pin this process, and so every process it starts, to one CPU.

    The workload process, the speed helpers and the set-up probes then
    take turns on one core, so a speed sample is taken on the core that
    the commands before and after it ran on.  Where affinity cannot be
    set, the processes stay unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class BenchError(RuntimeError):
    """A step of the benchmark could not run; no result is printed."""


class Runner:
    """Starts the processes of one benchmark run within its time budget."""

    def __init__(self, root, deadline):
        self.root = root
        self.deadline = deadline
        env = dict(os.environ)
        for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[key] = "1"
        src = str(root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env.pop("GRAPHKERN_LOG", None)
        self.env = env

    def _remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("time budget of the run exhausted")
        return left

    def worker(self, *args, log):
        argv = [sys.executable, str(HERE / "worker.py"), *args]
        with open(log, "w") as fh:
            try:
                proc = subprocess.run(argv, cwd=self.root, env=self.env, stdout=fh,
                                      stderr=subprocess.STDOUT, timeout=self._remaining())
            except subprocess.TimeoutExpired as err:
                raise BenchError(f"worker {args[0]} timed out; see {log}") from err
        if proc.returncode != 0:
            tail = Path(log).read_text()[-2000:]
            raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{tail}")

    def setup_seconds(self, probes):
        """``(wall, rescaled)`` seconds from spawn to ``import graphkern.cli`` done, per probe.

        Each probe is rescaled by the speed samples taken just before and
        just after it.
        """
        times = []
        with speed.Helper(SETUP_CPU_SHARE, self.env) as helper:
            before = helper.sample()
            for _ in range(probes):
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE],
                                        cwd=self.root, env=self.env, stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
                ready = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                try:
                    _, err = proc.communicate(timeout=self._remaining())
                except subprocess.TimeoutExpired as exc:
                    proc.kill()
                    proc.communicate()
                    raise BenchError("set-up probe timed out") from exc
                if ready.strip() != "ready" or proc.returncode != 0:
                    raise BenchError(f"set-up probe failed: {err[-2000:]}")
                after = helper.sample()
                times.append((elapsed, speed.rescale(elapsed, before, after)))
                before = after
        return times


def command_time(commands, column):
    """Mean over the commands of a round of each one's median time.

    ``commands`` holds ``[slot, wall, rescaled]`` rows; ``column`` picks
    wall (1) or rescaled (2) seconds.
    """
    by_slot = {}
    for row in commands:
        by_slot.setdefault(row[0], []).append(row[column])
    return statistics.fmean(statistics.median(times) for times in by_slot.values())


def run_workload(runner, work, name, seed, seconds, trace):
    """Prepare inputs, measure set-up, run the closed loop; return the outcome dict."""
    work.mkdir(parents=True)
    common = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    runner.worker("prep", *common, log=work / "prep.log")
    probes = runner.setup_seconds(SETUP_PROBES)
    results = {}
    for traced in ([0, 1] if trace else [0]):
        out = work / f"result-{traced}.json"
        runner.worker("run", *common, "--seconds", str(seconds), "--trace", str(traced),
                      "--result", str(out),
                      log=work / f"run-{traced}.log")
        results[traced] = json.loads(out.read_text())
    probes += runner.setup_seconds(SETUP_PROBES)
    base = results[0]
    metrics = {
        "setup_s": statistics.median(rescaled for _, rescaled in probes),
        "peak_rss_mb": base["peak_rss_mb"],
        "command_s": command_time(base["commands"], 2),
        "nmse.multi_kernel": base["nmse"],
    }
    outcome = {
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "errors": [e for r in results.values() for e in r["errors"]],
        "environment": base["environment"],
        "units_per_command": base["units_per_command"],
        "commands": len(base["commands"]),
        "command_wall_s": command_time(base["commands"], 1),
        "setup_wall_s": statistics.median(wall for wall, _ in probes),
        "metrics": {k: (metrics[k], unit) for k, unit in END_TO_END},
    }
    outcome["correct"] = (outcome["failed"] == 0 and not outcome["errors"]
                          and all(r["nmse"] is not None for r in results.values()))
    if trace:
        t = results[1]
        layers = dict(t["layers"])
        layers.update(t["counts"])
        layers["bench.setup_wall_s"] = outcome["setup_wall_s"]
        layers["bench.command_wall_s"] = outcome["command_wall_s"]
        layers["bench.speed_factor"] = base["speed_factor"]
        layers["bench.trace_overhead_pct"] = 100.0 * (
            command_time(t["commands"], 2) / metrics["command_s"] - 1.0)
        outcome["layers"] = {k: (layers[k], unit) for k, unit in PER_LAYER}
        outcome["not_traced"] = t["not_traced"]
    return outcome


def _fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(name, seed, seconds, trace, outcome):
    """Print one workload's metrics by name and unit."""
    print(f"== {name}  seed={seed}  seconds={seconds}  trace={trace}")
    print("environment " + json.dumps(outcome["environment"], sort_keys=True))
    m = {k: v for k, (v, _) in outcome["metrics"].items()}
    for key, (value, unit) in outcome["metrics"].items():
        print(f"  {key:<22} {_fmt(value):>14} {unit}")
    print(f"  (setup_s and command_s are medians rescaled to the speed probe's reference "
          f"core; wall medians: setup "
          f"{_fmt(outcome['setup_wall_s'])} s, `graphkern {COMMAND[name]}` "
          f"{_fmt(outcome['command_wall_s'])} s over {outcome['commands']} commands)")
    if name == "paper-sweep":
        rate = outcome["units_per_command"] / m["command_s"]
        print(f"  {'trials_per_s':<22} {_fmt(rate):>14} 1/s")
    rate = outcome["failed"] / outcome["attempted"]
    print(f"  {'fail_rate':<22} {_fmt(rate):>14} ratio"
          f"  ({outcome['failed']} of {outcome['attempted']} operations)")
    for line in outcome["errors"]:
        print(f"  error: {line}")
    if trace:
        for line in outcome["not_traced"]:
            print(f"  not traced: {line}")
        for key, (value, unit) in outcome["layers"].items():
            print(f"  {key:<58} {_fmt(value):>14} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "graphkern" / "cli.py").is_file():
        print(f"error: {root} holds no src/graphkern; run from the root of a checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    pin_to_one_cpu()
    budget = RUN_BUDGET_S * len(names)
    runner = Runner(root, time.monotonic() + budget)
    scratch = root / ".perfbench_work"
    outcomes = {}
    try:
        for name in names:
            work = scratch / f"{name}-{args.seed}-{os.getpid()}"
            try:
                outcomes[name] = run_workload(runner, work, name, args.seed, args.seconds,
                                              args.trace)
            finally:
                shutil.rmtree(work, ignore_errors=True)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        if scratch.is_dir() and not any(scratch.iterdir()):
            scratch.rmdir()

    for name, outcome in outcomes.items():
        report(name, args.seed, args.seconds, args.trace, outcome)
    key = "layers" if args.trace else "metrics"
    single = len(outcomes) == 1
    final = {
        "correct": all(o["correct"] for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": {
            (k if single else f"{name}.{k}"): {"value": v, "unit": unit}
            for name, o in outcomes.items() for k, (v, unit) in o[key].items()
        },
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
