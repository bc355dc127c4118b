"""Outside-in span tracing of graphkern's public functions.

The tracer wraps each traced function on every ``graphkern`` module
attribute that is bound to it (``solve_structured`` is called through
``solver``, ``mkl``, ``experiment`` and ``cli``), so a call is recorded
whichever module makes it.  No code of the program changes.

Spans are aggregated as they close: per function the call count, the
total and self time and every duration (for percentiles).  Self time is
a span's duration minus the durations of its direct child spans; calls
nest on one thread, so children never overlap.
"""

import math
import sys
import time
from dataclasses import dataclass, field

# (module, attribute path) of every traced function, by layer.
TRACED = (
    ("cli", "cmd_experiment"),
    ("cli", "cmd_fit"),
    ("cli", "cmd_predict"),
    ("cli", "ingest_dataset"),
    ("cli", "save_model"),
    ("cli", "load_model"),
    ("experiment", "n_train_sweep"),
    ("experiment", "monte_carlo"),
    ("experiment", "run_trial"),
    ("mkl", "optimize"),
    ("mkl", "gamma"),
    ("mkl", "project"),
    ("solver", "solve_structured"),
    ("kernels", "build_dictionary"),
    ("kernels", "KernelDictionary.from_specs"),
    ("kernels", "kernel_cross"),
    ("graph", "build_graph"),
    ("graph", "laplacian_eigendecomposition"),
)

# Span statistics and their units; counts and totals are per CLI command.
STATS = (("calls", "count"), ("total_ms", "ms"), ("self_ms", "ms"),
         ("p50_ms", "ms"), ("p95_ms", "ms"))
LOAD_MODEL = "cli.load_model"
FROM_SPECS = "kernels.KernelDictionary.from_specs"


@dataclass
class SpanStats:
    durations: list = field(default_factory=list)
    self_total: float = 0.0


@dataclass
class _Frame:
    name: str
    children: float = 0.0


class Tracer:
    """Installs span wrappers on graphkern and aggregates what they record.

    ``on_return`` maps a span name to ``hook(args, kwargs, result)``, run
    after the call returns and outside its span; ``on_error`` maps a span
    name to ``hook(exc)`` for calls that raise.  A hook that fails is
    recorded in ``hook_errors`` and never changes what the call does.
    """

    def __init__(self, on_return=None, on_error=None):
        self.stats = {f"{m}.{a}": SpanStats() for m, a in TRACED}
        self.under_load_model_s = 0.0
        self.missing = []
        self.hook_errors = []
        self._on_return = dict(on_return or {})
        self._on_error = dict(on_error or {})
        self._stack = []
        self._restore = []

    def _wrap(self, name, func):
        stats = self.stats[name]
        stack = self._stack
        on_return = self._on_return.get(name)
        on_error = self._on_error.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    self._run_hook(name, on_error, exc)
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1].children += elapsed
                stats.durations.append(elapsed)
                stats.self_total += elapsed - frame.children
                if name == FROM_SPECS and any(f.name == LOAD_MODEL for f in stack):
                    self.under_load_model_s += elapsed
            if on_return is not None:
                self._run_hook(name, on_return, args, kwargs, result)
            return result

        traced.__wrapped__ = func
        traced.__name__ = getattr(func, "__name__", name)
        return traced

    def _run_hook(self, name, hook, *args):
        try:
            hook(*args)
        except Exception as err:  # benchmark code must not break the program
            if len(self.hook_errors) < 10:
                self.hook_errors.append(f"{name} hook: {type(err).__name__}: {err}")

    def install(self):
        """Wrap every traced function on every graphkern module bound to it."""
        modules = [
            mod for key, mod in list(sys.modules.items())
            if mod is not None and (key == "graphkern" or key.startswith("graphkern."))
        ]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            home = sys.modules.get(f"graphkern.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name, None)
                raw = None if cls is None else cls.__dict__.get(meth)
                if not isinstance(raw, classmethod):
                    self.missing.append(name)
                    continue
                setattr(cls, meth, classmethod(self._wrap(name, raw.__func__)))
                self._restore.append((cls, meth, raw))
                continue
            func = getattr(home, attr, None)
            if not callable(func):
                self.missing.append(name)
                continue
            wrapped = self._wrap(name, func)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is func:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, func))

    def uninstall(self):
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def metrics(self, commands):
        """Per-layer metrics; counts and totals are per CLI command."""
        out = {}
        per = max(1, commands)
        for name, s in self.stats.items():
            d = sorted(s.durations)
            out[f"{name}.calls"] = len(d) / per
            out[f"{name}.total_ms"] = 1e3 * sum(d) / per
            out[f"{name}.self_ms"] = 1e3 * s.self_total / per
            out[f"{name}.p50_ms"] = 1e3 * percentile(d, 0.50)
            out[f"{name}.p95_ms"] = 1e3 * percentile(d, 0.95)
        out[f"{FROM_SPECS}.under_load_model_ms"] = 1e3 * self.under_load_model_s / per
        return out


def percentile(sorted_values, share):
    """Nearest-rank percentile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = math.ceil(share * len(sorted_values) - 1e-9)
    return sorted_values[max(rank, 1) - 1]
