"""Monte-Carlo evaluation protocol for the three regression methods.

A trial randomly partitions a dataset of (input, target) pairs into a
training block and a test block, corrupts the training targets with white
Gaussian noise at a configured SNR, fits three methods -- plain ridge with
the linear kernel, single-Gaussian-kernel regression over the graph, and
multi-kernel regression with learned weights -- and scores each by NMSE
against the clean test targets.  :func:`monte_carlo` repeats this over
independently seeded realizations and aggregates.

The realizations of one training-set size run in lockstep batches: the B
training sets of a batch are stacked into one dictionary (the
single-kernel baseline shares its squared distances, through the
package-private ``KernelDictionary._with_grid``), each method is
fitted for all B at once (one batched solve per optimizer iteration), and
each method's batched model predicts the B test blocks, gathered once,
with one :meth:`~graphkern.solver.KrgModel.predict` call, the route of a
single fit.  A batch is as large as keeps its (B, N, L + M) arrays within
one block of ``BLOCK_ENTRIES`` (see :func:`batch_size`); the exponential
tables are streamed one training set at a time, as for a single fit.
Each trial is computed as it would be alone, except that the gradient's
Gaussian skeleton (see :mod:`graphkern.kernels`) is built for the
batch's largest distance, so results depend on the batching only within
the skeleton's certified error.  A trial whose system is singular, or
whose optimizer step leaves float range, records that method's error
without stopping the rest of its batch; so does a trial whose training
or test block of targets is identically zero, which has no SNR or NMSE
(one with a zero training block records it for every method and is not
fitted).  Should the batch's one eigendecomposition
fail to converge, that method is refitted one trial at a time, so again
only the trials whose own matrix fails record the error.

Everything is deterministic given the master seed: the seed of trial ``i``
is ``numpy.random.SeedSequence(master_seed, spawn_key=(i,))``, so
individual trials can be reproduced in isolation (:func:`run_trial`).
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import NodeCoordinates, build_graph, geodesic_adjacency
from .kernels import (
    BLOCK_ENTRIES,
    GAUSSIAN,
    LINEAR,
    KernelGrid,
    build_dictionary,
)
from .mkl import SolverConfig, optimize
from .solver import solve_structured

log = logging.getLogger("graphkern.experiment")

METHOD_LINEAR = "linear"
METHOD_SINGLE = "single_kernel"
METHOD_MULTI = "multi_kernel"
METHODS = (METHOD_LINEAR, METHOD_SINGLE, METHOD_MULTI)

# Regularization defaults per training-set size: alpha for the linear
# baseline, (alpha, beta) shared by the single- and multi-kernel methods.
DEFAULT_LINEAR_ALPHA = 4.3
DEFAULT_SINGLE_PARAMS = {
    4: (0.02, 5.5),
    8: (0.03, 5.5),
    16: (0.06, 5.5),
    30: (0.1, 5.5),
}
DEFAULT_N_TRAIN_SWEEP = (4, 8, 16, 30)


class ExperimentError(RuntimeError):
    """Raised when too many trials fail; carries ``partial_report``."""

    def __init__(self, message, partial_report=None):
        super().__init__(message)
        self.partial_report = partial_report


@dataclass(frozen=True)
class ExperimentConfig:
    """Protocol parameters for one Monte-Carlo scenario.

    ``grid`` describes the multi-kernel method's dictionary, a
    :class:`~graphkern.kernels.KernelGrid`, and ``solver`` holds its
    weight optimizer's settings, a :class:`~graphkern.mkl.SolverConfig`;
    each validates itself.
    """

    snr_db: float = 0.0
    n_train: int = 30
    n_realizations: int = 100
    grid: KernelGrid = field(default_factory=KernelGrid)
    linear_alpha: float = DEFAULT_LINEAR_ALPHA
    single_sigma_sq: float = 1.0
    alpha: float = 0.1
    beta: float = 5.5
    solver: SolverConfig = field(default_factory=SolverConfig)
    master_seed: int = 0

    def __post_init__(self):
        if not abs(self.snr_db) <= 3000:  # 10 ** (snr_db / 10) a nonzero finite double
            raise ValueError("snr_db must be finite and between -3000 and 3000 dB")
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.n_train < 1:
            raise ValueError("n_train must be at least 1")
        if self.master_seed < 0:
            raise ValueError("master_seed must be nonnegative")
        for name in ("alpha", "beta", "linear_alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        if not (math.isfinite(self.single_sigma_sq) and self.single_sigma_sq > 0):
            raise ValueError("single_sigma_sq must be finite and positive")


@dataclass(frozen=True)
class ExperimentDataset:
    """All (input, target) pairs of a scenario plus the target graph."""

    inputs: np.ndarray
    targets: np.ndarray
    graph: object
    coords: object = None

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        t = np.asarray(self.targets, dtype=float)
        if x.ndim != 2 or t.ndim != 2:
            raise ValueError("inputs and targets must both be 2-D arrays")
        if x.shape[0] != t.shape[0]:
            raise ValueError(f"inputs have {x.shape[0]} rows but targets have {t.shape[0]}")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
            raise ValueError("training data contains NaN or Inf")
        if t.shape[1] != self.graph.num_nodes:
            raise ValueError(
                f"targets have {t.shape[1]} columns but the graph "
                f"has {self.graph.num_nodes} nodes"
            )
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", t)

    @property
    def num_pairs(self):
        return self.inputs.shape[0]


@dataclass
class TrialResult:
    """Per-trial NMSE scores and multi-kernel diagnostics."""

    nmse: dict
    rho: np.ndarray = None
    iterations: int = 0
    fw_gap: float = np.nan
    errors: dict = field(default_factory=dict)

    @property
    def failed(self):
        return bool(self.errors)


@dataclass
class MonteCarloReport:
    """Aggregate over realizations: per-method mean/std NMSE and diagnostics."""

    config: ExperimentConfig
    nmse_mean: dict
    nmse_std: dict
    n_ok: dict
    mean_iterations: float
    representative_rho: np.ndarray
    n_failed: int
    trials: list
    mean_fw_gap: float = np.nan

    def to_dict(self):
        return {
            "n_train": self.config.n_train,
            "snr_db": self.config.snr_db,
            "n_realizations": self.config.n_realizations,
            "master_seed": self.config.master_seed,
            "nmse_mean": dict(self.nmse_mean),
            "nmse_std": dict(self.nmse_std),
            "n_ok": dict(self.n_ok),
            "mean_iterations": self.mean_iterations,
            "mean_fw_gap": self.mean_fw_gap,
            "n_failed": self.n_failed,
            "representative_rho": (
                None
                if self.representative_rho is None
                else [float(v) for v in self.representative_rho]
            ),
        }


def trial_seed(master_seed, index):
    """Seed sequence of trial ``index`` under the given master seed."""
    return np.random.SeedSequence(master_seed, spawn_key=(index,))


def make_synthetic_dataset(
    num_nodes=45,
    num_pairs=60,
    num_modes=8,
    seed=0,
    mean_sq_distance=6.0,
    mode_decay=0.7,
    mean_level=1.0,
    mode="euclidean",
):
    """Generate smooth graph-signal pairs on a random geometric graph.

    Nodes are scattered uniformly (unit square in Euclidean mode, a
    Scandinavian-sized latitude/longitude box in geodesic mode) and wired
    by the distance-decay adjacency rule.  The signal time series lives in
    the span of the ``num_modes`` smoothest Laplacian eigenvectors with
    amplitudes decaying as ``mode_decay ** rank`` and slow sinusoidal
    dynamics, so consecutive-step pairs (x = day n, t = day n+1) are
    predictable and every target is smooth over the graph by construction.
    ``mean_level`` adds a persistent offset on the constant mode (the
    analogue of a baseline temperature level), which keeps targets
    positively correlated across days.  The series is rescaled so the
    mean squared distance between rows equals ``mean_sq_distance``,
    placing the data where the kernel parameter grid is informative but a
    unit-variance kernel is narrower than optimal.  ``num_pairs`` and
    ``num_modes`` below 1, a ``mean_sq_distance`` that is not positive
    and finite, or a non-finite ``mode_decay`` or ``mean_level`` raise
    ``ValueError``.
    """
    for name, value in (("num_pairs", num_pairs), ("num_modes", num_modes)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1")
    if not 0 < mean_sq_distance < math.inf:
        raise ValueError("mean_sq_distance must be positive and finite")
    for name, value in (("mode_decay", mode_decay), ("mean_level", mean_level)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")
    rng = np.random.default_rng(seed)
    if mode == "euclidean":
        positions = rng.uniform(0.0, 1.0, size=(num_nodes, 2))
    else:
        lat = rng.uniform(55.0, 69.0, size=num_nodes)
        lon = rng.uniform(11.0, 24.0, size=num_nodes)
        positions = np.column_stack([lat, lon])
    coords = NodeCoordinates(positions, mode=mode)
    graph = build_graph(geodesic_adjacency(coords))

    num_modes = min(num_modes, num_nodes)
    u = graph.lap_eigvecs[:, :num_modes]
    amps = mode_decay ** np.arange(num_modes)
    freqs = rng.uniform(0.02, 0.12, size=num_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_modes)
    t_axis = np.arange(num_pairs + 1)
    coeffs = amps * np.cos(2.0 * np.pi * np.outer(t_axis, freqs) + phases)
    coeffs[:, 0] += mean_level
    series = coeffs @ u.T

    sq = np.empty((len(series), len(series)))  # a row at a time, no (P + 1)^2 x M array
    for i, row in enumerate(series):
        sq[i] = np.sum((row - series) ** 2, axis=-1)
    mean_sq = float(np.sum(sq)) / (sq.shape[0] * (sq.shape[0] - 1))
    if mean_sq > 0:
        series = series * np.sqrt(mean_sq_distance / mean_sq)

    return ExperimentDataset(
        inputs=series[:-1], targets=series[1:], graph=graph, coords=coords
    )


def add_noise_snr(targets, snr_db, seed):
    """Add white Gaussian noise at the given SNR (dB) to a target block.

    The noise variance is ``P_signal / 10^(snr_db / 10)`` with
    ``P_signal = ||T||_F^2 / (N M)``.  Deterministic given ``seed`` (an
    int, SeedSequence, or Generator).
    """
    t = np.asarray(targets, dtype=float)
    power = float(np.mean(t**2))
    if power == 0.0:
        raise ValueError("target block is identically zero; SNR is undefined")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    return t + rng.normal(0.0, sigma, size=t.shape)


def nmse(pred, truth):
    """Normalized mean-squared error ``sum ||pred - truth||^2 / sum ||truth||^2``."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    denom = float(np.sum(t**2))
    if denom == 0.0:
        raise ValueError("reference block is identically zero; NMSE is undefined")
    return float(np.sum((p - t) ** 2)) / denom


def _fit_method(method, dictionary, t_fit, graph, config):
    """Fit one method; returns (model, optimizer trace).

    ``dictionary`` is that of ``config.grid`` over the training inputs and
    ``t_fit`` the targets, for one training set or a stack of them; for a
    stack the model is batched and the trace is a tuple with one
    :class:`~graphkern.mkl.OptimizerTrace` per set.  The multi-kernel
    method learns weights over ``dictionary``.  The two baselines solve
    the one-kernel grid of their kernel at weight 1 over the same inputs,
    sharing ``dictionary``'s squared distances
    (:meth:`~graphkern.kernels.KernelDictionary._with_grid`), and have no
    trace (``None``).
    """
    if method == METHOD_MULTI:
        return optimize(dictionary, graph, t_fit, config.solver, config.alpha, config.beta)
    if method == METHOD_LINEAR:
        kernel, alpha, beta = KernelGrid(LINEAR, count=1), config.linear_alpha, 0.0
    elif method == METHOD_SINGLE:
        s2 = config.single_sigma_sq
        kernel, alpha, beta = KernelGrid(GAUSSIAN, s2, s2, 1), config.alpha, config.beta
    else:
        raise ValueError(f"unknown method {method!r}")
    baseline = dictionary._with_grid(kernel)
    rho = np.ones(baseline.batch_shape + (1,))
    return solve_structured(baseline, rho, graph, t_fit, alpha, beta), None


def batch_size(dataset, config):
    """Trials per lockstep batch at ``config.n_train``.

    A batch's stacked inputs, targets and solver temporaries, about eight
    arrays of B N (L + M) doubles, fit in one block of ``BLOCK_ENTRIES``.
    The realizations are split into the fewest such batches, of near-equal
    size.
    """
    width = dataset.inputs.shape[1] + dataset.targets.shape[1]
    most = max(1, BLOCK_ENTRIES // (8 * config.n_train * width))
    batches = -(-config.n_realizations // most)
    return -(-config.n_realizations // batches)


def _run_batch(dataset, config, seeds):
    """Trials with the given seeds, fitted in lockstep; one TrialResult each.

    Each trial partitions the pairs at random (first ``n_train`` of a
    permutation for training, the rest for testing) and corrupts its
    training targets at the configured SNR, exactly as :func:`run_trial`
    describes.  A trial whose training targets are identically zero
    records that for every method and is left out of the batch.  Each
    method's batched model predicts the test blocks of the rest, gathered
    once, in one call.
    """
    n = config.n_train
    if dataset.num_pairs < n + 1:
        raise ValueError(
            f"dataset has {dataset.num_pairs} pairs; need at least {n + 1}"
        )
    results = [TrialResult(nmse={}) for _ in seeds]
    perms = np.empty((len(seeds), dataset.num_pairs), dtype=np.intp)
    t_noisy = np.empty((len(seeds), n, dataset.targets.shape[1]))
    for b, seed in enumerate(seeds):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        partition_seed, noise_seed = seed.spawn(2)
        perms[b] = np.random.default_rng(partition_seed).permutation(dataset.num_pairs)
        try:
            t_noisy[b] = add_noise_snr(
                dataset.targets[perms[b, :n]], config.snr_db, noise_seed
            )
        except ValueError as err:  # an all-zero training block has no SNR
            results[b].errors = dict.fromkeys(METHODS, str(err))
            log.warning("trial failed: %s", err)
    live = [b for b, result in enumerate(results) if not result.failed]
    if not live:
        return results
    train, test = perms[live, :n], perms[live, n:]
    dictionary = build_dictionary(dataset.inputs[train], config.grid)
    x_test = dataset.inputs[test]
    # Read-only, and the linear method's dictionary links the multi-kernel
    # one to the dictionaries that _with_grid makes: the two Gaussian
    # methods' predictions then share one computation of the test block's
    # distances (kernels._new_input_distances).  The multi-kernel fit, the
    # largest of the batch, runs before any dictionary holds them.
    x_test.setflags(write=False)
    for method in (METHOD_LINEAR, METHOD_MULTI, METHOD_SINGLE):
        _score_method(method, [results[b] for b in live], dataset, config, dictionary,
                      t_noisy[live], test, x_test)
    return results


def _score_method(method, results, dataset, config, dictionary, t_noisy, test, x_test):
    """Fit one method on a batch and record each trial's test NMSE or error."""
    try:
        model, traces = _fit_method(method, dictionary, t_noisy, dataset.graph, config)
    except np.linalg.LinAlgError as err:
        if len(results) == 1:
            results[0].errors[method] = str(err)
            log.warning("trial method %s failed: %s", method, err)
            return
        # one eigh serves the whole batch; refit each trial alone, so only
        # the trials whose own matrix fails record the error
        for b in range(len(results)):
            one = slice(b, b + 1)
            alone = build_dictionary(dictionary.training_inputs[one], config.grid)
            _score_method(method, results[one], dataset, config, alone,
                          t_noisy[one], test[one], x_test[one])
        return
    predictions = model.predict(x_test)
    for b, result in enumerate(results):
        if model.errors[b] is not None:
            result.errors[method] = model.errors[b]
        else:
            try:
                result.nmse[method] = nmse(predictions[b], dataset.targets[test[b]])
            except ValueError as err:  # an all-zero test block has no NMSE
                result.errors[method] = str(err)
        if method in result.errors:
            log.warning("trial method %s failed: %s", method, result.errors[method])
        elif method == METHOD_MULTI:
            result.rho = model.rho[b].copy()
            result.iterations = traces[b].iterations_used
            result.fw_gap = traces[b].fw_gaps[-1]


def run_trial(dataset, config, realization_seed):
    """One noisy-training / clean-testing realization.

    Partitions the pairs at random (first ``n_train`` of a permutation for
    training, the rest for testing), corrupts the training targets at the
    configured SNR, fits all three methods, and scores predictions of the
    clean test targets.  Solver failures are recorded per method without
    aborting the trial.  This is a lockstep batch of one trial.
    """
    return _run_batch(dataset, config, [realization_seed])[0]


def monte_carlo(dataset, config):
    """Run ``config.n_realizations`` independent trials and aggregate.

    Trials run in lockstep batches of :func:`batch_size`, one batch after
    another.  Each trial is computed as it would be alone (up to the
    batch's shared gradient skeleton) and aggregation is ordered by trial
    index, so the report is a pure function of (dataset, config).
    Raises :class:`ExperimentError` (with ``partial_report`` attached)
    when more than half the trials record a failure.
    """
    seeds = [trial_seed(config.master_seed, i) for i in range(config.n_realizations)]
    size = batch_size(dataset, config)
    trials = [
        trial
        for i in range(0, len(seeds), size)
        for trial in _run_batch(dataset, config, seeds[i : i + size])
    ]

    nmse_mean, nmse_std, n_ok = {}, {}, {}
    for method in METHODS:
        values = [t.nmse[method] for t in trials if method in t.nmse]
        n_ok[method] = len(values)
        nmse_mean[method] = float(np.mean(values)) if values else np.nan
        nmse_std[method] = float(np.std(values)) if values else np.nan
    multi = [t for t in trials if METHOD_MULTI in t.nmse]
    rho = next((t.rho for t in trials if t.rho is not None), None)
    n_failed = sum(1 for t in trials if t.failed)
    report = MonteCarloReport(
        config=config,
        nmse_mean=nmse_mean,
        nmse_std=nmse_std,
        n_ok=n_ok,
        mean_iterations=float(np.mean([t.iterations for t in multi])) if multi else np.nan,
        representative_rho=rho,
        n_failed=n_failed,
        trials=trials,
        mean_fw_gap=float(np.mean([t.fw_gap for t in multi])) if multi else np.nan,
    )
    if n_failed > config.n_realizations / 2:
        raise ExperimentError(
            f"{n_failed} of {config.n_realizations} trials failed",
            partial_report=report,
        )
    return report


def grid_search_hyperparams(dataset, method, alphas, betas, config):
    """Exhaustive (alpha, beta) search by training NMSE.

    Fits on noise-corrupted training targets from a fixed partition (one
    seed derived from the master seed) and scores in-sample predictions
    against the clean training targets, which is what makes regularization
    pay off under noisy training.  Ties break toward the smallest alpha,
    then the smallest beta.  The linear method searches ``linear_alpha``
    and ignores the beta grid.  Each grid point is a config of its own, so
    :class:`ExperimentConfig` validates it.  A training block of all-zero
    targets raises :class:`ExperimentError`.
    """
    alphas = sorted(float(a) for a in alphas)
    betas = [0.0] if method == METHOD_LINEAR else sorted(float(b) for b in betas)
    if not alphas or not betas:
        raise ValueError("hyperparameter grids must be nonempty")
    seed = np.random.SeedSequence(config.master_seed, spawn_key=(2**32,))
    partition_seed, noise_seed = seed.spawn(2)
    rng = np.random.default_rng(partition_seed)
    perm = rng.permutation(dataset.num_pairs)
    train_idx = perm[: config.n_train]
    x_train = dataset.inputs[train_idx]
    t_clean = dataset.targets[train_idx]
    try:
        t_noisy = add_noise_snr(t_clean, config.snr_db, noise_seed)
    except ValueError as err:  # an all-zero training block has no SNR
        raise ExperimentError(f"grid search: {err}") from None
    dictionary = build_dictionary(x_train, config.grid)

    best = None
    for a in alphas:
        for b in betas:
            if method == METHOD_LINEAR:
                cfg = replace(config, linear_alpha=a)
            else:
                cfg = replace(config, alpha=a, beta=b)
            model, _ = _fit_method(method, dictionary, t_noisy, dataset.graph, cfg)
            score = nmse(model.predict(x_train), t_clean)
            if best is None or score < best[0]:
                best = (score, a, b)
    return best[1], best[2]


def n_train_sweep(dataset, config, n_train_values=DEFAULT_N_TRAIN_SWEEP, params_by_n=None):
    """Monte-Carlo reports across training-set sizes.

    ``params_by_n`` maps a size to the (alpha, beta) pair used for the
    kernel methods at that size; it defaults to the size-dependent
    defaults, and sizes missing from the map keep the config's values.
    """
    if params_by_n is None:
        params_by_n = DEFAULT_SINGLE_PARAMS
    reports = []
    for n in n_train_values:
        cfg = replace(config, n_train=int(n))
        if int(n) in params_by_n:
            a, b = params_by_n[int(n)]
            cfg = replace(cfg, alpha=float(a), beta=float(b))
        log.info("running %d realizations at n_train=%d", cfg.n_realizations, n)
        reports.append(monte_carlo(dataset, cfg))
    return reports
