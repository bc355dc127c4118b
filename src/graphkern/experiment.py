"""Monte-Carlo evaluation protocol for the three regression methods.

A trial randomly partitions a dataset of (input, target) pairs into a
training block and a test block, corrupts the training targets with white
Gaussian noise at a configured SNR, fits three methods -- plain ridge with
the linear kernel, single-Gaussian-kernel regression over the graph, and
multi-kernel regression with learned weights -- and scores each by NMSE
against the clean test targets.  :func:`monte_carlo` repeats this over
independently seeded realizations and aggregates.

The realizations of one training-set size run in lockstep batches: the B
training sets of a batch are stacked into one dictionary, each method is
fitted for all B at once (one batched solve per optimizer iteration), and
each trial's test block is predicted from its own index rows into the
dataset, without stacking the test sets.  A batch is as large as keeps its
(B, N, L + M) arrays within one block of ``BLOCK_ENTRIES`` (see
:func:`batch_size`); the exponential tables are streamed one training set
at a time, as for a single fit.  Each trial is computed exactly as it
would be alone, so results do not depend on the batching, and a trial
whose system is singular records that method's error without stopping
the rest of its batch.  Should the batch's one eigendecomposition fail to
converge, that method is refitted one trial at a time, so again only the
trials whose own matrix fails record the error.

Everything is deterministic given the master seed: the seed of trial ``i``
is ``numpy.random.SeedSequence(master_seed, spawn_key=(i,))``, so
individual trials can be reproduced in isolation (:func:`run_trial`).
"""

import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial.distance import cdist

from .graph import NodeCoordinates, build_graph, geodesic_adjacency
from .kernels import (
    BLOCK_ENTRIES,
    GAUSSIAN,
    LINEAR,
    KernelDictionary,
    KernelSpec,
    build_dictionary,
    combine_cross,
    grid_specs,
)
from .mkl import SolverConfig, optimize
from .solver import TrainingSet, solve_structured

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

    ``solver`` holds the multi-kernel weight optimizer's settings, a
    :class:`~graphkern.mkl.SolverConfig`, which validates itself.
    """

    snr_db: float = 0.0
    n_train: int = 30
    n_realizations: int = 100
    grid_family: str = GAUSSIAN
    grid_span: tuple = (0.01, 10.0)
    grid_count: int = 100
    linear_alpha: float = DEFAULT_LINEAR_ALPHA
    single_sigma_sq: float = 1.0
    alpha: float = 0.1
    beta: float = 5.5
    solver: SolverConfig = field(default_factory=SolverConfig)
    master_seed: int = 0

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.n_train < 1:
            raise ValueError("n_train must be at least 1")
        for name in ("alpha", "beta", "linear_alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative")
        if not (math.isfinite(self.single_sigma_sq) and self.single_sigma_sq > 0):
            raise ValueError("single_sigma_sq must be finite and positive")
        grid_specs(self.grid_family, self.grid_span, self.grid_count)  # validates the grid


@dataclass(frozen=True)
class ExperimentDataset:
    """All (input, target) pairs of a scenario plus the target graph."""

    inputs: np.ndarray
    targets: np.ndarray
    graph: object
    coords: object = None

    def __post_init__(self):
        pairs = TrainingSet(self.inputs, self.targets)  # alignment + finiteness
        if pairs.targets.shape[1] != self.graph.num_nodes:
            raise ValueError(
                f"targets have {pairs.targets.shape[1]} columns but the graph "
                f"has {self.graph.num_nodes} nodes"
            )
        object.__setattr__(self, "inputs", pairs.inputs)
        object.__setattr__(self, "targets", pairs.targets)

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
    n_trials: int
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
    unit-variance kernel is narrower than optimal.
    """
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

    diffs = series[:, None, :] - series[None, :, :]
    sq = np.sum(diffs**2, axis=-1)
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


def _fit_method(method, x_train, t_fit, graph, config):
    """Fit one method; returns (model, optimizer trace).

    ``x_train`` and ``t_fit`` are one training set or a stack of them; for
    a stack the model is batched and the trace is a tuple with one
    :class:`~graphkern.mkl.OptimizerTrace` per set.  The two baselines
    solve one kernel at weight 1 and have no trace (``None``).
    """
    if method == METHOD_MULTI:
        dictionary = build_dictionary(
            x_train,
            family=config.grid_family,
            span=config.grid_span,
            count=config.grid_count,
        )
        _, trace, model = optimize(
            dictionary, graph, t_fit, config.solver, config.alpha, config.beta
        )
        return model, trace
    if method == METHOD_LINEAR:
        spec, alpha, beta = KernelSpec(LINEAR), config.linear_alpha, 0.0
    elif method == METHOD_SINGLE:
        spec = KernelSpec(GAUSSIAN, config.single_sigma_sq)
        alpha, beta = config.alpha, config.beta
    else:
        raise ValueError(f"unknown method {method!r}")
    dictionary = KernelDictionary.from_specs(x_train, [spec])
    rho = np.ones(dictionary.batch_shape + (1,))
    return solve_structured(dictionary, rho, graph, t_fit, alpha, beta), None


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
    describes.  Each trial's test block is predicted from its own index
    rows into the dataset; the test sets are not stacked.
    """
    n = config.n_train
    if dataset.num_pairs < n + 1:
        raise ValueError(
            f"dataset has {dataset.num_pairs} pairs; need at least {n + 1}"
        )
    perms = np.empty((len(seeds), dataset.num_pairs), dtype=np.intp)
    t_noisy = np.empty((len(seeds), n, dataset.targets.shape[1]))
    for b, seed in enumerate(seeds):
        if not isinstance(seed, np.random.SeedSequence):
            seed = np.random.SeedSequence(seed)
        partition_seed, noise_seed = seed.spawn(2)
        perms[b] = np.random.default_rng(partition_seed).permutation(dataset.num_pairs)
        t_noisy[b] = add_noise_snr(
            dataset.targets[perms[b, :n]], config.snr_db, noise_seed
        )
    train, test = perms[:, :n], perms[:, n:]
    x_train = dataset.inputs[train]
    sq_test = np.stack(
        [cdist(dataset.inputs[t], x, "sqeuclidean") for t, x in zip(test, x_train)]
    )

    results = [TrialResult(nmse={}) for _ in seeds]
    for method in METHODS:
        _score_method(method, results, dataset, config, x_train, t_noisy, test, sq_test)
    return results


def _score_method(method, results, dataset, config, x_train, t_noisy, test, sq_test):
    """Fit one method on a batch and record each trial's test NMSE or error."""
    try:
        model, traces = _fit_method(method, x_train, t_noisy, dataset.graph, config)
    except np.linalg.LinAlgError as err:
        if len(results) == 1:
            results[0].errors[method] = str(err)
            log.warning("trial method %s failed: %s", method, err)
            return
        # one eigh serves the whole batch; refit each trial alone, so only
        # the trials whose own matrix fails record the error
        for b in range(len(results)):
            one = slice(b, b + 1)
            _score_method(method, results[one], dataset, config, x_train[one],
                          t_noisy[one], test[one], sq_test[one])
        return
    if method == METHOD_LINEAR:
        dot = np.stack([dataset.inputs[t] @ x.T for t, x in zip(test, x_train)])
        cross = combine_cross(model.dictionary, model.rho, dot=dot)
    else:
        cross = combine_cross(model.dictionary, model.rho, sq=sq_test)
    for b, result in enumerate(results):
        if model.errors[b] is not None:
            result.errors[method] = model.errors[b]
            log.warning("trial method %s failed: %s", method, model.errors[b])
            continue
        result.nmse[method] = nmse(cross[b] @ model.psi[b], dataset.targets[test[b]])
        if method == METHOD_MULTI:
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
    another.  Each trial is computed as it would be alone and aggregation
    is ordered by trial index, so the report is a pure function of
    (dataset, config).  Raises :class:`ExperimentError` (with
    ``partial_report`` attached) when more than half the trials record a
    failure.
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
        n_trials=len(trials),
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
    :class:`ExperimentConfig` validates it.
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
    t_noisy = add_noise_snr(t_clean, config.snr_db, noise_seed)

    best = None
    for a in alphas:
        for b in betas:
            if method == METHOD_LINEAR:
                cfg = replace(config, linear_alpha=a)
            else:
                cfg = replace(config, alpha=a, beta=b)
            model, _ = _fit_method(method, x_train, t_noisy, dataset.graph, cfg)
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
