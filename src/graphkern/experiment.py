"""Monte-Carlo evaluation protocol for the three regression methods.

A trial randomly partitions a dataset of (input, target) pairs into a
training block and a test block, corrupts the training targets with white
Gaussian noise at a configured SNR, fits three methods -- plain ridge with
the linear kernel, single-Gaussian-kernel regression over the graph, and
multi-kernel regression with learned weights -- and scores each by NMSE
against the clean test targets.  :func:`monte_carlo` repeats this over
independently seeded realizations and aggregates.

Everything is deterministic given the master seed: the seed of trial ``i``
is ``numpy.random.SeedSequence(master_seed, spawn_key=(i,))``, so
individual trials can be reproduced in isolation.
"""

import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .graph import NodeCoordinates, build_graph, geodesic_adjacency
from .kernels import (
    GAUSSIAN,
    LINEAR,
    KernelDictionary,
    KernelSpec,
    build_dictionary,
    grid_specs,
)
from .mkl import SolverConfig, optimize
from .solver import SingularSystemError, TrainingSet, solve_structured

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
    """Protocol parameters for one Monte-Carlo scenario."""

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
    radius: float = 5.0
    mu0: float = 0.01
    q: int = 1
    epsilon: float = 1e-4
    max_iterations: int = 500
    momentum: str = "damped"
    master_seed: int = 0

    def __post_init__(self):
        if self.n_realizations < 1:
            raise ValueError("n_realizations must be at least 1")
        if self.n_train < 1:
            raise ValueError("n_train must be at least 1")
        grid_specs(self.grid_family, self.grid_span, self.grid_count)  # validates the grid
        self.solver_config()  # validates the optimizer fields

    def solver_config(self):
        return SolverConfig(
            mu0=self.mu0,
            i_max=self.max_iterations,
            epsilon=self.epsilon,
            radius=self.radius,
            q=self.q,
            momentum=self.momentum,
        )


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


def _fit_method(method, x_train, t_fit, graph, config, alpha=None, beta=None):
    """Fit one method; returns (model, iterations)."""
    if method == METHOD_LINEAR:
        dictionary = KernelDictionary.from_specs(x_train, [KernelSpec(LINEAR)])
        a = config.linear_alpha if alpha is None else alpha
        model = solve_structured(dictionary, np.ones(1), graph, t_fit, a, 0.0)
        return model, 0
    if method == METHOD_SINGLE:
        dictionary = KernelDictionary.from_specs(
            x_train, [KernelSpec(GAUSSIAN, config.single_sigma_sq)]
        )
        a = config.alpha if alpha is None else alpha
        b = config.beta if beta is None else beta
        model = solve_structured(dictionary, np.ones(1), graph, t_fit, a, b)
        return model, 0
    if method == METHOD_MULTI:
        dictionary = build_dictionary(
            x_train,
            family=config.grid_family,
            span=config.grid_span,
            count=config.grid_count,
        )
        a = config.alpha if alpha is None else alpha
        b = config.beta if beta is None else beta
        _, trace, model = optimize(
            dictionary, graph, t_fit, config.solver_config(), a, b
        )
        return model, trace.iterations_used
    raise ValueError(f"unknown method {method!r}")


def run_trial(dataset, config, realization_seed):
    """One noisy-training / clean-testing realization.

    Partitions the pairs at random (first ``n_train`` of a permutation for
    training, the rest for testing), corrupts the training targets at the
    configured SNR, fits all three methods, and scores predictions of the
    clean test targets.  Solver failures are recorded per method without
    aborting the trial.
    """
    if dataset.num_pairs < config.n_train + 1:
        raise ValueError(
            f"dataset has {dataset.num_pairs} pairs; need at least "
            f"{config.n_train + 1}"
        )
    seed = (
        realization_seed
        if isinstance(realization_seed, np.random.SeedSequence)
        else np.random.SeedSequence(realization_seed)
    )
    partition_seed, noise_seed = seed.spawn(2)
    rng = np.random.default_rng(partition_seed)
    perm = rng.permutation(dataset.num_pairs)
    train_idx = perm[: config.n_train]
    test_idx = perm[config.n_train :]
    x_train = dataset.inputs[train_idx]
    t_noisy = add_noise_snr(dataset.targets[train_idx], config.snr_db, noise_seed)
    x_test = dataset.inputs[test_idx]
    t_test = dataset.targets[test_idx]

    result = TrialResult(nmse={})
    for method in METHODS:
        try:
            model, iters = _fit_method(method, x_train, t_noisy, dataset.graph, config)
            result.nmse[method] = nmse(model.predict(x_test), t_test)
            if method == METHOD_MULTI:
                result.rho = model.rho
                result.iterations = iters
        except (SingularSystemError, np.linalg.LinAlgError) as err:
            result.errors[method] = str(err)
            log.warning("trial method %s failed: %s", method, err)
    return result


def monte_carlo(dataset, config, max_workers=1):
    """Run ``config.n_realizations`` independent trials and aggregate.

    Trials are independent given their derived seeds and may execute
    concurrently; aggregation is ordered by trial index, so the report is
    a pure function of (dataset, config).  Raises
    :class:`ExperimentError` (with ``partial_report`` attached) when more
    than half the trials record a failure.
    """
    seeds = [trial_seed(config.master_seed, i) for i in range(config.n_realizations)]
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            trials = list(pool.map(lambda s: run_trial(dataset, config, s), seeds))
    else:
        trials = [run_trial(dataset, config, s) for s in seeds]

    nmse_mean, nmse_std, n_ok = {}, {}, {}
    for method in METHODS:
        values = [t.nmse[method] for t in trials if method in t.nmse]
        n_ok[method] = len(values)
        nmse_mean[method] = float(np.mean(values)) if values else np.nan
        nmse_std[method] = float(np.std(values)) if values else np.nan
    multi_iters = [t.iterations for t in trials if METHOD_MULTI in t.nmse]
    rho = next((t.rho for t in trials if t.rho is not None), None)
    n_failed = sum(1 for t in trials if t.failed)
    report = MonteCarloReport(
        config=config,
        nmse_mean=nmse_mean,
        nmse_std=nmse_std,
        n_ok=n_ok,
        mean_iterations=float(np.mean(multi_iters)) if multi_iters else np.nan,
        representative_rho=rho,
        n_trials=len(trials),
        n_failed=n_failed,
        trials=trials,
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
    then the smallest beta.  The linear method ignores the beta grid.
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
            model, _ = _fit_method(
                method, x_train, t_noisy, dataset.graph, config, alpha=a, beta=b
            )
            score = nmse(model.predict(x_train), t_clean)
            if best is None or score < best[0]:
                best = (score, a, b)
    return best[1], best[2]


def n_train_sweep(
    dataset,
    config,
    n_train_values=DEFAULT_N_TRAIN_SWEEP,
    params_by_n=None,
    max_workers=1,
):
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
        reports.append(monte_carlo(dataset, cfg, max_workers=max_workers))
    return reports
