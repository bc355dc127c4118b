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
single-kernel baseline shares only its squared distances between
training inputs, through the package-private
``KernelDictionary._with_grid``), each method is fitted for all B at
once (one batched solve per optimizer iteration), and each method's
batched model predicts the B test blocks, whose inputs it gathers then,
with one :meth:`~graphkern.solver.KrgModel.predict` call, the route of a
single fit, which computes the test blocks' distances itself.  Each
trial's test-block energy, the NMSE's denominator, is computed once when
the trial is drawn, and each method's B scores come from its
predictions in one array pass, bit for bit :func:`nmse` of each.  A batch
is as large as keeps every row its trials hold, training and test, within
one block of ``BLOCK_ENTRIES``: B P (L + M + N) doubles for P pairs, each
an input, a target or prediction and its kernel entries against the N
training inputs (see :func:`batch_size`).  At the paper's scale (P = 60,
L = M = 45, N <= 30) that is B = 13, and a level of 25 realizations runs
as two batches.  The exponential tables are streamed one training set at
a time, as for a single fit.
Each trial is computed as it would be alone, except that the gradient's
Gaussian skeleton (see :mod:`graphkern.kernels`) is built for the
batch's largest distance, so outputs depend on the batch composition
only at round-off, within the skeleton's certified error.  A trial
whose system is singular, whose eigendecomposition fails to converge or
whose optimizer step leaves float range records that method's error
without stopping the rest of its batch.  A trial whose training or test
block of targets is identically zero, which has no SNR or NMSE, records
that for every method and is not fitted.

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
from .solver import SingularSystemError, solve_structured

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
# Realizations per training size: a report keeps every trial, about 1.3 kB
# each on the default grid, so this bound keeps a level near 130 MB
MAX_REALIZATIONS = 100_000


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
        if not 1 <= self.n_realizations <= MAX_REALIZATIONS:
            raise ValueError(f"n_realizations must be between 1 and {MAX_REALIZATIONS}")
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
    and finite, a non-finite ``mode_decay`` or ``mean_level``, or a
    series beyond float range raise ``ValueError``.
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
    freqs = rng.uniform(0.02, 0.12, size=num_modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=num_modes)
    t_axis = np.arange(num_pairs + 1)
    # a series beyond float range, inf or NaN, is refused as training data
    with np.errstate(over="ignore", invalid="ignore"):
        amps = mode_decay ** np.arange(num_modes)
        coeffs = amps * np.cos(2.0 * np.pi * np.outer(t_axis, freqs) + phases)
        coeffs[:, 0] += mean_level
        series = coeffs @ u.T
        # measured on the series scaled by a power of two, exactly, so that
        # no squared distance of a finite series overflows
        scaled = np.ldexp(series, -np.frexp(np.abs(series).max())[1])
        sq = np.empty((len(series), len(series)))  # a row at a time, no (P + 1)^2 x M array
        for i, row in enumerate(scaled):
            sq[i] = np.sum((row - scaled) ** 2, axis=-1)
        mean_sq = float(np.sum(sq)) / (sq.shape[0] * (sq.shape[0] - 1))
        if mean_sq > 0:
            series = scaled * np.sqrt(mean_sq_distance / mean_sq)

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
    with np.errstate(over="ignore"):
        power = float(np.mean(t**2))
    if power == 0.0:
        raise ValueError("target block is identically zero; SNR is undefined")
    if power == math.inf:
        raise ValueError("target block's power is beyond float range; SNR is undefined")
    sigma = np.sqrt(power / 10.0 ** (snr_db / 10.0))
    rng = np.random.default_rng(seed)
    return t + rng.normal(0.0, sigma, size=t.shape)


def nmse(pred, truth):
    """Normalized mean-squared error ``sum ||pred - truth||^2 / sum ||truth||^2``."""
    p = np.asarray(pred, dtype=float)
    t = np.asarray(truth, dtype=float)
    if p.shape != t.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {t.shape}")
    denom = _reference_energy(t)
    return float(np.sum((p - t) ** 2)) / denom


def _reference_energy(truth):
    """``sum ||truth||^2``, the NMSE's denominator; ValueError where it is zero."""
    denom = float(np.sum(truth**2))
    if denom == 0.0:
        raise ValueError("reference block is identically zero; NMSE is undefined")
    return denom


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
    """Trials per lockstep batch.

    A trial holds a row for every one of the P pairs: its input and its
    target or prediction (L + M doubles) and its kernel entries against
    the N training inputs (N doubles), in the stacked dictionary and
    solver for its N training rows and when each method predicts for its
    P - N test rows.  A batch of B trials is as large as keeps those
    B P (L + M + N) doubles within one block of ``BLOCK_ENTRIES``, and at
    least one trial; the realizations are split into the fewest such
    batches, of near-equal size.  So a longer test block never gets a
    larger batch.  With P = 60 pairs and L = M = 45, the paper's scale,
    B = 13 at every ``n_train`` up to 30.
    """
    width = dataset.inputs.shape[1] + dataset.targets.shape[1] + config.n_train
    most = max(1, BLOCK_ENTRIES // (dataset.num_pairs * width))
    batches = -(-config.n_realizations // most)
    return -(-config.n_realizations // batches)


def _draw(dataset, config, seed):
    """One realization's ``(perm, t_noisy)``; ``perm[:n_train]`` are its training rows.

    The two children of ``seed`` (a SeedSequence, or what one takes) draw
    the partition and the noise at the configured SNR.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    partition_seed, noise_seed = seed.spawn(2)
    perm = np.random.default_rng(partition_seed).permutation(dataset.num_pairs)
    return perm, add_noise_snr(dataset.targets[perm[: config.n_train]], config.snr_db, noise_seed)


def _run_batch(dataset, config, seeds):
    """Trials with the given seeds, fitted in lockstep; one TrialResult each.

    Each trial partitions the pairs at random (first ``n_train`` of a
    permutation for training, the rest for testing) and corrupts its
    training targets at the configured SNR, exactly as :func:`run_trial`
    describes.  A trial whose training or test targets are identically
    zero records that for every method and is left out of the batch; each
    of the rest keeps its test block's energy, the NMSE's denominator.
    Each method's batched model predicts the test blocks in one call, and
    one array pass turns the predictions into the batch's NMSE scores.
    """
    n = config.n_train
    if dataset.num_pairs < n + 1:
        raise ValueError(
            f"dataset has {dataset.num_pairs} pairs; need at least {n + 1}"
        )
    results = [TrialResult(nmse={}) for _ in seeds]
    draws = []  # (perm, t_noisy, test-block energy) of each trial that is fitted
    for result, seed in zip(results, seeds):
        try:
            perm, t_noisy = _draw(dataset, config, seed)
            draws.append((perm, t_noisy, _reference_energy(dataset.targets[perm[n:]])))
        except ValueError as err:  # an all-zero training block has no SNR, a test block no NMSE
            result.errors = dict.fromkeys(METHODS, str(err))
            log.warning("trial failed: %s", err)
    if not draws:
        return results
    perms, t_noisy, energies = map(np.stack, zip(*draws))
    test = perms[:, n:]  # each trial's test rows, gathered only when a model predicts them
    dictionary = build_dictionary(dataset.inputs[perms[:, :n]], config.grid)
    live = [result for result in results if not result.failed]
    for method in (METHOD_LINEAR, METHOD_MULTI, METHOD_SINGLE):
        model, traces = _fit_method(method, dictionary, t_noisy, dataset.graph, config)
        residual = model.predict(dataset.inputs[test])
        residual -= dataset.targets[test]
        scores = np.sum(np.square(residual, out=residual), axis=(-2, -1)) / energies
        for b, result in enumerate(live):
            if model.errors[b] is not None:
                result.errors[method] = model.errors[b]
                log.warning("trial method %s failed: %s", method, model.errors[b])
                continue
            result.nmse[method] = float(scores[b])
            if method == METHOD_MULTI:
                result.rho = model.rho[b].copy()
                result.iterations = traces[b].iterations_used
                result.fw_gap = traces[b].fw_gaps[-1]
        del model, traces, residual  # held through the next fit, they would raise the batch's peak
    return results


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
    size, indices = batch_size(dataset, config), range(config.n_realizations)
    trials = []
    for start in indices[::size]:  # each batch's seeds are made as it runs
        seeds = [trial_seed(config.master_seed, i) for i in indices[start : start + size]]
        trials += _run_batch(dataset, config, seeds)

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
    :class:`ExperimentConfig` validates it.  A point whose fit is singular
    or leaves float range is skipped with a warning.  A training block of
    all-zero targets, or a grid whose every point fails, raises
    :class:`ExperimentError`.
    """
    alphas = sorted(float(a) for a in alphas)
    betas = [0.0] if method == METHOD_LINEAR else sorted(float(b) for b in betas)
    if not alphas or not betas:
        raise ValueError("hyperparameter grids must be nonempty")
    try:
        perm, t_noisy = _draw(dataset, config, trial_seed(config.master_seed, 2**32))
    except ValueError as err:  # an all-zero training block has no SNR
        raise ExperimentError(f"grid search: {err}") from None
    x_train = dataset.inputs[perm[: config.n_train]]
    t_clean = dataset.targets[perm[: config.n_train]]
    dictionary = build_dictionary(x_train, config.grid)

    best = failure = None
    for a in alphas:
        for b in betas:
            if method == METHOD_LINEAR:
                cfg = replace(config, linear_alpha=a)
            else:
                cfg = replace(config, alpha=a, beta=b)
            try:
                model, _ = _fit_method(method, dictionary, t_noisy, dataset.graph, cfg)
            except (SingularSystemError, FloatingPointError) as err:
                failure = err
                log.warning("grid search skips alpha=%g beta=%g: %s", a, b, err)
                continue
            score = nmse(model.predict(x_train), t_clean)
            if best is None or score < best[0]:
                best = (score, a, b)
    if best is None:
        raise ExperimentError(f"grid search: every point failed, the last with: {failure}")
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
