"""Reference implementations for the tests.

Production code never forms the S x N x N kernel stack: it keeps only the
pairwise distances and evaluates kernels on demand.  The stack references
build every basis Gram matrix the direct way, one spec at a time, so the
matrix-free paths can be checked against them.

Production code also never forms the MN x MN regression system.  The
dense references do:

- :func:`solve_dense` factors the full Kronecker system, the reference
  for :func:`graphkern.solve_structured`;
- :func:`krg_objective` evaluates the regression objective at a model's
  coefficients;
- :func:`reduced_objective_matrix` is the dense quadratic form of the
  reduced objective ``gamma``;
- :func:`kernel_eval` evaluates one basis kernel on one pair of inputs,
  and :func:`kernel_vector` the combined kernel vector of one input;
- :func:`sq_distances` sums the squared differences of every pair of
  rows, the reference for the Gram-identity cross distances.

:func:`optimize_unrotated` is the optimizer loop as it ran before its
iterations moved to graph-spectral coordinates: one public
:func:`graphkern.solve_structured` per iteration, which rotates the
targets in and the solution out, and the objective
:func:`gamma_from_psi` taken from ``Psi`` in the original coordinates.

:func:`run_trial_sequential` is the per-trial Monte-Carlo body as it was
before realizations ran in lockstep batches: one training set at a time,
through the single-set fitting calls, so the batched path can be checked
against it trial by trial.
"""

import math
import warnings

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon
from scipy.spatial.distance import cdist

from graphkern import (
    GAUSSIAN,
    LINEAR,
    KernelDictionary,
    KernelSpec,
    SingularSystemError,
    TrialResult,
    add_noise_snr,
    build_dictionary,
    nmse,
    optimize,
    solve_structured,
)
from graphkern import kernels
from graphkern.experiment import METHOD_LINEAR, METHOD_MULTI, METHOD_SINGLE, METHODS
from graphkern.mkl import (
    CONVERGED,
    OVERFLOW,
    SINGULAR,
    OptimizerTrace,
    _gradient_from_psi,
    _qnorm,
    frank_wolfe_gap,
    project,
)
from graphkern.kernels import _checked_weights, kernel_cross
from graphkern.solver import CONDITION_LIMIT, KrgModel, _check_fit_args


def kernel_eval(spec, x, x2):
    """Evaluate one basis kernel on a pair of input vectors."""
    x = np.asarray(x, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    if x.shape != x2.shape or x.ndim != 1:
        raise ValueError(f"input vectors must share one shape, got {x.shape} and {x2.shape}")
    if spec.family == LINEAR:
        return float(x @ x2)
    sq = float(np.sum((x - x2) ** 2))
    return float(np.exp(-sq / (2.0 * spec.parameter)))


def kernel_vector(dictionary, rho, x):
    """Combined kernel vector ``[k(x_1, x), ..., k(x_N, x)]`` for one input."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D input vector")
    rho = _checked_weights(dictionary, rho)
    return kernel_cross(dictionary, rho, x[None, :])[0]


def solve_dense(dictionary, rho, graph, targets, alpha, beta):
    """Fit by direct pivoted factorization of the full MN x MN system.

    Raises :class:`SingularSystemError` when the estimated condition
    number exceeds ``CONDITION_LIMIT``.  The reference path for the
    structured solver.
    """
    rho, t = _check_fit_args(dictionary, rho, graph, targets, alpha, beta)
    k = kernels.combine(dictionary, rho)
    n, m = dictionary.num_samples, graph.num_nodes
    system = np.kron(np.eye(m), k + alpha * np.eye(n)) + beta * np.kron(
        graph.laplacian, k
    )
    anorm = np.linalg.norm(system, 1)
    with warnings.catch_warnings():
        # exact singularity is reported through the condition guard below
        warnings.simplefilter("ignore", LinAlgWarning)
        lu, piv = lu_factor(system)
    rcond, info = dgecon(lu, anorm, norm="1")
    if info != 0 or not np.isfinite(rcond) or rcond < 1.0 / CONDITION_LIMIT:
        raise SingularSystemError(
            f"system condition estimate {1.0 / max(rcond, 1e-300):.2e} exceeds "
            f"{CONDITION_LIMIT:.0e}; consider increasing alpha"
        )
    vec = lu_solve((lu, piv), t.ravel(order="F"))
    psi = vec.reshape((n, m), order="F")
    return KrgModel(psi, float(alpha), float(beta), dictionary, rho, graph)


def krg_objective(model, targets, reduced=False):
    """Regression objective value at the model's coefficients.

    The full form is

        tr(T^T T) - 2 tr(T^T K Psi) + tr(Psi^T K K Psi)
        + alpha tr(Psi^T K Psi) + beta tr(Psi^T K K Psi L)

    which equals the primal ``sum_n ||t_n - y_n||^2 + alpha tr(W^T W)
    + beta sum_n y_n^T L y_n`` under the feature-space identification
    ``W = Phi^T Psi``.  With ``reduced=True`` the constant ``tr(T^T T)``
    is dropped.
    """
    t = np.asarray(targets, dtype=float)
    if t.shape != model.psi.shape:
        raise ValueError(f"targets must have shape {model.psi.shape}, got {t.shape}")
    k = kernels.combine(model.dictionary, model.rho)
    kp = k @ model.psi
    value = (
        -2.0 * float(np.sum(t * kp))
        + float(np.sum(kp * kp))
        + model.alpha * float(np.sum(model.psi * kp))
        + model.beta * float(np.sum(kp * (kp @ model.graph.laplacian)))
    )
    if not reduced:
        value += float(np.sum(t * t))
    return value


def reduced_objective_matrix(dictionary, graph, rho, alpha, beta):
    """Dense MN x MN matrix of the reduced objective's quadratic form.

    ``gamma(rho) = vec(T)^T B vec(T)`` with
    ``B = -(I_M kron K) [(I_M kron (K + alpha I)) + beta (L kron K)]^{-1}``.
    """
    k = kernels.combine(dictionary, rho)
    n, m = dictionary.num_samples, graph.num_nodes
    system = np.kron(np.eye(m), k + alpha * np.eye(n)) + beta * np.kron(
        graph.laplacian, k
    )
    return -np.kron(np.eye(m), k) @ np.linalg.inv(system)


def gamma_from_psi(graph, targets, psi, alpha, beta):
    """``-tr(T^T K Psi)`` from a solution ``Psi`` in the original coordinates.

    ``K Psi = (T - alpha Psi) U diag(1 / (1 + beta lam)) U^T``, so both
    factors are rotated here.  One value per system of a stack.
    """
    u, lam = graph.lap_eigvecs, graph.lap_eigvals
    t_rot = targets @ u
    k_psi_rot = (targets - alpha * psi) @ u / (1.0 + beta * lam)
    return -np.sum(t_rot * k_psi_rot, axis=(-2, -1))


def optimize_unrotated(dictionary, graph, targets, config, alpha, beta):
    """:func:`graphkern.optimize` through the public solve, in the original coordinates."""
    targets = np.asarray(targets, dtype=float)
    batch = dictionary.batch_shape
    traces = tuple(OptimizerTrace() for _ in range(math.prod(batch)))
    live = np.ones(batch, dtype=bool)
    rho_prev = np.zeros(batch + (dictionary.num_kernels,))
    lam_prev = 1.0
    for i in range(1, config.i_max + 1):
        model = solve_structured(dictionary, rho_prev, graph, targets, alpha, beta)
        if batch:
            for b in np.flatnonzero(live):
                if model.errors[b] is not None:
                    traces[b].error = model.errors[b]
                    traces[b].status = SINGULAR
                    live[b] = False
        mu = config.mu0 / i
        with np.errstate(over="ignore", invalid="ignore"):
            value = gamma_from_psi(graph, targets, model.psi, alpha, beta)
            grad = _gradient_from_psi(dictionary, model.psi, alpha)
            gap = frank_wolfe_gap(grad, rho_prev, config.radius, config.q)
            step = rho_prev - mu * grad
        outside = ~np.isfinite(step).all(axis=-1)
        if outside.any():
            message = (f"the step of iteration {i} leaves float range; "
                       f"consider a smaller mu0 or a larger alpha")
            if not batch:
                raise FloatingPointError(message)
            for b in np.flatnonzero(live & outside):
                traces[b].error = message
                traces[b].status = OVERFLOW
            live = live & ~outside
            step = np.where(outside[..., None], rho_prev, step)
        z = project(step, config.radius, config.q)
        lam = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * lam_prev**2))
        nu = (lam_prev - 1.0) / lam
        rho = (1.0 - nu) * z + nu * rho_prev
        dsq = np.sum((rho - rho_prev) ** 2, axis=-1)
        norms = _qnorm(rho, config.q)
        rows = np.flatnonzero(live)
        for b, v, d, r, g in zip(rows, np.ravel(value)[rows], np.ravel(dsq)[rows],
                                 np.ravel(norms)[rows], np.ravel(gap)[rows]):
            traces[b]._append(i, float(v), mu, float(d), float(r), float(g))
        rho_prev = np.where(live[..., None], rho, rho_prev)
        lam_prev = lam
        converged = live & (dsq <= config.epsilon)
        for b in np.flatnonzero(converged):
            traces[b].status = CONVERGED
        live = live & ~converged
        if not live.any():
            break
    rho_final = project(rho_prev, config.radius, config.q)
    model = solve_structured(dictionary, rho_final, graph, targets, alpha, beta)
    with np.errstate(over="ignore", invalid="ignore"):
        final_gamma = np.ravel(gamma_from_psi(graph, targets, model.psi, alpha, beta))
    for trace, value in zip(traces, final_gamma):
        trace.final_gamma = float(value)
    if not batch:
        return model, traces[0]
    errors = tuple(t.error or e for t, e in zip(traces, model.errors))
    model.psi[np.array([e is not None for e in errors]).reshape(batch)] = 0.0
    return model, traces


def sq_distances(a, b):
    """Squared distances between the rows of ``a`` and ``b``, summed difference by difference."""
    return cdist(a, b, "sqeuclidean")


def stack(dictionary):
    """``(S, N, N)`` array whose slice ``s`` is the Gram matrix of ``specs[s]``."""
    x = dictionary.training_inputs
    n = x.shape[0]
    sq = None
    mats = np.empty((dictionary.num_kernels, n, n))
    for i, spec in enumerate(dictionary.specs):
        if spec.family == LINEAR:
            mats[i] = x @ x.T
        else:
            if sq is None:
                sq = sq_distances(x, x)
            mats[i] = np.exp(-sq / (2.0 * spec.parameter))
    return mats


def combine(dictionary, rho):
    """``sum_s rho_s K_s`` over the stack; any signs of the weights."""
    return np.tensordot(np.asarray(rho, dtype=float), stack(dictionary), axes=([0], [0]))


def gradient(dictionary, psi, alpha):
    """``-alpha tr(Psi^T K_s Psi)`` for every kernel, over the stack."""
    outer = psi @ psi.T
    return -alpha * np.tensordot(stack(dictionary), outer, axes=([1, 2], [0, 1]))


def gamma(dictionary, targets, psi, rho):
    """``-tr(T^T K Psi)`` with ``K`` combined over the stack."""
    return -float(np.sum(targets * (combine(dictionary, rho) @ psi)))


def weight_objective_features(dictionary, graph, psi, beta):
    """Feature matrix D whose Gram matrix is the weight-space quadratic term.

    Column ``s`` is ``vec(K_s Psi (I + beta L)^{-1/2})``; the quadratic
    coefficient matrix of the weight-space objective is ``D^T D`` and is
    therefore positive semidefinite.
    """
    u, lam = graph.lap_eigvecs, graph.lap_eigvals
    half_inv = u @ ((1.0 / np.sqrt(1.0 + beta * lam))[:, None] * u.T)
    cols = [(mat @ psi @ half_inv).ravel(order="F") for mat in stack(dictionary)]
    return np.column_stack(cols)


def weight_objective_quadratic(dictionary, graph, psi, beta):
    """Quadratic coefficient matrix of the weight-space objective.

    Entry (r, s) is ``tr(Psi^T K_r K_s Psi (I + beta L)^{-1})``, assembled
    directly from traces (independently of
    :func:`weight_objective_features`).
    """
    u, lam = graph.lap_eigvecs, graph.lap_eigvals
    inv = u @ ((1.0 / (1.0 + beta * lam))[:, None] * u.T)
    num = dictionary.num_kernels
    projected = [mat @ psi for mat in stack(dictionary)]
    smoothed = [p @ inv for p in projected]
    c = np.empty((num, num))
    for r in range(num):
        for s in range(num):
            c[r, s] = float(np.sum(projected[r] * smoothed[s]))
    return c


def fit_method_sequential(method, x_train, t_fit, graph, config):
    """Fit one method on one training set; returns (model, iterations)."""
    if method == METHOD_LINEAR:
        dictionary = KernelDictionary.from_specs(x_train, [KernelSpec(LINEAR)])
        model = solve_structured(dictionary, np.ones(1), graph, t_fit, config.linear_alpha, 0.0)
        return model, 0
    if method == METHOD_SINGLE:
        dictionary = KernelDictionary.from_specs(
            x_train, [KernelSpec(GAUSSIAN, config.single_sigma_sq)]
        )
        model = solve_structured(dictionary, np.ones(1), graph, t_fit, config.alpha, config.beta)
        return model, 0
    dictionary = build_dictionary(x_train, config.grid)
    model, trace = optimize(dictionary, graph, t_fit, config.solver, config.alpha, config.beta)
    return model, trace.iterations_used


def run_trial_sequential(dataset, config, realization_seed):
    """One realization fitted on its own; the Monte-Carlo trial oracle."""
    partition_seed, noise_seed = realization_seed.spawn(2)
    perm = np.random.default_rng(partition_seed).permutation(dataset.num_pairs)
    train_idx = perm[: config.n_train]
    test_idx = perm[config.n_train :]
    x_train = dataset.inputs[train_idx]
    t_noisy = add_noise_snr(dataset.targets[train_idx], config.snr_db, noise_seed)
    x_test = dataset.inputs[test_idx]
    t_test = dataset.targets[test_idx]

    result = TrialResult(nmse={})
    for method in METHODS:
        try:
            model, iters = fit_method_sequential(method, x_train, t_noisy, dataset.graph, config)
            result.nmse[method] = nmse(model.predict(x_test), t_test)
            if method == METHOD_MULTI:
                result.rho = model.rho
                result.iterations = iters
        except (SingularSystemError, np.linalg.LinAlgError) as err:
            result.errors[method] = str(err)
    return result
