"""Closed-form kernel regression over graphs for one combined kernel.

Fits the coefficient matrix ``Psi`` (N x M) that solves

    [(I_M kron (K + alpha I_N)) + beta (L kron K)] vec(Psi) = vec(T)

where ``K`` is the combined kernel matrix over N training inputs, ``L`` the
M x M graph Laplacian, and ``vec`` stacks columns.  Predictions for a new
input are ``y = Psi^T k(x)``.

Two routes are provided: :func:`solve_dense` assembles the MN x MN system
and factors it directly, and :func:`solve_structured` diagonalizes ``L``
(and ``K``) to decouple the system into M small solves.  Both produce the
same ``Psi`` up to round-off; the dense route doubles as a test oracle.
Setting ``beta = 0`` recovers standard kernel ridge regression
``Psi = (K + alpha I)^{-1} T``.

:func:`solve_structured` also fits a stack of B systems that share the
graph, one per training set of a stacked dictionary, with one batched
eigendecomposition; each system is solved and condition-checked exactly as
it would be alone.
"""

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve
from scipy.linalg.lapack import dgecon

from .kernels import _combine_unchecked, kernel_cross

# Systems whose estimated condition number exceeds this are refused instead
# of being silently regularized.
CONDITION_LIMIT = 1e12

# Above this system size the structured route is the default.
DENSE_SIZE_LIMIT = 2000


class SingularSystemError(RuntimeError):
    """The regression system is numerically singular or too ill-conditioned."""


@dataclass(frozen=True)
class TrainingSet:
    """Paired training inputs (N x L) and targets (N x M)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.inputs, dtype=float)
        t = np.asarray(self.targets, dtype=float)
        if x.ndim != 2 or t.ndim != 2:
            raise ValueError("inputs and targets must both be 2-D arrays")
        if x.shape[0] != t.shape[0]:
            raise ValueError(
                f"inputs have {x.shape[0]} rows but targets have {t.shape[0]}"
            )
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(t))):
            raise ValueError("training data contains NaN or Inf")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "targets", t)

    @property
    def num_samples(self):
        return self.inputs.shape[0]


@dataclass(frozen=True)
class KrgModel:
    """Fitted regression state.

    ``psi`` is the N x M coefficient matrix; ``dictionary`` and ``rho``
    define the combined kernel; ``graph`` supplies the Laplacian that was
    used during fitting.  Instances are immutable and shareable.

    A model fitted on a stack of B training sets holds (B, N, M) ``psi``
    and (B, S) ``rho``, and ``errors`` holds per set ``None`` or the
    message of the :class:`SingularSystemError` its system raised (its
    ``psi`` is then zero).  :meth:`predict` takes a model of one set.
    """

    psi: np.ndarray
    alpha: float
    beta: float
    dictionary: object
    rho: np.ndarray
    graph: object
    errors: tuple = None

    def predict(self, x):
        """Predict targets for one input vector or a batch of input rows.

        A 1-D input of length L yields the length-M prediction
        ``Psi^T k(x)``; a (K, L) batch yields a (K, M) matrix of
        predictions.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            return kernel_cross(self.dictionary, self.rho, x[None, :])[0] @ self.psi
        if x.ndim == 2:
            return kernel_cross(self.dictionary, self.rho, x) @ self.psi
        raise ValueError("input must be a vector or a matrix of row vectors")


def _check_fit_args(dictionary, rho, graph, targets, alpha, beta):
    batch = dictionary.batch_shape
    rho = np.asarray(rho, dtype=float)
    if rho.shape != batch + (dictionary.num_kernels,):
        raise ValueError(
            f"weight vector has shape {rho.shape}, expected "
            f"{batch + (dictionary.num_kernels,)}"
        )
    t = np.asarray(targets, dtype=float)
    shape = batch + (dictionary.num_samples, graph.num_nodes)
    if t.shape != shape:
        raise ValueError(f"targets must have shape {shape}, got {t.shape}")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    return rho, t


def solve_dense(dictionary, rho, graph, targets, alpha, beta):
    """Fit by direct pivoted factorization of the full MN x MN system.

    Raises :class:`SingularSystemError` when the estimated condition
    number exceeds ``CONDITION_LIMIT``.  Intended for small systems and as
    the reference path for the structured solver.
    """
    rho, t = _check_fit_args(dictionary, rho, graph, targets, alpha, beta)
    k = _combine_unchecked(dictionary, rho)
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


def solve_structured(dictionary, rho, graph, targets, alpha, beta):
    """Fit by diagonalizing the Laplacian and the combined kernel.

    With ``L = U diag(lam) U^T`` the system decouples over the columns of
    ``T~ = T U`` into ``((1 + beta lam_m) K + alpha I) psi~_m = t~_m``;
    diagonalizing ``K`` once turns all M solves into elementwise
    divisions, after which ``Psi = Psi~ U^T``.  Equivalent to
    :func:`solve_dense` up to round-off, at O(N^3 + M N^2) cost.

    For a stacked dictionary, ``rho`` and ``targets`` carry its batch axis
    and every system is checked on its own: one that fails the condition
    check gets its message in the model's ``errors`` instead of raising.
    """
    rho, t = _check_fit_args(dictionary, rho, graph, targets, alpha, beta)
    k = _combine_unchecked(dictionary, rho)
    u, lam = graph.lap_eigvecs, graph.lap_eigvals
    kvals, kvecs = np.linalg.eigh(k)
    # denoms[..., j, m] is the eigenvalue of column system m along kernel mode j
    denoms = kvals[..., :, None] * (1.0 + beta * lam) + alpha
    magnitudes = np.abs(denoms)
    dmax = magnitudes.max(axis=(-2, -1))
    dmin = magnitudes.min(axis=(-2, -1))
    del magnitudes  # the N x M temporaries are freed as soon as they are used
    cond = np.divide(dmax, dmin, out=np.full_like(dmax, np.inf), where=dmin > 0.0)
    failed = cond > CONDITION_LIMIT
    messages = [
        f"column systems have condition estimate {c:.2e} exceeding "
        f"{CONDITION_LIMIT:.0e}; consider increasing alpha" if bad else None
        for c, bad in zip(cond.ravel(), failed.ravel())
    ]
    if failed.any():
        if not dictionary.batch_shape:
            raise SingularSystemError(messages[0])
        denoms[failed] = 1.0  # their psi is set to zero below
    coeffs = np.swapaxes(kvecs, -1, -2) @ (t @ u)
    np.divide(coeffs, denoms, out=coeffs)
    del denoms
    psi = (kvecs @ coeffs) @ u.T
    errors = None
    if dictionary.batch_shape:
        psi[failed] = 0.0
        errors = tuple(messages)
    return KrgModel(psi, float(alpha), float(beta), dictionary, rho, graph, errors)


def fit_krg(dictionary, rho, graph, targets, alpha, beta):
    """Fit choosing the route by system size.

    Uses the dense direct solve up to ``DENSE_SIZE_LIMIT`` unknowns and the
    structured route beyond that.
    """
    if dictionary.num_samples * graph.num_nodes <= DENSE_SIZE_LIMIT:
        return solve_dense(dictionary, rho, graph, targets, alpha, beta)
    return solve_structured(dictionary, rho, graph, targets, alpha, beta)


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
    k = _combine_unchecked(model.dictionary, model.rho)
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
