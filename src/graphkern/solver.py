"""Closed-form kernel regression over graphs for one combined kernel.

Fits the coefficient matrix ``Psi`` (N x M) that solves

    [(I_M kron (K + alpha I_N)) + beta (L kron K)] vec(Psi) = vec(T)

where ``K`` is the combined kernel matrix over N training inputs, ``L`` the
M x M graph Laplacian, and ``vec`` stacks columns.  Predictions for a new
input are ``y = Psi^T k(x)``.

:func:`solve_structured` diagonalizes ``L`` (and ``K``) to decouple the
system into M small solves, giving the ``Psi`` of the MN x MN system up to
round-off without forming it.  Setting ``beta = 0`` recovers standard
kernel ridge regression ``Psi = (K + alpha I)^{-1} T``.

:func:`solve_structured` also fits a stack of B systems that share the
graph, one per training set of a stacked dictionary, with one batched
eigendecomposition; each system is solved and condition-checked exactly as
it would be alone.

At ``rho = 0``, where the optimizer starts, ``K = 0`` and no ``eigh``
runs: its eigendecomposition (0, I) is known.

The weights must be nonnegative and finite, so that ``K`` is positive
semidefinite; others raise ``ValueError``, as they do in
:func:`~graphkern.kernels.combine`.  A column system with a denominator
at or below zero counts as singular.
"""

from dataclasses import dataclass

import numpy as np

from .kernels import _checked_weights, combine, kernel_cross

# Systems whose estimated condition number exceeds this are refused instead
# of being silently regularized.
CONDITION_LIMIT = 1e12


class SingularSystemError(RuntimeError):
    """The regression system is numerically singular or too ill-conditioned."""


@dataclass(frozen=True)
class KrgModel:
    """Fitted regression state.

    ``psi`` is the N x M coefficient matrix; ``dictionary`` and ``rho``
    define the combined kernel; ``graph`` supplies the Laplacian that was
    used during fitting, and is None in a model read from a file, since a
    prediction needs no graph.  Instances are immutable and shareable.

    A model fitted on a stack of B training sets holds (B, N, M) ``psi``
    and (B, S) ``rho``, and ``errors`` holds per set ``None`` or the
    message of the :class:`SingularSystemError` its system raised (its
    ``psi`` is then zero).
    """

    psi: np.ndarray
    alpha: float
    beta: float
    dictionary: object
    rho: np.ndarray
    graph: object
    errors: tuple = None

    def predict(self, x):
        """Predict targets ``Psi^T k(x)`` for new inputs.

        For a model of one training set, a 1-D input of length L yields
        the length-M prediction and a (K, L) batch a (K, M) matrix of
        predictions.  A model of a stack of B sets takes (B, K, L) inputs,
        set ``b`` predicting ``x[b]``, and yields (B, K, M), each set's
        predictions bit for bit as it gets alone.  The kernel vectors are
        those of :func:`~graphkern.kernels.kernel_cross`, within its
        stated bound of summed differences.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1 and not self.dictionary.batch_shape:
            return kernel_cross(self.dictionary, self.rho, x[None, :])[0] @ self.psi
        return kernel_cross(self.dictionary, self.rho, x) @ self.psi


def _check_fit_args(dictionary, rho, graph, targets, alpha, beta):
    rho = _checked_weights(dictionary, rho)
    t = np.asarray(targets, dtype=float)
    shape = dictionary.batch_shape + (dictionary.num_samples, graph.num_nodes)
    if t.shape != shape:
        raise ValueError(f"targets must have shape {shape}, got {t.shape}")
    if alpha < 0 or beta < 0:
        raise ValueError("alpha and beta must be nonnegative")
    return rho, t


def solve_structured(dictionary, rho, graph, targets, alpha, beta):
    """Fit by diagonalizing the Laplacian and the combined kernel.

    With ``L = U diag(lam) U^T`` the system decouples over the columns of
    ``T~ = T U`` into ``((1 + beta lam_m) K + alpha I) psi~_m = t~_m``;
    diagonalizing ``K`` once turns all M solves into elementwise
    divisions, after which ``Psi = Psi~ U^T``.  Equivalent to factoring
    the MN x MN system up to round-off, at O(N^3 + M N^2) cost.

    For a stacked dictionary, ``rho`` and ``targets`` carry its batch axis
    and every system is checked on its own: one that fails the condition
    check gets its message in the model's ``errors`` instead of raising.

    At ``rho = 0`` (the optimizer's starting point) ``K = 0`` and its
    eigendecomposition is known, zero eigenvalues and the identity as
    eigenvectors, so no ``eigh`` runs; the result is bit-identical to the
    ``eigh`` route, and ``alpha = 0`` there still fails as singular.
    Both routes refuse negative or non-finite weights (``ValueError``).
    """
    rho, t = _check_fit_args(dictionary, rho, graph, targets, alpha, beta)
    u, lam = graph.lap_eigvecs, graph.lap_eigvals
    # kvecs None stands for K = 0, for which LAPACK's eigh returns exactly
    # (0, I); a product with I is exact, so it is skipped
    kvecs = None
    if rho.any():
        kvals, kvecs = np.linalg.eigh(combine(dictionary, rho))
    else:
        kvals = np.zeros(dictionary.batch_shape + (dictionary.num_samples,))
    # denoms[..., j, m] is the eigenvalue of column system m along kernel mode j
    denoms = kvals[..., :, None] * (1.0 + beta * lam) + alpha
    # a denominator at or below zero marks a system as singular
    dmax = denoms.max(axis=(-2, -1))
    dmin = denoms.min(axis=(-2, -1))
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
    coeffs = t @ u
    if kvecs is not None:
        coeffs = np.swapaxes(kvecs, -1, -2) @ coeffs
    np.divide(coeffs, denoms, out=coeffs)
    del denoms
    if kvecs is not None:
        coeffs = kvecs @ coeffs
    psi = coeffs @ u.T
    errors = None
    if dictionary.batch_shape:
        psi[failed] = 0.0
        errors = tuple(messages)
    return KrgModel(psi, float(alpha), float(beta), dictionary, rho, graph, errors)

