"""Reference implementations over the explicit S x N x N kernel stack.

Production code never forms the stack: it keeps only the pairwise
distances and evaluates kernels on demand.  These references build every
basis Gram matrix the direct way, one spec at a time, so the matrix-free
paths can be checked against them.
"""

import numpy as np
from scipy.spatial.distance import cdist

from graphkern import LINEAR


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
                sq = cdist(x, x, "sqeuclidean")
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
