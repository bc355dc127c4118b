"""Learning kernel-combination weights by accelerated projected gradient.

The weights ``rho >= 0`` with ``||rho||_q <= R`` (q in {1, 2}) are found by
minimizing the reduced objective

    gamma(rho) = -tr(T^T K Psi(rho)),    K = sum_s rho_s K_s,

where ``Psi(rho)`` is the fitted regression coefficient matrix for that
``rho``.  ``gamma`` is convex, nonpositive, elementwise decreasing, and 0
at ``rho = 0``; its gradient has the closed form
``d gamma / d rho_s = -alpha tr(Psi^T K_s Psi) <= 0`` (the alpha factor
follows from the envelope theorem applied to the inner minimization and
is confirmed by finite differences).  Because the objective decreases in
every coordinate, the constrained optimum lies on the boundary
``||rho||_q = R``.

:func:`optimize` runs projected gradient descent with the accelerated
momentum schedule ``lambda(i) = (1 + sqrt(1 + 4 lambda(i-1)^2)) / 2``,
``nu(i) = (lambda(i-1) - 1) / lambda(i)`` and step size ``mu(i) = mu0 / i``.
Two momentum combinations are available: the default ``"damped"`` variant
``rho(i) = (1 - nu) z(i) + nu rho(i-1)`` (a convex combination of the
projected point and the previous iterate, which keeps iterates feasible)
and the classical ``"fista"`` extrapolation
``rho(i) = z(i) + nu (z(i) - z(i-1))``.
"""

import csv
from dataclasses import dataclass, field

import numpy as np

from .kernels import _combine_unchecked, kernel_inner_products
from .solver import SingularSystemError, solve_structured

FEASIBILITY_TOL = 1e-9

MOMENTUM_VARIANTS = ("damped", "fista")

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True)
class MklWeights:
    """Nonnegative kernel weights constrained to an l_q ball of radius R."""

    rho: np.ndarray
    q: int
    radius: float

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if np.any(rho < 0):
            raise ValueError("weights must be nonnegative")
        if _qnorm(rho, self.q) > self.radius + FEASIBILITY_TOL:
            raise ValueError(
                f"||rho||_{self.q} = {_qnorm(rho, self.q):.6g} exceeds radius "
                f"{self.radius}"
            )
        rho.setflags(write=False)
        object.__setattr__(self, "rho", rho)


@dataclass(frozen=True)
class SolverConfig:
    """Settings for :func:`optimize`."""

    mu0: float = 0.01
    i_max: int = 500
    epsilon: float = 1e-4
    radius: float = 5.0
    q: int = 1
    momentum: str = "damped"

    def __post_init__(self):
        if not self.mu0 > 0:
            raise ValueError("mu0 must be positive")
        if not (isinstance(self.i_max, int) and self.i_max >= 1):
            raise ValueError("i_max must be a positive integer")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not self.radius > 0:
            raise ValueError("radius must be positive")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")
        if self.momentum not in MOMENTUM_VARIANTS:
            raise ValueError(f"momentum must be one of {MOMENTUM_VARIANTS}")


@dataclass
class OptimizerTrace:
    """Per-iteration history of an :func:`optimize` run.

    Row ``i`` records the objective at the point where the gradient was
    evaluated (the previous iterate), the step size ``mu(i)``, the squared
    iterate change and the q-norm of the new iterate.  ``final_gamma`` is
    the objective at the returned (projected) weights.
    """

    iterations: list = field(default_factory=list)
    gamma_values: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    delta_sq: list = field(default_factory=list)
    rho_norms: list = field(default_factory=list)
    status: str = MAX_ITERATIONS
    final_gamma: float = np.nan

    def __len__(self):
        return len(self.iterations)

    @property
    def iterations_used(self):
        return len(self.iterations)

    def _append(self, i, gamma_value, step, dsq, norm):
        self.iterations.append(i)
        self.gamma_values.append(gamma_value)
        self.step_sizes.append(step)
        self.delta_sq.append(dsq)
        self.rho_norms.append(norm)

    def write_csv(self, path):
        """Write the trace as a CSV file with a header row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "gamma", "step", "delta_sq", "rho_norm"])
            for row in zip(
                self.iterations,
                self.gamma_values,
                self.step_sizes,
                self.delta_sq,
                self.rho_norms,
            ):
                writer.writerow([repr(v) for v in row])


def _qnorm(rho, q):
    if q == 1:
        return float(np.sum(np.abs(rho)))
    return float(np.linalg.norm(rho))


def _gamma_from_psi(graph, targets, psi, alpha, beta):
    """``-tr(T^T K Psi)`` from a solution ``Psi``, without forming ``K``.

    The system ``(K + alpha I) Psi + beta K Psi L = T`` gives
    ``K Psi = (T - alpha Psi) U diag(1 / (1 + beta lam)) U^T``.
    """
    u, lam = graph.lap_eigvecs, graph.lap_eigvals
    t_rot = targets @ u
    k_psi_rot = (targets - alpha * psi) @ u / (1.0 + beta * lam)
    return -float(np.sum(t_rot * k_psi_rot))


def gamma(dictionary, graph, targets, rho, alpha, beta):
    """Reduced objective value ``-tr(T^T K Psi(rho))`` (nonpositive)."""
    targets = np.asarray(targets, dtype=float)
    model = solve_structured(dictionary, rho, graph, targets, alpha, beta)
    return _gamma_from_psi(graph, targets, model.psi, alpha, beta)


def gamma_gradient(dictionary, graph, targets, rho, alpha, beta):
    """Gradient of the reduced objective: ``-alpha tr(Psi^T K_s Psi)`` per kernel.

    Every component is nonpositive since each ``K_s`` is positive
    semidefinite and ``alpha >= 0``.  Matches central finite differences
    of :func:`gamma`.
    """
    model = solve_structured(dictionary, rho, graph, targets, alpha, beta)
    return _gradient_from_psi(dictionary, model.psi, alpha)


def _gradient_from_psi(dictionary, psi, alpha):
    return -alpha * kernel_inner_products(dictionary, psi @ psi.T)


def project(s, radius, q):
    """Euclidean projection onto ``{z >= 0, ||z||_q <= radius}``.

    For q=1: negative entries are clipped; if the clipped vector already
    fits in the ball it is returned, otherwise the unique shift ``tau > 0``
    with ``sum max(s_i - tau, 0) = radius`` is found by the sort-and-scan
    rule (O(S log S)).  For q=2: clip negatives, then rescale onto the
    sphere if outside.  Total function (no failure modes).
    """
    s = np.asarray(s, dtype=float)
    if not radius > 0:
        raise ValueError("radius must be positive")
    clipped = np.maximum(s, 0.0)
    if q == 1:
        total = float(clipped.sum())
        if total <= radius:
            return clipped
        u = np.sort(clipped)[::-1]
        css = np.cumsum(u)
        counts = np.arange(1, u.size + 1)
        active = np.nonzero(u > (css - radius) / counts)[0]
        k = active[-1]
        tau = (css[k] - radius) / (k + 1.0)
        z = np.maximum(clipped - tau, 0.0)
        excess = float(z.sum())
        if excess > radius:  # shave accumulated round-off
            z *= radius / excess
        return z
    if q == 2:
        norm = float(np.linalg.norm(clipped))
        if norm <= radius:
            return clipped
        return clipped * (radius / norm)
    raise ValueError("q must be 1 or 2")


def optimize(dictionary, graph, targets, config, alpha, beta):
    """Accelerated projected gradient descent on the reduced objective.

    Starts from ``rho(0) = 0`` and iterates until the squared iterate
    change drops to ``config.epsilon`` or ``config.i_max`` iterations are
    reached.  Returns the final weights (projected once more so the result
    is always feasible), the iteration trace and the
    :class:`~graphkern.solver.KrgModel` fitted at those weights.  A singular
    system mid-run raises :class:`~graphkern.solver.SingularSystemError`
    with the partial trace attached as ``err.trace``.
    """
    targets = np.asarray(targets, dtype=float)
    num = dictionary.num_kernels
    trace = OptimizerTrace()
    rho_prev = np.zeros(num)
    z_prev = np.zeros(num)
    lam_prev = 1.0
    try:
        for i in range(1, config.i_max + 1):
            model = solve_structured(dictionary, rho_prev, graph, targets, alpha, beta)
            value = _gamma_from_psi(graph, targets, model.psi, alpha, beta)
            grad = _gradient_from_psi(dictionary, model.psi, alpha)
            mu = config.mu0 / i
            z = project(rho_prev - mu * grad, config.radius, config.q)
            lam = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * lam_prev**2))
            nu = (lam_prev - 1.0) / lam
            if config.momentum == "damped":
                rho = (1.0 - nu) * z + nu * rho_prev
            else:
                rho = z + nu * (z - z_prev)
            dsq = float(np.sum((rho - rho_prev) ** 2))
            trace._append(i, value, mu, dsq, _qnorm(rho, config.q))
            rho_prev, z_prev, lam_prev = rho, z, lam
            if dsq <= config.epsilon:
                trace.status = CONVERGED
                break
        else:
            trace.status = MAX_ITERATIONS
    except SingularSystemError as err:
        err.trace = trace
        raise
    rho_final = project(rho_prev, config.radius, config.q)
    model = solve_structured(dictionary, rho_final, graph, targets, alpha, beta)
    trace.final_gamma = _gamma_from_psi(graph, targets, model.psi, alpha, beta)
    weights = MklWeights(rho_final, config.q, config.radius)
    return weights, trace, model


def reduced_objective_matrix(dictionary, graph, rho, alpha, beta):
    """Dense MN x MN matrix of the reduced objective's quadratic form.

    ``gamma(rho) = vec(T)^T B vec(T)`` with
    ``B = -(I_M kron K) [(I_M kron (K + alpha I)) + beta (L kron K)]^{-1}``.
    Slow reference used by tests; the production path never forms it.
    """
    rho = np.asarray(rho, dtype=float)
    k = _combine_unchecked(dictionary, rho)
    n, m = dictionary.num_samples, graph.num_nodes
    system = np.kron(np.eye(m), k + alpha * np.eye(n)) + beta * np.kron(
        graph.laplacian, k
    )
    return -np.kron(np.eye(m), k) @ np.linalg.inv(system)
