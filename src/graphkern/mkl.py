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
schedule ``lambda(i) = (1 + sqrt(1 + 4 lambda(i-1)^2)) / 2``,
``nu(i) = (lambda(i-1) - 1) / lambda(i)`` and step size ``mu(i) = mu0 / i``.
Its step ``rho(i) = (1 - nu) z(i) + nu rho(i-1)`` is a convex combination
of the projected point ``z(i)`` and the previous iterate, so every iterate
stays in the feasible set, where ``gamma`` is convex and its gradient
formula holds.  It returns the :class:`~graphkern.solver.KrgModel` fitted
at the learned weights, ``model.rho``, and the iteration trace.  Negative
or non-finite weights raise ``ValueError`` in :func:`gamma` and
:func:`gamma_gradient`.  The iterates of :func:`optimize` stay finite: a
step that leaves float range stops its problem as a singular system does.

:func:`optimize` iterates in graph-spectral coordinates.  With
``L = U diag(lam) U^T`` it rotates the targets once, ``T~ = T U`` (for a
stack, once per batch), and carries ``Psi~ = Psi U`` from solve to
solve: ``gamma = -sum T~ * (T~ - alpha Psi~) / (1 + beta lam)``, the
gradient takes ``Psi~ Psi~^T``, which equals ``Psi Psi^T``, and the
returned model is rotated back once, ``Psi = Psi~ U^T``.  The solves of
one run share the low-rank route's Gaussian test matrix and its refusal
(see :mod:`graphkern.solver`).  Against the loop that rotated at every
iterate, outputs move by round-off only; the stated bound is equal
iteration counts, ``|d rho| <= 1e-10``, ``|d psi| <= 1e-9 max |psi|``
and a relative change in NMSE of at most ``1e-9``.

Every function here also takes a stacked dictionary (B training sets, see
:mod:`graphkern.kernels`) with targets and weights carrying its batch axis.
:func:`optimize` then runs the B problems in lockstep: a problem that
meets the stopping rule, whose system turns singular or whose step leaves
float range freezes at its own iteration while the others go on, so each
result is the one a run on that problem alone, as a stack of one, returns.
"""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import _checked_weights, kernel_inner_products
from .solver import (
    KrgModel,
    SingularSystemError,
    _check_fit_args,
    _Sketch,
    _solve_rotated,
    solve_structured,
)

CONVERGED = "converged"
MAX_ITERATIONS = "max_iterations"
SINGULAR = "singular"  # a problem whose system turned singular
OVERFLOW = "overflow"  # a problem whose step left float range


@dataclass(frozen=True)
class SolverConfig:
    """Settings for :func:`optimize`."""

    mu0: float = 0.01
    i_max: int = 500
    epsilon: float = 1e-4
    radius: float = 5.0
    q: int = 1

    def __post_init__(self):
        for name in ("mu0", "epsilon", "radius"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive")
        if not (isinstance(self.i_max, int) and self.i_max >= 1):
            raise ValueError("i_max must be a positive integer")
        if self.q not in (1, 2):
            raise ValueError("q must be 1 or 2")


@dataclass
class OptimizerTrace:
    """Per-iteration history of an :func:`optimize` run.

    Row ``i`` records the objective and the Frank-Wolfe gap at the point
    where the gradient was evaluated (the previous iterate), the step size
    ``mu(i)``, the squared iterate change and the q-norm of the new
    iterate.  The gap bounds how far that point's objective is above the
    optimum (see :func:`frank_wolfe_gap`).  ``final_gamma`` is the
    objective at the returned (projected) weights.  ``error`` is the
    message of the singular system or the out-of-range step that stopped
    the problem, with ``status`` ``SINGULAR`` or ``OVERFLOW``.
    """

    iterations: list = field(default_factory=list)
    gamma_values: list = field(default_factory=list)
    step_sizes: list = field(default_factory=list)
    delta_sq: list = field(default_factory=list)
    rho_norms: list = field(default_factory=list)
    fw_gaps: list = field(default_factory=list)
    status: str = MAX_ITERATIONS
    final_gamma: float = np.nan
    error: str = None

    def __len__(self):
        return len(self.iterations)

    @property
    def iterations_used(self):
        return len(self.iterations)

    def _append(self, i, gamma_value, step, dsq, norm, gap):
        self.iterations.append(i)
        self.gamma_values.append(gamma_value)
        self.step_sizes.append(step)
        self.delta_sq.append(dsq)
        self.rho_norms.append(norm)
        self.fw_gaps.append(gap)

    def write_csv(self, path):
        """Write the trace as a CSV file with a header row."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["iteration", "gamma", "step", "delta_sq", "rho_norm", "fw_gap"])
            for row in zip(
                self.iterations,
                self.gamma_values,
                self.step_sizes,
                self.delta_sq,
                self.rho_norms,
                self.fw_gaps,
            ):
                writer.writerow([repr(v) for v in row])


def _qnorm(rho, q):
    """q-norm of a weight vector, or of each row of a stack of them."""
    if q == 1:
        return np.sum(np.abs(rho), axis=-1)
    return np.linalg.norm(rho, axis=-1)


def _gamma_rotated(graph, t_rot, psi_rot, alpha, beta):
    """``-tr(T^T K Psi)`` from ``T~ = T U`` and ``Psi~ = Psi U``, without forming ``K``.

    The system ``(K + alpha I) Psi + beta K Psi L = T`` gives
    ``K Psi~ = (T~ - alpha Psi~) diag(1 / (1 + beta lam))``, and ``U`` is
    orthogonal.  Returns one value per system of a stack.
    """
    k_psi_rot = (t_rot - alpha * psi_rot) / (1.0 + beta * graph.lap_eigvals)
    return -np.sum(t_rot * k_psi_rot, axis=(-2, -1))


def gamma(dictionary, graph, targets, rho, alpha, beta):
    """Reduced objective value ``-tr(T^T K Psi(rho))`` (nonpositive).

    A stacked dictionary gives one value per training set.
    """
    model = solve_structured(dictionary, rho, graph, targets, alpha, beta)
    u = graph.lap_eigvecs
    value = _gamma_rotated(graph, np.asarray(targets, dtype=float) @ u, model.psi @ u,
                           alpha, beta)
    return value if dictionary.batch_shape else float(value)


def gamma_gradient(dictionary, graph, targets, rho, alpha, beta):
    """Gradient of the reduced objective: ``-alpha tr(Psi^T K_s Psi)`` per kernel.

    Every component is nonpositive since each ``K_s`` is positive
    semidefinite and ``alpha >= 0``.  Matches central finite differences
    of :func:`gamma`.
    """
    model = solve_structured(dictionary, rho, graph, targets, alpha, beta)
    return _gradient_from_psi(dictionary, model.psi, alpha)


def _gradient_from_psi(dictionary, psi, alpha):
    # Psi Psi^T, which equals Psi~ Psi~^T: either may be passed
    return -alpha * kernel_inner_products(dictionary, psi @ np.swapaxes(psi, -1, -2))


def frank_wolfe_gap(grad, rho, radius, q):
    """Frank-Wolfe duality gap ``max_{z in ball} g . (rho - z)`` at ``rho``.

    For the convex objective it bounds ``gamma(rho) - gamma*`` over
    ``{z >= 0, ||z||_q <= R}`` (Jaggi 2013): ``g . rho - R min(min g, 0)``
    for q=1 and ``g . rho + R ||min(g, 0)||_2`` for q=2.  Row-wise for a
    stack of gradients and weights.
    """
    inner = np.sum(grad * rho, axis=-1)
    if q == 1:
        return inner - radius * np.minimum(grad.min(axis=-1), 0.0)
    return inner + radius * np.linalg.norm(np.minimum(grad, 0.0), axis=-1)


def project(s, radius, q):
    """Euclidean projection onto ``{z >= 0, ||z||_q <= radius}``.

    For q=1: negative entries are clipped; if the clipped vector already
    fits in the ball it is returned, otherwise the unique shift ``tau > 0``
    with ``sum max(s_i - tau, 0) = radius`` is found by the sort-and-scan
    rule (O(S log S)).  For q=2: clip negatives, then rescale onto the
    sphere if outside.  A stack of vectors is projected row by row.
    Raises ``ValueError`` for ``radius <= 0`` or q not in {1, 2}.
    """
    s = np.asarray(s, dtype=float)
    if not radius > 0:
        raise ValueError("radius must be positive")
    clipped = np.maximum(s, 0.0)
    if q == 1:
        outside = clipped.sum(axis=-1, keepdims=True) > radius
        if not outside.any():
            return clipped
        u = -np.sort(-clipped, axis=-1)
        css = np.cumsum(u, axis=-1)
        counts = np.arange(1, u.shape[-1] + 1)
        active = u > (css - radius) / counts
        k = u.shape[-1] - 1 - np.argmax(active[..., ::-1], axis=-1)[..., None]
        tau = (np.take_along_axis(css, k, axis=-1) - radius) / (k + 1.0)
        z = np.maximum(clipped - tau, 0.0)
        excess = z.sum(axis=-1, keepdims=True)
        z *= radius / np.maximum(excess, radius)  # shave round-off past the ball
        return np.where(outside, z, clipped)
    if q == 2:
        norm = np.linalg.norm(clipped, axis=-1, keepdims=True)
        return clipped * (radius / np.maximum(norm, radius))
    raise ValueError("q must be 1 or 2")


def optimize(dictionary, graph, targets, config, alpha, beta):
    """Accelerated projected gradient descent on the reduced objective.

    Starts from ``rho(0) = 0`` and iterates until the squared iterate
    change drops to ``config.epsilon`` or ``config.i_max`` iterations are
    reached.  Returns ``(model, trace)``: the
    :class:`~graphkern.solver.KrgModel` fitted at the final weights
    ``model.rho`` (projected once more, so they are always feasible) and
    the iteration trace.  A stacked dictionary runs its problems in
    lockstep, one solve per iteration for the whole stack; ``model.rho``
    then holds one row per problem and the trace is a tuple of traces.

    One problem and a stack take the same loop.  A problem whose system
    turns singular, or whose ``eigh`` does not converge, or whose step
    leaves float range (a gradient that overflows, say, from a huge ``mu0``
    or a tiny ``alpha``; no ``RuntimeWarning`` escapes) stops with the
    message in its trace's ``error``, its status ``SINGULAR`` or
    ``OVERFLOW``.  In a stack the message goes into the model's ``errors``
    and the problem's ``psi`` is zero.  A run of one problem raises once,
    after the loop, :class:`~graphkern.solver.SingularSystemError` or
    ``FloatingPointError``, with its trace as ``err.trace``.
    """
    batch = dictionary.batch_shape
    traces = tuple(OptimizerTrace() for _ in range(math.prod(batch)))
    live = np.ones(batch, dtype=bool)
    rho_prev = np.zeros(batch + (dictionary.num_kernels,))
    _, targets = _check_fit_args(dictionary, rho_prev, graph, targets, alpha, beta)
    # the iterations run in graph-spectral coordinates: T~ = T U once, and
    # Psi = Psi~ U^T once, for the returned model
    t_rot = targets @ graph.lap_eigvecs
    sketch = _Sketch()
    lam_prev = 1.0
    for i in range(1, config.i_max + 1):
        psi, errors = _solve_rotated(dictionary, _checked_weights(dictionary, rho_prev),
                                     graph, t_rot, alpha, beta, sketch)
        singular = live & np.reshape([e is not None for e in errors], batch)
        for b in np.flatnonzero(singular):
            traces[b].error = errors[b]
            traces[b].status = SINGULAR
        # in place, so that one problem's 0-d mask stays an array
        live &= ~singular
        mu = config.mu0 / i
        # a problem whose step leaves float range stops below, its
        # overflowing values unrecorded
        with np.errstate(over="ignore", invalid="ignore"):
            value = _gamma_rotated(graph, t_rot, psi, alpha, beta)
            grad = _gradient_from_psi(dictionary, psi, alpha)
            gap = frank_wolfe_gap(grad, rho_prev, config.radius, config.q)
            step = rho_prev - mu * grad
        del psi  # freed before the next solve
        outside = ~np.isfinite(step).all(axis=-1)
        if outside.any():
            message = (f"the step of iteration {i} leaves float range; "
                       f"consider a smaller mu0 or a larger alpha")
            for b in np.flatnonzero(live & outside):
                traces[b].error = message
                traces[b].status = OVERFLOW
            live &= ~outside
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
        live &= ~converged
        if not live.any():
            break
    rho_final = _checked_weights(dictionary, project(rho_prev, config.radius, config.q))
    psi, errors = _solve_rotated(dictionary, rho_final, graph, t_rot, alpha, beta, sketch)
    # Omega goes before the returned model's arrays are made: held past them,
    # it kept the freed heap below it resident, and a loop of fits peaked 5 MB higher
    del sketch
    with np.errstate(over="ignore", invalid="ignore"):  # a problem stopped outside float range
        final_gamma = np.ravel(_gamma_rotated(graph, t_rot, psi, alpha, beta))
    for trace, value in zip(traces, final_gamma):
        trace.final_gamma = float(value)
    errors = tuple(t.error or e for t, e in zip(traces, errors))
    if not batch and errors[0] is not None:  # one problem alone raises, once
        error_type = FloatingPointError if traces[0].status == OVERFLOW else SingularSystemError
        err = error_type(errors[0])
        err.trace = traces[0]
        raise err
    psi[np.reshape([e is not None for e in errors], batch)] = 0.0  # as if singular
    return (KrgModel(psi @ graph.lap_eigvecs.T, float(alpha), float(beta), dictionary,
                     rho_final, graph, errors if batch else None),
            traces if batch else traces[0])
