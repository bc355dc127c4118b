"""Closed-form kernel regression over graphs for one combined kernel.

Fits the coefficient matrix ``Psi`` (N x M) that solves

    [(I_M kron (K + alpha I_N)) + beta (L kron K)] vec(Psi) = vec(T)

where ``K`` is the combined kernel matrix over N training inputs, ``L`` the
M x M graph Laplacian, and ``vec`` stacks columns.  Predictions for a new
input are ``y = Psi^T k(x)``.

:func:`solve_structured` diagonalizes ``L`` (and ``K``) to decouple the
system into M small solves, giving the ``Psi`` of the MN x MN system up to
round-off without forming it.  Setting ``beta = 0`` recovers standard
kernel ridge regression ``Psi = (K + alpha I)^{-1} T``.  It rotates the
targets into graph-spectral coordinates, ``T~ = T U`` with
``L = U diag(lam) U^T``, solves there, and rotates the solution back,
``Psi = Psi~ U^T``.  The optimizer of :mod:`graphkern.mkl` calls the same
solve in rotated coordinates, once per iterate, and rotates only once per
fit each way.

:func:`solve_structured` also fits a stack of B systems that share the
graph, one per training set of a stacked dictionary, with one batched
eigendecomposition; each system is solved and condition-checked exactly as
it would be alone by the dense ``eigh``.

At ``rho = 0``, where the optimizer starts, ``K = 0`` and no ``eigh``
runs: its eigendecomposition (0, I) is known.

A single training set of at least ``LOW_RANK_MIN_SIZE`` inputs first
tries a certified low-rank eigenbasis of ``K``:

- **Sketch** (Halko, Martinsson & Tropp 2011, "Finding structure with
  randomness").  A range sketch ``Y = K Omega`` grows ``ceil(N / 32)``
  Gaussian columns at a time until the Cholesky factorization
  ``L L^T`` of its core ``Omega^T K Omega`` breaks down or shows a pivot
  at round-off or below ``1e-8 alpha / max(1 + beta lam)``: off the
  sketched range ``K`` is then negligible next to ``alpha``.  The factor
  grows with the sketch, a block row at a time (Martinsson & Tropp 2020,
  "Randomized numerical linear algebra: Foundations and algorithms"):
  new rows ``Y_new^T = Omega_new^T K`` give the core's block row
  ``[C21 C22] = Y_new^T Omega``, and ``L`` gains ``L21 = C21 L11^-T``, by
  block forward substitution with the inverses of ``L``'s diagonal
  blocks, and ``L22``, the factor of ``C22 - L21 L21^T``.  The core is
  never held whole, nothing is refactored, and nothing wider than one
  block is factored or inverted.  The pivots are those of the ``L22``
  blocks, and the round-off level takes the core's trace, summed over the
  ``C22``.
- **One product ahead.**  A fit's later sketches compute as many rows
  as its last sketch stopped at in one product, then run the same block
  checks and drop the rows beyond their stop: a sketch stops at the rank
  it would have reached block by block.
- **Nystrom eigenbasis** (Tropp, Yurtsever, Udell & Cevher 2017,
  "Fixed-rank approximation of a positive-semidefinite matrix from
  streaming data").  The eigenpairs are those of the Nystrom
  approximation ``Y core^-1 Y^T = F^T F``, ``F = L^-1 Y^T``, taken from
  the small ``eigh(F F^T) = W diag(s^2) W^T`` as ``V = F^T W / s``.  At
  the stop the same substitution writes ``F`` over ``Y^T``: there is no
  second pass over ``K``.  Where a block's factorization broke down,
  ``Y`` is still whole and becomes ``(K + nu I) Omega``, with
  ``nu = eps ||Y||_F``; the block steps start again on it and factor the
  shifted core ``Omega^T (K + nu I) Omega``, with no product with ``K``,
  and ``nu`` is taken off the eigenvalues.  Modes at the round-off of
  ``F F^T``, or within the shift, count as off the range, where the
  eigenvalue is taken as 0: those denominators are ``alpha`` and the
  condition rule keeps its meaning.  On the fits checked, the sketches stop at the ranks of a
  factor refactored whole at every block (a last block at ``K``'s
  numerical rank can stop on a round-off pivot in one and break down in
  the other), and outputs move by round-off only, within the bound
  stated for the optimizer's graph-spectral coordinates: equal iteration
  counts, ``|d rho| <= 1e-10``, ``|d psi| <= 1e-9 max |psi|`` and a
  relative change in NMSE of at most ``1e-9``.
- **Certificate.**  The solution is refined once against the full column
  systems and kept only when their normwise backward error is at most
  ``LOW_RANK_TOLERANCE``, just above round-off; a relative residual would
  not do, as its round-off grows with the condition of the systems.  The
  bound takes the Rayleigh quotient of ``K`` at the leading Nystrom
  eigenvector, at most ``K``'s largest eigenvalue, so the test is no
  weaker than with that eigenvalue.  The Nystrom approximation's own
  largest eigenvalue would not do: where the sketch stopped on a pivot at
  round-off, ``L^-1`` can inflate a mode that is only noise.
- **One fit, one ``Omega``.**  ``Omega`` is seeded by N, so that a fit is
  reproducible, and drawn once per fit, as far as its widest sketch
  needs; :func:`solve_structured` alone is a fit of one solve.
- **Fallback.**  A sketch that reaches 0.4 N columns, a shifted core that
  still has no factor, an ``eigh`` of ``F F^T`` that fails, a condition
  estimate beyond the limit or a failed certificate leaves the solve to
  the dense ``eigh``, unchanged, and so do the later solves of the same
  fit; so do stacks and smaller sets.

The ``graphkern.solver`` logger reports each solve's route, sketch rank,
the pivot that stopped its sketch, how many of the rows computed ahead
it used and backward error at DEBUG level.

The weights must be nonnegative and finite, so that ``K`` is positive
semidefinite; others raise ``ValueError``, as they do in
:func:`~graphkern.kernels.combine`.  A column system with a denominator
at or below zero counts as singular, and so does a set whose ``eigh``
fails to converge: a stack's batched ``eigh`` that fails is run again set
by set.  The solve records a singular system's message per training set,
one or a stack, and zeroes its solution; only :func:`solve_structured` and
:func:`~graphkern.mkl.optimize` raise, for one training set.
"""

import logging
from dataclasses import dataclass

import numpy as np

from .kernels import _checked_weights, combine, kernel_cross

log = logging.getLogger("graphkern.solver")

# Systems whose estimated condition number exceeds this are refused instead
# of being silently regularized.
CONDITION_LIMIT = 1e12

# Single training sets of at least this many inputs try the low-rank route.
# Measured on one core: on rank-20 inputs it took 0.73 of the dense time at
# N = 200 and 0.2 at N = 999, where a refused sketch costs about a fifth of
# a dense solve at any N; at N = 150 its coarse sketch was refused.
LOW_RANK_MIN_SIZE = 200
# The low-rank solution is kept when the normwise backward error of its
# column systems is at most this: just above round-off, since the dense
# route leaves 5e-17 to 2e-16.
LOW_RANK_TOLERANCE = 1e-15
# The sketch stops growing once a pivot of its core, which estimates the
# trace of the part of K the sketch misses, falls to this fraction of
# alpha / max(1 + beta lam): that part then perturbs the first solve by
# about as much, and one refinement squares it.  It also stops at a pivot
# at the core's round-off, r eps trace(core) for r columns: the sketch has
# then passed K's numerical rank.
_SKETCH_FLOOR = 1e-8
# The sketch grows by N / _SKETCH_STEPS columns at a time, up to _SKETCH_CAP N:
# at rank 0.44 N (N = 800) the route was no faster than the dense eigh.
_SKETCH_STEPS = 32
_SKETCH_CAP = 0.4


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
    message of its singular system, or in a model from
    :func:`~graphkern.mkl.optimize` of its step that left float range (its
    ``psi`` is then zero).  One training set's fit raises it instead.
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

    A system that fails the condition check raises
    :class:`SingularSystemError`, and a solution beyond float range
    ``FloatingPointError``.  For a stacked dictionary, ``rho`` and
    ``targets`` carry its batch axis, and a system that fails gets its
    message in the model's ``errors`` instead, its ``Psi`` zero.

    At ``rho = 0`` (the optimizer's starting point) ``K = 0`` and its
    eigendecomposition is known, zero eigenvalues and the identity as
    eigenvectors, so no ``eigh`` runs; the result is bit-identical to the
    ``eigh`` route, and ``alpha = 0`` there still fails as singular.
    Both routes refuse negative or non-finite weights (``ValueError``).
    """
    rho, t = _check_fit_args(dictionary, rho, graph, targets, alpha, beta)
    u = graph.lap_eigvecs
    psi, errors = _solve_rotated(dictionary, rho, graph, t @ u, alpha, beta, _Sketch())
    # a Psi~ beyond float range (from a subnormal alpha, say) fails its set too
    outside = ~np.isfinite(psi).all(axis=(-2, -1))
    errors = tuple(e or ("the solution leaves float range; consider a larger alpha" if out else None)
                   for e, out in zip(errors, np.ravel(outside)))
    psi[outside] = 0.0
    if not dictionary.batch_shape and errors[0] is not None:
        raise (FloatingPointError if outside else SingularSystemError)(errors[0])
    return KrgModel(psi @ u.T, float(alpha), float(beta), dictionary, rho, graph,
                    errors if dictionary.batch_shape else None)


class _Sketch:
    """What the low-rank solves of one fit share.

    The Gaussian test matrix ``Omega``, seeded by N, is drawn once, as far
    as the widest sketch so far needs.  Its columns are stored as rows, so
    that a sketch that stops early touches only the pages of the rows it
    draws.  ``rank`` is where the fit's last sketch stopped: the next
    sketch computes that many rows ``Omega^T K`` in one product.  A
    refused sketch sets ``refused`` and frees ``Omega``: the later solves
    of the fit take the dense ``eigh`` at once.
    """

    def __init__(self):
        self.refused = False
        self._rng = None
        self._rows = None
        self._drawn = 0
        self.rank = 0

    def refuse(self):
        """Send the later solves of the fit to the dense ``eigh``; ``Omega`` is freed."""
        self.refused = True
        self._rows = None

    def omega(self, n, rank):
        """The first ``rank`` columns of ``Omega``, as a (rank, n) array."""
        if self._rows is None:
            self._rng = np.random.default_rng(n)
            self._rows = np.empty((int(_SKETCH_CAP * n), n))
        if rank > self._drawn:
            self._rows[self._drawn:rank] = self._rng.standard_normal((rank - self._drawn, n))
            self._drawn = rank
        return self._rows[:rank]


def _solve_rotated(dictionary, rho, graph, t_rot, alpha, beta, sketch):
    """``(Psi~, errors)``: the fit in graph-spectral coordinates.

    ``t_rot`` is ``T~ = T U`` and the solution ``Psi~ = Psi U``; ``rho``
    is checked already, and ``sketch`` is the fit's :class:`_Sketch`.
    A failing system or ``eigh`` raises nothing here, one set's or a stack's:
    ``errors`` holds per set (one entry for a single set) ``None`` or the
    message, and a failing set's ``Psi~`` is zero.  The public callers raise.
    """
    # beta lam or a denominator beyond float range, inf or NaN, reads as
    # a singular system below: it fails dmin > 0 or the condition limit
    with np.errstate(over="ignore"):
        scale = 1.0 + beta * graph.lap_eigvals
    n = dictionary.num_samples
    # kvecs None stands for K = 0, for which LAPACK's eigh returns exactly
    # (0, I); a product with I is exact, so it is skipped
    kvecs = None
    unconverged = {}  # flat set index: the message of its eigh that failed
    if rho.any():
        k = combine(dictionary, rho)
        if (not dictionary.batch_shape and n >= LOW_RANK_MIN_SIZE and alpha > 0
                and not sketch.refused):
            psi = _solve_low_rank(k, t_rot, scale, alpha, sketch)
            if psi is not None:
                return psi, (None,)
            sketch.refuse()
        else:
            log.debug("solve at N = %d: dense eigh", n)
        try:
            kvals, kvecs = np.linalg.eigh(k)
        except np.linalg.LinAlgError:  # set by set; one that fails keeps NaN eigenvalues
            kvals, kvecs = np.full(k.shape[:-1], np.nan), np.zeros_like(k)
            for i, b in enumerate(np.ndindex(dictionary.batch_shape)):
                try:
                    kvals[b], kvecs[b] = np.linalg.eigh(k[b])
                except np.linalg.LinAlgError as err:
                    unconverged[i] = str(err)
        del k
    else:
        kvals = np.zeros(dictionary.batch_shape + (n,))
        log.debug("solve at N = %d: zero kernel, no eigh", n)
    # denoms[..., j, m] is the eigenvalue of column system m along kernel mode j
    with np.errstate(over="ignore", invalid="ignore"):
        denoms = kvals[..., :, None] * scale + alpha
    # a denominator at or below zero marks a system as singular
    dmax = denoms.max(axis=(-2, -1))
    dmin = denoms.min(axis=(-2, -1))
    cond = np.divide(dmax, dmin, out=np.full_like(dmax, np.inf), where=dmin > 0.0)
    failed = cond > CONDITION_LIMIT
    messages = [
        unconverged.get(i, f"column systems have condition estimate {c:.2e} exceeding "
                           f"{CONDITION_LIMIT:.0e}; consider increasing alpha" if bad else None)
        for i, (c, bad) in enumerate(zip(cond.ravel(), failed.ravel()))
    ]
    denoms[failed] = 1.0  # their psi is set to zero below
    psi = t_rot if kvecs is None else np.swapaxes(kvecs, -1, -2) @ t_rot
    with np.errstate(over="ignore"):  # a Psi~ beyond float range fails its set in the callers
        psi = psi / denoms
    del denoms
    if kvecs is not None:
        psi = kvecs @ psi
    psi[failed] = 0.0
    return psi, tuple(messages)


def _forward(factor, inverses, b):
    """``L^-1 b`` by block forward substitution, written over ``b``.

    ``factor`` holds ``L`` in its lower triangle and ``inverses`` the
    inverses of its diagonal blocks, in order, as many as cover the rows
    of ``b``.
    """
    start = 0
    for inverse in inverses:
        stop = start + len(inverse)
        b[start:stop] = inverse @ (b[start:stop] - factor[start:stop, :start] @ b[:start])
        start = stop
    return b


def _grow_factor(rows, factor, inverses, omega, start, stop):
    """Add the block row ``start:stop`` to the Cholesky factor ``L`` of the core.

    ``rows[:stop]`` holds the sketch rows ``Y^T = Omega^T K`` and ``factor``
    the lower triangle of ``L`` so far, whose diagonal blocks have the
    inverses ``inverses``.  With ``[C21 C22] = Y_new^T Omega``, the new
    block row is ``L21 = C21 L11^-T``, by block forward substitution, and
    ``L22``, the factor of ``C22 - L21 L21^T``.  Returns the pivots
    ``diag(L22)^2`` and ``trace(C22)``; raises ``LinAlgError`` where
    ``L22`` has no factor.
    """
    core = rows[start:stop] @ omega[:stop].T
    l21 = _forward(factor, inverses, core[:, :start].T).T
    core22 = core[:, start:]
    l22 = np.linalg.cholesky(core22 - l21 @ l21.T)
    factor[start:stop, :start] = l21
    factor[start:stop, start:stop] = l22
    inverses.append(np.linalg.inv(l22))
    return np.diagonal(l22) ** 2, np.trace(core22)


def _nystrom_eigenbasis(k, floor, sketch):
    """``(rank, kappa, vt)``: the sketch rank and the Nystrom eigenpairs of ``k``.

    ``kappa`` holds the eigenvalues of the modes on the sketched range and
    the rows of ``vt`` their eigenvectors (see the module docstring); the
    sketch also stops on a pivot at or below ``floor``.  None when the
    sketch is refused.
    """
    n = len(k)
    eps = np.finfo(float).eps
    block, cap = -(-n // _SKETCH_STEPS), int(_SKETCH_CAP * n)
    rows = np.empty((cap, n))  # Y^T = Omega^T K, then F = L^-1 Y^T
    # L, lower triangle, sized for the widest sketch and held from its
    # start, where the whole core once was: with no cap x cap array held
    # through the sketch, glibc's heap grew and peak RSS over 12 fits at
    # N = 999 rose from 76.2 to 80.7 MB
    factor = np.empty((cap, cap))
    inverses = []  # of the diagonal blocks of L
    # the rank at which the fit's last sketch stopped, in one product
    ahead = sketch.rank
    if ahead:
        np.matmul(sketch.omega(n, ahead), k, out=rows[:ahead])
    rank, trace, least = 0, 0.0, np.inf
    while True:
        if rank + block > cap:
            log.debug("solve at N = %d: no sketch of up to %d columns (%d rows computed ahead), "
                      "dense eigh", n, rank, ahead)
            return None
        start, rank = rank, rank + block
        omega = sketch.omega(n, rank)
        if rank > ahead:
            np.matmul(omega[start:], k, out=rows[start:rank])
        try:
            pivots, core_trace = _grow_factor(rows, factor, inverses, omega, start, rank)
        except np.linalg.LinAlgError:  # not numerically positive definite
            breakdown = True
            break
        trace += core_trace
        least = min(least, pivots.min())
        roundoff = rank * eps * trace
        if least <= max(floor, roundoff):
            breakdown = False
            break
    sketch.rank = rank
    used = min(ahead, rank)
    y = rows[:rank]
    shift = 0.0
    if breakdown:
        # the Nystrom approximation of K + shift I, less the shift (Tropp,
        # Yurtsever, Udell & Cevher 2017): its core is positive definite.
        # Y is still whole, so the block steps start again on Y + shift Omega
        shift = eps * np.linalg.norm(y)
        y += shift * omega
        log.debug("solve at N = %d: core breaks down at sketch rank %d, shift %.1e, "
                  "%d of %d rows computed ahead used", n, rank, shift, used, ahead)
        inverses.clear()
        try:
            for start in range(0, rank, block):
                _grow_factor(rows, factor, inverses, omega, start, start + block)
        except np.linalg.LinAlgError:
            log.debug("solve at N = %d: sketch rank %d has no shifted Cholesky factor, "
                      "dense eigh", n, rank)
            return None
    else:
        log.debug("solve at N = %d: sketch stops at rank %d on a pivot of %.1e "
                  "(floor %.1e, round-off %.1e), %d of %d rows computed ahead used",
                  n, rank, least, floor, roundoff, used, ahead)
    # the Nystrom approximation is F^T F with F = L^-1 Y^T, written over Y^T
    f = _forward(factor, inverses, y)
    try:
        squares, w = np.linalg.eigh(f @ f.T)
    except np.linalg.LinAlgError:
        log.debug("solve at N = %d: sketch rank %d, no eigh of F F^T, dense eigh", n, rank)
        return None
    # modes at the round-off of F F^T, or within the shift, are off the range
    keep = squares - shift > rank * eps * squares[-1]
    # the eigenvectors of F^T F, as rows
    vt = (w[:, keep] / np.sqrt(squares[keep])).T @ f
    return rank, squares[keep] - shift, vt


def _solve_low_rank(k, t_rot, scale, alpha, sketch):
    """``Psi~`` of the column systems ``scale[m] K psi~_m + alpha psi~_m = t_rot[:, m]``.

    Solved through a certified Nystrom eigenbasis of the PSD matrix ``k``
    (see the module docstring); None when the route refuses, which the
    caller records in the fit's ``sketch`` before it takes the dense ``eigh``.
    """
    n = len(k)
    basis = _nystrom_eigenbasis(k, _SKETCH_FLOOR * alpha / scale.max(), sketch)
    if basis is None:
        return None
    rank, kappa, vt = basis
    with np.errstate(over="ignore", invalid="ignore"):  # refused below, as in _solve_rotated
        denoms = kappa[:, None] * scale + alpha
    # off the sketched range the eigenvalue is 0 and the denominator alpha
    dmin, dmax = min(denoms.min(), alpha), max(denoms.max(), alpha)
    if not dmin > 0.0 or dmax > CONDITION_LIMIT * dmin:
        log.debug("solve at N = %d: sketch rank %d beyond the condition limit, dense eigh",
                  n, rank)
        return None
    gain = 1.0 / denoms - 1.0 / alpha

    def approximate_inverse(r):
        out = vt.T @ ((vt @ r) * gain)
        out += r / alpha
        return out

    def residual(psi):
        out = k @ psi
        out *= scale
        np.subtract(t_rot, out, out=out)
        out -= alpha * psi
        return out

    psi = approximate_inverse(t_rot)
    psi += approximate_inverse(residual(psi))
    # normwise backward error of the M systems together, bounded with a
    # Rayleigh quotient of K, which cannot exceed K's largest eigenvalue
    v = vt[-1]
    top = v @ (k @ v) / (v @ v)
    size, t_size = np.linalg.norm(residual(psi)), np.linalg.norm(t_rot)
    bound = np.linalg.norm(psi * (top * scale + alpha)) + t_size
    error = size / bound if bound else 0.0  # T~ = 0 gives Psi~ = 0 exactly
    if not error <= LOW_RANK_TOLERANCE:
        log.debug("solve at N = %d: sketch rank %d, backward error %.1e refused, dense eigh",
                  n, rank, error)
        return None
    log.debug("solve at N = %d: sketch rank %d, certified backward error %.1e, "
              "relative residual %.1e", n, rank, error, size / t_size if t_size else 0.0)
    return psi
