"""Basis kernel dictionaries over a fixed set of training inputs.

A dictionary describes the S basis kernels of one :class:`KernelGrid`
over the same N training inputs.  The effective kernel used for
regression is the weighted sum ``K = sum_s rho_s K_s`` with nonnegative
weights, formed by :func:`combine`.  :func:`combine` and
:func:`kernel_cross` refuse negative or non-finite weights with a
``ValueError``, so a combined kernel is always positive semidefinite.

A grid is of one of two families: Gaussian ``exp(-||x - x'||^2 / (2 s2))``,
parameterized by the variance ``s2``, or the linear kernel ``x^T x'``.
The dictionary holds the grid and its parameters in one float64 array,
and no object per kernel.  Every Gaussian basis matrix is a function of
one shared squared-distance matrix, so the dictionary stores no
per-kernel matrices: it keeps the condensed upper triangle of the
distances (N (N - 1) / 2 entries).  Every kernel of a linear grid is the
one N x N Gram matrix ``X X^T``, so its sums are that matrix times the
sum of the weights.  Both are built on first use, so a dictionary that
only evaluates new inputs (:func:`kernel_cross`) never builds them.
Work over the pairs runs in blocks of at most ``BLOCK_ENTRIES``
exponentials, which stay in cache.

The Gaussian rows ``E[s, c] = exp(-d_c / (2 s2_s))`` over the pairs have
low numerical rank in ``s``: each is a smooth function of ``d`` on
``[0, max d]``.  :func:`kernel_inner_products` therefore evaluates only a
skeleton set J of them and recovers the rest through an interpolative
decomposition ``E = C E[J]`` (Cheng, Gimbutas, Martinsson & Rokhlin 2005),
which takes |J| <= 32 rows in place of S = 100 on the default grid.  The
skeleton is chosen by pivoted QR on a table of the kernels over
multi-scale Chebyshev nodes of ``[0, top]``, ``top`` the power of two at
or above the largest distance, so one skeleton, cached by grid and
``top``, serves every dictionary of the same grid whose distances lie
below ``top``.  Its entry error is
certified on the midpoints between the nodes.  A skeleton that fails the
certificate, or that keeps every kernel (small grids), is replaced by the
identity skeleton: all Gaussian kernels with ``C = I``.  The exact
computation is thus one case of the skeleton route, not a second route.
All three callers, :func:`combine`, :func:`kernel_inner_products` and
:func:`kernel_cross`, draw their Gaussian entries from one streamed
generator of exponential tables (:func:`_gaussian_tables`).  The first
and last form the model's matrices and evaluate every kernel of nonzero
weight, with no skeleton.  Squared distances, between the training
pairs and from new inputs to the training set alike, come from one numpy
route (:func:`_cross_sq_distances`): the Gram identity over shifted and
scaled rows, within a stated round-off bound.  No module of the package
imports scipy.

A dictionary may also hold a stack of B training sets of one size, all
under the same grid (``training_inputs`` of shape (B, N, L)).  Weights,
combined kernels, inner products, new inputs and cross kernels then carry
the same leading batch axis, and every training set is computed as it
would be alone, except that the whole stack shares one skeleton, built
for its largest distance.
"""

import functools
import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GAUSSIAN = "gaussian"
LINEAR = "linear"
_FAMILIES = (GAUSSIAN, LINEAR)

# Entries of one (kernels x pairs) table of Gram entries; about 1 MB of
# doubles, which stays in cache.
BLOCK_ENTRIES = 1 << 17

# Skeleton of the Gaussian kernels (see _build_skeleton): Chebyshev-Lobatto
# nodes per interval; the decay, in e-folds, of the fastest kernel across
# the finest interval; the rank cut relative to the first pivot of the
# QR; and the largest entry error the certificate accepts.
_SKELETON_NODES = 32
_SKELETON_DECAY = 40.0
_SKELETON_RANK_CUT = 1e-14
_SKELETON_TOLERANCE = 1e-13

# Half the float64 entries a numpy array can hold (its size in bytes must
# fit an intp): np.linspace counts a grid's length in doubles, which round
# a count just below the limit up to it.
_MAX_COUNT = np.iinfo(np.intp).max // 16


@dataclass(frozen=True)
class KernelGrid:
    """A uniform grid of ``count`` basis kernels of one family.

    For the Gaussian family the grid places ``count`` variances uniformly
    over ``[lo, hi]``: ``s2_s = lo + (s - 1) (hi - lo) / (count - 1)``.  It
    needs ``0 < lo < hi < inf``; a one-kernel grid uses ``lo``, and may
    also have ``lo == hi``, so ``KernelGrid(GAUSSIAN, s2, s2, 1)`` is the
    single kernel of variance ``s2``.  The linear kernel has no parameter,
    so its grid is ``count`` copies and is normally used with ``count=1``;
    its ``lo`` and ``hi`` are recorded, and must be finite, but not used.
    The grid is checked when made, without building anything per kernel;
    its fields, in this order, are the ``kernel_grid`` block of a config
    and of a model file.
    """

    family: str = GAUSSIAN
    lo: float = 0.01
    hi: float = 10.0
    count: int = 100

    def __post_init__(self):
        lo, hi, count = float(self.lo), float(self.hi), self.count
        if count < 1:
            raise ValueError("kernel count must be at least 1")
        if self.family == GAUSSIAN:
            if not (0 < lo < hi < math.inf or count == 1 and 0 < lo == hi < math.inf):
                raise ValueError(f"invalid parameter span [{lo}, {hi}]: need 0 < lo < hi < inf")
        elif not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError(f"invalid parameter span [{lo}, {hi}]: need finite lo and hi")
        count = operator.index(count)  # as np.linspace() takes it
        if count > _MAX_COUNT:
            raise ValueError(
                f"kernel grid count {count} exceeds {_MAX_COUNT}: too large for numpy"
            )
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        # held as the checked float and int values, which a model file records
        for name, value in (("lo", lo), ("hi", hi), ("count", count)):
            object.__setattr__(self, name, value)

    def parameters(self):
        """The kernels' parameters in order: Gaussian variances, or ones for the linear family."""
        if self.family == LINEAR:
            return np.ones(self.count)
        return np.linspace(self.lo, self.hi, self.count)


class KernelDictionary:
    """The S basis kernels of one grid over N training inputs, evaluated on demand.

    Attributes
    ----------
    grid : KernelGrid
        The generating grid.
    parameters : (S,) array
        ``grid.parameters()``, read-only.
    training_inputs : (N, L) array, or (B, N, L) for a stack of B training sets
        Row ``n`` (of each set) is the n-th training input; read-only, and
        a copy of inputs that arrive writeable.

    :attr:`sq_distances`, :attr:`linear_gram` and the Gaussian skeleton
    are built on first access and read-only afterwards.
    """

    def __init__(self, grid, training_inputs):
        self.grid = grid
        self.parameters = grid.parameters()
        self.parameters.setflags(write=False)
        self.training_inputs = training_inputs
        self.training_inputs.setflags(write=False)

    @classmethod
    def from_specs(cls, training_inputs, grid):
        """The dictionary of ``grid``, a :class:`KernelGrid`, over checked training inputs.

        ``training_inputs`` is one (N, L) training set or a (B, N, L)
        stack of them.  :func:`build_dictionary` is this call; the name is
        the one ``perfbench`` traces, and :attr:`specs` what it passes back.
        """
        return cls(grid, _validated_inputs(training_inputs))

    @property
    def specs(self):
        """The grid, as :meth:`from_specs` takes it back."""
        return self.grid

    def _with_grid(self, grid):
        """The dictionary of ``grid`` over the same training inputs.

        A Gaussian ``grid`` takes this dictionary's squared distances
        between training inputs, built here if need be, so that the two
        build them once.  Only those are shared: :func:`kernel_cross`
        computes the distances of new inputs afresh on every call.
        """
        other = self.from_specs(self.training_inputs, grid)
        if grid.family == GAUSSIAN:
            other.__dict__["sq_distances"] = self.sq_distances
        return other

    @property
    def num_kernels(self):
        return self.grid.count

    @property
    def num_samples(self):
        return self.training_inputs.shape[-2]

    @property
    def batch_shape(self):
        """``()`` for one training set, ``(B,)`` for a stack of B."""
        return self.training_inputs.shape[:-2]

    @cached_property
    def sq_distances(self):
        """Squared distances ``||x_i - x_j||^2`` for ``i < j``, row-major.

        N (N - 1) / 2 entries per training set: the condensed upper
        triangle of :func:`_cross_sq_distances` of the training inputs
        with themselves, one call for a whole stack.  An entry is within
        ``4 (L + 2) eps (||x_i - c||^2 + ||x_j - c||^2)`` of the sum of the
        pair's squared differences, ``c`` the mean training row and
        ``eps = 2^-53``.
        """
        x = self.training_inputs
        sq = _condensed(_cross_sq_distances(x, x))
        sq.setflags(write=False)
        return sq

    @cached_property
    def linear_gram(self):
        """The N x N Gram matrix ``X X^T`` of the linear kernel (per training set)."""
        x = self.training_inputs
        gram = x @ np.swapaxes(x, -1, -2)
        gram.setflags(write=False)
        return gram

    @cached_property
    def _skeleton(self):
        """``(rows, interp)`` of :func:`_build_skeleton` for a Gaussian grid and these distances.

        One skeleton serves every set of a stack: it is built for the
        largest distance of them all.  Without pairs (N = 1), with all
        inputs equal, or with distances beyond float range, it is the
        identity and no skeleton is built.
        """
        largest = float(self.sq_distances.max(initial=0.0))
        if not 0.0 < largest < math.inf:
            return _identity_skeleton(self.num_kernels)
        mantissa, exponent = math.frexp(largest)
        top = math.ldexp(1.0, exponent - (mantissa == 0.5))
        return _build_skeleton(self.grid, top)

    def __repr__(self):
        batch = f", batch_shape={self.batch_shape}" if self.batch_shape else ""
        return (
            f"KernelDictionary(num_kernels={self.num_kernels}, "
            f"num_samples={self.num_samples}{batch})"
        )


def build_dictionary(training_inputs, grid=KernelGrid()):
    """Build the dictionary of a :class:`KernelGrid` over the training inputs."""
    return KernelDictionary.from_specs(training_inputs, grid)


def _validated_inputs(training_inputs):
    x = np.asarray(training_inputs, dtype=float)
    if x.ndim not in (2, 3):
        raise ValueError(
            "training inputs must be a 2-D array (rows are samples) or a 3-D "
            "stack of such arrays"
        )
    if x.shape[-2] < 1:
        raise ValueError("training set is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("training inputs contain NaN or Inf")
    # an array its caller may still write is copied, so that no later write
    # puts the cached distances out of step; a read-only one is held as it is
    if x.flags.writeable and np.may_share_memory(x, training_inputs):
        x = x.copy()
    return x


def _checked_weights(dictionary, rho):
    rho = np.asarray(rho, dtype=float)
    expected = dictionary.batch_shape + (dictionary.num_kernels,)
    if rho.shape != expected:
        raise ValueError(f"weight vector has shape {rho.shape}, expected {expected}")
    if not np.all(np.isfinite(rho)):
        raise ValueError("kernel weights must be finite")
    if np.any(rho < 0):
        raise ValueError("kernel weights must be nonnegative")
    return rho


def _gaussian_tables(sq, divisors):
    """Blocks ``(b, cols, table)`` with ``table[r, c] = exp(sq[b, c] / divisors[r])``.

    ``sq`` is a (sets, entries) array of squared distances and
    ``divisors`` holds ``-2 s2`` per Gaussian kernel to evaluate, so the
    entries are those of the Gram matrices themselves.  ``b`` runs over
    the sets and ``c`` over the entries in the slice ``cols``.  One buffer
    of at most ``BLOCK_ENTRIES`` doubles is reused from block to block, so
    a table is valid only until the next one is drawn.  Its callers run
    under ``np.errstate(over="ignore")``: a variance near either end of
    float range can take a divisor or a quotient beyond it, and the -inf
    there gives the entry its limit, 1 or 0, with no warning.
    """
    size = sq.shape[1]
    width = max(1, BLOCK_ENTRIES // len(divisors))
    buf = np.empty((len(divisors), min(width, size)))
    for b in range(len(sq)):
        for start in range(0, size, width):
            cols = slice(start, min(start + width, size))
            table = buf[:, : cols.stop - start]
            np.divide(sq[b, None, cols], divisors[:, None], out=table)
            np.exp(table, out=table)
            yield b, cols, table


def _gaussian_sums(sq, divisors, weights):
    """Weighted Gaussian sums ``out[b, c] = sum_r weights[b, r] exp(sq[b, c] / divisors[r])``.

    ``sq`` is (sets, entries) and ``weights`` (sets, S) over the Gaussian
    kernels whose ``-2 s2`` are ``divisors``.  Each set evaluates only its
    own kernels of nonzero weight, so its sums do not depend on the other
    sets.
    """
    out = np.zeros(sq.shape)
    for b in np.flatnonzero(weights.any(axis=1)):
        nonzero = weights[b] != 0.0
        row = weights[b, nonzero]
        for _, cols, table in _gaussian_tables(sq[b, None], divisors[nonzero]):
            out[b, cols] = row @ table
        table = None  # the last view goes, and with it the buffer, before the next set's
    return out


@functools.lru_cache(maxsize=8)
def _build_skeleton(grid, top):
    """Skeleton ``(rows, interp)`` of a Gaussian grid's rows over distances in ``[0, top]``.

    With ``divisors`` the grid's ``-2 s2``, row ``r`` is
    ``exp(d / divisors[r])``.  ``rows`` indexes the skeleton kernels J and
    ``interp`` is the (S, |J|) matrix C with
    ``exp(d / divisors) = C exp(d / divisors[rows])`` for every ``d`` in
    ``[0, top]``, to ``_SKELETON_TOLERANCE`` per entry.

    The rows are tabulated on ``_SKELETON_NODES`` Chebyshev-Lobatto nodes
    of each interval ``[0, top 4^-k]``, k = 0, 1, ..., down to the first
    interval across which the fastest kernel decays by at most
    ``_SKELETON_DECAY`` e-folds: one interval alone would miss how the
    narrow kernels bend near 0.  J and C come from one pivoted QR of the
    (nodes x kernels) table (:func:`_column_skeleton`).  The entry error
    is checked on the midpoints between the nodes.  A skeleton that fails
    the check, or that keeps every kernel, is replaced by the identity.
    """
    divisors = -2.0 * grid.parameters()
    unit = 0.5 - 0.5 * np.cos(np.linspace(0.0, np.pi, _SKELETON_NODES))
    fastest = -1.0 / divisors.max()
    scales = [top]
    while fastest * scales[-1] > _SKELETON_DECAY:
        scales.append(scales[-1] / 4.0)
    nodes = np.sort(np.append(np.multiply.outer(scales, unit[1:]), 0.0), axis=None)
    rows, interp = _column_skeleton(np.exp(nodes[:, None] / divisors))
    mids = 0.5 * (nodes[1:] + nodes[:-1])
    table = np.exp(mids[:, None] / divisors)
    error = np.max(np.abs(table - table[:, rows] @ interp.T))
    if len(rows) == divisors.size or not error <= _SKELETON_TOLERANCE:
        return _identity_skeleton(divisors.size)
    rows.setflags(write=False)
    interp.setflags(write=False)
    return rows, interp


def _column_skeleton(table):
    """Interpolative decomposition ``table = table[:, columns] interp^T``.

    Householder QR with column pivoting (Businger & Golub 1965) stops at
    the first pivot below ``_SKELETON_RANK_CUT`` times the first one; its
    pivots so far are ``columns`` and the rest follow from
    ``R11^-1 R12``.  LAPACK's ``geqp3`` picks the same pivots, but numpy
    does not wrap it, and the package does not import scipy.
    """
    r = np.array(table)
    count = r.shape[1]
    perm = np.arange(count)
    rank = min(r.shape)
    for k in range(rank):
        rest = r[k:, k:]
        norms = np.sum(rest * rest, axis=0)
        pivot = k + int(np.argmax(norms))
        size = math.sqrt(norms[pivot - k])
        if k == 0:
            first = size
        elif not size > _SKELETON_RANK_CUT * first:
            rank = k
            break
        r[:, [k, pivot]] = r[:, [pivot, k]]
        perm[[k, pivot]] = perm[[pivot, k]]
        v = r[k:, k].copy()
        v[0] += math.copysign(size, v[0])
        rest -= np.outer(v, (2.0 / (v @ v)) * (v @ rest))
    coeffs = r[:rank, rank:]  # R11^-1 R12 by back substitution, in place
    for i in reversed(range(rank)):
        coeffs[i] -= r[i, i + 1 : rank] @ coeffs[i + 1 :]
        coeffs[i] /= r[i, i]
    interp = np.empty((count, rank))
    interp[perm[:rank]] = np.eye(rank)
    interp[perm[rank:]] = coeffs.T
    return perm[:rank], interp


def _identity_skeleton(count):
    """The skeleton of every kernel: all of them, in order, and ``C = I``."""
    rows = np.arange(count)
    interp = np.eye(count)
    rows.setflags(write=False)
    interp.setflags(write=False)
    return rows, interp


@functools.lru_cache(maxsize=8)
def _upper(n):
    """Row and column indices of the upper triangle (``i < j``, row-major)."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _condensed(sym):
    """Upper triangles (``i < j``, row-major) of a matrix or of a stack of them.

    One matrix is packed a row slice at a time: the index arrays that a
    stack gathers with would take 8 MB at N = 1000.  A stack of small
    matrices is gathered in one call.
    """
    n = sym.shape[-1]
    if sym.ndim == 3:
        rows, cols = _upper(n)
        return sym[:, rows, cols]
    out = np.empty(n * (n - 1) // 2)
    start = 0
    for i in range(n - 1):
        out[start:start + n - 1 - i] = sym[i, i + 1:]
        start += n - 1 - i
    return out


def _square(packed, diagonal, n):
    """N x N symmetric matrices from condensed upper triangles and one diagonal value each.

    One matrix is filled a row at a time, as in :func:`_condensed`: row
    ``i`` takes its upper part from ``packed`` and its lower part from
    column ``i`` of the rows above it, which are filled already.
    """
    if packed.ndim == 1:
        out = np.empty((n, n))
        start = 0
        for i in range(n):
            out[i, :i] = out[:i, i]
            out[i, i] = diagonal
            out[i, i + 1:] = packed[start:start + n - 1 - i]
            start += n - 1 - i
        return out
    out = np.empty((packed.shape[0], n, n))
    rows, cols = _upper(n)
    out[:, rows, cols] = packed
    out[:, cols, rows] = packed
    diag = np.arange(n)
    out[:, diag, diag] = diagonal[:, None]
    return out


def _linear_sums(rho, gram, shape):
    """``sum_s rho_s G`` per set, for a linear grid whose every kernel is the Gram matrix G.

    ``gram()`` returns G, and is called only when some weight is nonzero.
    """
    weight = rho.sum(axis=-1)
    out = np.zeros(shape)
    if weight.any():
        out += weight[..., None, None] * gram()
    return out


@np.errstate(over="ignore")  # see _gaussian_tables
def combine(dictionary, rho):
    """Weighted kernel matrix ``sum_s rho_s K_s`` (symmetric PSD), per training set.

    Negative or non-finite weights raise ``ValueError``.  Each training
    set evaluates only the kernels with nonzero weight in its own row of
    ``rho``, so its matrix does not depend on the other sets of a stack.
    """
    rho = _checked_weights(dictionary, rho)
    batch, n = dictionary.batch_shape, dictionary.num_samples
    if dictionary.grid.family == LINEAR:
        return _linear_sums(rho, lambda: dictionary.linear_gram, batch + (n, n))
    rows = rho.reshape(-1, dictionary.num_kernels)
    if not rows.any():
        return np.zeros(batch + (n, n))
    sq = dictionary.sq_distances.reshape(len(rows), -1)
    packed = _gaussian_sums(sq, -2.0 * dictionary.parameters, rows)
    totals = [row[row != 0.0].sum() for row in rows]  # every Gaussian is 1 at distance 0
    return _square(packed.reshape(batch + (-1,)), np.reshape(totals, batch), n)


@np.errstate(over="ignore")  # see _gaussian_tables
def kernel_inner_products(dictionary, sym):
    """Frobenius products ``<K_s, sym>`` of every basis kernel with a symmetric matrix.

    ``sym`` carries the dictionary's batch axis, if any, and so does the
    result.  Every kernel of a linear grid gives ``<X X^T, sym>``.  A
    Gaussian term is ``2 E_s . p + tr(sym)``, with ``p`` the condensed
    upper triangle of ``sym`` and ``E_s`` the kernel's entries over the
    pairs.  The products ``E_j . p`` are taken only for the skeleton
    kernels J, one block of pairs at a time, and the terms follow as
    ``2 C (E[J] p) + tr(sym)``.  The skeleton's certified entry error
    (``_SKELETON_TOLERANCE``) bounds a term's error by ``2e-13 ||p||_1``;
    where no skeleton passes the certificate, J holds every kernel, C is
    the identity and the terms are exact.
    """
    sym = np.asarray(sym, dtype=float)
    n = dictionary.num_samples
    expected = dictionary.batch_shape + (n, n)
    if sym.shape != expected:
        raise ValueError(f"matrix must have shape {expected}, got {sym.shape}")
    if dictionary.grid.family == LINEAR:
        product = np.sum(dictionary.linear_gram * sym, axis=(-2, -1))
        return np.repeat(product[..., None], dictionary.num_kernels, axis=-1)
    rows, interp = dictionary._skeleton
    packed = _condensed(sym).reshape(math.prod(dictionary.batch_shape), -1)
    sq = dictionary.sq_distances.reshape(len(packed), -1)
    acc = np.zeros((len(packed), len(rows)))
    for b, pairs, table in _gaussian_tables(sq, -2.0 * dictionary.parameters[rows]):
        acc[b] += table @ packed[b, pairs]
    acc = (acc @ interp.T).reshape(dictionary.batch_shape + (-1,))
    trace = np.trace(sym, axis1=-2, axis2=-1)
    return 2.0 * acc + trace[..., None]


def _cross_sq_distances(inputs, training):
    """Squared distances ``||a_k - x_n||^2`` from K inputs to N training inputs.

    ``inputs`` is (K, L) and ``training`` (N, L), giving a (K, N) matrix;
    or (B, K, L) and (B, N, L), giving each set's matrix bit for bit as it
    gets alone.  Each set takes one matrix product in place of a
    difference per pair: the Gram identity
    ``||u||^2 + ||v||^2 - 2 u . v``, clamped at 0, over ``u = a - c`` and
    ``v = x - c``, with ``c`` the mean training row.  Both operands are
    first scaled by a power of two, so that no square overflows; that is
    exact.  An entry's absolute error is at most
    ``4 (L + 2) eps (||a - c||^2 + ||x - c||^2)``, ``eps = 2^-53``: of the
    order of the squared distances from the training mean.  Unshifted, it
    would be of the order of the squared norms, which a common offset of
    the data (temperatures in kelvin, say) makes large.
    """
    top = np.maximum(
        np.abs(inputs).max(axis=(-2, -1), initial=0.0),
        np.abs(training).max(axis=(-2, -1), initial=0.0),
    )
    exponent = np.frexp(top)[1][..., None, None]
    u = np.ldexp(inputs, -exponent)
    v = np.ldexp(training, -exponent)
    centre = v.mean(axis=-2, keepdims=True)
    u -= centre
    v -= centre
    sq = u @ np.swapaxes(v, -1, -2)
    sq *= -2.0
    sq += np.einsum("...ij,...ij->...i", u, u)[..., :, None]
    sq += np.einsum("...ij,...ij->...i", v, v)[..., None, :]
    np.maximum(sq, 0.0, out=sq)
    with np.errstate(over="ignore"):  # beyond float range is inf, as summed differences give it
        return np.ldexp(sq, 2 * exponent, out=sq)


@np.errstate(over="ignore")  # see _gaussian_tables
def kernel_cross(dictionary, rho, inputs):
    """Combined-kernel evaluations between new inputs and the training set.

    ``inputs`` is (K, L) for a dictionary of one training set, giving a
    (K, N) matrix whose row ``k`` is the combined kernel vector of
    ``inputs[k]`` against the N training inputs; for a stack it is
    (B, K, L), with ``rho`` (B, S), giving (B, K, N), each set's matrix
    bit for bit as it gets alone.  A wrong batch shape or column count,
    NaN or Inf raise ``ValueError``.  Each set evaluates only its own
    kernels of nonzero weight.  For a Gaussian grid the squared distances
    are those of :func:`_cross_sq_distances`, each within its bound
    ``delta`` of summed differences; since ``|exp(-d) - exp(-d')| <= |d - d'|``
    for nonnegative ``d, d'``, an entry is within
    ``sum_s rho_s (delta / (2 s2_s) + S eps)`` of the one that summed
    differences give, the second term the round-off of the sum.
    """
    rho = _checked_weights(dictionary, rho)
    x = dictionary.training_inputs
    x2 = np.asarray(inputs, dtype=float)
    batch = dictionary.batch_shape
    if x2.shape[:-2] != batch or x2.ndim != x.ndim or x2.shape[-1] != x.shape[-1]:
        raise ValueError(
            f"inputs must have shape {batch + ('K', x.shape[-1])}, got {x2.shape}"
        )
    if not np.all(np.isfinite(x2)):
        raise ValueError("inputs contain NaN or Inf")
    shape = x2.shape[:-1] + (x.shape[-2],)
    if dictionary.grid.family == LINEAR:
        return _linear_sums(rho, lambda: x2 @ np.swapaxes(x, -1, -2), shape)
    rows = rho.reshape(-1, dictionary.num_kernels)
    if not rows.any():
        return np.zeros(shape)
    sq = _cross_sq_distances(x2, x).reshape(len(rows), -1)
    return _gaussian_sums(sq, -2.0 * dictionary.parameters, rows).reshape(shape)
