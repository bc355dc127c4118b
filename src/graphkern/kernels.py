"""Basis kernel dictionaries over a fixed set of training inputs.

A dictionary describes S basis kernels over the same N training inputs.
The effective kernel used for regression is the weighted sum
``K = sum_s rho_s K_s`` with nonnegative weights, formed by :func:`combine`.

Two kernel families are supported: Gaussian ``exp(-||x - x'||^2 / (2 s2))``
parameterized by the variance ``s2``, and the linear kernel ``x^T x'``.
Every Gaussian basis matrix is a function of one shared squared-distance
matrix, so the dictionary stores no per-kernel matrices: it keeps the
condensed upper triangle of the distances (N (N - 1) / 2 entries) and,
when a linear kernel is present, the N x N Gram matrix ``X X^T``.  Both
are built on first use, so a dictionary that only evaluates new inputs
(:func:`kernel_cross`) never builds them.  Work over the pairs runs in
blocks of at most ``BLOCK_ENTRIES`` exponentials, which stay in cache.

A dictionary may also hold a stack of B training sets of one size, all
under the same specs (``training_inputs`` of shape (B, N, L)).  Weights,
combined kernels and inner products then carry the same leading batch
axis, and every training set is computed exactly as it would be alone.
"""

import functools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.spatial.distance import cdist, pdist, squareform

GAUSSIAN = "gaussian"
LINEAR = "linear"
_FAMILIES = (GAUSSIAN, LINEAR)

# Entries of one (kernels x pairs) table of Gram entries; about 1 MB of
# doubles, which stays in cache.
BLOCK_ENTRIES = 1 << 17


@dataclass(frozen=True)
class KernelSpec:
    """One basis kernel: a family plus its parameter.

    ``parameter`` is the Gaussian variance (must be positive); it is
    ignored for the linear kernel.
    """

    family: str
    parameter: float = 1.0

    def __post_init__(self):
        if self.family not in _FAMILIES:
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == GAUSSIAN and not self.parameter > 0:
            raise ValueError("Gaussian kernel variance must be positive")


class KernelDictionary:
    """S basis kernels over N training inputs, evaluated on demand.

    Attributes
    ----------
    specs : tuple of KernelSpec
        The generating kernels, in order.
    training_inputs : (N, L) array, or (B, N, L) for a stack of B training sets
        Row ``n`` (of each set) is the n-th training input.

    :attr:`sq_distances` and :attr:`linear_gram` are built on first
    access and read-only afterwards.
    """

    def __init__(self, specs, training_inputs):
        self.specs = tuple(specs)
        self.training_inputs = training_inputs
        self.training_inputs.setflags(write=False)

    @classmethod
    def from_specs(cls, training_inputs, specs):
        """Build a dictionary from explicit kernel specs.

        ``training_inputs`` is one (N, L) training set or a (B, N, L)
        stack of them.
        """
        x = _validated_inputs(training_inputs)
        specs = tuple(specs)
        if not specs:
            raise ValueError("need at least one kernel spec")
        return cls(specs, x)

    @property
    def num_kernels(self):
        return len(self.specs)

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

        The condensed form of :func:`scipy.spatial.distance.pdist`, with
        N (N - 1) / 2 entries (per training set of a stack).
        """
        x = self.training_inputs
        sets, n = math.prod(self.batch_shape), self.num_samples
        sq = np.empty(self.batch_shape + (n * (n - 1) // 2,))
        for rows, out in zip(x.reshape(sets, n, x.shape[-1]), sq.reshape(sets, -1)):
            pdist(rows, "sqeuclidean", out=out)
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
    def _families(self):
        """Gaussian and linear kernel indices, and ``-2 s2`` per kernel."""
        gaussian = np.array([s.family == GAUSSIAN for s in self.specs])
        divisors = np.array([-2.0 * s.parameter for s in self.specs])
        return np.flatnonzero(gaussian), np.flatnonzero(~gaussian), divisors

    def __repr__(self):
        batch = f", batch_shape={self.batch_shape}" if self.batch_shape else ""
        return (
            f"KernelDictionary(num_kernels={self.num_kernels}, "
            f"num_samples={self.num_samples}{batch})"
        )


def grid_specs(family=GAUSSIAN, span=(0.01, 10.0), count=100):
    """Kernel specs of a uniform parameter grid.

    For the Gaussian family the grid places ``count`` variances uniformly
    over ``span = (lo, hi)``: ``s2_s = lo + (s - 1) (hi - lo) / (count - 1)``
    (a single-kernel grid uses ``lo``).  The linear kernel has no
    parameter, so the grid degenerates to ``count`` copies and is normally
    used with ``count=1``.
    """
    lo, hi = float(span[0]), float(span[1])
    if count < 1:
        raise ValueError("kernel count must be at least 1")
    if family == LINEAR:
        return [KernelSpec(LINEAR) for _ in range(count)]
    if family == GAUSSIAN and not 0 < lo < hi < math.inf:
        raise ValueError(f"invalid parameter span [{lo}, {hi}]: need 0 < lo < hi < inf")
    return [KernelSpec(family, p) for p in np.linspace(lo, hi, count)]


def build_dictionary(training_inputs, family=GAUSSIAN, span=(0.01, 10.0), count=100):
    """Build a dictionary from a uniform parameter grid (see :func:`grid_specs`)."""
    return KernelDictionary.from_specs(training_inputs, grid_specs(family, span, count))


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
    return x


def _checked_weights(dictionary, rho):
    rho = np.asarray(rho, dtype=float)
    expected = dictionary.batch_shape + (dictionary.num_kernels,)
    if rho.shape != expected:
        raise ValueError(f"weight vector has shape {rho.shape}, expected {expected}")
    if np.any(rho < 0):
        raise ValueError("kernel weights must be nonnegative")
    return rho


def _gaussian_tables(dictionary, sets, select=None):
    """Blocks ``(b, pairs, table)`` with ``table[r, c] = exp(-d_c / (2 s2_r))``.

    ``b`` runs over the training sets in ``sets`` (0 for a dictionary of
    one set), ``c`` over the pairs in the slice ``pairs`` of that set's
    :attr:`KernelDictionary.sq_distances` and ``r`` over the Gaussian
    kernels, or over those that the boolean mask ``select`` picks among
    them.  The entries are those of the Gram matrices themselves.  One
    buffer of at most ``BLOCK_ENTRIES`` doubles is reused from block to
    block, so a table is valid only until the next one is drawn.
    """
    gaussian, _, divisors = dictionary._families
    divisors = divisors[gaussian if select is None else gaussian[select]]
    sq = dictionary.sq_distances.reshape(math.prod(dictionary.batch_shape), -1)
    size = sq.shape[1]
    width = max(1, BLOCK_ENTRIES // len(divisors))
    buf = np.empty((len(divisors), min(width, size)))
    for b in sets:
        for start in range(0, size, width):
            pairs = slice(start, min(start + width, size))
            table = buf[:, : pairs.stop - start]
            np.divide(sq[b, None, pairs], divisors[:, None], out=table)
            np.exp(table, out=table)
            yield b, pairs, table


@functools.lru_cache(maxsize=8)
def _upper(n):
    """Row and column indices of the upper triangle (``i < j``, row-major)."""
    rows, cols = np.triu_indices(n, 1)
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def _condensed(sym):
    """Upper triangles (``i < j``, row-major) of a matrix or of a stack of them.

    One matrix goes through ``squareform``: the index arrays that a stack
    gathers with would take 8 MB at N = 1000, and ``squareform`` is also
    faster there.  A stack of small matrices is gathered in one call.
    """
    if sym.ndim == 2:
        return squareform(sym, checks=False)
    rows, cols = _upper(sym.shape[-1])
    return sym[:, rows, cols]


def _square(packed, diagonal, n):
    """N x N symmetric matrices from condensed upper triangles and one diagonal value each.

    One matrix goes through ``squareform``, as in :func:`_condensed`.
    """
    if packed.ndim == 1:
        out = squareform(packed, checks=False)
        np.fill_diagonal(out, diagonal)
        return out
    out = np.empty((packed.shape[0], n, n))
    rows, cols = _upper(n)
    out[:, rows, cols] = packed
    out[:, cols, rows] = packed
    diag = np.arange(n)
    out[:, diag, diag] = diagonal[:, None]
    return out


def combine(dictionary, rho):
    """Weighted kernel matrix ``sum_s rho_s K_s`` (symmetric PSD), per training set."""
    rho = _checked_weights(dictionary, rho)
    return _combine_unchecked(dictionary, rho)


def _combine_unchecked(dictionary, rho):
    # internal path: solvers and momentum extrapolation may pass weights
    # with (slightly) negative components.  Each training set evaluates
    # only the kernels with nonzero weight in its own row of rho, so its
    # matrix does not depend on the other sets of a stack.
    gaussian, linear, _ = dictionary._families
    batch, n = dictionary.batch_shape, dictionary.num_samples
    rows = rho.reshape(-1, dictionary.num_kernels)[:, gaussian]
    nonzero = rows != 0.0
    if nonzero.any():
        packed = np.zeros((len(rows), n * (n - 1) // 2))
        totals = np.zeros(len(rows))
        for b in np.flatnonzero(nonzero.any(axis=1)):
            weights = rows[b, nonzero[b]]
            totals[b] = weights.sum()  # every Gaussian is 1 at distance 0
            _weigh_pairs(dictionary, b, nonzero[b], weights, packed[b])
        out = _square(packed.reshape(batch + (-1,)), totals.reshape(batch), n)
    else:
        out = np.zeros(batch + (n, n))
    for s in linear:
        if np.any(rho[..., s]):
            out += rho[..., s, None, None] * dictionary.linear_gram
    return out


def _weigh_pairs(dictionary, b, select, weights, out):
    # out[c] = sum_r weights[r] E_r[c] over the selected Gaussian kernels of
    # set b; a function of its own, so the exp buffer is freed on return
    for _, pairs, table in _gaussian_tables(dictionary, [b], select):
        out[pairs] = weights @ table


def kernel_inner_products(dictionary, sym):
    """Frobenius products ``<K_s, sym>`` of every basis kernel with a symmetric matrix.

    ``sym`` carries the dictionary's batch axis, if any, and so does the
    result.  A Gaussian term is ``2 E_s . p + tr(sym)``, with ``p`` the
    condensed upper triangle of ``sym`` and ``E_s`` the kernel's entries
    over the pairs, taken one block of pairs at a time.
    """
    sym = np.asarray(sym, dtype=float)
    n = dictionary.num_samples
    expected = dictionary.batch_shape + (n, n)
    if sym.shape != expected:
        raise ValueError(f"matrix must have shape {expected}, got {sym.shape}")
    gaussian, linear, _ = dictionary._families
    out = np.empty(dictionary.batch_shape + (dictionary.num_kernels,))
    if gaussian.size:
        packed = _condensed(sym).reshape(math.prod(dictionary.batch_shape), -1)
        acc = np.zeros((len(packed), gaussian.size))
        for b, pairs, table in _gaussian_tables(dictionary, range(len(packed))):
            acc[b] += table @ packed[b, pairs]
        trace = np.trace(sym, axis1=-2, axis2=-1)
        out[..., gaussian] = 2.0 * acc.reshape(out[..., gaussian].shape) + trace[..., None]
    for s in linear:
        out[..., s] = np.sum(dictionary.linear_gram * sym, axis=(-2, -1))
    return out


def kernel_cross(dictionary, rho, inputs):
    """Combined-kernel evaluations between new inputs and the training set.

    Returns a (K, N) matrix whose row ``k`` is the combined kernel vector
    of ``inputs[k]`` against the N training inputs.  A stack of training
    sets is evaluated from precomputed pair quantities (:func:`combine_cross`).
    """
    if dictionary.batch_shape:
        raise ValueError("kernel_cross takes the dictionary of one training set")
    rho = _checked_weights(dictionary, rho)
    x2 = np.asarray(inputs, dtype=float)
    if x2.ndim != 2 or x2.shape[1] != dictionary.training_inputs.shape[1]:
        raise ValueError(
            f"inputs must be 2-D with {dictionary.training_inputs.shape[1]} columns"
        )
    x = dictionary.training_inputs
    gaussian, linear, _ = dictionary._families
    if not np.any(rho):
        return np.zeros((x2.shape[0], x.shape[0]))
    sq = cdist(x2, x, "sqeuclidean") if np.any(rho[gaussian]) else None
    dot = x2 @ x.T if np.any(rho[linear]) else None
    return combine_cross(dictionary, rho, sq, dot)


def combine_cross(dictionary, rho, sq=None, dot=None):
    """Combined kernel ``sum_s rho_s k_s(x, x_n)`` from pair quantities.

    ``sq`` holds the squared distances and ``dot`` the inner products of K
    new inputs with the N training inputs, (K, N) per training set and
    stacked like ``rho``; each may be ``None`` when no kernel of its family
    has a nonzero weight (one of them is needed for the shape).  Kernels
    are added in order, and a set adds exact zeros for its zero weights,
    so every set's result is the one it gets alone.
    """
    out = np.zeros((sq if sq is not None else dot).shape)
    weights = rho.reshape(-1, dictionary.num_kernels)
    for s in np.flatnonzero(np.any(weights != 0.0, axis=0)):
        weight = rho[..., s, None, None]
        spec = dictionary.specs[s]
        if spec.family == LINEAR:
            out += weight * dot
        else:
            out += weight * np.exp(-sq / (2.0 * spec.parameter))
    return out

