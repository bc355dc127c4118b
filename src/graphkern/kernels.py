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
"""

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


class KernelDictionary:
    """S basis kernels over N training inputs, evaluated on demand.

    Attributes
    ----------
    specs : tuple of KernelSpec
        The generating kernels, in order.
    training_inputs : (N, L) array
        Row ``n`` is the n-th training input.

    :attr:`sq_distances` and :attr:`linear_gram` are built on first
    access and read-only afterwards.
    """

    def __init__(self, specs, training_inputs):
        self.specs = tuple(specs)
        self.training_inputs = training_inputs
        self.training_inputs.setflags(write=False)

    @classmethod
    def from_specs(cls, training_inputs, specs):
        """Build a dictionary from explicit kernel specs."""
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
        return self.training_inputs.shape[0]

    @cached_property
    def sq_distances(self):
        """Squared distances ``||x_i - x_j||^2`` for ``i < j``, row-major.

        The condensed form of :func:`scipy.spatial.distance.pdist`, with
        N (N - 1) / 2 entries.
        """
        sq = pdist(self.training_inputs, "sqeuclidean")
        sq.setflags(write=False)
        return sq

    @cached_property
    def linear_gram(self):
        """The N x N Gram matrix ``X X^T`` of the linear kernel."""
        gram = self.training_inputs @ self.training_inputs.T
        gram.setflags(write=False)
        return gram

    def __repr__(self):
        return (
            f"KernelDictionary(num_kernels={self.num_kernels}, "
            f"num_samples={self.num_samples})"
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
    if family == GAUSSIAN and (lo <= 0 or hi <= lo):
        raise ValueError(f"invalid parameter span [{lo}, {hi}]: need 0 < lo < hi")
    return [KernelSpec(family, p) for p in np.linspace(lo, hi, count)]


def build_dictionary(training_inputs, family=GAUSSIAN, span=(0.01, 10.0), count=100):
    """Build a dictionary from a uniform parameter grid (see :func:`grid_specs`)."""
    return KernelDictionary.from_specs(training_inputs, grid_specs(family, span, count))


def _validated_inputs(training_inputs):
    x = np.asarray(training_inputs, dtype=float)
    if x.ndim != 2:
        raise ValueError("training inputs must be a 2-D array (rows are samples)")
    if x.shape[0] < 1:
        raise ValueError("training set is empty")
    if not np.all(np.isfinite(x)):
        raise ValueError("training inputs contain NaN or Inf")
    return x


def _checked_weights(dictionary, rho, allow_negative=False):
    rho = np.asarray(rho, dtype=float)
    if rho.shape != (dictionary.num_kernels,):
        raise ValueError(
            f"weight vector has shape {rho.shape}, expected "
            f"({dictionary.num_kernels},)"
        )
    if not allow_negative and np.any(rho < 0):
        raise ValueError("kernel weights must be nonnegative")
    return rho


def _gaussian_tables(dictionary, gaussian):
    """Blocks ``(pairs, table)`` with ``table[r, c] = exp(-d_c / (2 s2_r))``.

    ``r`` runs over the Gaussian kernel indices ``gaussian`` and ``c`` over
    the pairs in the slice ``pairs`` of :attr:`KernelDictionary.sq_distances`.
    The entries are those of the Gram matrices themselves.  One buffer of
    at most ``BLOCK_ENTRIES`` doubles is reused from block to block, so a
    table is valid only until the next one is drawn.
    """
    sq = dictionary.sq_distances
    divisors = np.array([-2.0 * dictionary.specs[s].parameter for s in gaussian])
    width = max(1, BLOCK_ENTRIES // len(gaussian))
    buf = np.empty((len(gaussian), min(width, sq.size)))
    for start in range(0, sq.size, width):
        pairs = slice(start, min(start + width, sq.size))
        table = buf[:, : pairs.stop - start]
        np.divide(sq[None, pairs], divisors[:, None], out=table)
        np.exp(table, out=table)
        yield pairs, table


def _by_family(dictionary, indices):
    gaussian = [s for s in indices if dictionary.specs[s].family == GAUSSIAN]
    linear = [s for s in indices if dictionary.specs[s].family == LINEAR]
    return gaussian, linear


def combine(dictionary, rho):
    """Weighted kernel matrix ``sum_s rho_s K_s`` (symmetric PSD)."""
    rho = _checked_weights(dictionary, rho)
    return _combine_unchecked(dictionary, rho)


def _combine_unchecked(dictionary, rho):
    # internal path: solvers and momentum extrapolation may pass weights
    # with (slightly) negative components.  Only kernels with nonzero
    # weight are evaluated.
    gaussian, linear = _by_family(dictionary, np.flatnonzero(rho))
    if gaussian:
        packed = np.empty(dictionary.sq_distances.size)
        weights = rho[gaussian]
        for pairs, table in _gaussian_tables(dictionary, gaussian):
            packed[pairs] = weights @ table
        out = squareform(packed, checks=False)
        np.fill_diagonal(out, weights.sum())  # every Gaussian is 1 at distance 0
    else:
        n = dictionary.num_samples
        out = np.zeros((n, n))
    for s in linear:
        out += rho[s] * dictionary.linear_gram
    return out


def kernel_inner_products(dictionary, sym):
    """Frobenius products ``<K_s, sym>`` of every basis kernel with a symmetric matrix.

    A Gaussian term is ``2 E_s . p + tr(sym)``, with ``p`` the condensed
    upper triangle of ``sym`` and ``E_s`` the kernel's entries over the
    pairs, taken one block of pairs at a time.
    """
    sym = np.asarray(sym, dtype=float)
    n = dictionary.num_samples
    if sym.shape != (n, n):
        raise ValueError(f"matrix must have shape ({n}, {n}), got {sym.shape}")
    out = np.empty(dictionary.num_kernels)
    gaussian, linear = _by_family(dictionary, range(dictionary.num_kernels))
    if gaussian:
        packed = squareform(sym, checks=False)
        acc = np.zeros(len(gaussian))
        for pairs, table in _gaussian_tables(dictionary, gaussian):
            acc += table @ packed[pairs]
        out[gaussian] = 2.0 * acc + np.trace(sym)
    for s in linear:
        out[s] = np.sum(dictionary.linear_gram * sym)
    return out


def kernel_cross(dictionary, rho, inputs):
    """Combined-kernel evaluations between new inputs and the training set.

    Returns a (K, N) matrix whose row ``k`` is the combined kernel vector
    of ``inputs[k]`` against the N training inputs.
    """
    rho = _checked_weights(dictionary, rho, allow_negative=True)
    x2 = np.asarray(inputs, dtype=float)
    if x2.ndim != 2 or x2.shape[1] != dictionary.training_inputs.shape[1]:
        raise ValueError(
            f"inputs must be 2-D with {dictionary.training_inputs.shape[1]} columns"
        )
    x = dictionary.training_inputs
    out = np.zeros((x2.shape[0], x.shape[0]))
    sq = None
    for weight, spec in zip(rho, dictionary.specs):
        if weight == 0.0:
            continue
        if spec.family == LINEAR:
            out += weight * (x2 @ x.T)
        else:
            if sq is None:
                sq = cdist(x2, x, "sqeuclidean")
            out += weight * np.exp(-sq / (2.0 * spec.parameter))
    return out


def kernel_vector(dictionary, rho, x):
    """Combined kernel vector ``[k(x_1, x), ..., k(x_N, x)]`` for one input."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError("x must be a 1-D input vector")
    rho = _checked_weights(dictionary, rho)
    return kernel_cross(dictionary, rho, x[None, :])[0]
