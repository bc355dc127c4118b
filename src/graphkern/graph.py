"""Weighted undirected graphs and the Laplacian smoothness functional.

The regression targets handled by this package are vectors indexed by the
nodes of a fixed graph.  This module owns the graph representation:
adjacency validation, the combinatorial Laplacian ``L = D - A``, the
quadratic smoothness functional ``y^T L y``, distance-based adjacency
construction, and the (cached) Laplacian eigendecomposition used by the
structured solver.

A ``Graph`` is immutable after construction and safe to share across
threads.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

EARTH_RADIUS_KM = 6371.0

# The largest magnitude, in degrees, of each column of a geodesic position.
COORDINATE_LIMITS = {"latitude": 90.0, "longitude": 180.0}

# Adjacency matrices are accepted as symmetric up to this absolute tolerance
# and then symmetrized exactly so the Laplacian is exactly symmetric.
SYMMETRY_TOL = 1e-9

# Eigenvalues of L above this (negative) floor are treated as round-off and
# clamped to zero; anything below it indicates a broken Laplacian.
EIGENVALUE_CLAMP = -1e-10


@dataclass(frozen=True)
class NodeCoordinates:
    """Node positions with a flag selecting the distance model.

    Parameters
    ----------
    positions : (M, 2) or (M, D) array
        In ``"geodesic"`` mode, rows are (latitude, longitude) pairs in
        degrees.  In ``"euclidean"`` mode, rows are points in D-dimensional
        Euclidean space.
    mode : str
        Either ``"geodesic"`` or ``"euclidean"``.

    Every position must be finite, in either mode, and a geodesic one within
    ``COORDINATE_LIMITS``: a NaN would pass those checks unnoticed.
    """

    positions: np.ndarray
    mode: str = "geodesic"

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[0] < 1:
            raise ValueError("positions must be a 2-D array with one row per node")
        if not np.isfinite(pos).all():
            raise ValueError("positions must be finite")
        if self.mode not in ("geodesic", "euclidean"):
            raise ValueError(f"unknown distance mode {self.mode!r}")
        if self.mode == "geodesic":
            if pos.shape[1] != 2:
                raise ValueError("geodesic mode requires (latitude, longitude) pairs")
            for column, (axis, limit) in enumerate(COORDINATE_LIMITS.items()):
                if np.any(np.abs(pos[:, column]) > limit):
                    raise ValueError(f"{axis} out of range [-{limit:g}, {limit:g}]")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def num_nodes(self):
        return self.positions.shape[0]


class Graph:
    """Undirected weighted graph over the target dimensions.

    Holds the adjacency matrix ``A`` (symmetric, zero diagonal, nonnegative
    weights) and the combinatorial Laplacian ``L = D - A`` where ``D`` is
    the diagonal matrix of row sums.  The eigendecomposition of ``L`` is
    computed lazily and cached.

    Use :func:`build_graph` to construct instances.
    """

    def __init__(self, adjacency):
        adjacency = _validated_adjacency(adjacency)
        degrees = adjacency.sum(axis=1)
        laplacian = np.diag(degrees) - adjacency
        adjacency.setflags(write=False)
        laplacian.setflags(write=False)
        self.adjacency = adjacency
        self.laplacian = laplacian
        self.num_nodes = adjacency.shape[0]

    @cached_property
    def _eigendecomposition(self):
        return laplacian_eigendecomposition(self)

    @property
    def lap_eigvecs(self):
        """Orthogonal eigenvector matrix ``U`` of the Laplacian."""
        return self._eigendecomposition[0]

    @property
    def lap_eigvals(self):
        """Ascending, nonnegative (clamped) Laplacian eigenvalues."""
        return self._eigendecomposition[1]

    def __repr__(self):
        edges = int(np.count_nonzero(np.triu(self.adjacency)))
        return f"Graph(num_nodes={self.num_nodes}, num_edges={edges})"


def _validated_adjacency(adjacency):
    a = np.array(adjacency, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"adjacency matrix must be square, got shape {a.shape}")
    # ahead of the symmetry check, which would subtract inf from inf
    if not np.all(np.isfinite(a)):
        raise ValueError("adjacency weights must be finite")
    asym = np.max(np.abs(a - a.T)) if a.size else 0.0
    if asym > SYMMETRY_TOL:
        raise ValueError(
            f"adjacency matrix must be symmetric; max |A - A^T| = {asym:.3e}"
        )
    if np.any(a < 0):
        raise ValueError("adjacency weights must be nonnegative")
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)  # self-loops dropped before degrees are computed
    return a


def build_graph(adjacency):
    """Build a :class:`Graph` from an adjacency matrix.

    The matrix must be square, finite, symmetric to within
    ``SYMMETRY_TOL`` and elementwise nonnegative.  Its diagonal is forced
    to zero (self-loops contribute nothing to the smoothness functional),
    after which the Laplacian is formed as ``L = D - A``.
    """
    return Graph(adjacency)


def smoothness(graph, y):
    """Quadratic smoothness ``y^T L y`` of a signal over the graph.

    Evaluated in the algebraically equal edge-sum form
    ``sum_{(i,j) in E} a_ij (y_i - y_j)^2``, which is nonnegative by
    construction and exactly invariant to constant shifts of ``y`` (the
    raw quadratic form loses both properties to cancellation for large
    shifts).  Small values mean the signal varies little across edges.
    """
    y = np.asarray(y, dtype=float)
    if y.shape != (graph.num_nodes,):
        raise ValueError(
            f"signal length {y.shape} does not match graph with "
            f"{graph.num_nodes} nodes"
        )
    diff = y[:, None] - y[None, :]
    return 0.5 * float(np.sum(graph.adjacency * diff**2))


def distance_matrix(coords):
    """Pairwise node distances for either distance model.

    Geodesic distances are great-circle (haversine) distances in km on a
    sphere of radius ``EARTH_RADIUS_KM``; Euclidean distances are in the
    units of the coordinates.
    """
    pos = coords.positions
    if coords.mode == "euclidean":
        diff = pos[:, None, :] - pos[None, :, :]
        return np.sqrt(np.square(diff).sum(axis=-1))
    lat = np.radians(pos[:, 0])
    lon = np.radians(pos[:, 1])
    dlat = 0.5 * (lat[:, None] - lat[None, :])
    dlon = 0.5 * (lon[:, None] - lon[None, :])
    h = np.sin(dlat) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon) ** 2
    # guard round-off above 1 before asin
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def geodesic_adjacency(coords):
    """Distance-decay adjacency ``a_ij = exp(-d_ij^2 / Z)``.

    ``Z`` sums the squared distances over all ordered pairs ``(i, j)`` with
    ``i != j`` (diagonal terms are zero and contribute nothing).  The
    diagonal of the result is set to zero and the matrix is symmetric by
    construction, with off-diagonal entries in (0, 1].
    """
    if coords.num_nodes < 2:
        raise ValueError("need at least two nodes to build an adjacency matrix")
    d = distance_matrix(coords)
    z = float(np.sum(d**2))
    if z == 0.0:
        raise ValueError("degenerate coordinates: all node positions coincide")
    a = np.exp(-(d**2) / z)
    np.fill_diagonal(a, 0.0)
    return a


def laplacian_eigendecomposition(graph):
    """Symmetric eigendecomposition ``L = U diag(lam) U^T``.

    Returns ``(U, lam)`` with eigenvalues ascending.  Negative round-off
    eigenvalues above ``EIGENVALUE_CLAMP`` are clamped to zero; values
    below the clamp indicate an invalid Laplacian and raise.  Eigensolver
    convergence failures propagate as ``numpy.linalg.LinAlgError``.
    """
    lam, u = np.linalg.eigh(graph.laplacian)
    scale = max(1.0, float(np.max(np.abs(lam))) if lam.size else 1.0)
    if lam.size and lam[0] < EIGENVALUE_CLAMP * scale:
        raise ValueError(
            f"Laplacian has eigenvalue {lam[0]:.3e} below the round-off floor"
        )
    lam = np.maximum(lam, 0.0)
    lam.setflags(write=False)
    u.setflags(write=False)
    return u, lam
