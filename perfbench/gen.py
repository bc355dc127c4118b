"""Seeded input generator for the benchmark workloads.

Writes a measurements CSV (header of node names, one row per time step)
and a ``node,lat,lon`` coordinates CSV.  The signals are smooth over a
random latitude/longitude graph: each row is a slowly varying mix of the
lowest Laplacian modes of the distance-decay graph that the program
itself builds from the coordinates.  Only numpy is used, so a change to
the program cannot change its own inputs, and no array grows with the
square of the row count.
"""

import csv

import numpy as np

EARTH_RADIUS_KM = 6371.0

# Shape of the signal.  The mean squared distance between rows is fixed
# so that the Gaussian variance grid (0.01 .. 10) of the default config
# is informative at every seed.
NUM_MODES = 8
MODE_DECAY = 0.7
MEAN_LEVEL = 1.0
MEAN_SQ_DISTANCE = 6.0
# Mode frequencies in cycles per row.  They are fixed rather than drawn:
# drawn frequencies made the sweep's NMSE vary by 35% between seeds
# (interquartile range over median, ten seeds), fixed ones by 15%.
FREQ_LO, FREQ_HI = 0.02, 0.12


def adjacency(lat, lon):
    """Distance-decay adjacency ``exp(-d^2 / sum d^2)`` of great-circle distances."""
    la, lo = np.radians(lat), np.radians(lon)
    h = (
        np.sin(0.5 * (la[:, None] - la[None, :])) ** 2
        + np.cos(la)[:, None] * np.cos(la)[None, :] * np.sin(0.5 * (lo[:, None] - lo[None, :])) ** 2
    )
    d = 2.0 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    a = np.exp(-(d**2) / np.sum(d**2))
    np.fill_diagonal(a, 0.0)
    return a


def make_series(seed, num_nodes, num_rows, scale_rows=None):
    """Return ``(lat, lon, series)`` with ``series`` of shape (num_rows, num_nodes).

    The random draws do not depend on ``num_rows``, so a longer series
    from the same seed continues a shorter one.  The scale is fixed by the
    first ``scale_rows`` rows (all rows by default), so with ``scale_rows``
    equal to the shorter length the prefix matches it row for row.
    """
    rng = np.random.default_rng(seed)
    lat = rng.uniform(55.0, 69.0, size=num_nodes)
    lon = rng.uniform(11.0, 24.0, size=num_nodes)
    a = adjacency(lat, lon)
    _, u = np.linalg.eigh(np.diag(a.sum(axis=1)) - a)
    modes = min(NUM_MODES, num_nodes)
    amps = MODE_DECAY ** np.arange(modes)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=modes)
    freqs = np.linspace(FREQ_LO, FREQ_HI, modes)
    coeffs = amps * np.cos(2.0 * np.pi * np.outer(np.arange(num_rows), freqs) + phases)
    coeffs[:, 0] += MEAN_LEVEL
    series = coeffs @ u[:, :modes].T
    # mean over ordered pairs i != j of ||x_i - x_j||^2, without the pair array
    p = num_rows if scale_rows is None else scale_rows
    head = series[:p]
    total = np.sum(head, axis=0)
    sq = 2.0 * p * np.sum(head**2) - 2.0 * float(total @ total)
    series *= np.sqrt(MEAN_SQ_DISTANCE * p * (p - 1) / sq)
    return lat, lon, series


def node_names(num_nodes):
    return [f"n{i:04d}" for i in range(num_nodes)]


def write_measurements(path, names, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        writer.writerows([repr(float(v)) for v in row] for row in rows)


def write_coordinates(path, names, lat, lon):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node", "lat", "lon"])
        writer.writerows([n, repr(float(a)), repr(float(o))] for n, a, o in zip(names, lat, lon))
