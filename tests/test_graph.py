"""Graph construction, smoothness functional, and adjacency building."""

import numpy as np
import pytest

from graphkern import (
    NodeCoordinates,
    build_graph,
    distance_matrix,
    geodesic_adjacency,
    laplacian_eigendecomposition,
    smoothness,
)


def random_graph(rng, m):
    a = np.abs(rng.normal(size=(m, m)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return build_graph(a)


class TestBuildGraph:
    def test_single_edge(self):
        g = build_graph([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_array_equal(g.laplacian, [[1.0, -1.0], [-1.0, 1.0]])

    def test_empty_graph(self):
        g = build_graph(np.zeros((3, 3)))
        np.testing.assert_array_equal(g.laplacian, np.zeros((3, 3)))

    def test_weighted_path(self):
        # row sums give the degrees 2, 5, 3 directly
        a = [[0, 2, 0], [2, 0, 3], [0, 3, 0]]
        expected = [[2, -2, 0], [-2, 5, -3], [0, -3, 3]]
        g = build_graph(a)
        np.testing.assert_allclose(g.laplacian, expected)
        np.testing.assert_allclose(np.diag(g.laplacian), np.sum(g.adjacency, axis=1))

    def test_self_loops_dropped(self):
        g = build_graph([[7.0, 1.0], [1.0, 7.0]])
        assert g.adjacency[0, 0] == 0.0
        np.testing.assert_array_equal(g.laplacian, [[1.0, -1.0], [-1.0, 1.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            build_graph(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        a = np.array([[0.0, 1.0], [1.0 + 1e-6, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            build_graph(a)

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError, match="nonnegative"):
            build_graph([[0.0, -1.0], [-1.0, 0.0]])

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_rejects_non_finite_weight(self, value):
        # refused before the symmetry check, whose inf - inf would warn
        a = np.zeros((3, 3))
        a[0, 1] = a[1, 0] = value
        with pytest.raises(ValueError, match="^adjacency weights must be finite$"):
            build_graph(a)

    def test_row_sums_vanish(self):
        rng = np.random.default_rng(0)
        for m in (2, 5, 9):
            g = random_graph(rng, m)
            np.testing.assert_allclose(
                g.laplacian @ np.ones(m), np.zeros(m), atol=1e-12
            )

    def test_laplacian_psd(self):
        rng = np.random.default_rng(1)
        for m in (3, 6, 10):
            g = random_graph(rng, m)
            eigvals = np.linalg.eigvalsh(g.laplacian)
            assert eigvals.min() >= -1e-10


class TestSmoothness:
    def test_constant_signal_is_smoothest(self):
        rng = np.random.default_rng(2)
        g = random_graph(rng, 6)
        assert smoothness(g, 3.7 * np.ones(6)) == pytest.approx(0.0, abs=1e-9)

    def test_two_node_unit_edge(self):
        g = build_graph([[0.0, 1.0], [1.0, 0.0]])
        assert smoothness(g, np.array([1.0, 0.0])) == pytest.approx(1.0)

    def test_matches_quadratic_form_oracle(self):
        rng = np.random.default_rng(3)
        g = random_graph(rng, 5)
        y = rng.normal(size=5)
        quad = float(y @ g.laplacian @ y)
        assert smoothness(g, y) == pytest.approx(quad, rel=1e-9)
        edge_sum = 0.0
        for i in range(5):
            for j in range(i + 1, 5):
                edge_sum += g.adjacency[i, j] * (y[i] - y[j]) ** 2
        assert smoothness(g, y) == pytest.approx(edge_sum, rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(4)
        g = random_graph(rng, 7)
        for _ in range(50):
            assert smoothness(g, rng.normal(size=7)) >= 0.0

    def test_shift_invariance_on_connected_graph(self):
        rng = np.random.default_rng(5)
        g = random_graph(rng, 6)
        y = rng.normal(size=6)
        base = smoothness(g, y)
        for c in (-10.0, 0.3, 1e4):
            assert smoothness(g, y + c) == pytest.approx(base, rel=1e-9)

    def test_zero_only_for_componentwise_constants(self):
        # two disconnected edges: {0,1} and {2,3}
        a = np.zeros((4, 4))
        a[0, 1] = a[1, 0] = 1.0
        a[2, 3] = a[3, 2] = 2.0
        g = build_graph(a)
        assert smoothness(g, np.array([5.0, 5.0, -1.0, -1.0])) == pytest.approx(0.0, abs=1e-12)
        assert smoothness(g, np.array([5.0, 5.0, -1.0, 1.0])) > 1e-6

    def test_rejects_wrong_length(self):
        g = build_graph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="length"):
            smoothness(g, np.ones(4))


class TestDistances:
    def test_haversine_against_hand_formula(self):
        import math

        coords = NodeCoordinates([[59.33, 18.07], [57.71, 11.97]])  # two cities
        d = distance_matrix(coords)
        lat1, lon1, lat2, lon2 = map(math.radians, [59.33, 18.07, 57.71, 11.97])
        h = (
            math.sin((lat2 - lat1) / 2) ** 2
            + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
        )
        expected = 2 * 6371.0 * math.asin(math.sqrt(h))
        assert d[0, 1] == pytest.approx(expected, rel=1e-12)
        assert d[1, 0] == pytest.approx(expected, rel=1e-12)
        assert d[0, 0] == 0.0

    def test_euclidean_mode(self):
        coords = NodeCoordinates([[0.0, 0.0], [3.0, 4.0]], mode="euclidean")
        d = distance_matrix(coords)
        assert d[0, 1] == pytest.approx(5.0)

    def test_rejects_bad_latitude(self):
        with pytest.raises(ValueError, match="latitude"):
            NodeCoordinates([[91.0, 0.0], [0.0, 0.0]])

    @pytest.mark.parametrize("lon", [180.5, -200.0])
    def test_rejects_bad_longitude(self, lon):
        with pytest.raises(ValueError, match=r"^longitude out of range \[-180, 180\]$"):
            NodeCoordinates([[0.0, lon], [0.0, 0.0]])

    def test_geodesic_mode_needs_two_columns(self):
        with pytest.raises(ValueError, match="requires \\(latitude, longitude\\) pairs"):
            NodeCoordinates(np.zeros((2, 3)), mode="geodesic")

    @pytest.mark.parametrize("mode", ["geodesic", "euclidean"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_position(self, mode, value):
        # a NaN latitude passes the range check of the geodesic mode
        with pytest.raises(ValueError, match="finite"):
            NodeCoordinates([[value, 0.0], [0.0, 0.0]], mode=mode)


class TestGeodesicAdjacency:
    def test_two_nodes_value(self):
        # Z sums both ordered pairs, so a_12 = exp(-d^2 / (2 d^2)) = exp(-1/2)
        coords = NodeCoordinates([[10.0, 20.0], [11.0, 20.0]])
        a = geodesic_adjacency(coords)
        assert a[0, 1] == pytest.approx(np.exp(-0.5), rel=1e-12)
        assert a[0, 0] == 0.0 and a[1, 1] == 0.0

    def test_equidistant_triple_uniform(self):
        # equilateral triangle in the plane: all off-diagonal weights equal
        pts = [[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]]
        a = geodesic_adjacency(NodeCoordinates(pts, mode="euclidean"))
        off = a[np.triu_indices(3, k=1)]
        np.testing.assert_allclose(off, off[0], rtol=1e-9)

    def test_output_properties(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-50, 50, size=(8, 2))
        a = geodesic_adjacency(NodeCoordinates(pts))
        np.testing.assert_allclose(a, a.T)
        np.testing.assert_array_equal(np.diag(a), np.zeros(8))
        off = a[~np.eye(8, dtype=bool)]
        assert np.all(off > 0) and np.all(off <= 1)

    def test_degenerate_coordinates(self):
        with pytest.raises(ValueError, match="coincide"):
            geodesic_adjacency(NodeCoordinates([[1.0, 1.0], [1.0, 1.0]]))

    def test_single_node_rejected(self):
        with pytest.raises(ValueError, match="two nodes"):
            geodesic_adjacency(NodeCoordinates([[1.0, 1.0]]))


class TestEigendecomposition:
    def test_zero_laplacian(self):
        g = build_graph(np.zeros((4, 4)))
        u, lam = laplacian_eigendecomposition(g)
        np.testing.assert_array_equal(lam, np.zeros(4))
        np.testing.assert_allclose(u @ u.T, np.eye(4), atol=1e-12)

    def test_two_node_path_spectrum(self):
        g = build_graph([[0.0, 1.0], [1.0, 0.0]])
        _, lam = laplacian_eigendecomposition(g)
        np.testing.assert_allclose(lam, [0.0, 2.0], atol=1e-12)

    def test_reconstruction(self):
        rng = np.random.default_rng(7)
        g = random_graph(rng, 12)
        u, lam = laplacian_eigendecomposition(g)
        residual = np.max(np.abs(u @ np.diag(lam) @ u.T - g.laplacian))
        assert residual < 1e-8 * np.max(np.abs(g.laplacian))

    def test_eigenvalues_ascending_nonnegative(self):
        rng = np.random.default_rng(8)
        g = random_graph(rng, 9)
        _, lam = laplacian_eigendecomposition(g)
        assert np.all(np.diff(lam) >= 0)
        assert np.all(lam >= 0)

    def test_cached_on_graph(self):
        rng = np.random.default_rng(9)
        g = random_graph(rng, 5)
        assert g.lap_eigvecs is g.lap_eigvecs  # same cached object
        np.testing.assert_allclose(
            g.lap_eigvecs @ np.diag(g.lap_eigvals) @ g.lap_eigvecs.T,
            g.laplacian,
            atol=1e-10,
        )
