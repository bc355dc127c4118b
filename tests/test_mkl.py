"""Reduced objective, its gradient, the ball projection, and the optimizer."""

import numpy as np
import pytest
from scipy.optimize import minimize

from graphkern import (
    KernelDictionary,
    KernelSpec,
    MklWeights,
    SingularSystemError,
    SolverConfig,
    build_dictionary,
    build_graph,
    combine,
    gamma,
    gamma_gradient,
    optimize,
    project,
)
from graphkern import mkl, solve_structured
from graphkern.mkl import reduced_objective_matrix

from .oracles import stack, weight_objective_features, weight_objective_quadratic


def random_instance(rng, m, n, s, unit_targets=True):
    x = rng.normal(size=(n, 3))
    d = build_dictionary(x, span=(0.3, 3.0), count=s)
    a = np.abs(rng.normal(size=(m, m)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    g = build_graph(a)
    t = rng.normal(size=(n, m))
    if unit_targets:
        t /= np.linalg.norm(t)
    return d, g, t


def scalar_instance():
    g = build_graph(np.zeros((1, 1)))
    d = KernelDictionary.from_specs(np.zeros((1, 1)), [KernelSpec("gaussian", 1.0)])
    t = np.array([[1.0]])
    return d, g, t


def project_bruteforce(s, radius, rounds=16, pts=17):
    """Grid-refinement minimizer of ||s - z||^2 over {z >= 0, sum z <= R}.

    Keeps a shrinking axis-aligned window around the best feasible grid
    point; extra rounds compensate for the sparse sampling of the simplex
    face when the constraint is active.
    """
    lo = np.zeros(3)
    hi = np.full(3, radius)
    best = np.zeros(3)
    for _ in range(rounds):
        axes = [np.linspace(lo[d], hi[d], pts) for d in range(3)]
        zz = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        feasible = zz.sum(axis=1) <= radius + 1e-12
        zz = zz[feasible]
        dist = np.sum((zz - s) ** 2, axis=1)
        best = zz[np.argmin(dist)]
        step = (hi - lo) / (pts - 1)
        lo = np.maximum(best - 2 * step, 0.0)
        hi = best + 2 * step
    return best


class TestGamma:
    def test_zero_weights_give_zero(self):
        rng = np.random.default_rng(0)
        d, g, t = random_instance(rng, 3, 4, 3)
        assert abs(gamma(d, g, t, np.zeros(3), 1.0, 0.5)) < 1e-10

    def test_scalar_closed_form(self):
        # K = 1, alpha = 1 => Psi = 1/2 and gamma = -tr(T^T K Psi) = -1/2
        d, g, t = scalar_instance()
        assert gamma(d, g, t, np.array([1.0]), 1.0, 0.0) == pytest.approx(-0.5)

    def test_matches_dense_quadratic_form(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d, g, t = random_instance(rng, 3, 4, 2)
            rho = rng.uniform(0.05, 1.0, size=2)
            alpha, beta = 0.4, 1.1
            b = reduced_objective_matrix(d, g, rho, alpha, beta)
            vec_t = t.ravel(order="F")
            expected = float(vec_t @ b @ vec_t)
            assert gamma(d, g, t, rho, alpha, beta) == pytest.approx(expected, rel=1e-9)

    def test_equals_inner_minimum_by_numeric_optimization(self):
        # independent oracle: minimize the inner objective over the
        # coefficient matrix with a generic optimizer
        rng = np.random.default_rng(2)
        d, g, t = random_instance(rng, 2, 3, 2)
        rho = np.array([0.7, 0.4])
        alpha, beta = 0.6, 0.9
        k = combine(d, rho)
        lap = g.laplacian

        def inner(vec):
            psi = vec.reshape(3, 2)
            kp = k @ psi
            return (
                -2.0 * np.sum(t * kp)
                + np.sum(kp * kp)
                + alpha * np.sum(psi * kp)
                + beta * np.sum(kp * (kp @ lap))
            )

        result = minimize(inner, np.zeros(6), method="BFGS", tol=1e-12)
        assert gamma(d, g, t, rho, alpha, beta) == pytest.approx(
            result.fun, rel=1e-6
        )

    def test_nonpositive_everywhere(self):
        rng = np.random.default_rng(3)
        d, g, t = random_instance(rng, 4, 5, 4)
        for _ in range(25):
            rho = rng.uniform(0, 2, size=4)
            assert gamma(d, g, t, rho, 0.5, 0.7) <= 1e-12


class TestGammaGradient:
    def test_scalar_closed_form(self):
        # gamma(rho) = -rho/(rho+1) so gamma'(1) = -1/4
        d, g, t = scalar_instance()
        grad = gamma_gradient(d, g, t, np.array([1.0]), 1.0, 0.0)
        np.testing.assert_allclose(grad, [-0.25])

    def test_zero_weights_unit_alpha(self):
        # K = 0, alpha = 1 gives Psi = T and gradient -tr(T^T K_s T)
        rng = np.random.default_rng(4)
        d, g, t = random_instance(rng, 3, 4, 3)
        grad = gamma_gradient(d, g, t, np.zeros(3), 1.0, 0.8)
        expected = [-np.sum(t * (mat @ t)) for mat in stack(d)]
        np.testing.assert_allclose(grad, expected, rtol=1e-10)

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(5)
        h = 1e-5
        for _ in range(10):
            s = int(rng.integers(1, 6))
            d, g, t = random_instance(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)), s)
            rho = rng.uniform(0.1, 1.0, size=s)
            alpha = float(rng.choice([0.05, 0.5, 2.0]))
            beta = float(rng.choice([0.0, 0.5, 2.0]))
            grad = gamma_gradient(d, g, t, rho, alpha, beta)
            for j in range(s):
                e = np.zeros(s)
                e[j] = h
                fd = (
                    gamma(d, g, t, rho + e, alpha, beta)
                    - gamma(d, g, t, rho - e, alpha, beta)
                ) / (2 * h)
                assert abs(grad[j] - fd) < 1e-5 * max(1e-8, abs(fd))

    def test_all_components_nonpositive(self):
        rng = np.random.default_rng(6)
        d, g, t = random_instance(rng, 4, 5, 4)
        for _ in range(20):
            rho = rng.uniform(0, 1.5, size=4)
            grad = gamma_gradient(d, g, t, rho, 0.3, 1.0)
            assert np.all(grad <= 1e-12)


class TestProject:
    def test_already_feasible_l1(self):
        np.testing.assert_array_equal(
            project(np.array([0.1, 0.2]), 5.0, 1), [0.1, 0.2]
        )

    def test_threshold_case(self):
        np.testing.assert_allclose(project(np.array([-1.0, 2.0]), 1.0, 1), [0.0, 1.0])

    def test_l2_boundary_kept(self):
        np.testing.assert_allclose(project(np.array([3.0, 4.0]), 5.0, 2), [3.0, 4.0])

    def test_l2_rescaling(self):
        z = project(np.array([-1.0, 6.0, 8.0]), 5.0, 2)
        np.testing.assert_allclose(z, [0.0, 3.0, 4.0])

    def test_matches_bruteforce_minimizer(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            s = rng.uniform(-2, 3, size=3)
            radius = float(rng.uniform(0.5, 4.0))
            fast = project(s, radius, 1)
            slow = project_bruteforce(s, radius)
            np.testing.assert_allclose(fast, slow, atol=1e-4)

    def test_kkt_conditions_large(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            s = rng.normal(scale=2.0, size=100)
            radius = 5.0
            z = project(s, radius, 1)
            assert np.all(z >= 0)
            assert z.sum() <= radius + 1e-9
            if z.sum() < radius - 1e-9:
                np.testing.assert_allclose(z, np.maximum(s, 0), atol=1e-9)
            else:
                active = z > 1e-12
                taus = s[active] - z[active]
                tau = np.median(taus)
                assert tau >= -1e-9
                assert np.max(np.abs(taus - tau)) <= 1e-9
                assert np.all(s[~active] <= tau + 1e-9)

    def test_feasibility_under_large_inputs(self):
        rng = np.random.default_rng(9)
        s = rng.uniform(1e3, 1e5, size=100)
        z = project(s, 5.0, 1)
        assert z.sum() <= 5.0 + 1e-12

    def test_q2_nonnegative_then_scaled(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            s = rng.normal(size=10)
            z = project(s, 2.0, 2)
            assert np.all(z >= 0)
            assert np.linalg.norm(z) <= 2.0 + 1e-12
            # the projection of the clipped point onto the ball
            clipped = np.maximum(s, 0)
            if np.linalg.norm(clipped) > 2.0:
                np.testing.assert_allclose(z, clipped * 2.0 / np.linalg.norm(clipped))


class TestWeightTypes:
    def test_weights_validation(self):
        MklWeights(np.array([1.0, 2.0]), q=1, radius=3.0)
        with pytest.raises(ValueError, match="nonnegative"):
            MklWeights(np.array([-0.1, 1.0]), q=1, radius=3.0)
        with pytest.raises(ValueError, match="exceeds"):
            MklWeights(np.array([2.0, 2.0]), q=1, radius=3.0)
        with pytest.raises(ValueError, match="q"):
            MklWeights(np.array([1.0]), q=3, radius=3.0)

    def test_config_validation(self):
        SolverConfig()
        with pytest.raises(ValueError, match="mu0"):
            SolverConfig(mu0=0.0)
        with pytest.raises(ValueError, match="i_max"):
            SolverConfig(i_max=0)
        with pytest.raises(ValueError, match="momentum"):
            SolverConfig(momentum="heavy-ball")


class TestOptimize:
    def test_single_kernel_reaches_boundary(self):
        # 1-D reduced objective is decreasing, so the optimum sits at R;
        # verified against a line-search over the feasible interval
        rng = np.random.default_rng(11)
        d, g, t = random_instance(rng, 3, 4, 1)
        alpha, beta = 0.5, 0.8
        radius = 2.0
        grad0 = gamma_gradient(d, g, t, np.zeros(1), alpha, beta)
        mu0 = 3.0 * radius / abs(grad0[0])
        config = SolverConfig(mu0=mu0, i_max=300, epsilon=1e-14, radius=radius, q=1)
        weights, trace, _ = optimize(d, g, t, config, alpha, beta)
        grid = np.linspace(0, radius, 41)
        values = [gamma(d, g, t, np.array([r]), alpha, beta) for r in grid]
        assert np.argmin(values) == 40  # line-search oracle: minimum at R
        assert abs(weights.rho[0] - radius) < 1e-3

    def test_first_iteration_is_plain_projected_step(self):
        rng = np.random.default_rng(12)
        d, g, t = random_instance(rng, 3, 4, 3)
        alpha, beta = 0.4, 0.6
        config = SolverConfig(mu0=0.5, i_max=1, epsilon=1e-14, radius=1.5, q=1)
        weights, trace, _ = optimize(d, g, t, config, alpha, beta)
        grad0 = gamma_gradient(d, g, t, np.zeros(3), alpha, beta)
        expected = project(-0.5 * grad0, 1.5, 1)
        np.testing.assert_allclose(weights.rho, expected, atol=1e-12)
        assert trace.iterations_used == 1
        assert trace.status == "max_iterations"

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        d, g, t = random_instance(rng, 3, 5, 4)
        config = SolverConfig(mu0=1.0, i_max=50, epsilon=1e-10, radius=2.0, q=1)
        w1, _, _ = optimize(d, g, t, config, 0.5, 0.5)
        w2, _, _ = optimize(d, g, t, config, 0.5, 0.5)
        np.testing.assert_array_equal(w1.rho, w2.rho)

    @pytest.mark.parametrize("momentum", ["damped", "fista"])
    def test_final_gamma_no_worse_than_first_step(self, momentum):
        rng = np.random.default_rng(14)
        d, g, t = random_instance(rng, 4, 5, 3)
        alpha, beta = 0.3, 1.0
        grad0 = gamma_gradient(d, g, t, np.zeros(3), alpha, beta)
        mu0 = 2.0 / np.abs(grad0).max()
        config = SolverConfig(
            mu0=mu0, i_max=200, epsilon=1e-12, radius=1.0, q=1, momentum=momentum
        )
        weights, trace, _ = optimize(d, g, t, config, alpha, beta)
        rho_first = project(-mu0 * grad0, 1.0, 1)
        gamma_first = gamma(d, g, t, rho_first, alpha, beta)
        assert trace.final_gamma <= gamma_first + 1e-12

    @pytest.mark.parametrize("momentum", ["damped", "fista"])
    @pytest.mark.parametrize("q", [1, 2])
    def test_terminal_boundary(self, momentum, q):
        rng = np.random.default_rng(15)
        d, g, t = random_instance(rng, 3, 5, 3)
        alpha, beta = 0.4, 0.5
        grad0 = gamma_gradient(d, g, t, np.zeros(3), alpha, beta)
        mu0 = 3.0 / np.abs(grad0).max()
        config = SolverConfig(
            mu0=mu0, i_max=2000, epsilon=1e-14, radius=1.0, q=q, momentum=momentum
        )
        weights, _, _ = optimize(d, g, t, config, alpha, beta)
        norm = np.sum(weights.rho) if q == 1 else np.linalg.norm(weights.rho)
        assert abs(norm - 1.0) < 1e-3

    def test_feasible_iterates_reported(self):
        rng = np.random.default_rng(16)
        d, g, t = random_instance(rng, 3, 4, 3)
        config = SolverConfig(mu0=5.0, i_max=40, epsilon=1e-12, radius=1.2, q=1)
        weights, trace, _ = optimize(d, g, t, config, 0.5, 0.5)
        assert np.all(weights.rho >= 0)
        assert weights.rho.sum() <= 1.2 + 1e-9
        assert len(trace) <= 40
        assert len(trace.gamma_values) == len(trace)

    def test_singular_system_attaches_trace(self):
        # alpha = 0 makes the very first solve (K = 0) singular
        rng = np.random.default_rng(17)
        d, g, t = random_instance(rng, 2, 3, 2)
        config = SolverConfig(mu0=0.1, i_max=10, epsilon=1e-10, radius=1.0, q=1)
        with pytest.raises(SingularSystemError) as excinfo:
            optimize(d, g, t, config, alpha=0.0, beta=0.0)
        assert hasattr(excinfo.value, "trace")
        assert excinfo.value.trace.iterations_used == 0

    @pytest.mark.parametrize("momentum", ["damped", "fista"])
    def test_returns_model_solved_once_at_final_weights(self, monkeypatch, momentum):
        rng = np.random.default_rng(21)
        d, g, t = random_instance(rng, 3, 5, 4)
        config = SolverConfig(mu0=2.0, i_max=30, epsilon=1e-10, radius=1.5, momentum=momentum)
        solved = []

        def counting(*args):
            solved.append(np.array(args[1]))
            return solve_structured(*args)

        monkeypatch.setattr(mkl, "solve_structured", counting)
        weights, trace, model = optimize(d, g, t, config, 0.5, 0.5)
        # one solve per iteration, then one at the returned weights
        assert len(solved) == trace.iterations_used + 1
        np.testing.assert_array_equal(solved[-1], weights.rho)
        np.testing.assert_array_equal(model.rho, weights.rho)
        np.testing.assert_array_equal(
            model.psi, solve_structured(d, weights.rho, g, t, 0.5, 0.5).psi
        )
        expected = -float(np.sum(t * (combine(d, weights.rho) @ model.psi)))
        assert trace.final_gamma == pytest.approx(expected, rel=1e-12)

    def test_trace_csv_roundtrip(self, tmp_path):
        import csv

        rng = np.random.default_rng(18)
        d, g, t = random_instance(rng, 3, 4, 2)
        config = SolverConfig(mu0=1.0, i_max=5, epsilon=1e-14, radius=1.0, q=1)
        _, trace, _ = optimize(d, g, t, config, 0.5, 0.5)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "gamma", "step", "delta_sq", "rho_norm"]
        assert len(rows) == len(trace) + 1
        parsed = [float(r[1]) for r in rows[1:]]
        np.testing.assert_array_equal(parsed, trace.gamma_values)


class TestObjectiveShape:
    """Executable versions of the convexity/monotonicity statements."""

    def setup_method(self):
        rng = np.random.default_rng(19)
        self.rng = rng
        self.instances = [random_instance(rng, 3, 4, 3) for _ in range(3)]
        self.alpha, self.beta = 0.5, 0.8

    def test_midpoint_convexity(self):
        for d, g, t in self.instances:
            for _ in range(40):
                ra = self.rng.uniform(0, 1.5, size=3)
                rb = self.rng.uniform(0, 1.5, size=3)
                ga = gamma(d, g, t, ra, self.alpha, self.beta)
                gb = gamma(d, g, t, rb, self.alpha, self.beta)
                gm = gamma(d, g, t, 0.5 * (ra + rb), self.alpha, self.beta)
                slack = 1e-9 * max(1.0, abs(ga) + abs(gb))
                assert gm <= 0.5 * (ga + gb) + slack

    def test_monotone_decrease(self):
        for d, g, t in self.instances:
            for _ in range(30):
                r1 = self.rng.uniform(0, 1.0, size=3)
                r2 = r1 + self.rng.uniform(0, 1.0, size=3)
                g1 = gamma(d, g, t, r1, self.alpha, self.beta)
                g2 = gamma(d, g, t, r2, self.alpha, self.beta)
                assert g2 <= g1 + 1e-9

    def test_maximum_at_origin(self):
        for d, g, t in self.instances:
            assert abs(gamma(d, g, t, np.zeros(3), self.alpha, self.beta)) < 1e-10


class TestWeightObjectiveQuadratic:
    def test_gram_structure_and_psd(self):
        rng = np.random.default_rng(20)
        for _ in range(10):
            d, g, t = random_instance(rng, 3, 4, 3)
            from graphkern import solve_structured

            rho = rng.uniform(0.1, 1.0, size=3)
            model = solve_structured(d, rho, g, t, 0.5, 0.7)
            c = weight_objective_quadratic(d, g, model.psi, 0.7)
            features = weight_objective_features(d, g, model.psi, 0.7)
            np.testing.assert_allclose(c, features.T @ features, atol=1e-10)
            np.testing.assert_allclose(c, c.T, atol=1e-12)
            assert np.linalg.eigvalsh(c).min() >= -1e-8
