"""Reduced objective, its gradient, the ball projection, and the optimizer."""

import numpy as np
import pytest
from scipy.optimize import minimize

from graphkern import (
    KernelDictionary,
    KernelGrid,
    KernelSpec,
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
from graphkern import kernels, mkl, solve_structured, solver

from .oracles import (
    optimize_unrotated,
    reduced_objective_matrix,
    stack,
    weight_objective_features,
    weight_objective_quadratic,
)


def random_instance(rng, m, n, s, unit_targets=True):
    x = rng.normal(size=(n, 3))
    d = build_dictionary(x, KernelGrid(lo=0.3, hi=3.0, count=s))
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
        # each rule has one owner: the weight domain is the solver's weight
        # check, q is SolverConfig's, and the radius is kept by optimize's
        # final projection (TestOptimize::test_feasible_iterates_reported)
        d = build_dictionary(np.zeros((3, 2)), KernelGrid(lo=0.3, hi=3.0, count=2))
        kernels._checked_weights(d, np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            kernels._checked_weights(d, np.array([-0.1, 1.0]))
        with pytest.raises(ValueError, match="q"):
            SolverConfig(q=3)

    def test_config_validation(self):
        SolverConfig()
        with pytest.raises(ValueError, match="mu0"):
            SolverConfig(mu0=0.0)
        with pytest.raises(ValueError, match="i_max"):
            SolverConfig(i_max=0)
        # one momentum schedule is left, so there is no knob to set
        with pytest.raises(TypeError, match="momentum"):
            SolverConfig(momentum="damped")

    @pytest.mark.parametrize("name", ["mu0", "epsilon", "radius"])
    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_config_refuses_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SolverConfig(**{name: value})


def domain_instance(rng, stacked):
    """One system, or a stack of three, with two kernels over four inputs."""
    _, g, t = random_instance(rng, 3, 4, 2)
    batch = (3,) if stacked else ()
    d = build_dictionary(rng.normal(size=batch + (4, 3)), KernelGrid(lo=0.3, hi=3.0, count=2))
    return d, g, np.broadcast_to(t, batch + t.shape), np.full(batch + (2,), 0.5)


OUT_OF_DOMAIN = pytest.mark.parametrize(
    "bad, message",
    [(-0.1, "kernel weights must be nonnegative"), (np.nan, "kernel weights must be finite")],
    ids=["negative", "nan"],
)


class TestWeightDomain:
    # outside {rho >= 0, finite} the combined kernel may be indefinite or
    # undefined, so every route refuses such weights
    ROUTES = {
        "solve_structured": lambda d, g, t, rho: solve_structured(d, rho, g, t, 0.5, 0.5),
        "gamma": lambda d, g, t, rho: gamma(d, g, t, rho, 0.5, 0.5),
        "gamma_gradient": lambda d, g, t, rho: gamma_gradient(d, g, t, rho, 0.5, 0.5),
    }

    @pytest.mark.parametrize("route", list(ROUTES))
    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @OUT_OF_DOMAIN
    def test_routes_refuse_out_of_domain_weights(self, route, stacked, bad, message):
        d, g, t, rho = domain_instance(np.random.default_rng(23), stacked)
        self.ROUTES[route](d, g, t, rho)  # in the domain: solves
        rho.reshape(-1, 2)[-1, 0] = bad  # the first weight of the last set
        with pytest.raises(ValueError, match=message):
            self.ROUTES[route](d, g, t, rho)

    @pytest.mark.parametrize("stacked", [False, True], ids=["one", "stack"])
    @OUT_OF_DOMAIN
    def test_optimize_refuses_an_out_of_domain_iterate(self, monkeypatch, stacked, bad,
                                                       message):
        # the damped step cannot leave the domain, so a projection that does
        # stands in for a broken iterate
        d, g, t, _ = domain_instance(np.random.default_rng(24), stacked)
        monkeypatch.setattr(mkl, "project", lambda s, radius, q: np.full_like(s, bad))
        config = SolverConfig(mu0=1.0, i_max=5, epsilon=1e-12, radius=1.0)
        with pytest.raises(ValueError, match=message):
            optimize(d, g, t, config, 0.5, 0.5)


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
        model, trace = optimize(d, g, t, config, alpha, beta)
        grid = np.linspace(0, radius, 41)
        values = [gamma(d, g, t, np.array([r]), alpha, beta) for r in grid]
        assert np.argmin(values) == 40  # line-search oracle: minimum at R
        assert abs(model.rho[0] - radius) < 1e-3

    def test_first_iteration_is_plain_projected_step(self):
        rng = np.random.default_rng(12)
        d, g, t = random_instance(rng, 3, 4, 3)
        alpha, beta = 0.4, 0.6
        config = SolverConfig(mu0=0.5, i_max=1, epsilon=1e-14, radius=1.5, q=1)
        model, trace = optimize(d, g, t, config, alpha, beta)
        grad0 = gamma_gradient(d, g, t, np.zeros(3), alpha, beta)
        expected = project(-0.5 * grad0, 1.5, 1)
        np.testing.assert_allclose(model.rho, expected, atol=1e-12)
        assert trace.iterations_used == 1
        assert trace.status == "max_iterations"

    def test_deterministic(self):
        rng = np.random.default_rng(13)
        d, g, t = random_instance(rng, 3, 5, 4)
        config = SolverConfig(mu0=1.0, i_max=50, epsilon=1e-10, radius=2.0, q=1)
        m1, _ = optimize(d, g, t, config, 0.5, 0.5)
        m2, _ = optimize(d, g, t, config, 0.5, 0.5)
        np.testing.assert_array_equal(m1.rho, m2.rho)

    def test_final_gamma_no_worse_than_first_step(self):
        rng = np.random.default_rng(14)
        d, g, t = random_instance(rng, 4, 5, 3)
        alpha, beta = 0.3, 1.0
        grad0 = gamma_gradient(d, g, t, np.zeros(3), alpha, beta)
        mu0 = 2.0 / np.abs(grad0).max()
        config = SolverConfig(mu0=mu0, i_max=200, epsilon=1e-12, radius=1.0, q=1)
        model, trace = optimize(d, g, t, config, alpha, beta)
        rho_first = project(-mu0 * grad0, 1.0, 1)
        gamma_first = gamma(d, g, t, rho_first, alpha, beta)
        assert trace.final_gamma <= gamma_first + 1e-12

    @pytest.mark.parametrize("q", [1, 2])
    def test_terminal_boundary(self, q):
        rng = np.random.default_rng(15)
        d, g, t = random_instance(rng, 3, 5, 3)
        alpha, beta = 0.4, 0.5
        grad0 = gamma_gradient(d, g, t, np.zeros(3), alpha, beta)
        mu0 = 3.0 / np.abs(grad0).max()
        config = SolverConfig(mu0=mu0, i_max=2000, epsilon=1e-14, radius=1.0, q=q)
        model, _ = optimize(d, g, t, config, alpha, beta)
        norm = np.sum(model.rho) if q == 1 else np.linalg.norm(model.rho)
        assert abs(norm - 1.0) < 1e-3

    def test_feasible_iterates_reported(self):
        rng = np.random.default_rng(16)
        d, g, t = random_instance(rng, 3, 4, 3)
        config = SolverConfig(mu0=5.0, i_max=40, epsilon=1e-12, radius=1.2, q=1)
        model, trace = optimize(d, g, t, config, 0.5, 0.5)
        assert np.all(model.rho >= 0)
        assert model.rho.sum() <= 1.2 + 1e-9
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

    @pytest.mark.parametrize("mu0, alpha", [(1e308, 0.4), (0.1, 1e-300)])
    def test_step_outside_float_range_attaches_trace(self, mu0, alpha):
        # the first step, -mu0 times a gradient that grows as |T|^2 / alpha,
        # overflows; no RuntimeWarning escapes
        rng = np.random.default_rng(18)
        d, g, t = random_instance(rng, 3, 4, 3, unit_targets=False)
        config = SolverConfig(mu0=mu0, i_max=10, epsilon=1e-10, radius=1.0, q=1)
        message = "step of iteration 1 leaves float range"
        with pytest.raises(FloatingPointError, match=message) as excinfo:
            optimize(d, g, t, config, alpha, 0.5)
        assert excinfo.value.trace.iterations_used == 0

    def test_returns_model_solved_once_at_final_weights(self, monkeypatch):
        rng = np.random.default_rng(21)
        d, g, t = random_instance(rng, 3, 5, 4)
        config = SolverConfig(mu0=2.0, i_max=30, epsilon=1e-10, radius=1.5)
        solved = []

        route = solver._solve_rotated

        def counting(*args):
            solved.append(np.array(args[1]))
            return route(*args)

        # every solve: the optimizer's and public solve_structured's
        for module in (solver, mkl):
            monkeypatch.setattr(module, "_solve_rotated", counting)
        model, trace = optimize(d, g, t, config, 0.5, 0.5)
        # one solve per iteration, then one at the returned weights; every
        # iterate stays in the domain
        assert len(solved) == trace.iterations_used + 1
        assert all(np.all(rho >= 0) for rho in solved)
        np.testing.assert_array_equal(solved[-1], model.rho)
        np.testing.assert_array_equal(
            model.psi, solve_structured(d, model.rho, g, t, 0.5, 0.5).psi
        )
        expected = -float(np.sum(t * (combine(d, model.rho) @ model.psi)))
        assert trace.final_gamma == pytest.approx(expected, rel=1e-12)

    def test_one_eigh_per_iteration(self, monkeypatch):
        # the final solve takes the place of the one at rho = 0, where K = 0
        # needs no eigendecomposition
        rng = np.random.default_rng(22)
        d, g, t = random_instance(rng, 3, 5, 4)
        g.lap_eigvecs  # the graph's own eigh, cached before counting
        calls = []
        eigh = np.linalg.eigh

        def counting(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(solver.np.linalg, "eigh", counting)
        config = SolverConfig(mu0=2.0, i_max=30, epsilon=1e-10, radius=1.5)
        _, trace = optimize(d, g, t, config, 0.5, 0.5)
        assert trace.iterations_used > 1
        assert calls == [(5, 5)] * trace.iterations_used

    @pytest.mark.parametrize("q", [1, 2])
    def test_trace_records_frank_wolfe_gap_per_iteration(self, q):
        rng = np.random.default_rng(22)
        d, g, t = random_instance(rng, 3, 5, 4)
        config = SolverConfig(mu0=2.0, i_max=3, epsilon=1e-14, radius=1.5, q=q)
        _, trace = optimize(d, g, t, config, 0.5, 0.5)
        assert len(trace.fw_gaps) == trace.iterations_used == 3
        # the first gradient is taken at rho = 0, where the gap is R times
        # the largest descent available from the ball's vertices
        psi = solve_structured(d, np.zeros(4), g, t, 0.5, 0.5).psi
        grad = -0.5 * np.tensordot(stack(d), psi @ psi.T, axes=([1, 2], [0, 1]))
        expected = -1.5 * grad.min() if q == 1 else 1.5 * np.linalg.norm(grad)
        assert trace.fw_gaps[0] == pytest.approx(expected, rel=1e-12)
        assert all(gap >= 0.0 for gap in trace.fw_gaps)

    def test_trace_csv_roundtrip(self, tmp_path):
        import csv

        rng = np.random.default_rng(18)
        d, g, t = random_instance(rng, 3, 4, 2)
        config = SolverConfig(mu0=1.0, i_max=5, epsilon=1e-14, radius=1.0, q=1)
        _, trace = optimize(d, g, t, config, 0.5, 0.5)
        path = tmp_path / "trace.csv"
        trace.write_csv(path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iteration", "gamma", "step", "delta_sq", "rho_norm", "fw_gap"]
        assert len(rows) == len(trace) + 1
        parsed = [float(r[1]) for r in rows[1:]]
        np.testing.assert_array_equal(parsed, trace.gamma_values)
        parsed = [float(r[5]) for r in rows[1:]]
        np.testing.assert_array_equal(parsed, trace.fw_gaps)


class TestSpectralCoordinates:
    """The optimizer in graph-spectral coordinates against the loop that rotated per iterate.

    The stated drift bound: equal iteration counts and statuses,
    ``|d rho| <= 1e-10``, ``|d psi| <= 1e-9 max |psi|`` and the objective
    trace within ``1e-9 max |gamma|``.
    """

    @staticmethod
    def assert_within_bound(d, g, t, config, alpha, beta):
        model, trace = optimize(d, g, t, config, alpha, beta)
        oracle, oracle_trace = optimize_unrotated(d, g, t, config, alpha, beta)
        traces = trace if d.batch_shape else (trace,)
        oracle_traces = oracle_trace if d.batch_shape else (oracle_trace,)
        for got, want in zip(traces, oracle_traces):
            assert got.iterations_used == want.iterations_used >= 2
            assert got.status == want.status
            scale = np.max(np.abs(want.gamma_values + [want.final_gamma]))
            np.testing.assert_allclose(got.gamma_values, want.gamma_values, rtol=0,
                                       atol=1e-9 * scale)
            assert abs(got.final_gamma - want.final_gamma) <= 1e-9 * scale
        assert np.max(np.abs(model.rho - oracle.rho)) <= 1e-10
        assert np.max(np.abs(model.psi - oracle.psi)) <= 1e-9 * np.max(np.abs(oracle.psi))
        assert model.errors == oracle.errors

    def test_dense_single_set(self):
        rng = np.random.default_rng(30)
        d, g, t = random_instance(rng, 6, 9, 5, unit_targets=False)
        self.assert_within_bound(d, g, t, SolverConfig(mu0=0.5, i_max=40, epsilon=1e-10),
                                 0.3, 2.0)

    def test_low_rank_single_set(self, monkeypatch):
        from .test_solver import TestLowRankRoute, wide_curve_instance

        d, g, t = wide_curve_instance()
        kept = TestLowRankRoute.spy(monkeypatch)
        self.assert_within_bound(d, g, t, SolverConfig(mu0=0.01, i_max=20, epsilon=1e-10),
                                 0.1, 5.5)
        assert kept and all(kept)

    def test_stack(self):
        rng = np.random.default_rng(31)
        x = rng.normal(size=(4, 9, 3))
        d = build_dictionary(x, KernelGrid(lo=0.3, hi=3.0, count=5))
        _, g, _ = random_instance(rng, 6, 9, 5)
        t = rng.normal(size=(4, 9, 6))
        self.assert_within_bound(d, g, t, SolverConfig(mu0=0.5, i_max=40, epsilon=1e-6),
                                 0.3, 2.0)


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
