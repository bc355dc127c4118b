"""Closed-form regression solves: dense vs structured, objective, prediction."""

import re

import numpy as np
import pytest

from graphkern import (
    GAUSSIAN,
    LINEAR,
    KernelGrid,
    SingularSystemError,
    SolverConfig,
    build_dictionary,
    build_graph,
    combine,
    make_synthetic_dataset,
    optimize,
    smoothness,
    solve_structured,
    solver,
)

from .oracles import krg_objective, low_rank_solve_refactored, solve_dense


def random_instance(rng, m, n, s, input_dim=3):
    x = rng.normal(size=(n, input_dim))
    d = build_dictionary(x, KernelGrid(lo=0.3, hi=3.0, count=s))
    a = np.abs(rng.normal(size=(m, m)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    g = build_graph(a)
    t = rng.normal(size=(n, m))
    return d, g, t


class TestSolveDense:
    def test_beta_zero_is_kernel_ridge(self):
        rng = np.random.default_rng(0)
        d, g, t = random_instance(rng, 4, 5, 3)
        rho = rng.uniform(0.1, 1.0, size=3)
        model = solve_dense(d, rho, g, t, alpha=0.7, beta=0.0)
        k = combine(d, rho)
        expected = np.linalg.solve(k + 0.7 * np.eye(5), t)
        np.testing.assert_allclose(model.psi, expected, atol=1e-10)

    def test_zero_kernel_scales_targets(self):
        rng = np.random.default_rng(1)
        d, g, t = random_instance(rng, 3, 4, 2)
        model = solve_dense(d, np.zeros(2), g, t, alpha=2.0, beta=1.5)
        np.testing.assert_allclose(model.psi, t / 2.0, atol=1e-12)

    def test_residual_of_kronecker_system(self):
        rng = np.random.default_rng(2)
        d, g, t = random_instance(rng, 4, 3, 2)
        rho = rng.uniform(0.1, 1.0, size=2)
        alpha, beta = 0.3, 1.2
        model = solve_dense(d, rho, g, t, alpha, beta)
        k = combine(d, rho)
        system = np.kron(np.eye(4), k + alpha * np.eye(3)) + beta * np.kron(
            g.laplacian, k
        )
        vec_t = t.ravel(order="F")
        residual = system @ model.psi.ravel(order="F") - vec_t
        assert np.linalg.norm(residual) < 1e-6 * np.linalg.norm(vec_t)

    def test_stationarity_by_finite_differences(self):
        # the fitted coefficients must be a minimum of the objective:
        # directional derivatives vanish relative to the objective scale
        rng = np.random.default_rng(3)
        d, g, t = random_instance(rng, 3, 4, 2)
        rho = rng.uniform(0.2, 1.0, size=2)
        model = solve_dense(d, rho, g, t, alpha=0.5, beta=0.8)
        base = krg_objective(model, g, t)
        h = 1e-6
        for _ in range(10):
            direction = rng.normal(size=model.psi.shape)
            direction /= np.linalg.norm(direction)
            plus = krg_objective(_with_psi(model, model.psi + h * direction), g, t)
            minus = krg_objective(_with_psi(model, model.psi - h * direction), g, t)
            derivative = (plus - minus) / (2 * h)
            assert abs(derivative) < 1e-5 * max(1.0, abs(base))

    def test_singular_system_guard(self):
        # alpha = 0 with a rank-deficient kernel (duplicated inputs)
        x = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        d = build_dictionary(x, KernelGrid(lo=1.0, hi=2.0, count=1))
        g = build_graph(np.zeros((2, 2)))
        t = np.ones((3, 2))
        with pytest.raises(SingularSystemError, match="alpha"):
            solve_dense(d, np.ones(1), g, t, alpha=0.0, beta=0.0)


class TestSolveStructured:
    def test_beta_zero_matches_ridge(self):
        rng = np.random.default_rng(4)
        d, g, t = random_instance(rng, 5, 4, 3)
        rho = rng.uniform(0.1, 1.0, size=3)
        model = solve_structured(d, rho, g, t, alpha=0.9, beta=0.0)
        k = combine(d, rho)
        expected = np.linalg.solve(k + 0.9 * np.eye(4), t)
        np.testing.assert_allclose(model.psi, expected, atol=1e-10)

    def test_edgeless_graph_matches_ridge(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 2))
        d = build_dictionary(x, KernelGrid(lo=0.5, hi=2.0, count=2))
        g = build_graph(np.zeros((3, 3)))
        t = rng.normal(size=(4, 3))
        rho = np.array([0.3, 0.6])
        model = solve_structured(d, rho, g, t, alpha=0.4, beta=7.0)
        k = combine(d, rho)
        expected = np.linalg.solve(k + 0.4 * np.eye(4), t)
        np.testing.assert_allclose(model.psi, expected, atol=1e-10)

    def test_agrees_with_dense_across_grid(self):
        rng = np.random.default_rng(6)
        for alpha in (0.01, 1.0):
            for beta in (0.0, 0.5, 5.0):
                m = int(rng.integers(2, 11))
                n = int(rng.integers(2, 11))
                d, g, t = random_instance(rng, m, n, 3)
                rho = rng.uniform(0.05, 1.0, size=3)
                dense = solve_dense(d, rho, g, t, alpha, beta)
                structured = solve_structured(d, rho, g, t, alpha, beta)
                assert np.max(np.abs(dense.psi - structured.psi)) < 1e-8

    @pytest.mark.parametrize("shape", [(4, 2), (5, 3), (4,)])
    def test_rejects_targets_of_the_wrong_shape(self, shape):
        rng = np.random.default_rng(12)
        d, g, _ = random_instance(rng, 3, 4, 2)
        with pytest.raises(ValueError, match=r"^targets must have shape \(4, 3\), got "):
            solve_structured(d, np.ones(2), g, np.zeros(shape), alpha=0.5, beta=0.5)

    @pytest.mark.parametrize("alpha, beta", [(-0.5, 0.5), (0.5, -1e-300), (-np.inf, 0.5),
                                             (0.5, -np.inf)])
    def test_rejects_negative_alpha_or_beta(self, alpha, beta):
        rng = np.random.default_rng(13)
        d, g, t = random_instance(rng, 3, 4, 2)
        with pytest.raises(ValueError, match="^alpha and beta must be nonnegative$"):
            solve_structured(d, np.ones(2), g, t, alpha=alpha, beta=beta)

    def test_singular_guard(self):
        x = np.array([[1.0], [1.0]])
        d = build_dictionary(x, KernelGrid(lo=1.0, hi=2.0, count=1))
        g = build_graph(np.zeros((2, 2)))
        with pytest.raises(SingularSystemError, match="alpha"):
            solve_structured(d, np.ones(1), g, np.ones((2, 2)), alpha=0.0, beta=0.0)

    @pytest.mark.parametrize("n", [4, solver.LOW_RANK_MIN_SIZE])
    def test_beta_beyond_float_range_is_singular(self, n):
        # 1 + beta lam and the denominators overflow, silently: pytest turns
        # a RuntimeWarning into an error.  With one input column K has low
        # numerical rank, so at N = 200 a sketch forms and its denominators
        # overflow before the dense route's do.
        rng = np.random.default_rng(45)
        d, g, t = random_instance(rng, 3, n, 2, input_dim=1)
        with pytest.raises(SingularSystemError, match="condition estimate inf"):
            solve_structured(d, np.ones(2), g, t, alpha=0.5, beta=1e308)


class TestFitEntryCheck:
    """A fit refuses a non-finite alpha or beta and NaN or Inf targets before any solve.

    Past the check, an infinite alpha or beta gave a zero model or an
    out-of-range step, a NaN alpha a singular system, and a NaN target
    a solution beyond float range, each with the wrong cause.
    """

    @staticmethod
    def instance(stacked):
        ds = make_synthetic_dataset(num_nodes=6, num_pairs=20, seed=1)
        rows = np.arange(16).reshape(2, 8) if stacked else np.arange(8)
        d = build_dictionary(ds.inputs[rows], KernelGrid(count=8))
        return d, ds.graph, ds.targets[rows].copy()

    @staticmethod
    def fit(fitter, d, g, t, alpha, beta):
        if fitter == "solve_structured":
            rho = np.ones(d.batch_shape + (d.num_kernels,))
            return solve_structured(d, rho, g, t, alpha, beta)
        return optimize(d, g, t, SolverConfig(i_max=5), alpha, beta)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("fitter", ["solve_structured", "optimize"])
    @pytest.mark.parametrize("alpha, beta", [(np.inf, 5.5), (np.nan, 5.5), (0.1, np.inf),
                                             (0.1, np.nan)])
    def test_refuses_non_finite_alpha_or_beta(self, fitter, stacked, alpha, beta):
        d, g, t = self.instance(stacked)
        with pytest.raises(ValueError, match="^alpha and beta must be finite$"):
            self.fit(fitter, d, g, t, alpha, beta)

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("fitter", ["solve_structured", "optimize"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_refuses_non_finite_targets(self, fitter, stacked, value):
        d, g, t = self.instance(stacked)
        t[..., -1, 2] = value
        with pytest.raises(ValueError, match="^targets contain NaN or Inf$"):
            self.fit(fitter, d, g, t, 0.1, 5.5)


class TestNonpositiveDenominator:
    # a column system with a denominator at or below zero is singular,
    # however small the ratio of the largest to the smallest magnitude
    @staticmethod
    def patch_eigh(monkeypatch, index):
        eigh = np.linalg.eigh

        def shifted(a):
            kvals, kvecs = eigh(a)
            kvals[index] = -0.7  # below -alpha / (1 + beta lam) for every lam
            return kvals, kvecs

        monkeypatch.setattr(solver.np.linalg, "eigh", shifted)

    def test_single_system_is_singular(self, monkeypatch):
        rng = np.random.default_rng(43)
        d, g, t = random_instance(rng, 3, 4, 2)
        g.lap_eigvecs  # the graph's own eigh, done before patching
        self.patch_eigh(monkeypatch, 0)
        with pytest.raises(SingularSystemError, match="condition estimate inf"):
            solve_structured(d, np.ones(2), g, t, alpha=0.5, beta=1.0)

    def test_stack_records_the_failing_set_only(self, monkeypatch):
        rng = np.random.default_rng(44)
        d = build_dictionary(rng.normal(size=(3, 4, 3)), KernelGrid(lo=0.3, hi=3.0, count=2))
        _, g, _ = random_instance(rng, 3, 4, 2)
        t = rng.normal(size=(3, 4, 3))
        expected = solve_structured(d, np.ones((3, 2)), g, t, alpha=0.5, beta=1.0)
        self.patch_eigh(monkeypatch, (1, 0))
        model = solve_structured(d, np.ones((3, 2)), g, t, alpha=0.5, beta=1.0)
        assert model.errors[0] is None and model.errors[2] is None
        assert "condition estimate inf" in model.errors[1]
        assert not model.psi[1].any()
        np.testing.assert_array_equal(model.psi[[0, 2]], expected.psi[[0, 2]])


def eigh_route_psi_at_zero(d, g, t, alpha, beta):
    """The structured solve at rho = 0 with LAPACK's ``eigh`` of K = 0."""
    kvals, kvecs = np.linalg.eigh(np.zeros(d.batch_shape + (d.num_samples,) * 2))
    u, lam = g.lap_eigvecs, g.lap_eigvals
    coeffs = np.swapaxes(kvecs, -1, -2) @ (t @ u)
    np.divide(coeffs, kvals[..., :, None] * (1.0 + beta * lam) + alpha, out=coeffs)
    return (kvecs @ coeffs) @ u.T


class TestZeroWeights:
    def test_single_system_matches_eigh_route_bitwise(self):
        rng = np.random.default_rng(40)
        d, g, t = random_instance(rng, 6, 9, 4)
        model = solve_structured(d, np.zeros(4), g, t, alpha=0.3, beta=2.5)
        expected = eigh_route_psi_at_zero(d, g, t, 0.3, 2.5)
        np.testing.assert_array_equal(model.psi.view(np.uint64), expected.view(np.uint64))

    def test_stack_matches_eigh_route_bitwise(self):
        rng = np.random.default_rng(41)
        d = build_dictionary(rng.normal(size=(5, 7, 3)), KernelGrid(lo=0.3, hi=3.0, count=4))
        _, g, _ = random_instance(rng, 4, 7, 4)
        t = rng.normal(size=(5, 7, 4))
        model = solve_structured(d, np.zeros((5, 4)), g, t, alpha=0.1, beta=5.5)
        expected = eigh_route_psi_at_zero(d, g, t, 0.1, 5.5)
        np.testing.assert_array_equal(model.psi.view(np.uint64), expected.view(np.uint64))
        assert model.errors == (None,) * 5

    def test_zero_alpha_is_singular(self):
        rng = np.random.default_rng(42)
        d, g, t = random_instance(rng, 3, 4, 2)
        with pytest.raises(SingularSystemError, match="alpha"):
            solve_structured(d, np.zeros(2), g, t, alpha=0.0, beta=1.0)
        stacked = build_dictionary(rng.normal(size=(3, 4, 3)), KernelGrid(lo=0.3, hi=3.0, count=2))
        model = solve_structured(
            stacked, np.zeros((3, 2)), g, rng.normal(size=(3, 4, 3)), alpha=0.0, beta=1.0
        )
        assert all(e is not None and "alpha" in e for e in model.errors)
        assert not model.psi.any()

    def test_solution_beyond_float_range_fails_its_set(self):
        # Psi~ = T~ / alpha overflows, silently: pytest turns a RuntimeWarning
        # into an error.  A zero target block stays at Psi~ = 0.
        rng = np.random.default_rng(46)
        d, g, t = random_instance(rng, 3, 5, 2)
        with pytest.raises(FloatingPointError, match="float range"):
            solve_structured(d, np.zeros(2), g, t, alpha=1e-320, beta=1.0)
        stacked = build_dictionary(rng.normal(size=(2, 5, 3)), KernelGrid(lo=0.3, hi=3.0, count=2))
        t = np.stack([np.zeros((5, 3)), t])
        model = solve_structured(stacked, np.zeros((2, 2)), g, t, alpha=1e-320, beta=1.0)
        assert model.errors[0] is None and "float range" in model.errors[1]
        assert not model.psi.any()


class TestObjective:
    def test_zero_coefficients_leave_constant(self):
        rng = np.random.default_rng(8)
        d, g, t = random_instance(rng, 3, 4, 2)
        model = solve_dense(d, np.zeros(2), g, t, alpha=1.0, beta=0.0)
        zeroed = _with_psi(model, np.zeros_like(model.psi))
        assert krg_objective(zeroed, g, t) == pytest.approx(np.sum(t * t))
        assert krg_objective(zeroed, g, t, reduced=True) == pytest.approx(0.0)

    def test_reduced_differs_by_target_energy(self):
        rng = np.random.default_rng(9)
        d, g, t = random_instance(rng, 4, 3, 2)
        model = solve_dense(d, rng.uniform(0.1, 1, 2), g, t, 0.5, 0.5)
        full = krg_objective(model, g, t)
        reduced = krg_objective(model, g, t, reduced=True)
        assert full - reduced == pytest.approx(np.sum(t * t), rel=1e-12)

    def test_primal_identity_with_linear_kernel(self):
        # with an explicit feature map (linear kernel, phi(x) = x) the
        # kernel-space objective equals the primal ridge objective under
        # W = X^T Psi, for any Psi
        rng = np.random.default_rng(10)
        n, m, l = 5, 3, 4
        x = rng.normal(size=(n, l))
        d = build_dictionary(x, KernelGrid(LINEAR, count=1))
        a = np.abs(rng.normal(size=(m, m)))
        a = 0.5 * (a + a.T)
        np.fill_diagonal(a, 0.0)
        g = build_graph(a)
        t = rng.normal(size=(n, m))
        alpha, beta = 0.7, 1.3
        model = solve_dense(d, np.ones(1), g, t, alpha, beta)
        for psi in (model.psi, rng.normal(size=(n, m))):
            w = x.T @ psi
            y = x @ w
            primal = (
                np.sum((t - y) ** 2)
                + alpha * np.sum(w * w)
                + beta * sum(smoothness(g, y[i]) for i in range(n))
            )
            value = krg_objective(_with_psi(model, psi), g, t)
            assert value == pytest.approx(primal, rel=1e-9)

    def test_fitted_point_is_minimum(self):
        rng = np.random.default_rng(11)
        d, g, t = random_instance(rng, 3, 4, 2)
        model = solve_dense(d, rng.uniform(0.1, 1, 2), g, t, 0.6, 0.9)
        base = krg_objective(model, g, t)
        for _ in range(25):
            perturbed = _with_psi(model, model.psi + rng.normal(size=model.psi.shape))
            assert krg_objective(perturbed, g, t) > base

    def test_more_beta_means_smoother_training_predictions(self):
        rng = np.random.default_rng(12)
        d, g, t = random_instance(rng, 5, 6, 3)
        rho = rng.uniform(0.2, 1.0, size=3)
        roughness = []
        for beta in (0.0, 1.0, 10.0):
            model = solve_dense(d, rho, g, t, alpha=0.1, beta=beta)
            y = model.predict(d.training_inputs)
            roughness.append(sum(smoothness(g, y[i]) for i in range(6)))
        assert roughness[0] >= roughness[1] >= roughness[2]


class TestPredict:
    def test_zero_weights_zero_prediction(self):
        rng = np.random.default_rng(13)
        d, g, t = random_instance(rng, 3, 4, 2)
        model = solve_dense(d, np.zeros(2), g, t, alpha=1.0, beta=0.0)
        np.testing.assert_array_equal(model.predict(np.zeros(3)), np.zeros(3))

    def test_single_sample_shrinkage(self):
        # N=1 Gaussian: K = [1], prediction at the training input is t/(1+alpha)
        x = np.array([[2.0, -1.0]])
        d = build_dictionary(x, KernelGrid(GAUSSIAN, 1.0, 1.0, 1))
        g = build_graph(np.zeros((3, 3)))
        t = np.array([[3.0, -6.0, 9.0]])
        alpha = 0.5
        model = solve_dense(d, np.ones(1), g, t, alpha, beta=0.0)
        np.testing.assert_allclose(model.predict(x[0]), t[0] / (1 + alpha), atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(14)
        d, g, t = random_instance(rng, 3, 4, 2)
        model = solve_dense(d, rng.uniform(0.1, 1, 2), g, t, 0.5, 0.5)
        xs = rng.normal(size=(6, 3))
        batch = model.predict(xs)
        for i in range(6):
            np.testing.assert_allclose(batch[i], model.predict(xs[i]), atol=1e-12)

    def test_finite_predictions(self):
        rng = np.random.default_rng(15)
        d, g, t = random_instance(rng, 4, 5, 3)
        model = solve_dense(d, rng.uniform(0.1, 1, 3), g, t, 0.3, 2.0)
        out = model.predict(rng.normal(size=(8, 3)))
        assert np.all(np.isfinite(out))


def _with_psi(model, psi):
    from dataclasses import replace

    return replace(model, psi=psi)


def curve_instance(seed=50, n=600, m=4):
    """N inputs on a 3-D helix, whose wide Gaussians have numerical rank about 20."""
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0.0, 6.0, n))
    x = np.column_stack([np.cos(s), np.sin(s), 0.3 * s])
    d = build_dictionary(x, KernelGrid(lo=0.01, hi=10.0, count=20))
    _, g, _ = random_instance(rng, m, 2, 1)
    rho = np.zeros(20)
    rho[[12, 16]] = 1.0
    return d, rho, g, rng.normal(size=(n, m))


class TestLowRankRoute:
    @staticmethod
    def spy(monkeypatch):
        """Record what each low-rank attempt returned: True if it was kept."""
        kept = []
        route = solver._solve_low_rank

        def recording(*args):
            out = route(*args)
            kept.append(out is not None)
            return out

        monkeypatch.setattr(solver, "_solve_low_rank", recording)
        return kept

    @staticmethod
    def dense_route(monkeypatch, *args):
        with monkeypatch.context() as m:
            m.setattr(solver, "LOW_RANK_MIN_SIZE", np.inf)
            return solve_structured(*args)

    def test_low_rank_instance_matches_the_dense_oracle(self, monkeypatch, caplog):
        d, rho, g, t = curve_instance()
        assert d.num_samples >= solver.LOW_RANK_MIN_SIZE
        kept = self.spy(monkeypatch)
        with caplog.at_level("DEBUG", logger="graphkern.solver"):
            model = solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        assert kept == [True]
        assert "sketch rank" in caplog.text and "certified backward error" in caplog.text
        oracle = solve_dense(d, rho, g, t, alpha=0.1, beta=5.5)
        assert np.max(np.abs(model.psi - oracle.psi)) < 1e-8 * np.max(np.abs(oracle.psi))
        dense = self.dense_route(monkeypatch, d, rho, g, t, 0.1, 5.5)
        assert np.max(np.abs(model.psi - dense.psi)) < 1e-10 * np.max(np.abs(dense.psi))

    def test_full_rank_instance_falls_back_bit_for_bit(self, monkeypatch):
        rng = np.random.default_rng(51)
        d = build_dictionary(rng.normal(size=(300, 3)), KernelGrid(lo=0.01, hi=10.0, count=20))
        _, g, _ = random_instance(rng, 4, 2, 1)
        t = rng.normal(size=(300, 4))
        rho = np.zeros(20)
        rho[0] = 1.0  # the narrowest Gaussian: K is nearly the identity
        kept = self.spy(monkeypatch)
        model = solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        assert kept == [False]
        dense = self.dense_route(monkeypatch, d, rho, g, t, 0.1, 5.5)
        np.testing.assert_array_equal(model.psi.view(np.uint64), dense.psi.view(np.uint64))

    def test_failed_certificate_falls_back_bit_for_bit(self, monkeypatch):
        d, rho, g, t = curve_instance()
        monkeypatch.setattr(solver, "LOW_RANK_TOLERANCE", 0.0)
        kept = self.spy(monkeypatch)
        model = solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        assert kept == [False]
        dense = self.dense_route(monkeypatch, d, rho, g, t, 0.1, 5.5)
        np.testing.assert_array_equal(model.psi.view(np.uint64), dense.psi.view(np.uint64))

    def test_failed_sketch_eigh_falls_back_bit_for_bit(self, monkeypatch, caplog):
        d, rho, g, t = curve_instance()
        g.lap_eigvecs  # the graph's own eigh, before any fails
        eigh = np.linalg.eigh

        def failing_small(a):  # only the r x r eigh of F F^T, r < N
            if len(a) < d.num_samples:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return eigh(a)

        kept = self.spy(monkeypatch)
        monkeypatch.setattr(np.linalg, "eigh", failing_small)
        with caplog.at_level("DEBUG", logger="graphkern.solver"):
            model = solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        assert kept == [False]
        assert "no eigh of F F^T, dense eigh" in caplog.text
        dense = self.dense_route(monkeypatch, d, rho, g, t, 0.1, 5.5)
        np.testing.assert_array_equal(model.psi.view(np.uint64), dense.psi.view(np.uint64))

    def test_tiny_alpha_raises_as_the_dense_route_does(self, monkeypatch):
        d, rho, g, t = curve_instance()
        with pytest.raises(SingularSystemError, match="alpha") as dense:
            self.dense_route(monkeypatch, d, rho, g, t, 1e-12, 5.5)
        kept = self.spy(monkeypatch)
        with pytest.raises(SingularSystemError) as err:
            solve_structured(d, rho, g, t, alpha=1e-12, beta=5.5)
        assert kept == [False]
        assert str(err.value) == str(dense.value)

    def test_stacks_never_sketch(self, monkeypatch):
        d, rho, g, t = curve_instance()
        x = d.training_inputs
        stacked = build_dictionary(np.stack([x, x[::-1]]), KernelGrid(lo=0.01, hi=10.0, count=20))
        kept = self.spy(monkeypatch)
        model = solve_structured(stacked, np.stack([rho, rho]), g, np.stack([t, t[::-1]]),
                                 alpha=0.1, beta=5.5)
        assert kept == []
        assert model.errors == (None, None)

    def test_two_solves_give_identical_bytes(self):
        d, rho, g, t = curve_instance()
        first = solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        again = solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        assert first.psi.tobytes() == again.psi.tobytes()


def wide_curve_instance(seed=60, n=300, m=4):
    """N helix inputs and only wide Gaussians: every K(rho) of a fit is of low rank."""
    rng = np.random.default_rng(seed)
    s = np.sort(rng.uniform(0.0, 6.0, n))
    x = np.column_stack([np.cos(s), np.sin(s), 0.3 * s])
    d = build_dictionary(x, KernelGrid(lo=2.0, hi=10.0, count=6))
    _, g, _ = random_instance(rng, m, 2, 1)
    return d, g, rng.normal(size=(n, m))


class TestFitSketch:
    """What the low-rank solves of one fit share: one Omega, and a refusal."""

    def test_a_fit_draws_omega_once(self, monkeypatch):
        d, g, t = wide_curve_instance()
        kept = TestLowRankRoute.spy(monkeypatch)
        draws = []
        default_rng = np.random.default_rng

        def counting(*args):
            draws.append(args)
            return default_rng(*args)

        monkeypatch.setattr(solver.np.random, "default_rng", counting)
        _, trace = optimize(d, g, t, SolverConfig(mu0=0.01, i_max=20, epsilon=1e-10), 0.1, 5.5)
        assert trace.iterations_used >= 2
        assert kept == [True] * trace.iterations_used  # every nonzero solve, the final one too
        assert draws == [(d.num_samples,)]

    def test_a_fit_refuses_a_sketch_once(self, monkeypatch):
        # the narrowest Gaussians make K nearly the identity: no sketch fits
        rng = np.random.default_rng(51)
        d = build_dictionary(rng.normal(size=(300, 3)), KernelGrid(lo=0.01, hi=0.05, count=3))
        _, g, _ = random_instance(rng, 4, 2, 1)
        t = rng.normal(size=(300, 4))
        kept = TestLowRankRoute.spy(monkeypatch)
        _, trace = optimize(d, g, t, SolverConfig(mu0=0.01, i_max=20, epsilon=1e-10), 0.1, 5.5)
        assert trace.iterations_used >= 2  # two solves at nonzero weights, at least
        assert kept == [False]
        # a solve alone has no fit to remember the refusal
        for _ in range(2):
            solve_structured(d, np.ones(3), g, t, 0.1, 5.5)
        assert kept == [False] * 3


class TestCholeskyBreakdown:
    # with 10 distinct inputs K has rank 10, below the second block of its
    # sketch: the core's Cholesky factorization breaks down, and the
    # shifted core of Tropp et al. is factored instead
    @staticmethod
    def repeated_instance(rng, n=300):
        x = np.repeat(rng.normal(size=(10, 3)), n // 10, axis=0)
        d = build_dictionary(x, KernelGrid(lo=0.01, hi=10.0, count=20))
        _, g, _ = random_instance(rng, 4, 2, 1)
        rho = np.zeros(20)
        rho[[3, 12]] = 1.0
        return d, rho, g, rng.normal(size=(n, 4))

    def test_rank_deficient_kernel_is_certified(self, monkeypatch, caplog):
        d, rho, g, t = self.repeated_instance(np.random.default_rng(52))
        kept = TestLowRankRoute.spy(monkeypatch)
        with caplog.at_level("DEBUG", logger="graphkern.solver"):
            model = solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        assert "core breaks down" in caplog.text and "certified backward error" in caplog.text
        assert kept == [True]
        dense = TestLowRankRoute.dense_route(monkeypatch, d, rho, g, t, 0.1, 5.5)
        assert np.max(np.abs(model.psi - dense.psi)) < 1e-10 * np.max(np.abs(dense.psi))

    def test_zero_kernel_falls_back_bit_for_bit(self, monkeypatch, caplog):
        # K = 0 at a nonzero weight: even the shifted core is zero
        rng = np.random.default_rng(53)
        d = build_dictionary(np.zeros((200, 3)), KernelGrid(LINEAR, count=1))
        _, g, _ = random_instance(rng, 4, 2, 1)
        t = rng.normal(size=(200, 4))
        kept = TestLowRankRoute.spy(monkeypatch)
        with caplog.at_level("DEBUG", logger="graphkern.solver"):
            model = solve_structured(d, np.ones(1), g, t, alpha=0.1, beta=5.5)
        assert "no shifted Cholesky factor" in caplog.text
        assert kept == [False]
        dense = TestLowRankRoute.dense_route(monkeypatch, d, np.ones(1), g, t, 0.1, 5.5)
        np.testing.assert_array_equal(model.psi.view(np.uint64), dense.psi.view(np.uint64))


def linear_instance(seed, features, n=300, m=4, tail=1.0):
    """N random inputs under the linear kernel: K = X X^T has rank ``features``.

    The last feature is scaled by ``tail``, which makes the least
    eigenvalue of K about ``tail**2`` times the others.
    """
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, features))
    x[:, -1] *= tail
    d = build_dictionary(x, KernelGrid(LINEAR, count=1))
    _, g, _ = random_instance(rng, m, 2, 1)
    return d, np.ones(1), g, rng.normal(size=(n, m))


def round_off_pivot_instance():
    """``(d, rho, g, t)`` whose sketch stops at rank 20 on a pivot in the round-off band.

    20 linear features, the last scaled by 3e-7: K's 20th eigenvalue is
    about 1e-13 of the others, so the core's 20th pivot, the last of the
    sketch's second block, reads 1.1e-10 against a round-off bound of
    4.8e-10, under one BLAS thread and under two.  At rank 19 exactly the
    pivot would be pure round-off, and its sign, a stop or a breakdown,
    would depend on the thread setting.
    """
    return linear_instance(54, 20, tail=3e-7)


class TestRoundOffPivot:
    # the core's last pivot falls in the round-off band without a
    # breakdown, so L^-1 inverts a pivot that the sketch counts as noise
    def test_kept_solution_passes_the_certificate_with_the_largest_eigenvalue(
        self, monkeypatch, caplog
    ):
        d, _, g, t = round_off_pivot_instance()
        alpha, beta = 0.1, 5.5
        kept = TestLowRankRoute.spy(monkeypatch)
        with caplog.at_level("DEBUG", logger="graphkern.solver"):
            model = solve_structured(d, np.ones(1), g, t, alpha, beta)
        stop = re.search(r"stops at rank 20 on a pivot of (\S+) \(floor \S+, round-off (\S+)\)",
                         caplog.text)
        assert stop and float(stop[1]) <= float(stop[2])
        assert kept == [True]
        # the backward error, bounded with K's own largest eigenvalue
        k = combine(d, np.ones(1))
        scale = 1.0 + beta * g.lap_eigvals
        t_rot, psi_rot = t @ g.lap_eigvecs, model.psi @ g.lap_eigvecs
        residual = t_rot - scale * (k @ psi_rot) - alpha * psi_rot
        bound = (np.linalg.norm(psi_rot * (np.linalg.eigvalsh(k)[-1] * scale + alpha))
                 + np.linalg.norm(t_rot))
        assert np.linalg.norm(residual) <= solver.LOW_RANK_TOLERANCE * bound
        dense = TestLowRankRoute.dense_route(monkeypatch, d, np.ones(1), g, t, alpha, beta)
        assert np.max(np.abs(model.psi - dense.psi)) < 1e-10 * np.max(np.abs(dense.psi))


def factor_instance(name):
    """``(d, rho, g, t)`` of one low-rank solve.

    The sketches of ``curve`` and ``wide_curve`` break down; that of
    ``round_off_pivot`` stops on a pivot at round-off.
    """
    if name == "curve":
        return curve_instance()
    if name == "wide_curve":
        d, g, t = wide_curve_instance()
        return d, np.ones(6), g, t
    return round_off_pivot_instance()


def rotated_system(d, rho, g, t, alpha, beta):
    """``(K, T~, scale, floor)``: one solve's inputs in graph-spectral coordinates."""
    scale = 1.0 + beta * g.lap_eigvals
    return combine(d, rho), t @ g.lap_eigvecs, scale, solver._SKETCH_FLOOR * alpha / scale.max()


class TestGrowingFactor:
    """The factor grown with the sketch, against the core refactored at every block."""

    @pytest.mark.parametrize("name, route", [
        ("curve", "core breaks down at sketch rank 38"),
        ("wide_curve", "core breaks down at sketch rank 30"),
        ("round_off_pivot", "sketch stops at rank 20"),
    ])
    def test_matches_the_refactored_factor(self, name, route, caplog):
        k, t_rot, scale, floor = rotated_system(*factor_instance(name), 0.1, 5.5)
        with caplog.at_level("DEBUG", logger="graphkern.solver"):
            rank, kappa, _ = solver._nystrom_eigenbasis(k, floor, solver._Sketch())
        assert route in caplog.text
        old_rank, old_kappa, old_psi = low_rank_solve_refactored(k, t_rot, scale, 0.1)
        assert rank == old_rank
        # a mode that one side keeps at round-off and the other drops counts
        # as 0, the eigenvalue off the sketched range
        width = max(len(kappa), len(old_kappa))
        grown, refactored = (np.concatenate([np.zeros(width - len(v)), v])
                             for v in (kappa, old_kappa))
        assert np.max(np.abs(grown - refactored)) <= 1e-9 * old_kappa.max()
        psi = solver._solve_low_rank(k, t_rot, scale, 0.1, solver._Sketch())
        assert psi is not None
        assert np.max(np.abs(psi - old_psi)) <= 1e-9 * np.max(np.abs(old_psi))

    @pytest.mark.parametrize("name", ["curve", "wide_curve"])
    def test_rows_computed_ahead_never_move_a_stop_rank_in_a_fit(self, monkeypatch, name):
        d, _, g, t = factor_instance(name)
        calls = []
        basis = solver._nystrom_eigenbasis

        def recording(k, floor, sketch):
            ahead = sketch.rank
            out = basis(k, floor, sketch)
            calls.append((k.copy(), floor, ahead, out[0]))
            return out

        monkeypatch.setattr(solver, "_nystrom_eigenbasis", recording)
        optimize(d, g, t, SolverConfig(mu0=0.01, i_max=3, epsilon=1e-10), 0.1, 5.5)
        assert len(calls) >= 2
        assert all(ahead > 0 for _, _, ahead, _ in calls[1:])
        for k, floor, _, rank in calls:
            assert basis(k, floor, solver._Sketch())[0] == rank

    def test_rows_beyond_a_lower_stop_are_discarded(self, caplog):
        # the second K has rank 9, below the first's 29: the second sketch
        # computes 30 rows ahead and stops at 10
        high, rho, g, t = linear_instance(55, 29)
        low = linear_instance(56, 9)[0]
        sketch = solver._Sketch()
        first, _, _, floor = rotated_system(high, rho, g, t, 0.1, 5.5)
        second = combine(low, rho)
        wide = solver._nystrom_eigenbasis(first, floor, sketch)[0]
        with caplog.at_level("DEBUG", logger="graphkern.solver"):
            narrow = solver._nystrom_eigenbasis(second, floor, sketch)[0]
        assert narrow < wide
        assert f"{narrow} of {wide} rows computed ahead used" in caplog.text
        assert narrow == solver._nystrom_eigenbasis(second, floor, solver._Sketch())[0]

    @pytest.mark.parametrize("name", ["curve", "wide_curve", "round_off_pivot"])
    def test_nothing_wider_than_one_block_is_factored_or_inverted(self, monkeypatch, name):
        d, rho, g, t = factor_instance(name)
        g.lap_eigvecs  # the graph's own eigh, done before patching
        widths = {"cholesky": [], "inv": []}
        for routine, seen in widths.items():
            def recording(a, _routine=getattr(np.linalg, routine), _seen=seen):
                _seen.append(a.shape[-1])
                return _routine(a)

            monkeypatch.setattr(solver.np.linalg, routine, recording)
        kept = TestLowRankRoute.spy(monkeypatch)
        solve_structured(d, rho, g, t, alpha=0.1, beta=5.5)
        assert kept == [True]
        block = -(-d.num_samples // solver._SKETCH_STEPS)
        assert widths["cholesky"] and max(widths["cholesky"]) <= block
        assert widths["inv"] and max(widths["inv"]) <= block
