"""Noise model, NMSE, trials, Monte-Carlo aggregation, and grid search."""

import numpy as np
import pytest

from graphkern import (
    ExperimentConfig,
    ExperimentDataset,
    GAUSSIAN,
    KernelDictionary,
    KernelSpec,
    SolverConfig,
    add_noise_snr,
    build_graph,
    grid_search_hyperparams,
    make_synthetic_dataset,
    monte_carlo,
    nmse,
    run_trial,
    solve_structured,
)
from graphkern.experiment import (
    DEFAULT_SINGLE_PARAMS,
    METHOD_MULTI,
    METHOD_SINGLE,
    ExperimentError,
    n_train_sweep,
    trial_seed,
)


@pytest.fixture(scope="module")
def small_dataset():
    return make_synthetic_dataset(num_nodes=10, num_pairs=24, num_modes=4, seed=1)


class TestAddNoise:
    def test_zero_db_matches_signal_power(self):
        rng = np.random.default_rng(0)
        t = rng.normal(size=(40, 25))
        noisy = add_noise_snr(t, 0.0, seed=42)
        noise_power = np.mean((noisy - t) ** 2)
        signal_power = np.mean(t**2)
        assert noise_power == pytest.approx(signal_power, rel=0.1)

    def test_huge_snr_is_noiseless(self):
        rng = np.random.default_rng(1)
        t = rng.normal(size=(6, 4))
        noisy = add_noise_snr(t, 300.0, seed=0)
        assert np.max(np.abs(noisy - t)) < 1e-10

    def test_deterministic_given_seed(self):
        t = np.ones((3, 3))
        a = add_noise_snr(t, 0.0, seed=7)
        b = add_noise_snr(t, 0.0, seed=7)
        np.testing.assert_array_equal(a, b)
        c = add_noise_snr(t, 0.0, seed=8)
        assert np.any(a != c)

    def test_empirical_snr_within_half_db(self):
        rng = np.random.default_rng(2)
        t = rng.normal(size=(8, 5))
        signal_power = np.mean(t**2)
        for target_db in (-3.0, 0.0, 10.0):
            noise_powers = [
                np.mean((add_noise_snr(t, target_db, seed=k) - t) ** 2)
                for k in range(1000)
            ]
            measured_db = 10 * np.log10(signal_power / np.mean(noise_powers))
            assert abs(measured_db - target_db) < 0.5

    def test_zero_signal_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            add_noise_snr(np.zeros((2, 2)), 0.0, seed=0)


class TestNmse:
    def test_perfect_prediction(self):
        t = np.arange(6.0).reshape(2, 3) + 1
        assert nmse(t, t) == 0.0

    def test_zero_prediction(self):
        t = np.arange(6.0).reshape(2, 3) + 1
        assert nmse(np.zeros_like(t), t) == pytest.approx(1.0)

    def test_doubled_prediction(self):
        t = np.arange(6.0).reshape(2, 3) + 1
        assert nmse(2 * t, t) == pytest.approx(1.0)

    def test_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            nmse(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="zero"):
            nmse(np.ones((2, 2)), np.zeros((2, 2)))


class TestSyntheticDataset:
    def test_shapes_and_scale(self):
        ds = make_synthetic_dataset(num_nodes=12, num_pairs=30, seed=3)
        assert ds.inputs.shape == (30, 12)
        assert ds.targets.shape == (30, 12)
        np.testing.assert_array_equal(ds.inputs[1:], ds.targets[:-1])
        sq = ((ds.inputs[:, None, :] - ds.inputs[None, :, :]) ** 2).sum(-1)
        mean_sq = sq.sum() / (30 * 29)
        assert mean_sq == pytest.approx(6.0, rel=0.2)

    def test_targets_smoother_than_noise(self):
        from graphkern import smoothness

        ds = make_synthetic_dataset(num_nodes=15, num_pairs=20, seed=4)
        rng = np.random.default_rng(0)
        target_energy = np.mean(ds.targets**2)
        signal_rough = np.mean(
            [smoothness(ds.graph, row) / np.sum(row**2) for row in ds.targets]
        )
        noise = rng.normal(scale=np.sqrt(target_energy), size=ds.targets.shape)
        noise_rough = np.mean(
            [smoothness(ds.graph, row) / np.sum(row**2) for row in noise]
        )
        assert signal_rough < 0.5 * noise_rough

    def test_geodesic_mode(self):
        ds = make_synthetic_dataset(num_nodes=6, num_pairs=10, seed=5, mode="geodesic")
        assert ds.coords.mode == "geodesic"
        assert ds.graph.num_nodes == 6

    def test_deterministic(self):
        a = make_synthetic_dataset(num_nodes=8, num_pairs=12, seed=6)
        b = make_synthetic_dataset(num_nodes=8, num_pairs=12, seed=6)
        np.testing.assert_array_equal(a.inputs, b.inputs)


class TestRunTrial:
    def test_zero_noise_large_train_fits_well(self, small_dataset):
        # interpolation-friendly regime: no noise, light ridge, no graph
        # penalty; the 0.1 bound was calibrated on a pilot run
        cfg = ExperimentConfig(
            snr_db=300.0, n_train=20, n_realizations=1, alpha=0.001, beta=0.0,
            grid_count=30, master_seed=0,
        )
        result = run_trial(small_dataset, cfg, trial_seed(0, 0))
        assert not result.errors
        assert result.nmse[METHOD_MULTI] < 0.1

    def test_interpolation_regime_training_nmse(self, small_dataset):
        # fitting and evaluating on the same noiseless block: near-zero error
        cfg = ExperimentConfig(
            snr_db=300.0, n_train=12, n_realizations=1, alpha=1e-6, beta=0.0,
            grid_count=20, master_seed=1,
        )
        seed = trial_seed(1, 0)
        rng = np.random.default_rng(seed.spawn(2)[0])
        perm = rng.permutation(small_dataset.num_pairs)
        idx = perm[:12]
        x, t = small_dataset.inputs[idx], small_dataset.targets[idx]
        from graphkern import build_dictionary, optimize

        d = build_dictionary(x, span=cfg.grid_span, count=20)
        weights, _, _ = optimize(d, small_dataset.graph, t, cfg.solver, 1e-6, 0.0)
        model = solve_structured(d, weights.rho, small_dataset.graph, t, 1e-6, 0.0)
        assert nmse(model.predict(x), t) < 1e-6

    def test_multi_kernel_fit_solves_once_per_iteration_plus_one(
        self, small_dataset, monkeypatch
    ):
        from graphkern import experiment, mkl
        from graphkern.experiment import _fit_method

        solves = []

        def counting(*args):
            solves.append(args)
            return solve_structured(*args)

        for module in (experiment, mkl):
            monkeypatch.setattr(module, "solve_structured", counting)
        cfg = ExperimentConfig(n_train=12, n_realizations=1, grid_count=20)
        x, t = small_dataset.inputs[:12], small_dataset.targets[:12]
        model, trace = _fit_method(METHOD_MULTI, x, t, small_dataset.graph, cfg)
        iterations = trace.iterations_used
        assert iterations >= 1
        assert len(solves) == iterations + 1
        np.testing.assert_array_equal(solves[-1][1], model.rho)

    def test_reference_configuration_runs(self, small_dataset):
        # the n_train=30 defaults (alpha 0.1, beta 5.5, R 5, mu0 0.01)
        cfg = ExperimentConfig(n_train=16, n_realizations=1, master_seed=2)
        result = run_trial(small_dataset, cfg, trial_seed(2, 0))
        assert not result.errors
        assert set(result.nmse) == {"linear", "single_kernel", "multi_kernel"}
        assert abs(np.sum(result.rho) - cfg.solver.radius) < 1e-3  # on the boundary
        assert result.iterations >= 1

    def test_rho_always_feasible(self, small_dataset):
        cfg = ExperimentConfig(n_train=8, n_realizations=1, master_seed=3)
        for i in range(5):
            result = run_trial(small_dataset, cfg, trial_seed(3, i))
            assert np.all(result.rho >= 0)
            assert np.sum(result.rho) <= cfg.solver.radius + 1e-9

    def test_too_small_dataset_rejected(self, small_dataset):
        cfg = ExperimentConfig(n_train=24, n_realizations=1)
        with pytest.raises(ValueError, match="pairs"):
            run_trial(small_dataset, cfg, trial_seed(0, 0))

    def test_fixed_weights_match_single_kernel_path(self, small_dataset):
        # a multi-kernel dictionary with all weight on the unit-variance
        # kernel must predict exactly like the single-kernel model
        rng = np.random.default_rng(4)
        idx = rng.permutation(small_dataset.num_pairs)[:10]
        x, t = small_dataset.inputs[idx], small_dataset.targets[idx]
        g = small_dataset.graph
        multi = KernelDictionary.from_specs(
            x,
            [KernelSpec(GAUSSIAN, 0.25), KernelSpec(GAUSSIAN, 1.0), KernelSpec(GAUSSIAN, 4.0)],
        )
        single = KernelDictionary.from_specs(x, [KernelSpec(GAUSSIAN, 1.0)])
        one_hot = np.array([0.0, 1.0, 0.0])
        m_multi = solve_structured(multi, one_hot, g, t, 0.1, 5.5)
        m_single = solve_structured(single, np.ones(1), g, t, 0.1, 5.5)
        x_eval = small_dataset.inputs[idx[:4]]
        np.testing.assert_allclose(
            m_multi.predict(x_eval), m_single.predict(x_eval), atol=1e-10
        )


class TestMonteCarlo:
    def test_single_realization_equals_trial(self, small_dataset):
        cfg = ExperimentConfig(n_train=8, n_realizations=1, master_seed=5)
        report = monte_carlo(small_dataset, cfg)
        trial = run_trial(small_dataset, cfg, trial_seed(5, 0))
        for method, value in trial.nmse.items():
            assert report.nmse_mean[method] == pytest.approx(value)
            assert report.nmse_std[method] == pytest.approx(0.0)

    def test_deterministic_given_master_seed(self, small_dataset):
        cfg = ExperimentConfig(n_train=8, n_realizations=4, master_seed=6)
        r1 = monte_carlo(small_dataset, cfg)
        r2 = monte_carlo(small_dataset, cfg)
        assert r1.nmse_mean == r2.nmse_mean
        assert r1.nmse_std == r2.nmse_std
        np.testing.assert_array_equal(r1.representative_rho, r2.representative_rho)

    def test_failure_majority_aborts_with_partial_report(self, small_dataset):
        # alpha = 0 makes the multi-kernel solve singular in every trial
        cfg = ExperimentConfig(
            n_train=8, n_realizations=3, alpha=0.0, beta=0.0, master_seed=8
        )
        with pytest.raises(ExperimentError) as excinfo:
            monte_carlo(small_dataset, cfg)
        report = excinfo.value.partial_report
        assert report.n_failed == 3
        assert report.n_ok["linear"] == 3  # the other methods still scored

    def test_sweep_reapplies_size_defaults(self, small_dataset):
        cfg = ExperimentConfig(n_train=4, n_realizations=2, master_seed=9)
        reports = n_train_sweep(small_dataset, cfg, n_train_values=(4, 8))
        assert [r.config.n_train for r in reports] == [4, 8]
        assert reports[0].config.alpha == DEFAULT_SINGLE_PARAMS[4][0]
        assert reports[1].config.alpha == DEFAULT_SINGLE_PARAMS[8][0]


class TestGridSearch:
    def test_single_point_grid(self, small_dataset):
        cfg = ExperimentConfig(n_train=10, n_realizations=1, master_seed=10)
        best = grid_search_hyperparams(
            small_dataset, METHOD_SINGLE, [0.3], [1.5], cfg
        )
        assert best == (0.3, 1.5)

    def test_linear_ignores_beta_grid(self, small_dataset):
        cfg = ExperimentConfig(n_train=10, n_realizations=1, master_seed=11)
        alpha, beta = grid_search_hyperparams(
            small_dataset, "linear", [0.5, 5.0], [1.0, 2.0], cfg
        )
        assert beta == 0.0
        assert alpha in (0.5, 5.0)

    def test_smoothness_prior_wins_under_noise(self):
        # at 0 dB on smooth targets the beta = 5.5 column must beat beta = 0
        ds = make_synthetic_dataset(num_nodes=12, num_pairs=30, num_modes=3, seed=12)
        cfg = ExperimentConfig(n_train=15, n_realizations=1, master_seed=12)
        _, beta = grid_search_hyperparams(ds, METHOD_SINGLE, [0.1], [0.0, 5.5], cfg)
        assert beta == 5.5

    def test_finite_positive_selection(self, small_dataset):
        cfg = ExperimentConfig(n_train=10, n_realizations=1, master_seed=13)
        alpha, beta = grid_search_hyperparams(
            small_dataset, METHOD_SINGLE, [0.02, 0.1, 1.0], [0.0, 5.5, 20.0], cfg
        )
        assert np.isfinite(alpha) and alpha > 0
        assert np.isfinite(beta) and beta >= 0

    def test_empty_grid_rejected(self, small_dataset):
        cfg = ExperimentConfig(n_train=10, n_realizations=1)
        with pytest.raises(ValueError, match="nonempty"):
            grid_search_hyperparams(small_dataset, METHOD_SINGLE, [], [1.0], cfg)

    @pytest.mark.parametrize("method", [METHOD_SINGLE, "linear"])
    def test_non_finite_alpha_refused_by_config(self, small_dataset, method):
        # each grid point is an ExperimentConfig, which validates it
        cfg = ExperimentConfig(n_train=10, n_realizations=1)
        with pytest.raises(ValueError, match="alpha"):
            grid_search_hyperparams(small_dataset, method, [0.1, np.nan], [1.0], cfg)


class TestSeedDerivation:
    def test_trial_seeds_are_spawn_children(self):
        master = 123456789
        parent = np.random.SeedSequence(master)
        children = parent.spawn(3)
        for i in range(3):
            independent = trial_seed(master, i)
            assert independent.entropy == children[i].entropy
            assert independent.spawn_key == children[i].spawn_key

    def test_config_validation(self):
        with pytest.raises(ValueError, match="n_realizations"):
            ExperimentConfig(n_realizations=0)
        with pytest.raises(ValueError, match="n_train"):
            ExperimentConfig(n_train=0)
        with pytest.raises(ValueError, match="q"):
            ExperimentConfig(solver=SolverConfig(q=3))


class TestDatasetValidation:
    def test_target_width_must_match_graph(self):
        g = build_graph(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="nodes"):
            ExperimentDataset(np.zeros((5, 3)), np.zeros((5, 3)), g)
