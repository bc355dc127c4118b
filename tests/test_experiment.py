"""Noise model, NMSE, trials, Monte-Carlo aggregation, and grid search."""

import tracemalloc

import numpy as np
import pytest

from graphkern import (
    ExperimentConfig,
    ExperimentDataset,
    GAUSSIAN,
    KernelGrid,
    NodeCoordinates,
    SolverConfig,
    add_noise_snr,
    build_dictionary,
    build_graph,
    geodesic_adjacency,
    grid_search_hyperparams,
    make_synthetic_dataset,
    monte_carlo,
    nmse,
    run_trial,
    experiment,
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

    def test_scale_of_a_series_whose_squared_distances_overflow(self):
        # amplitudes up to 1e160: squared distances beyond float range, unless
        # measured on the series scaled down
        ds = make_synthetic_dataset(num_nodes=8, num_pairs=12, num_modes=3, mode_decay=1e80,
                                    seed=3)
        series = np.vstack([ds.inputs, ds.targets[-1:]])
        sq = ((series[:, None, :] - series[None, :, :]) ** 2).sum(-1)
        assert sq.sum() / (13 * 12) == pytest.approx(6.0, rel=1e-12)

    def test_series_beyond_float_range_is_refused_silently(self):
        # pytest turns a RuntimeWarning into an error
        with pytest.raises(ValueError, match="training data contains NaN or Inf"):
            make_synthetic_dataset(num_nodes=8, num_pairs=12, mode_decay=1e308, seed=3)

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
        # the graph is that of the generator's positions under the great-circle distance
        rng = np.random.default_rng(5)
        lat = rng.uniform(55.0, 69.0, size=6)
        positions = np.column_stack([lat, rng.uniform(11.0, 24.0, size=6)])
        graph = build_graph(geodesic_adjacency(NodeCoordinates(positions, "geodesic")))
        np.testing.assert_array_equal(ds.graph.adjacency, graph.adjacency)

    def test_deterministic(self):
        a = make_synthetic_dataset(num_nodes=8, num_pairs=12, seed=6)
        b = make_synthetic_dataset(num_nodes=8, num_pairs=12, seed=6)
        np.testing.assert_array_equal(a.inputs, b.inputs)

    @staticmethod
    def broadcast_dataset(num_nodes, num_pairs, num_modes, seed):
        """(inputs, targets) of the Euclidean generator, scaled by the mean of
        one (P + 1) x (P + 1) x M array of all row differences."""
        rng = np.random.default_rng(seed)
        coords = NodeCoordinates(rng.uniform(0.0, 1.0, size=(num_nodes, 2)), mode="euclidean")
        u = build_graph(geodesic_adjacency(coords)).lap_eigvecs[:, :num_modes]
        freqs = rng.uniform(0.02, 0.12, size=num_modes)
        phases = rng.uniform(0.0, 2.0 * np.pi, size=num_modes)
        t_axis = np.arange(num_pairs + 1)
        coeffs = 0.7 ** np.arange(num_modes) * np.cos(
            2.0 * np.pi * np.outer(t_axis, freqs) + phases)
        coeffs[:, 0] += 1.0
        series = coeffs @ u.T
        sq = np.sum((series[:, None, :] - series[None, :, :]) ** 2, axis=-1)
        series = series * np.sqrt(6.0 / (float(np.sum(sq)) / (sq.shape[0] * (sq.shape[0] - 1))))
        return series[:-1], series[1:]

    @pytest.mark.parametrize("shape", [(60, 45, 8), (119, 7, 7), (8, 3, 2)])
    def test_scale_has_the_bits_of_the_broadcast(self, shape):
        num_pairs, num_nodes, num_modes = shape
        ds = make_synthetic_dataset(num_nodes=num_nodes, num_pairs=num_pairs,
                                    num_modes=num_modes, seed=num_pairs)
        inputs, targets = self.broadcast_dataset(num_nodes, num_pairs, num_modes, num_pairs)
        for got, expected in ((ds.inputs, inputs), (ds.targets, targets)):
            np.testing.assert_array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_memory_holds_no_pairs_by_pairs_by_nodes_array(self):
        p, m = 301, 100  # the P = 300 pairs take 301 rows of M = 100 nodes
        make_synthetic_dataset(num_nodes=4, num_pairs=4)  # load what a first call loads
        tracemalloc.start()
        try:
            make_synthetic_dataset(num_nodes=m, num_pairs=p - 1, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # What the function must hold, in doubles: the P x P squared
        # distances, at most four P x M arrays at once (the series, its
        # scaled copy, one row's differences and their squares) and at most
        # eight M x M arrays of the graph.  A P x P x M array of differences
        # alone is 72 MB here.
        bound = 8 * (p * p + 4 * p * m + 8 * m * m)
        assert peak < bound, f"peak traced allocation {peak / 1e6:.2f} MB"


class TestRunTrial:
    def test_zero_noise_large_train_fits_well(self, small_dataset):
        # interpolation-friendly regime: no noise, light ridge, no graph
        # penalty; the 0.1 bound was calibrated on a pilot run
        cfg = ExperimentConfig(
            snr_db=300.0, n_train=20, n_realizations=1, alpha=0.001, beta=0.0,
            grid=KernelGrid(count=30), master_seed=0,
        )
        result = run_trial(small_dataset, cfg, trial_seed(0, 0))
        assert not result.errors
        assert result.nmse[METHOD_MULTI] < 0.1

    def test_interpolation_regime_training_nmse(self, small_dataset):
        # fitting and evaluating on the same noiseless block: near-zero error
        cfg = ExperimentConfig(
            snr_db=300.0, n_train=12, n_realizations=1, alpha=1e-6, beta=0.0,
            grid=KernelGrid(count=20), master_seed=1,
        )
        seed = trial_seed(1, 0)
        rng = np.random.default_rng(seed.spawn(2)[0])
        perm = rng.permutation(small_dataset.num_pairs)
        idx = perm[:12]
        x, t = small_dataset.inputs[idx], small_dataset.targets[idx]
        from graphkern import optimize

        d = build_dictionary(x, cfg.grid)
        fitted, _ = optimize(d, small_dataset.graph, t, cfg.solver, 1e-6, 0.0)
        model = solve_structured(d, fitted.rho, small_dataset.graph, t, 1e-6, 0.0)
        assert nmse(model.predict(x), t) < 1e-6

    def test_multi_kernel_fit_solves_once_per_iteration_plus_one(
        self, small_dataset, monkeypatch
    ):
        from graphkern import mkl, solver
        from graphkern.experiment import _fit_method

        solves = []

        route = solver._solve_rotated

        def counting(*args):
            solves.append(args)
            return route(*args)

        # every solve: the optimizer's and public solve_structured's
        for module in (solver, mkl):
            monkeypatch.setattr(module, "_solve_rotated", counting)
        cfg = ExperimentConfig(n_train=12, n_realizations=1, grid=KernelGrid(count=20))
        x, t = small_dataset.inputs[:12], small_dataset.targets[:12]
        model, trace = _fit_method(
            METHOD_MULTI, build_dictionary(x, cfg.grid), t, small_dataset.graph, cfg
        )
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

    def test_integer_seed_is_its_seed_sequence(self, small_dataset):
        cfg = ExperimentConfig(n_train=8, n_realizations=1, master_seed=3)
        by_int = run_trial(small_dataset, cfg, 7)
        by_sequence = run_trial(small_dataset, cfg, np.random.SeedSequence(7))
        assert by_int.nmse == by_sequence.nmse
        np.testing.assert_array_equal(by_int.rho, by_sequence.rho)

    def test_unknown_method_rejected(self, small_dataset):
        from graphkern.experiment import _fit_method

        cfg = ExperimentConfig(n_train=8, n_realizations=1)
        x, t = small_dataset.inputs[:8], small_dataset.targets[:8]
        with pytest.raises(ValueError, match="^unknown method 'ridge'$"):
            _fit_method("ridge", build_dictionary(x, cfg.grid), t, small_dataset.graph, cfg)

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
        multi = build_dictionary(x, KernelGrid(GAUSSIAN, 0.25, 1.75, 3))  # 0.25, 1.0, 1.75
        single = build_dictionary(x, KernelGrid(GAUSSIAN, 1.0, 1.0, 1))
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

    def test_training_sets_are_held_without_a_copy(self, small_dataset, monkeypatch):
        # the batches and the grid search hand their gathered training rows
        # over read-only, so that the dictionary need not copy them
        held = []

        def spying_build(x, grid):
            read_only = not x.flags.writeable
            dictionary = build_dictionary(x, grid)
            held.append(read_only and dictionary.training_inputs is x)
            return dictionary

        monkeypatch.setattr(experiment, "build_dictionary", spying_build)
        cfg = ExperimentConfig(n_train=8, n_realizations=3, grid=KernelGrid(count=8),
                               master_seed=7)
        monte_carlo(small_dataset, cfg)
        grid_search_hyperparams(small_dataset, METHOD_SINGLE, [0.1], [1.0], cfg)
        assert held == [True, True]

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

    def test_a_singular_point_is_skipped(self, small_dataset, caplog):
        # a kernel this wide is near constant, so alpha = 0 is singular at
        # every beta; the search picks among the points that fit
        cfg = ExperimentConfig(n_train=10, n_realizations=1, master_seed=14, single_sigma_sq=1e6)
        with caplog.at_level("WARNING", logger="graphkern.experiment"):
            best = grid_search_hyperparams(small_dataset, METHOD_SINGLE, [0, 0.1], [0, 1], cfg)
        assert best == grid_search_hyperparams(small_dataset, METHOD_SINGLE, [0.1], [0, 1], cfg)
        assert best[0] == 0.1
        skipped = [r.getMessage() for r in caplog.records if "grid search skips" in r.getMessage()]
        assert len(skipped) == 2 and all("alpha=0 " in m for m in skipped)

    def test_every_point_failing_raises_the_last_error(self, small_dataset):
        cfg = ExperimentConfig(n_train=10, n_realizations=1, master_seed=14, single_sigma_sq=1e6)
        with pytest.raises(ExperimentError, match="every point failed") as both:
            grid_search_hyperparams(small_dataset, METHOD_SINGLE, [0], [0, 1], cfg)
        with pytest.raises(ExperimentError, match="condition estimate") as last:
            grid_search_hyperparams(small_dataset, METHOD_SINGLE, [0], [1], cfg)
        with pytest.raises(ExperimentError) as first:
            grid_search_hyperparams(small_dataset, METHOD_SINGLE, [0], [0], cfg)
        assert str(both.value) == str(last.value) != str(first.value)

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
        for count in (100_001, 1e308, np.nan):
            with pytest.raises(ValueError, match="n_realizations must be between 1 and 100000"):
                ExperimentConfig(n_realizations=count)
        assert ExperimentConfig(n_realizations=100_000).n_realizations == 100_000
        with pytest.raises(ValueError, match="n_train"):
            ExperimentConfig(n_train=0)
        with pytest.raises(ValueError, match="q"):
            ExperimentConfig(solver=SolverConfig(q=3))
        with pytest.raises(ValueError, match="master_seed"):
            ExperimentConfig(master_seed=-1)

    @pytest.mark.parametrize("snr_db", [np.inf, -np.inf, np.nan, 3001.0, -3001.0])
    def test_snr_db_must_be_finite(self, snr_db):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            ExperimentConfig(snr_db=snr_db)

    @pytest.mark.parametrize("snr_db", [3000.0, -3000.0])
    def test_noise_at_the_snr_bounds_is_finite(self, snr_db):
        ExperimentConfig(snr_db=snr_db)
        assert np.isfinite(add_noise_snr(np.ones((3, 2)), snr_db, 0)).all()


class TestDatasetValidation:
    @pytest.mark.parametrize("inputs, targets", [(np.zeros(3), np.zeros((3, 2))),
                                                 (np.zeros((3, 2)), np.zeros((1, 3, 2)))])
    def test_rejects_arrays_not_2d(self, inputs, targets):
        g = build_graph(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="inputs and targets must both be 2-D arrays"):
            ExperimentDataset(inputs, targets, g)

    def test_mismatched_rows(self):
        g = build_graph(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="rows"):
            ExperimentDataset(np.zeros((3, 2)), np.zeros((4, 2)), g)

    def test_rejects_nan(self):
        g = build_graph(np.zeros((2, 2)))
        t = np.zeros((3, 2))
        t[0, 0] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            ExperimentDataset(np.zeros((3, 2)), t, g)

    def test_target_width_must_match_graph(self):
        g = build_graph(np.zeros((4, 4)))
        with pytest.raises(ValueError, match="nodes"):
            ExperimentDataset(np.zeros((5, 3)), np.zeros((5, 3)), g)


class TestConfigGrid:
    @pytest.mark.parametrize(
        "family, span, count, error, message",
        [
            ("gaussian", (0.01, 10.0), 0, ValueError, "kernel count must be at least 1"),
            ("linear", (0.0, 0.0), -1, ValueError, "kernel count must be at least 1"),
            ("cubic", (0.01, 10.0), 0, ValueError, "kernel count must be at least 1"),
            ("gaussian", (5.0, 1.0), 10, ValueError,
             "invalid parameter span [5.0, 1.0]: need 0 < lo < hi < inf"),
            ("gaussian", (0.0, 1.0), 10, ValueError,
             "invalid parameter span [0.0, 1.0]: need 0 < lo < hi < inf"),
            ("gaussian", (0.1, np.inf), 10, ValueError,
             "invalid parameter span [0.1, inf]: need 0 < lo < hi < inf"),
            ("gaussian", (np.nan, 1.0), 10, ValueError,
             "invalid parameter span [nan, 1.0]: need 0 < lo < hi < inf"),
            ("gaussian", (5.0, 1.0), 2.5, ValueError,
             "invalid parameter span [5.0, 1.0]: need 0 < lo < hi < inf"),
            ("cubic", (0.01, 10.0), 10, ValueError, "unknown kernel family 'cubic'"),
            ("gaussian", (0.01, 10.0), 2.5, TypeError,
             "'float' object cannot be interpreted as an integer"),
            ("linear", (0.0, 0.0), 2.5, TypeError,
             "'float' object cannot be interpreted as an integer"),
            ("cubic", (0.01, 10.0), 2.5, TypeError,
             "'float' object cannot be interpreted as an integer"),
            ("gaussian", ("a", 1.0), 10, ValueError, "could not convert string to float: 'a'"),
            # lo == hi makes one kernel only
            ("gaussian", (2.0, 2.0), 2, ValueError,
             "invalid parameter span [2.0, 2.0]: need 0 < lo < hi < inf"),
            # a linear grid ignores its bounds, but a model file must record them
            ("linear", (np.nan, 10.0), 2, ValueError,
             "invalid parameter span [nan, 10.0]: need finite lo and hi"),
        ],
    )
    def test_kernel_grid_refusals(self, family, span, count, error, message):
        # the grid is checked when made, without building anything per kernel
        with pytest.raises(error) as got:
            KernelGrid(family, *span, count)
        assert str(got.value) == message

    @pytest.mark.parametrize(
        "family, span, count",
        [("gaussian", (0.01, 10.0), 100), ("gaussian", (2.0, 3.0), 1), ("linear", (0.0, 0.0), 1),
         ("linear", (7.0, -1.0), 3), ("gaussian", (2.0, 2.0), 1)],
    )
    def test_accepted_grids_build(self, family, span, count):
        config = ExperimentConfig(grid=KernelGrid(family, *span, count))
        assert len(config.grid.parameters()) == count
