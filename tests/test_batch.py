"""Lockstep batches of realizations against the sequential per-trial oracle."""

import tracemalloc

import numpy as np
import pytest

from graphkern import (
    ExperimentConfig,
    ExperimentDataset,
    KernelGrid,
    KrgModel,
    SingularSystemError,
    SolverConfig,
    build_dictionary,
    build_graph,
    experiment,
    kernels,
    make_synthetic_dataset,
    monte_carlo,
    nmse,
    optimize,
)
from graphkern.experiment import (
    DEFAULT_SINGLE_PARAMS,
    METHOD_LINEAR,
    METHOD_MULTI,
    METHODS,
    ExperimentError,
    batch_size,
    trial_seed,
)
from graphkern.mkl import OVERFLOW, SINGULAR

from .oracles import run_trial_sequential


@pytest.fixture(scope="module")
def default_scenario():
    """The acceptance suite's default scenario: 45 nodes, 60 pairs, SNR 0 dB."""
    return make_synthetic_dataset()


def level_config(n_train, n_realizations=25, master_seed=3):
    alpha, beta = DEFAULT_SINGLE_PARAMS[n_train]
    return ExperimentConfig(
        n_train=n_train, n_realizations=n_realizations, alpha=alpha, beta=beta,
        master_seed=master_seed,
    )


def relative(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1e-300))


@pytest.mark.parametrize("n_train", [4, 8, 16, 30])
def test_batched_levels_match_sequential_oracle(default_scenario, n_train):
    config = level_config(n_train)
    assert 1 < batch_size(default_scenario, config) < 25 or n_train == 4
    report = monte_carlo(default_scenario, config)
    for i, trial in enumerate(report.trials):
        expected = run_trial_sequential(default_scenario, config, trial_seed(3, i))
        assert trial.errors == expected.errors
        for method in METHODS:
            assert relative(trial.nmse[method], expected.nmse[method]) <= 1e-10
        assert relative(trial.rho, expected.rho) <= 1e-10
        assert trial.iterations == expected.iterations


@pytest.mark.parametrize("n_realizations", [25, 100])
def test_batch_size_counts_every_row_a_trial_holds(default_scenario, n_realizations):
    # every paper level runs as more than one batch, so the oracle test
    # above compares batches of several trials, not one
    for n_train in DEFAULT_SINGLE_PARAMS:
        config = level_config(n_train, n_realizations)
        assert 1 < batch_size(default_scenario, config) < n_realizations
    # a batch of more than one trial keeps the rows of all its pairs, each
    # an input, a target and N kernel entries, within one block, so a longer
    # test block at the same n_train never gets a larger batch
    graph = default_scenario.graph
    inputs_width = default_scenario.inputs.shape[1]
    for n_train in (4, 8, 16, 30, 300):
        config = ExperimentConfig(n_train=n_train, n_realizations=n_realizations)
        width = inputs_width + graph.num_nodes + n_train
        sizes = []
        for pairs in range(n_train + 1, 1000, 7):
            dataset = ExperimentDataset(np.zeros((pairs, inputs_width)),
                                        np.zeros((pairs, graph.num_nodes)), graph)
            size = batch_size(dataset, config)
            assert size == 1 or size * pairs * width <= kernels.BLOCK_ENTRIES
            sizes.append(size)
        assert sizes == sorted(sizes, reverse=True)
        assert sizes[-1] == 1


def test_a_batch_computes_its_training_distances_once(default_scenario, monkeypatch):
    calls = []
    route = kernels._cross_sq_distances

    def counting(inputs, training):
        # the training pairs, or the test blocks against them
        calls.append(("pairs" if inputs is training else "test", inputs.shape))
        return route(inputs, training)

    monkeypatch.setattr(kernels, "_cross_sq_distances", counting)
    config = level_config(8, n_realizations=5)
    assert batch_size(default_scenario, config) == 5
    monte_carlo(default_scenario, config)
    pairs, dim = default_scenario.inputs.shape
    # one call for the whole stack, shared by both Gaussian methods; each
    # of them computes the test blocks' distances when it predicts
    test = ("test", (5, pairs - 8, dim))
    assert calls == [("pairs", (5, 8, dim)), test, test]


def duplicated_rows_dataset():
    """12 pairs whose inputs are 6 distinct rows, each twice.

    With ``linear_alpha = 0`` the linear system of a training set that
    holds both copies of a row is singular, and only that one.
    """
    rng = np.random.default_rng(7)
    distinct = rng.normal(size=(6, 6))
    inputs = np.repeat(distinct, 2, axis=0)
    a = np.abs(rng.normal(size=(4, 4)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return ExperimentDataset(inputs, rng.normal(size=(12, 4)), build_graph(a))


def test_only_the_singular_trials_of_a_batch_fail():
    dataset = duplicated_rows_dataset()
    config = ExperimentConfig(
        n_train=3, n_realizations=16, linear_alpha=0.0, grid=KernelGrid(count=10), master_seed=4
    )
    assert batch_size(dataset, config) == 16  # one batch
    report = monte_carlo(dataset, config)
    failing = []
    for i, trial in enumerate(report.trials):
        expected = run_trial_sequential(dataset, config, trial_seed(4, i))
        train = np.random.default_rng(trial_seed(4, i).spawn(2)[0]).permutation(12)[:3]
        singular = len(set(train // 2)) < 3
        assert (METHOD_LINEAR in trial.errors) == singular
        assert set(trial.errors) <= {METHOD_LINEAR}
        assert trial.errors == expected.errors  # same message
        for method in trial.nmse:
            assert relative(trial.nmse[method], expected.nmse[method]) <= 1e-10
        failing.append(singular)
    assert 0 < sum(failing) < len(failing)
    assert report.n_failed == sum(failing)
    assert report.n_ok[METHOD_LINEAR] == len(failing) - sum(failing)


def test_majority_of_singular_trials_still_raises():
    dataset = duplicated_rows_dataset()
    config = ExperimentConfig(
        n_train=3, n_realizations=8, alpha=0.0, beta=0.0, grid=KernelGrid(count=10), master_seed=4
    )
    with pytest.raises(ExperimentError) as excinfo:
        monte_carlo(dataset, config)
    assert excinfo.value.partial_report.n_failed == 8


def test_a_failing_eigh_fails_only_its_own_trials(default_scenario, monkeypatch):
    # The linear kernel's diagonal holds the squared input norms.  Row 0 is
    # the only input of squared norm 64, and eigh fails on any matrix whose
    # diagonal holds 64: the linear system of every training set with row 0.
    inputs = default_scenario.inputs.copy()
    inputs[0] = 0.0
    inputs[0, 0] = 8.0
    assert not np.any(np.sum(inputs[1:] ** 2, axis=1) == 64.0)
    dataset = ExperimentDataset(inputs, default_scenario.targets, default_scenario.graph)
    eigh = np.linalg.eigh

    def failing_eigh(a):
        if np.any(np.diagonal(a, axis1=-2, axis2=-1) == 64.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
    config = level_config(8, n_realizations=20)
    assert batch_size(dataset, config) == 20  # one batch
    report = monte_carlo(dataset, config)
    failing = []
    for i, trial in enumerate(report.trials):
        expected = run_trial_sequential(dataset, config, trial_seed(3, i))
        perm = np.random.default_rng(trial_seed(3, i).spawn(2)[0]).permutation(60)
        holds_row = 0 in perm[:8]
        assert set(trial.errors) == ({METHOD_LINEAR} if holds_row else set())
        assert trial.errors == expected.errors  # same message
        for method in METHODS:
            assert (method in trial.nmse) == (method in expected.nmse)
            if method in trial.nmse:
                assert relative(trial.nmse[method], expected.nmse[method]) <= 1e-10
        failing.append(holds_row)
    assert 0 < sum(failing) < len(failing)
    assert report.n_failed == sum(failing)


def zero_targets_dataset(nonzero_rows, floor=0.0):
    """12 pairs over 4 nodes whose targets are ``floor`` outside ``nonzero_rows``."""
    rng = np.random.default_rng(8)
    targets = np.full((12, 4), floor)
    targets[nonzero_rows] = rng.normal(size=(len(nonzero_rows), 4))
    a = np.abs(rng.normal(size=(4, 4)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    return ExperimentDataset(rng.normal(size=(12, 6)), targets, build_graph(a))


@pytest.mark.parametrize("n_train, block", [(3, "training"), (9, "test"), (9, "underflowing test")])
def test_only_the_trials_with_an_all_zero_block_fail(n_train, block):
    # a zero training block has no SNR and a zero test block no NMSE, nor
    # has one whose squares all underflow to zero; the trials holding one
    # record it for every method, and the others are scored as they are alone
    dataset = zero_targets_dataset([0, 1, 2, 3], 1e-170 if block == "underflowing test" else 0.0)
    config = ExperimentConfig(n_train=n_train, n_realizations=16, grid=KernelGrid(count=10),
                              master_seed=5)
    assert batch_size(dataset, config) == 16  # one batch
    report = monte_carlo(dataset, config)
    failing = []
    for i, trial in enumerate(report.trials):
        perm = np.random.default_rng(trial_seed(5, i).spawn(2)[0]).permutation(12)
        rows = perm[:n_train] if block == "training" else perm[n_train:]
        zero = np.sum(dataset.targets[rows] ** 2) == 0.0
        if zero:
            assert set(trial.errors) == set(METHODS) and not trial.nmse
            assert all(f"{'target' if block == 'training' else 'reference'} block is "
                       "identically zero" in message for message in trial.errors.values())
        else:
            expected = run_trial_sequential(dataset, config, trial_seed(5, i))
            assert trial.errors == expected.errors == {}
            for method in METHODS:
                assert relative(trial.nmse[method], expected.nmse[method]) <= 1e-10
            assert relative(trial.rho, expected.rho) <= 1e-10
        failing.append(zero)
    assert 0 < sum(failing) <= 8
    assert report.n_failed == sum(failing)
    assert report.n_ok == dict.fromkeys(METHODS, 16 - sum(failing))


@pytest.mark.parametrize("scenario", ["one zero test block", "two batches"])
def test_each_score_is_the_nmse_of_its_batched_prediction(default_scenario, scenario, monkeypatch):
    # every score equals, bit for bit, nmse() of that trial's row of its
    # method's batched prediction against the clean test targets
    if scenario == "one zero test block":
        dataset, config = zero_targets_dataset([0, 1, 2, 3]), ExperimentConfig(
            n_train=9, n_realizations=16, grid=KernelGrid(count=10), master_seed=7)
        assert batch_size(dataset, config) == 16
    else:
        dataset, config = default_scenario, level_config(8)
        assert batch_size(dataset, config) < 25
    fitted, predictions = [], dict.fromkeys(METHODS, ())
    fit, predict = experiment._fit_method, KrgModel.predict

    def spying_fit(method, *args):
        model, traces = fit(method, *args)
        fitted.append((method, model))
        return model, traces

    def spying_predict(model, x):
        prediction = predict(model, x)
        method = next(m for m, fitted_model in fitted if fitted_model is model)
        predictions[method] += tuple(prediction.copy())  # scoring overwrites it in place
        return prediction

    monkeypatch.setattr(experiment, "_fit_method", spying_fit)
    monkeypatch.setattr(KrgModel, "predict", spying_predict)
    report = monte_carlo(dataset, config)
    live, n = [], config.n_train
    for i, trial in enumerate(report.trials):
        perm = np.random.default_rng(trial_seed(config.master_seed, i).spawn(2)[0]).permutation(
            dataset.num_pairs)
        truth = dataset.targets[perm[n:]]
        if not truth.any():
            assert trial.errors == dict.fromkeys(
                METHODS, "reference block is identically zero; NMSE is undefined")
            assert not trial.nmse
        else:
            live.append((trial, truth))
    assert len(live) == len(report.trials) - (scenario == "one zero test block")
    for method in METHODS:
        assert len(predictions[method]) == len(live)
        for (trial, truth), prediction in zip(live, predictions[method]):
            assert trial.nmse[method] == nmse(prediction, truth)


def test_all_zero_targets_fail_every_trial():
    dataset = zero_targets_dataset([])
    config = ExperimentConfig(n_train=3, n_realizations=4, grid=KernelGrid(count=10))
    with pytest.raises(ExperimentError) as excinfo:
        monte_carlo(dataset, config)
    report = excinfo.value.partial_report
    assert report.n_failed == 4 and report.n_ok == dict.fromkeys(METHODS, 0)


def test_lockstep_optimize_matches_each_problem_alone():
    rng = np.random.default_rng(31)
    a = np.abs(rng.normal(size=(4, 4)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    graph = build_graph(a)
    x = rng.normal(size=(5, 6, 3)) * rng.uniform(0.3, 3.0, size=(5, 1, 1))
    t = rng.normal(size=(5, 6, 4))
    for q in (1, 2):
        config = SolverConfig(mu0=0.5, i_max=300, epsilon=1e-4, radius=2.0, q=q)
        model, traces = optimize(build_dictionary(x, KernelGrid(lo=0.3, hi=3.0, count=7)),
                                 graph, t, config, 0.3, 0.8)
        counts = []
        for b in range(5):
            m, trace = optimize(build_dictionary(x[b], KernelGrid(lo=0.3, hi=3.0, count=7)),
                                graph, t[b], config, 0.3, 0.8)
            assert relative(model.rho[b], m.rho) <= 1e-12
            assert relative(model.psi[b], m.psi) <= 1e-10
            assert traces[b].iterations == trace.iterations
            assert traces[b].status == trace.status
            assert relative(traces[b].fw_gaps, trace.fw_gaps) <= 1e-10
            assert relative(traces[b].gamma_values, trace.gamma_values) <= 1e-12
            counts.append(trace.iterations_used)
        assert model.errors == (None,) * 5
        assert len(set(counts)) > 1, "every problem stopped at the same iteration"


def test_lockstep_optimize_freezes_a_singular_problem():
    # the first problem repeats an input, so its combined kernel is
    # singular once weights are nonzero; with a tiny alpha its system is
    # refused from the second iteration on, and the second problem goes on
    rng = np.random.default_rng(32)
    graph = build_graph(np.zeros((2, 2)))
    x = rng.normal(size=(2, 4, 3)) * 4.0
    x[0, 3] = x[0, 0]
    t = rng.normal(size=(2, 4, 2))
    config = SolverConfig(mu0=1.0, i_max=6, epsilon=1e-30, radius=1.0)
    model, traces = optimize(build_dictionary(x, KernelGrid(lo=0.3, hi=3.0, count=4)),
                             graph, t, config, 1e-13, 0.0)
    assert traces[0].status == SINGULAR and traces[0].iterations_used == 1
    assert model.errors[0] == traces[0].error and model.errors[1] is None
    with pytest.raises(SingularSystemError, match="condition") as excinfo:
        optimize(build_dictionary(x[0], KernelGrid(lo=0.3, hi=3.0, count=4)), graph, t[0], config,
                 1e-13, 0.0)
    assert str(excinfo.value) == traces[0].error
    assert excinfo.value.trace.iterations == traces[0].iterations
    assert excinfo.value.trace.status == traces[0].status == SINGULAR
    assert excinfo.value.trace.error == str(excinfo.value)
    m, trace = optimize(build_dictionary(x[1], KernelGrid(lo=0.3, hi=3.0, count=4)),
                        graph, t[1], config, 1e-13, 0.0)
    assert trace.iterations == traces[1].iterations and trace.status == traces[1].status
    assert relative(model.rho[1], m.rho) <= 1e-12


def test_lockstep_optimize_stops_a_problem_whose_step_leaves_float_range():
    # the second problem's targets are scaled by 1e200, so its first
    # gradient, a quadratic form in Psi ~ 1e200, overflows; it stops with
    # the message a run of it alone raises, and the other two go on
    rng = np.random.default_rng(33)
    a = np.abs(rng.normal(size=(4, 4)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    graph = build_graph(a)
    x = rng.normal(size=(3, 6, 3))
    t = rng.normal(size=(3, 6, 4))
    t[1] *= 1e200
    config = SolverConfig(mu0=0.5, i_max=100, epsilon=1e-6, radius=2.0)

    def fit(x, t):
        return optimize(build_dictionary(x, KernelGrid(lo=0.3, hi=3.0, count=7)), graph, t, config,
                        0.3, 0.8)

    model, traces = fit(x, t)
    assert traces[1].status == OVERFLOW and traces[1].iterations_used == 0
    assert model.errors[1] == traces[1].error and "float range" in traces[1].error
    assert not model.psi[1].any()
    with pytest.raises(FloatingPointError) as excinfo:
        fit(x[1], t[1])
    assert str(excinfo.value) == traces[1].error
    assert excinfo.value.trace.status == traces[1].status == OVERFLOW
    assert excinfo.value.trace.error == str(excinfo.value)
    assert excinfo.value.trace.iterations == traces[1].iterations
    for b in (0, 2):
        m, trace = fit(x[b], t[b])
        assert model.errors[b] is None and traces[b].error is None
        assert trace.iterations == traces[b].iterations and trace.status == traces[b].status
        assert relative(model.rho[b], m.rho) <= 1e-12
        assert relative(model.psi[b], m.psi) <= 1e-10


@pytest.mark.parametrize("n_train", [4, 8, 16, 30])
def test_batched_level_memory_within_one_megabyte_of_sequential(default_scenario, n_train):
    config = level_config(n_train)
    tracemalloc.start()
    try:
        for i in range(config.n_realizations):
            run_trial_sequential(default_scenario, config, trial_seed(3, i))
        _, sequential = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        monte_carlo(default_scenario, config)
        _, batched = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batched <= sequential + 1e6, f"{batched / 1e6:.2f} MB vs {sequential / 1e6:.2f} MB"


def test_report_holds_each_levels_mean_last_gap(default_scenario):
    report = monte_carlo(default_scenario, level_config(8, n_realizations=6))
    gaps = [t.fw_gap for t in report.trials if METHOD_MULTI in t.nmse]
    assert report.to_dict()["mean_fw_gap"] == pytest.approx(np.mean(gaps), rel=1e-15)
    assert all(g > 0 for g in gaps)
