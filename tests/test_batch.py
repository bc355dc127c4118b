"""Lockstep batches of realizations against the sequential per-trial oracle."""

import tracemalloc

import numpy as np
import pytest

from graphkern import (
    ExperimentConfig,
    ExperimentDataset,
    SingularSystemError,
    SolverConfig,
    build_dictionary,
    build_graph,
    make_synthetic_dataset,
    monte_carlo,
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
from graphkern.mkl import SINGULAR

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
        n_train=3, n_realizations=16, linear_alpha=0.0, grid_count=10, master_seed=4
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
        n_train=3, n_realizations=8, alpha=0.0, beta=0.0, grid_count=10, master_seed=4
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


def test_lockstep_optimize_matches_each_problem_alone():
    rng = np.random.default_rng(31)
    a = np.abs(rng.normal(size=(4, 4)))
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 0.0)
    graph = build_graph(a)
    x = rng.normal(size=(5, 6, 3)) * rng.uniform(0.3, 3.0, size=(5, 1, 1))
    t = rng.normal(size=(5, 6, 4))
    for q, momentum in [(1, "damped"), (1, "fista"), (2, "damped"), (2, "fista")]:
        config = SolverConfig(mu0=0.5, i_max=300, epsilon=1e-4, radius=2.0, q=q, momentum=momentum)
        weights, traces, model = optimize(build_dictionary(x, span=(0.3, 3.0), count=7),
                                          graph, t, config, 0.3, 0.8)
        counts = []
        for b in range(5):
            w, trace, m = optimize(build_dictionary(x[b], span=(0.3, 3.0), count=7),
                                   graph, t[b], config, 0.3, 0.8)
            assert relative(weights.rho[b], w.rho) <= 1e-12
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
    weights, traces, model = optimize(build_dictionary(x, span=(0.3, 3.0), count=4),
                                      graph, t, config, 1e-13, 0.0)
    assert traces[0].status == SINGULAR and traces[0].iterations_used == 1
    assert model.errors[0] == traces[0].error and model.errors[1] is None
    with pytest.raises(SingularSystemError, match="condition") as excinfo:
        optimize(build_dictionary(x[0], span=(0.3, 3.0), count=4), graph, t[0], config, 1e-13, 0.0)
    assert str(excinfo.value) == traces[0].error
    assert excinfo.value.trace.iterations == traces[0].iterations
    w, trace, m = optimize(build_dictionary(x[1], span=(0.3, 3.0), count=4),
                           graph, t[1], config, 1e-13, 0.0)
    assert trace.iterations == traces[1].iterations and trace.status == traces[1].status
    assert relative(weights.rho[1], w.rho) <= 1e-12


def test_batched_level_memory_within_one_megabyte_of_sequential(default_scenario):
    config = level_config(30)
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
