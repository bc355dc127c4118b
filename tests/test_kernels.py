"""Kernel dictionary construction and combination."""

import time
import tracemalloc

import numpy as np
import pytest

from graphkern import (
    GAUSSIAN,
    LINEAR,
    KernelDictionary,
    KernelGrid,
    KrgModel,
    build_dictionary,
    combine,
    kernel_cross,
    make_synthetic_dataset,
)
from graphkern import kernels
from graphkern.kernels import kernel_inner_products

from . import oracles
from .oracles import kernel_eval, kernel_vector, stack


class TestKernelEval:
    def test_gaussian_at_zero_distance(self):
        x = np.array([1.0, -2.0, 3.0])
        assert kernel_eval(GAUSSIAN, 2.5, x, x) == pytest.approx(1.0)

    def test_gaussian_known_value(self):
        # ||x - x2||^2 = 2 with variance 1 gives exp(-1)
        assert kernel_eval(GAUSSIAN, 1.0, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (
            pytest.approx(np.exp(-1.0))
        )

    def test_linear_inner_product(self):
        assert kernel_eval(LINEAR, 1.0, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            kernel_eval(LINEAR, 1.0, np.ones(2), np.ones(3))

    def test_invalid_one_kernel_grids(self):
        with pytest.raises(ValueError, match="family"):
            KernelGrid("polynomial", count=1)
        with pytest.raises(ValueError, match="span"):
            KernelGrid(GAUSSIAN, 0.0, 0.0, 1)

    @pytest.mark.parametrize("family", [GAUSSIAN, LINEAR])
    @pytest.mark.parametrize("bound", [np.inf, -np.inf, np.nan])
    def test_non_finite_bounds(self, family, bound):
        # for every family, so that a model file records finite bounds
        for lo, hi in ((bound, 10.0), (0.5, bound)):
            with pytest.raises(ValueError, match="span"):
                KernelGrid(family, lo, hi, 1)
            with pytest.raises(ValueError, match="span"):
                KernelGrid(family, lo, hi, 2)


class TestBuildDictionary:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_inputs(self, value):
        x = np.zeros((3, 2))
        x[1, 0] = value
        with pytest.raises(ValueError, match="^training inputs contain NaN or Inf$"):
            build_dictionary(x, KernelGrid(count=2))

    def test_grid_endpoints_and_step(self):
        x = np.zeros((2, 1))
        d = build_dictionary(x, KernelGrid(lo=0.01, hi=10.0, count=100))
        params = d.parameters
        assert params[0] == pytest.approx(0.01)
        assert params[-1] == pytest.approx(10.0)
        np.testing.assert_allclose(np.diff(params), 9.99 / 99, rtol=1e-12)

    def test_single_kernel_grid(self):
        d = build_dictionary(np.zeros((2, 1)), KernelGrid(lo=0.25, hi=10.0, count=1))
        assert d.num_kernels == 1
        assert d.parameters[0] == pytest.approx(0.25)

    def test_one_kernel_grid_at_equal_bounds(self):
        # the baselines' spelling: one kernel of variance s2 is [s2, s2] at count 1
        x = np.random.default_rng(22).normal(size=(5, 2))
        d = build_dictionary(x, KernelGrid(GAUSSIAN, 0.7, 0.7, 1))
        np.testing.assert_array_equal(d.parameters, [0.7])
        np.testing.assert_array_equal(
            combine(d, np.ones(1)),
            combine(build_dictionary(x, KernelGrid(GAUSSIAN, 0.7, 9.0, 1)), np.ones(1)),
        )
        with pytest.raises(ValueError, match="span"):
            KernelGrid(GAUSSIAN, 0.7, 0.7, 2)

    def test_linear_parameters_are_ones(self):
        d = build_dictionary(np.zeros((2, 1)), KernelGrid(LINEAR, -3.0, 5.0, 4))
        np.testing.assert_array_equal(d.parameters, np.ones(4))
        assert not d.parameters.flags.writeable

    def test_specs_round_trip(self):
        # what a dictionary gives as its specs, from_specs takes back
        x = np.random.default_rng(23).normal(size=(6, 3))
        d = build_dictionary(x, KernelGrid(lo=0.2, hi=4.0, count=7))
        again = KernelDictionary.from_specs(d.training_inputs, d.specs)
        assert again.grid == d.grid
        np.testing.assert_array_equal(again.parameters, d.parameters)
        rho = np.full(7, 0.3)
        np.testing.assert_array_equal(combine(again, rho), combine(d, rho))

    def test_one_sample_unit_matrices(self):
        d = build_dictionary(np.array([[1.0, 2.0]]), KernelGrid(lo=0.5, hi=2.0, count=3))
        np.testing.assert_allclose(stack(d), np.ones((3, 1, 1)))

    @pytest.mark.parametrize("family", [GAUSSIAN, LINEAR])
    def test_a_million_kernels_build_nothing_per_kernel(self, family):
        # the dictionary holds one array of 10**6 parameters, 8 MB; with one
        # spec object per kernel, build and combine took 6.1 s and 161 MB
        # (Gaussian) and 35 s and 137 MB (linear) on a 2-core VM, against
        # 0.03 s and 17 MB, 0.01 s and 9 MB without
        count = 10**6
        x = np.random.default_rng(24).normal(size=(5, 2))
        rho = np.zeros(count)
        rho[count // 2] = 1.0
        tracemalloc.start()
        try:
            start = time.perf_counter()
            d = build_dictionary(x, KernelGrid(family, 0.01, 10.0, count))
            got = combine(d, rho)
            elapsed = time.perf_counter() - start
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert elapsed < 1.0
        assert peak < 4 * 8 * count
        s2 = d.parameters[count // 2]
        one = build_dictionary(x, KernelGrid(family, s2, s2, 1))
        np.testing.assert_array_equal(got, combine(one, np.ones(1)))

    def test_matrices_match_pointwise_eval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        d = build_dictionary(x, KernelGrid(lo=0.3, hi=3.0, count=5))
        mats = stack(d)
        for s, s2 in enumerate(d.parameters):
            for m in range(4):
                for n in range(4):
                    assert mats[s, m, n] == pytest.approx(
                        kernel_eval(GAUSSIAN, s2, x[m], x[n]), abs=1e-12
                    )

    def test_invalid_span(self):
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), KernelGrid(lo=0.0, hi=1.0, count=2))
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), KernelGrid(lo=2.0, hi=1.0, count=2))
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), KernelGrid(lo=0.01, hi=np.inf, count=2))
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), KernelGrid(lo=np.nan, hi=1.0, count=2))

    @pytest.mark.parametrize("count", [10**41, 2**60, 2**60 - 1])
    def test_oversized_count(self, count):
        # np.linspace raises its own ValueError for each of these counts,
        # without allocating; 2**60 - 1 rounds up to numpy's limit
        with pytest.raises(ValueError, match=f"kernel grid count {count} exceeds"):
            KernelGrid(GAUSSIAN, 0.01, 10.0, count)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            build_dictionary(np.zeros((0, 2)), KernelGrid(count=2))

    def test_with_grid_shares_the_distances(self):
        x = np.random.default_rng(2).normal(size=(2, 6, 3))  # a stack of two sets
        d = build_dictionary(x, KernelGrid(lo=0.2, hi=4.0, count=7))
        linear = d._with_grid(KernelGrid(LINEAR, count=1))
        assert "sq_distances" not in vars(d)  # a linear kernel needs none
        single = d._with_grid(KernelGrid(GAUSSIAN, 0.5, 0.5, 1))
        assert single.sq_distances is d.sq_distances
        assert single.training_inputs is d.training_inputs
        assert linear.grid == KernelGrid(LINEAR, count=1)
        alone = build_dictionary(x, KernelGrid(GAUSSIAN, 0.5, 0.5, 1))
        np.testing.assert_array_equal(combine(single, np.ones((2, 1))),
                                      combine(alone, np.ones((2, 1))))

    def test_linked_dictionaries_see_a_changed_read_only_view(self):
        rng = np.random.default_rng(3)
        d = build_dictionary(rng.normal(size=(6, 3)), KernelGrid(lo=0.2, hi=4.0, count=7))
        single = d._with_grid(KernelGrid(GAUSSIAN, 0.5, 0.5, 1))
        base = rng.normal(size=(4, 3))
        view = base[:]
        view.setflags(write=False)  # read-only, yet its base may change
        rho = np.full(7, 0.2)
        kernel_cross(single, np.ones(1), view)
        base += 1.0
        alone = build_dictionary(d.training_inputs, d.grid)
        np.testing.assert_array_equal(kernel_cross(d, rho, view), kernel_cross(alone, rho, view))
        alone = build_dictionary(d.training_inputs, single.grid)
        np.testing.assert_array_equal(kernel_cross(single, np.ones(1), view),
                                      kernel_cross(alone, np.ones(1), view))

    def test_matrices_symmetric_psd_with_unit_diagonal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 2))
        d = build_dictionary(x, KernelGrid(lo=0.2, hi=4.0, count=7))
        for mat in stack(d):
            np.testing.assert_allclose(mat, mat.T, atol=1e-9)
            np.testing.assert_allclose(np.diag(mat), np.ones(6), atol=1e-12)
            assert np.linalg.eigvalsh(mat).min() >= -1e-8


class TestCombine:
    @pytest.fixture
    def dictionary(self):
        rng = np.random.default_rng(2)
        return build_dictionary(rng.normal(size=(5, 2)), KernelGrid(lo=0.3, hi=3.0, count=4))

    def test_zero_weights(self, dictionary):
        np.testing.assert_array_equal(
            combine(dictionary, np.zeros(4)), np.zeros((5, 5))
        )

    def test_one_hot_selects_matrix(self, dictionary):
        e2 = np.zeros(4)
        e2[2] = 1.0
        # kernel 2 over the dictionary's own distances, unit on the diagonal
        expected = np.ones((5, 5))
        rows, cols = np.triu_indices(5, 1)
        expected[rows, cols] = expected[cols, rows] = np.exp(
            dictionary.sq_distances / (-2.0 * dictionary.parameters[2])
        )
        np.testing.assert_array_equal(combine(dictionary, e2), expected)

    def test_half_half_average(self, dictionary):
        # the first two kernels of the fixture's grid, 0.3 and 1.2
        d2 = build_dictionary(dictionary.training_inputs, KernelGrid(lo=0.3, hi=1.2, count=2))
        mats = stack(d2)
        avg = combine(d2, np.array([0.5, 0.5]))
        np.testing.assert_allclose(avg, 0.5 * (mats[0] + mats[1]), atol=1e-15)

    def test_linearity(self, dictionary):
        rng = np.random.default_rng(3)
        r1, r2 = rng.uniform(0, 2, size=(2, 4))
        lhs = combine(dictionary, r1 + r2)
        rhs = combine(dictionary, r1) + combine(dictionary, r2)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_loewner_monotonicity(self, dictionary):
        # adding nonnegative mass keeps the difference PSD
        rng = np.random.default_rng(4)
        for _ in range(20):
            r1 = rng.uniform(0, 1, size=4)
            r2 = r1 + rng.uniform(0, 1, size=4)
            diff = combine(dictionary, r2) - combine(dictionary, r1)
            assert np.linalg.eigvalsh(diff).min() >= -1e-10

    def test_errors(self, dictionary):
        with pytest.raises(ValueError, match="shape"):
            combine(dictionary, np.ones(3))
        with pytest.raises(ValueError, match="nonnegative"):
            combine(dictionary, np.array([1.0, -0.1, 0.0, 0.0]))

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights(self, dictionary, bad):
        with pytest.raises(ValueError, match="finite"):
            combine(dictionary, np.array([bad, 1.0, 0.0, 0.0]))


class TestKernelVector:
    def test_training_point_recovers_unit_entry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        d = build_dictionary(x, KernelGrid(lo=0.5, hi=2.0, count=3))
        e1 = np.zeros(3)
        e1[1] = 1.0
        v = kernel_vector(d, e1, x[2])
        assert v[2] == pytest.approx(1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights(self, bad):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 2))
        d = build_dictionary(x, KernelGrid(lo=0.5, hi=2.0, count=2))
        rho = np.array([bad, 1.0])
        with pytest.raises(ValueError, match="finite"):
            kernel_cross(d, rho, rng.normal(size=(2, 2)))
        model = KrgModel(np.ones((3, 4)), 1.0, 0.0, d, rho, None)
        with pytest.raises(ValueError, match="finite"):
            model.predict(rng.normal(size=2))

    @pytest.mark.parametrize("batch", [(), (3,)])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_inputs(self, bad, batch):
        # in a stack, one entry of one set
        rng = np.random.default_rng(16)
        d = build_dictionary(rng.normal(size=batch + (3, 2)), KernelGrid(lo=0.5, hi=2.0, count=2))
        x = rng.normal(size=batch + (4, 2))
        x[(1,) * len(batch) + (2, 1)] = bad
        rho = np.ones(batch + (2,))
        with pytest.raises(ValueError, match="NaN or Inf"):
            kernel_cross(d, rho, x)
        model = KrgModel(np.ones(batch + (3, 5)), 1.0, 0.0, d, rho, None)
        with pytest.raises(ValueError, match="NaN or Inf"):
            model.predict(x)

    @pytest.mark.parametrize(
        "batch, shape",
        [
            ((), (4, 3)),  # wrong column count
            ((), (2, 4, 2)),  # a stack of inputs for one training set
            ((), (2,)),  # one row: only predict takes it
            ((3,), (4, 2)),  # one block of inputs for a stack
            ((3,), (2, 4, 2)),  # too few sets
            ((3,), (3, 4, 3)),  # wrong column count
            ((3,), (3, 2)),  # one row per set
        ],
    )
    def test_wrong_input_shape(self, batch, shape):
        rng = np.random.default_rng(17)
        d = build_dictionary(rng.normal(size=batch + (3, 2)), KernelGrid(lo=0.5, hi=2.0, count=2))
        rho = np.ones(batch + (2,))
        with pytest.raises(ValueError, match="inputs must have shape"):
            kernel_cross(d, rho, rng.normal(size=shape))
        if batch:
            model = KrgModel(np.ones(batch + (3, 5)), 1.0, 0.0, d, rho, None)
            with pytest.raises(ValueError, match="inputs must have shape"):
                model.predict(rng.normal(size=shape))

    @pytest.mark.parametrize("family", [GAUSSIAN, LINEAR])
    def test_stack_gives_each_set_as_alone(self, family, monkeypatch):
        rng = np.random.default_rng(18)
        grid = {
            GAUSSIAN: KernelGrid(lo=0.05, hi=4.0, count=7),
            LINEAR: KernelGrid(LINEAR, count=2),
        }[family]
        count = grid.count
        x = rng.normal(size=(4, 6, 3)) * np.array([1.0, 10.0, 0.1, 1.0])[:, None, None]
        x_new = rng.normal(size=(4, 5, 3))
        rho = rng.uniform(size=(4, count)) * (rng.uniform(size=(4, count)) < 0.6)
        rho[0] = rng.uniform(size=count)
        rho[2] = 0.0  # a set with no kernel at all
        psi = rng.normal(size=(4, 6, 2))
        d = build_dictionary(x, grid)
        tables = []
        tables_of = kernels._gaussian_tables

        def counting(sq, divisors):
            tables.append(len(divisors) * sq.size)
            return tables_of(sq, divisors)

        monkeypatch.setattr(kernels, "_gaussian_tables", counting)
        got = kernel_cross(d, rho, x_new)
        # each set evaluates its own Gaussian kernels of nonzero weight only
        own = [np.count_nonzero(r) * 5 * 6 if family == GAUSSIAN else 0 for r in rho]
        assert tables == [size for size in own if size]
        predictions = KrgModel(psi, 0.1, 0.0, d, rho, None).predict(x_new)
        assert got.shape == (4, 5, 6) and predictions.shape == (4, 5, 2)
        np.testing.assert_array_equal(got[2], 0.0)
        for b in range(4):
            alone = build_dictionary(x[b], grid)
            np.testing.assert_array_equal(got[b], kernel_cross(alone, rho[b], x_new[b]))
            model = KrgModel(psi[b], 0.1, 0.0, alone, rho[b], None)
            np.testing.assert_array_equal(predictions[b], model.predict(x_new[b]))
            expected = [[sum(w * kernel_eval(family, s2, row, new)
                             for w, s2 in zip(rho[b], d.parameters))
                         for row in x[b]] for new in x_new[b]]
            np.testing.assert_allclose(got[b], expected, rtol=1e-12, atol=1e-12)

    def test_zero_weights_zero_vector(self):
        d = build_dictionary(np.ones((3, 2)) * np.arange(3)[:, None], KernelGrid(count=4))
        np.testing.assert_array_equal(
            kernel_vector(d, np.zeros(4), np.array([0.5, 0.5])), np.zeros(3)
        )

    def test_matches_augmented_dictionary_column(self):
        # appending x to the training set must reproduce the kernel vector
        # as the final column of the combined matrix
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 2))
        x_new = rng.normal(size=2)
        rho = rng.uniform(0, 1, size=6)
        d = build_dictionary(x, KernelGrid(lo=0.4, hi=4.0, count=6))
        d_aug = build_dictionary(np.vstack([x, x_new]), KernelGrid(lo=0.4, hi=4.0, count=6))
        expected = combine(d_aug, rho)[:5, 5]
        np.testing.assert_allclose(kernel_vector(d, rho, x_new), expected, atol=1e-12)

    def test_linear_grid_is_one_gram_matrix(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2))
        d = build_dictionary(x, KernelGrid(LINEAR, count=2))
        rho = np.array([0.5, 2.0])
        z = rng.normal(size=2)
        expected = np.array([2.5 * kernel_eval(LINEAR, 1.0, x[n], z) for n in range(3)])
        np.testing.assert_allclose(kernel_vector(d, rho, z), expected, atol=1e-12)


EPS = 2.0**-53


def cross_bound(inputs, training):
    """Per entry, the error bound that ``_cross_sq_distances`` states."""
    centre = training.mean(axis=0)
    far_inputs = np.square(inputs - centre).sum(axis=1)
    far_training = np.square(training - centre).sum(axis=1)
    return 4 * (training.shape[1] + 2) * EPS * (far_inputs[:, None] + far_training[None, :])


class TestCrossDistances:
    """Gram-identity distances from new inputs against summed differences."""

    @pytest.mark.parametrize("width", [2, 20, 200])
    def test_offset_data_within_the_stated_bound(self, width):
        # a common offset of 300 (temperatures in kelvin, say), with inputs
        # that repeat training rows or lie within 1e-9 of them
        rng = np.random.default_rng(40)
        x = 300.0 + rng.normal(size=(60, width))
        a = np.vstack([
            300.0 + rng.normal(size=(30, width)),
            x[:10] + 1e-9 * rng.normal(size=(10, width)),
            x[10:15],
        ])
        err = np.abs(kernels._cross_sq_distances(a, x) - oracles.sq_distances(a, x))
        assert np.all(err <= cross_bound(a, x))

    @pytest.mark.parametrize("offset", [0.0, 300.0])
    def test_training_pairs_within_the_stated_bound(self, offset):
        # rows like the benchmark's scale-fit data (smooth signals over 200
        # nodes, mean squared distance 6), as they are and at a common offset
        x = offset + make_synthetic_dataset(
            num_nodes=200, num_pairs=400, seed=1, mode="geodesic"
        ).inputs
        rows, cols = np.triu_indices(len(x), 1)
        got = build_dictionary(x, KernelGrid(count=2)).sq_distances
        err = np.abs(got - oracles.sq_distances(x, x)[rows, cols])
        assert np.all(err <= cross_bound(x, x)[rows, cols])

    def test_norms_beyond_float_range(self):
        # two clusters at +-1e154: squared norms overflow, the distances
        # within a cluster do not, and those across clusters overflow in
        # summed differences too
        rng = np.random.default_rng(41)
        x = np.vstack([1e154 + 1e150 * rng.normal(size=(5, 4)),
                       -1e154 + 1e150 * rng.normal(size=(5, 4))])
        a = 1e154 + 1e150 * rng.normal(size=(6, 4))
        got = kernels._cross_sq_distances(a, x)
        ref = oracles.sq_distances(a, x)
        assert np.all(np.isinf(ref[:, 5:])) and np.all(np.isinf(got[:, 5:]))
        scale = 2.0**-512  # the bound, computed where its squares do not overflow
        err = np.abs(got[:, :5] - ref[:, :5]) * scale**2
        assert np.all(err <= cross_bound(a * scale, x * scale)[:, :5])

    def test_stack_gives_each_set_as_alone(self):
        rng = np.random.default_rng(42)
        a = 300.0 + rng.normal(size=(3, 7, 5))
        x = 300.0 + rng.normal(size=(3, 11, 5)) * np.array([1.0, 1e3, 1e-3])[:, None, None]
        got = kernels._cross_sq_distances(a, x)
        for b in range(3):
            np.testing.assert_array_equal(got[b], kernels._cross_sq_distances(a[b], x[b]))

    def test_kernel_cross_at_training_rows_reproduces_combine(self):
        rng = np.random.default_rng(43)
        x = 300.0 + 0.1 * rng.normal(size=(40, 6))
        d = build_dictionary(x)
        rho = rng.uniform(size=d.num_kernels)
        s2 = d.parameters
        # kernel_cross's stated bound; combine's own round-off is of the
        # order of the second term
        bound = (rho / (2.0 * s2)).sum() * cross_bound(x, x) + d.num_kernels * EPS * rho.sum()
        off_diagonal = ~np.eye(len(x), dtype=bool)
        err = np.abs(kernel_cross(d, rho, x) - combine(d, rho))
        assert np.all(err[off_diagonal] <= bound[off_diagonal])


def assert_matches(got, ref):
    """Agreement to 1e-12 of the reference's largest entry."""
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return a + a.T


class TestMatrixFreeAgainstStack:
    """The pairwise-distance paths against the explicit Gram stack."""

    def five_kernels(self, rng, n, family):
        grid = KernelGrid(family, 0.4, 5.0, 5)
        return build_dictionary(rng.normal(size=(n, 3)), grid)

    @pytest.mark.parametrize("family", [GAUSSIAN, LINEAR])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_each_family(self, n, family):
        rng = np.random.default_rng(8)
        d = self.five_kernels(rng, n, family)
        rho = np.array([0.3, 0.0, 1.2, 0.5, 0.25])
        assert_matches(combine(d, rho), oracles.combine(d, rho))
        sym = random_symmetric(rng, n)
        assert_matches(
            kernel_inner_products(d, sym),
            np.tensordot(stack(d), sym, axes=([1, 2], [0, 1])),
        )

    @pytest.mark.parametrize("family", [GAUSSIAN, LINEAR])
    def test_one_sample_has_no_pairs(self, family):
        d = self.five_kernels(np.random.default_rng(9), 1, family)
        assert d.sq_distances.shape == (0,)
        rho = np.array([0.5, 2.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(combine(d, rho), oracles.combine(d, rho), rtol=1e-15)

    def test_negative_weights(self):
        # such weights can make K indefinite; no route combines them
        rng = np.random.default_rng(10)
        d = build_dictionary(rng.normal(size=(12, 2)), KernelGrid(lo=0.2, hi=4.0, count=9))
        rho = rng.uniform(-0.5, 1.0, size=9)
        assert np.any(rho < 0)
        with pytest.raises(ValueError, match="nonnegative"):
            combine(d, rho)

    @pytest.mark.parametrize(
        "n, block_entries", [(60, kernels.BLOCK_ENTRIES), (13, 700)]
    )
    def test_partial_last_block(self, monkeypatch, n, block_entries):
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(12)
        d = build_dictionary(rng.normal(size=(n, 3)), KernelGrid(lo=0.3, hi=3.0, count=100))
        pairs = n * (n - 1) // 2
        assert pairs > block_entries // 100 and pairs % (block_entries // 100) != 0
        rho = np.zeros(100)
        rho[rng.choice(100, 15, replace=False)] = rng.uniform(0.1, 1.0, size=15)
        assert_matches(combine(d, rho), oracles.combine(d, rho))
        psi = rng.normal(size=(n, 4))
        assert_matches(
            -0.3 * kernel_inner_products(d, psi @ psi.T), oracles.gradient(d, psi, 0.3)
        )

    @pytest.mark.parametrize("family", [GAUSSIAN, LINEAR])
    def test_read_path_builds_no_pair_arrays(self, family):
        rng = np.random.default_rng(13)
        d = self.five_kernels(rng, 6, family)
        kernel_vector(d, np.ones(5), rng.normal(size=3))
        assert "sq_distances" not in vars(d) and "linear_gram" not in vars(d)

    def test_shape_check(self):
        d = self.five_kernels(np.random.default_rng(14), 4, GAUSSIAN)
        with pytest.raises(ValueError, match="shape"):
            kernel_inner_products(d, np.eye(3))


def gradient_matches(d, psi, alpha=0.7):
    """Assert the dictionary's gradient against the stack oracle."""
    assert_matches(
        -alpha * kernel_inner_products(d, psi @ psi.T), oracles.gradient(d, psi, alpha)
    )


def scaled_to(x, largest):
    """``x`` scaled so that its largest squared distance is ``largest``."""
    d = build_dictionary(x, KernelGrid(count=1))
    return x * np.sqrt(largest / d.sq_distances.max())


class TestSkeleton:
    """The skeleton route of :func:`kernel_inner_products` against the stack."""

    @pytest.mark.parametrize("decays", [1e-6, 1e6])
    def test_extreme_scales(self, decays):
        # decays = max d / (2 s2_min) on the default grid
        rng = np.random.default_rng(16)
        x = scaled_to(rng.normal(size=(40, 3)), decays * 2 * 0.01)
        d = build_dictionary(x)
        gradient_matches(d, rng.normal(size=(40, 5)))
        rows, _ = d._skeleton
        assert len(rows) < d.num_kernels

    def test_stack_of_distant_scales(self):
        # one skeleton serves all sets, built for the largest distance
        rng = np.random.default_rng(17)
        sets = np.stack(
            [scaled_to(rng.normal(size=(20, 3)), top) for top in (0.1, 3.0, 100.0)]
        )
        psi = rng.normal(size=(3, 20, 4))
        stacked = kernel_inner_products(build_dictionary(sets), psi @ np.swapaxes(psi, -1, -2))
        for x, p, got in zip(sets, psi, stacked):
            alone = build_dictionary(x)
            assert_matches(-0.7 * got, oracles.gradient(alone, p, 0.7))
            assert_matches(got, kernel_inner_products(alone, p @ p.T))

    def test_small_grid_is_the_identity(self):
        rng = np.random.default_rng(19)
        d = build_dictionary(rng.normal(size=(12, 3)), KernelGrid(lo=0.3, hi=3.0, count=4))
        gradient_matches(d, rng.normal(size=(12, 3)))
        rows, interp = d._skeleton
        np.testing.assert_array_equal(rows, np.arange(4))
        np.testing.assert_array_equal(interp, np.eye(4))

    def test_one_build_per_grid_and_octave(self):
        rng = np.random.default_rng(20)
        kernels._build_skeleton.cache_clear()
        for largest in (5.0, 7.5, 9.0):
            d = build_dictionary(scaled_to(rng.normal(size=(10, 2)), largest))
            kernel_inner_products(d, np.eye(10))
        # 5.0 and 7.5 share the octave (4, 8]; 9.0 needs its own
        assert kernels._build_skeleton.cache_info().misses == 2
        assert kernels._build_skeleton.cache_info().hits == 1

    def test_default_grid_skeleton_size(self):
        inputs = make_synthetic_dataset().inputs
        for n in (4, 30, len(inputs)):
            d = build_dictionary(inputs[:n])
            rows, interp = d._skeleton
            assert len(rows) <= 32
            assert np.abs(interp).max() <= 2.0

    def test_gradient_memory(self):
        # distances, the condensed matrix and one exp block, plus 128 KiB
        # for the skeleton's tables; the exact route of 100 rows peaked at
        # 1.98 MB here (numpy 2.4), copying its partial last block
        rng = np.random.default_rng(21)
        n = 300
        d = build_dictionary(rng.normal(size=(n, 5)))
        psi = rng.normal(size=(n, 4))
        sym = psi @ psi.T
        kernels._build_skeleton.cache_clear()
        tracemalloc.start()
        try:
            kernel_inner_products(d, sym)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pairs = n * (n - 1) // 2
        assert peak <= 8 * (2 * pairs + kernels.BLOCK_ENTRIES) + (128 << 10)
