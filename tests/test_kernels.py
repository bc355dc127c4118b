"""Kernel dictionary construction and combination."""

import numpy as np
import pytest

from graphkern import (
    GAUSSIAN,
    LINEAR,
    KernelDictionary,
    KernelSpec,
    build_dictionary,
    combine,
)
from graphkern import kernels
from graphkern.kernels import _combine_unchecked, kernel_inner_products

from . import oracles
from .oracles import kernel_eval, kernel_vector, stack


class TestKernelEval:
    def test_gaussian_at_zero_distance(self):
        spec = KernelSpec(GAUSSIAN, 2.5)
        x = np.array([1.0, -2.0, 3.0])
        assert kernel_eval(spec, x, x) == pytest.approx(1.0)

    def test_gaussian_known_value(self):
        # ||x - x2||^2 = 2 with variance 1 gives exp(-1)
        spec = KernelSpec(GAUSSIAN, 1.0)
        assert kernel_eval(spec, np.array([1.0, 0.0]), np.array([0.0, 1.0])) == (
            pytest.approx(np.exp(-1.0))
        )

    def test_linear_inner_product(self):
        spec = KernelSpec(LINEAR)
        assert kernel_eval(spec, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            kernel_eval(KernelSpec(LINEAR), np.ones(2), np.ones(3))

    def test_invalid_specs(self):
        with pytest.raises(ValueError, match="family"):
            KernelSpec("polynomial")
        with pytest.raises(ValueError, match="positive"):
            KernelSpec(GAUSSIAN, 0.0)


class TestBuildDictionary:
    def test_grid_endpoints_and_step(self):
        x = np.zeros((2, 1))
        d = build_dictionary(x, span=(0.01, 10.0), count=100)
        params = np.array([s.parameter for s in d.specs])
        assert params[0] == pytest.approx(0.01)
        assert params[-1] == pytest.approx(10.0)
        np.testing.assert_allclose(np.diff(params), 9.99 / 99, rtol=1e-12)

    def test_single_kernel_grid(self):
        d = build_dictionary(np.zeros((2, 1)), span=(0.25, 10.0), count=1)
        assert d.num_kernels == 1
        assert d.specs[0].parameter == pytest.approx(0.25)

    def test_one_sample_unit_matrices(self):
        d = build_dictionary(np.array([[1.0, 2.0]]), span=(0.5, 2.0), count=3)
        np.testing.assert_allclose(stack(d), np.ones((3, 1, 1)))

    def test_matrices_match_pointwise_eval(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 3))
        d = build_dictionary(x, span=(0.3, 3.0), count=5)
        mats = stack(d)
        for s, spec in enumerate(d.specs):
            for m in range(4):
                for n in range(4):
                    assert mats[s, m, n] == pytest.approx(
                        kernel_eval(spec, x[m], x[n]), abs=1e-12
                    )

    def test_invalid_span(self):
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), span=(0.0, 1.0), count=2)
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), span=(2.0, 1.0), count=2)
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), span=(0.01, np.inf), count=2)
        with pytest.raises(ValueError, match="span"):
            build_dictionary(np.zeros((2, 1)), span=(np.nan, 1.0), count=2)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="empty"):
            build_dictionary(np.zeros((0, 2)), count=2)

    def test_matrices_symmetric_psd_with_unit_diagonal(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(6, 2))
        d = build_dictionary(x, span=(0.2, 4.0), count=7)
        for mat in stack(d):
            np.testing.assert_allclose(mat, mat.T, atol=1e-9)
            np.testing.assert_allclose(np.diag(mat), np.ones(6), atol=1e-12)
            assert np.linalg.eigvalsh(mat).min() >= -1e-8


class TestCombine:
    @pytest.fixture
    def dictionary(self):
        rng = np.random.default_rng(2)
        return build_dictionary(rng.normal(size=(5, 2)), span=(0.3, 3.0), count=4)

    def test_zero_weights(self, dictionary):
        np.testing.assert_array_equal(
            combine(dictionary, np.zeros(4)), np.zeros((5, 5))
        )

    def test_one_hot_selects_matrix(self, dictionary):
        e2 = np.zeros(4)
        e2[2] = 1.0
        np.testing.assert_array_equal(combine(dictionary, e2), stack(dictionary)[2])

    def test_half_half_average(self, dictionary):
        d2 = KernelDictionary.from_specs(
            dictionary.training_inputs, dictionary.specs[:2]
        )
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


class TestKernelVector:
    def test_training_point_recovers_unit_entry(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(4, 3))
        d = build_dictionary(x, span=(0.5, 2.0), count=3)
        e1 = np.zeros(3)
        e1[1] = 1.0
        v = kernel_vector(d, e1, x[2])
        assert v[2] == pytest.approx(1.0)

    def test_zero_weights_zero_vector(self):
        d = build_dictionary(np.ones((3, 2)) * np.arange(3)[:, None], count=4)
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
        d = build_dictionary(x, span=(0.4, 4.0), count=6)
        d_aug = build_dictionary(np.vstack([x, x_new]), span=(0.4, 4.0), count=6)
        expected = combine(d_aug, rho)[:5, 5]
        np.testing.assert_allclose(kernel_vector(d, rho, x_new), expected, atol=1e-12)

    def test_mixed_families(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(3, 2))
        d = KernelDictionary.from_specs(
            x, [KernelSpec(LINEAR), KernelSpec(GAUSSIAN, 1.5)]
        )
        rho = np.array([0.5, 2.0])
        z = rng.normal(size=2)
        expected = np.array(
            [
                0.5 * kernel_eval(KernelSpec(LINEAR), x[n], z)
                + 2.0 * kernel_eval(KernelSpec(GAUSSIAN, 1.5), x[n], z)
                for n in range(3)
            ]
        )
        np.testing.assert_allclose(kernel_vector(d, rho, z), expected, atol=1e-12)


def assert_matches(got, ref):
    """Agreement to 1e-12 of the reference's largest entry."""
    np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.max(np.abs(ref)))


def random_symmetric(rng, n):
    a = rng.normal(size=(n, n))
    return a + a.T


class TestMatrixFreeAgainstStack:
    """The pairwise-distance paths against the explicit Gram stack."""

    def mixed_dictionary(self, rng, n):
        specs = [
            KernelSpec(GAUSSIAN, 0.4),
            KernelSpec(LINEAR),
            KernelSpec(GAUSSIAN, 1.7),
            KernelSpec(GAUSSIAN, 5.0),
            KernelSpec(LINEAR),
        ]
        return KernelDictionary.from_specs(rng.normal(size=(n, 3)), specs)

    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_mixed_families(self, n):
        rng = np.random.default_rng(8)
        d = self.mixed_dictionary(rng, n)
        rho = np.array([0.3, 0.0, 1.2, 0.5, 0.25])
        assert_matches(combine(d, rho), oracles.combine(d, rho))
        sym = random_symmetric(rng, n)
        assert_matches(
            kernel_inner_products(d, sym),
            np.tensordot(stack(d), sym, axes=([1, 2], [0, 1])),
        )

    def test_one_sample_has_no_pairs(self):
        d = self.mixed_dictionary(np.random.default_rng(9), 1)
        assert d.sq_distances.shape == (0,)
        rho = np.array([0.5, 2.0, 0.0, 1.0, 0.0])
        np.testing.assert_allclose(combine(d, rho), oracles.combine(d, rho), rtol=1e-15)

    def test_negative_weights(self):
        # fista extrapolation evaluates the internal path at such weights
        rng = np.random.default_rng(10)
        d = build_dictionary(rng.normal(size=(12, 2)), span=(0.2, 4.0), count=9)
        rho = rng.uniform(-0.5, 1.0, size=9)
        assert np.any(rho < 0)
        assert_matches(_combine_unchecked(d, rho), oracles.combine(d, rho))

    @pytest.mark.parametrize(
        "n, block_entries", [(60, kernels.BLOCK_ENTRIES), (13, 700)]
    )
    def test_partial_last_block(self, monkeypatch, n, block_entries):
        monkeypatch.setattr(kernels, "BLOCK_ENTRIES", block_entries)
        rng = np.random.default_rng(12)
        d = build_dictionary(rng.normal(size=(n, 3)), span=(0.3, 3.0), count=100)
        pairs = n * (n - 1) // 2
        assert pairs > block_entries // 100 and pairs % (block_entries // 100) != 0
        rho = np.zeros(100)
        rho[rng.choice(100, 15, replace=False)] = rng.uniform(0.1, 1.0, size=15)
        assert_matches(combine(d, rho), oracles.combine(d, rho))
        psi = rng.normal(size=(n, 4))
        assert_matches(
            -0.3 * kernel_inner_products(d, psi @ psi.T), oracles.gradient(d, psi, 0.3)
        )

    def test_read_path_builds_no_pair_arrays(self):
        rng = np.random.default_rng(13)
        d = self.mixed_dictionary(rng, 6)
        kernel_vector(d, np.ones(5), rng.normal(size=3))
        assert "sq_distances" not in vars(d) and "linear_gram" not in vars(d)

    def test_shape_check(self):
        d = self.mixed_dictionary(np.random.default_rng(14), 4)
        with pytest.raises(ValueError, match="shape"):
            kernel_inner_products(d, np.eye(3))
