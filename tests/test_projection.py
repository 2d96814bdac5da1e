"""Tests for 1-D random projections: exact dots, variant behavior, Gaussian moments."""

import numpy as np
import pytest
import scipy.sparse as sp

from prone.dataset import Dataset, as_dataset
from prone.projection import ProjectionVector, project, sample_direction


def vec(direction):
    return ProjectionVector(direction=np.asarray(direction, dtype=np.float64), variant="standard")


class TestProject:
    def test_dense_dot(self):
        out = project(as_dataset([[3.0, 4.0]]), vec([1.0, 0.0]))
        assert out.tolist() == [3.0]

    def test_sparse_row_dot(self):
        row = sp.csr_matrix(([2.0, -1.0], ([0, 0], [0, 5])), shape=(1, 6))
        out = project(Dataset(row), vec(np.ones(6)))
        assert out.tolist() == [1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(as_dataset([[1.0, 2.0]]), vec([1.0, 2.0, 3.0]))

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        v = vec(rng.standard_normal(8))
        fx = project(as_dataset([x]), v)[0]
        fy = project(as_dataset([y]), v)[0]
        fxy = project(as_dataset([x + y]), v)[0]
        assert fxy == pytest.approx(fx + fy, rel=1e-12, abs=1e-12)

    def test_sparse_dense_agreement(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((30, 12))
        dense[rng.random((30, 12)) < 0.7] = 0.0
        v = vec(rng.standard_normal(12))
        out_dense = project(as_dataset(dense), v)
        out_sparse = project(Dataset(sp.csr_matrix(dense)), v)
        np.testing.assert_allclose(out_sparse, out_dense, rtol=1e-12, atol=1e-12)

    def test_two_stability(self):
        # mean of <x, g>^2 over standard Gaussian g equals ||x||^2
        rng = np.random.default_rng(123)
        x = rng.standard_normal(6)
        data = as_dataset([x])
        acc = 0.0
        draws = 10**5
        gs = rng.standard_normal((draws, 6))
        acc = float(((gs @ x) ** 2).mean())
        assert acc == pytest.approx(float(x @ x), rel=0.02)


class TestSampleDirection:
    def test_reproducible(self):
        data = as_dataset(np.random.default_rng(1).standard_normal((5, 3)))
        a = sample_direction(data, "standard", rng=7)
        b = sample_direction(data, "standard", rng=7)
        np.testing.assert_array_equal(a.direction, b.direction)
        assert a.direction.shape == (3,)
        assert a.variant == "standard"

    def test_standard_marginal_moments(self):
        data = as_dataset(np.zeros((2, 3)) + [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        rng = np.random.default_rng(55)
        draws = np.array([sample_direction(data, "standard", rng=rng).direction for _ in range(10**4)])
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.05)

    def test_variance_variant_zeroes_constant_feature(self):
        data = as_dataset([[1.0, 7.0, 2.0], [3.0, 7.0, 5.0], [0.0, 7.0, 9.0]])
        for seed in range(20):
            d = sample_direction(data, "variance", rng=seed).direction
            assert d[1] == 0.0
            assert d[0] != 0.0 and d[2] != 0.0

    def test_variance_variant_scales_by_std(self):
        # feature stds (1, 10): entry magnitude ratios follow over many draws
        rng = np.random.default_rng(8)
        col0 = rng.standard_normal(4000)
        data = as_dataset(np.column_stack([col0, 10.0 * col0]))
        draws = np.array([sample_direction(data, "variance", rng=s).direction for s in range(300)])
        ratio = np.abs(draws[:, 1]).mean() / np.abs(draws[:, 0]).mean()
        assert ratio == pytest.approx(10.0, rel=0.05)

    def test_covariance_variant_rank_one(self):
        # centered data on a line through the origin: direction is parallel to it
        line = np.array([3.0, 4.0, 0.0]) / 5.0
        coeffs = np.array([-2.0, -1.0, 1.0, 2.0])  # zero mean
        data = as_dataset(np.outer(coeffs, line))
        for seed in range(10):
            d = sample_direction(data, "covariance", rng=seed).direction
            residual = d - (d @ line) * line
            assert np.linalg.norm(residual) < 1e-9 * max(1.0, np.linalg.norm(d))

    def test_covariance_matches_empirical_covariance_law(self):
        # covariance of sampled directions approaches X_c^T X_c / n
        rng = np.random.default_rng(101)
        raw = rng.standard_normal((200, 3)) @ np.array([[2.0, 0, 0], [0.5, 1.0, 0], [0, 0, 0.2]])
        data = as_dataset(raw)
        centered = raw - raw.mean(axis=0)
        target = centered.T @ centered / raw.shape[0]
        draws = np.array([sample_direction(data, "covariance", rng=s).direction for s in range(4000)])
        emp = draws.T @ draws / draws.shape[0]
        np.testing.assert_allclose(emp, target, atol=0.15 * np.abs(target).max())

    @pytest.mark.parametrize("variant", ["variance", "covariance"])
    def test_dense_and_csr_directions_agree(self, variant):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((300, 7)) * [1.0, 5.0, 0.1, 2.0, 1.0, 3.0, 1.0] + 2.0
        pts[rng.random(pts.shape) < 0.5] = 0.0
        dense = sample_direction(pts, variant, rng=3).direction
        csr = sample_direction(sp.csr_matrix(pts), variant, rng=3).direction
        np.testing.assert_allclose(csr, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("variant", ["variance", "covariance"])
    @pytest.mark.parametrize("rows", [np.zeros((6, 3)), np.array([[2.0, -1.0, 5.0]])])
    def test_zero_direction_falls_back_after_one_draw(self, variant, rows):
        # constant data give a zero direction on every draw, so the variant
        # draws once and one standard Gaussian draw follows
        rng = np.random.default_rng(9)
        d = sample_direction(rows, variant, rng=rng).direction
        assert d.shape == (3,) and np.any(d != 0.0)
        ref = np.random.default_rng(9)
        ref.standard_normal(3 if variant == "variance" else rows.shape[0])
        np.testing.assert_array_equal(d, ref.standard_normal(3))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    def test_unknown_variant(self):
        data = as_dataset([[1.0]])
        with pytest.raises(ValueError):
            sample_direction(data, "pca", rng=0)


def test_projected_cost_preserved_in_expectation():
    # z=2, fixed clusters and centers: E over g of projected cost = original cost
    rng = np.random.default_rng(17)
    pts = rng.standard_normal((200, 5))
    labels = rng.integers(0, 4, size=200)
    centers = rng.standard_normal((4, 5))
    diffs = pts - centers[labels]
    original = float((diffs**2).sum())
    draws = 4000
    gs = rng.standard_normal((draws, 5))
    projected_costs = ((diffs @ gs.T) ** 2).sum(axis=0)
    assert projected_costs.mean() == pytest.approx(original, rel=0.05)
