"""Tests for 1-D random projections: exact dots, variant behavior, Gaussian moments."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from prone.dataset import Dataset, as_dataset
from prone.projection import VARIANTS, project, sample_direction

# the variants whose direction depends on the data
DATA_DEPENDENT = [v for v in VARIANTS if v != "standard"]


class TestProject:
    def test_dense_dot(self):
        out = project(as_dataset([[3.0, 4.0]]), [1.0, 0.0])
        assert out.tolist() == [3.0]

    def test_sparse_row_dot(self):
        row = sp.csr_matrix(([2.0, -1.0], ([0, 0], [0, 5])), shape=(1, 6))
        out = project(Dataset(row), np.ones(6))
        assert out.tolist() == [1.0]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            project(as_dataset([[1.0, 2.0]]), [1.0, 2.0, 3.0])

    def test_linearity(self):
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(8), rng.standard_normal(8)
        v = rng.standard_normal(8)
        fx = project(as_dataset([x]), v)[0]
        fy = project(as_dataset([y]), v)[0]
        fxy = project(as_dataset([x + y]), v)[0]
        assert fxy == pytest.approx(fx + fy, rel=1e-12, abs=1e-12)

    def test_sparse_dense_agreement(self):
        rng = np.random.default_rng(4)
        dense = rng.standard_normal((30, 12))
        dense[rng.random((30, 12)) < 0.7] = 0.0
        v = rng.standard_normal(12)
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
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3,)
        assert a.dtype == np.float64

    def test_standard_marginal_moments(self):
        data = as_dataset(np.zeros((2, 3)) + [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        rng = np.random.default_rng(55)
        draws = np.array([sample_direction(data, "standard", rng=rng) for _ in range(10**4)])
        assert np.abs(draws.mean(axis=0)).max() < 0.05
        np.testing.assert_allclose(draws.var(axis=0), 1.0, rtol=0.05)

    def test_covariance_variant_rank_one(self):
        # centered data on a line through the origin: direction is parallel to it
        line = np.array([3.0, 4.0, 0.0]) / 5.0
        coeffs = np.array([-2.0, -1.0, 1.0, 2.0])  # zero mean
        data = as_dataset(np.outer(coeffs, line))
        for seed in range(10):
            d = sample_direction(data, "covariance", rng=seed)
            residual = d - (d @ line) * line
            assert np.linalg.norm(residual) < 1e-9 * max(1.0, np.linalg.norm(d))

    def test_covariance_matches_empirical_covariance_law(self):
        # covariance of sampled directions approaches X_c^T X_c / n
        rng = np.random.default_rng(101)
        raw = rng.standard_normal((200, 3)) @ np.array([[2.0, 0, 0], [0.5, 1.0, 0], [0, 0, 0.2]])
        data = as_dataset(raw)
        centered = raw - raw.mean(axis=0)
        target = centered.T @ centered / raw.shape[0]
        draws = np.array([sample_direction(data, "covariance", rng=s) for s in range(4000)])
        emp = draws.T @ draws / draws.shape[0]
        np.testing.assert_allclose(emp, target, atol=0.15 * np.abs(target).max())

    @pytest.mark.parametrize("variant", DATA_DEPENDENT)
    def test_dense_and_csr_directions_agree(self, variant):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((300, 7)) * [1.0, 5.0, 0.1, 2.0, 1.0, 3.0, 1.0] + 2.0
        pts[rng.random(pts.shape) < 0.5] = 0.0
        dense = sample_direction(pts, variant, rng=3)
        csr = sample_direction(sp.csr_matrix(pts), variant, rng=3)
        np.testing.assert_allclose(csr, dense, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("variant", DATA_DEPENDENT)
    @pytest.mark.parametrize(
        "rows",
        [
            np.zeros((6, 3)),
            np.array([[2.0, -1.0, 5.0]]),
            np.full((50, 3), 3.7),
            sp.csr_matrix(np.full((50, 3), 3.7)),
        ],
    )
    def test_zero_direction_falls_back_after_one_draw(self, variant, rows):
        # constant data give a zero direction on every draw, so the variant
        # draws its n-vector once and one standard Gaussian draw follows
        rng = np.random.default_rng(9)
        d = sample_direction(rows, variant, rng=rng)
        assert d.shape == (3,) and np.any(d != 0.0)
        ref = np.random.default_rng(9)
        ref.standard_normal(rows.shape[0])
        np.testing.assert_array_equal(d, ref.standard_normal(3))
        np.testing.assert_equal(rng.bit_generator.state, ref.bit_generator.state)

    @pytest.mark.parametrize("variant", DATA_DEPENDENT)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_constant_feature_gets_exactly_zero_weight(self, variant, sparse):
        # the centered sums round a constant 3.7 to ~1e-15, not 0
        pts = np.random.default_rng(21).standard_normal((50, 4))
        pts[:, 2] = 3.7
        data = sp.csr_matrix(pts) if sparse else pts
        for seed in range(10):
            d = sample_direction(data, variant, rng=seed)
            assert d[2] == 0.0
            assert np.all(d[[0, 1, 3]] != 0.0)

    @pytest.mark.parametrize("variant", DATA_DEPENDENT)
    def test_csr_constant_test_sums_duplicates_and_counts_implicit_zeros(self, variant):
        # column 0 stores 1.0 + 2.0 in row 0 and 3.0 in rows 1, 2: constant;
        # column 1 stores 3.0 in rows 0, 1 and nothing in row 2: not constant;
        # column 2 stores nothing: constant; column 3 stores 3.0 + 3.0 in
        # row 0 and 3.0 in rows 1, 2: not constant
        indices = [0, 0, 1, 3, 3, 0, 1, 3, 0, 3]
        mat = sp.csr_matrix(([1.0, 2.0] + [3.0] * 8, indices, [0, 5, 8, 10]), shape=(3, 4))
        assert not mat.has_canonical_format
        for seed in range(10):
            d = sample_direction(mat, variant, rng=seed)
            assert d[0] == 0.0 and d[2] == 0.0
            assert d[1] != 0.0 and d[3] != 0.0

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("sparse", [False, True])
    def test_direction_holds_no_copy_of_x(self, variant, sparse):
        # X takes 32 MB dense and 12 MB as CSR, so any copy of it, such as
        # the CSC one scipy's column max and min make, exceeds the bound of
        # about 3 * 8n = 0.5 MB of n-vectors
        n, d = 20_000, 200
        mat = sp.random(n, d, density=0.25, format="csr", random_state=5)
        data = Dataset(mat if sparse else mat.toarray())
        tracemalloc.start()
        try:
            sample_direction(data, variant, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * n + 2**16

    def test_unknown_variant(self):
        data = as_dataset([[1.0]])
        for variant in ("pca", "variance"):
            with pytest.raises(ValueError, match="expected one of"):
                sample_direction(data, variant, rng=0)


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
