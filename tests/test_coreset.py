"""Tests for sensitivity/lightweight sampling distributions, coresets, and the boosted pipeline."""

import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from prone._util import inverse_cdf, padded_pairwise_sum
from prone.baseline import (
    ClusteringModel,
    cost_with_assignment,
    cost_with_nearest,
    kmeanspp_seed,
    nearest_assignment,
    pointwise_assignment_costs,
)
from prone.coreset import (
    BoostedResult,
    _sensitivity_from_costs,
    boosted_prone,
    lightweight_distribution,
    sample_coreset,
    sensitivity_distribution,
)
from prone.dataset import as_dataset, gen_gaussian_mixture
from prone.pipeline import ProneConfig, prone


def model_for(points, centers, z=2.0):
    data = as_dataset(points)
    centers = np.asarray(centers, dtype=np.float64)
    if centers.ndim == 1:
        centers = centers[:, None]
    labels, _ = nearest_assignment(data, centers)
    return data, ClusteringModel(
        centers=centers,
        assignment=labels,
        cost=cost_with_assignment(data, centers, labels, z),
        z=z,
    )


class TestSensitivityDistribution:
    def test_hand_example(self):
        # X={0,1,10}, C={0,10}: costs (0,1,0), cluster sizes (2,2,1) by label
        data, model = model_for([[0.0], [1.0], [10.0]], [[0.0], [10.0]])
        probs = sensitivity_distribution(data, model)
        # masses (0.5, 1.5, 1.0) over 1 + k' = 3
        np.testing.assert_allclose(probs, [1 / 6, 1 / 2, 1 / 3], rtol=1e-12)

    def test_zero_cost_uniform_within_cluster(self):
        data, model = model_for([[0.0], [0.0], [5.0]], [[0.0], [5.0]])
        probs = sensitivity_distribution(data, model)
        # cost term vanishes: mass is 1/|cluster| and each cluster gets equal total
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.5], rtol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = rng.standard_normal((40, 3))
            data = as_dataset(pts)
            model = kmeanspp_seed(data, k=int(rng.integers(1, 8)), z=2, rng=rng)
            probs = sensitivity_distribution(data, model)
            assert probs.sum() == pytest.approx(1.0, rel=1e-12)

    def test_strictly_positive(self):
        # zero-cost points still get sampled: the size term never vanishes
        data, model = model_for([[0.0], [0.0], [9.0]], [[0.0], [9.0]])
        assert (sensitivity_distribution(data, model) > 0).all()

    def test_overflowing_costs_rejected(self):
        # finite points whose costs overflow: the error names the costs, not
        # the probabilities the caller never passed
        with np.errstate(over="ignore"):
            data, model = model_for([[0.0], [1e80], [3e80]], [[0.0], [3e80]], z=4.0)
            with pytest.raises(ValueError, match="^points' costs must be finite$"):
                sensitivity_distribution(data, model)


class TestLightweightDistribution:
    def test_identical_points_uniform(self):
        probs = lightweight_distribution(as_dataset([[3.0], [3.0], [3.0]]))
        np.testing.assert_allclose(probs, [1 / 3] * 3)

    def test_symmetric_pair_uniform(self):
        probs = lightweight_distribution(as_dataset([[-1.0], [1.0]]))
        np.testing.assert_allclose(probs, [0.5, 0.5])

    def test_outlier_mass(self):
        # mean 2, squared distances (4,4,4,4,64): q_5 = 1/10 + 64/160 = 1/2
        probs = lightweight_distribution(as_dataset([[0.0], [0.0], [0.0], [0.0], [10.0]]))
        assert probs[-1] == pytest.approx(0.5, rel=1e-12)
        np.testing.assert_allclose(probs[:4], [0.125] * 4, rtol=1e-12)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(8)
        pts = rng.standard_normal((30, 4))
        probs = lightweight_distribution(as_dataset(pts))
        mu = pts.mean(axis=0)
        d2 = ((pts - mu) ** 2).sum(axis=1)
        expect = 0.5 / 30 + 0.5 * d2 / d2.sum()
        np.testing.assert_allclose(probs, expect, rtol=1e-12)

    def test_csr_matches_dense(self):
        mat = sp.random(300, 40, density=0.1, format="csr", random_state=6)
        dense = lightweight_distribution(mat.toarray())
        np.testing.assert_allclose(lightweight_distribution(mat), dense, rtol=1e-12)

    def test_overflowing_mean_rejected(self):
        # finite points whose sum overflows would give NaN probabilities
        pts = np.full((4, 2), 1e308)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="^points' mean must be finite$"):
                lightweight_distribution(pts)

    @pytest.mark.parametrize("sparse, workers", [
        pytest.param(s, w, id=str(s) if w == 1 else f"{s}-4workers")
        for w in (1, 4) for s in (False, True)
    ])
    def test_holds_no_copy_of_x(self, sparse, workers, force_workers):
        # X takes 40 MB dense and 12 MB as CSR; the distances to the mean
        # need the distances, the labels and one kernel block of 2**16
        # stored values, not a centered or squared copy of X. The block is
        # one float64 temporary for dense rows; for CSR it is about eight value
        # and index temporaries per stored value. The probabilities are
        # written over the distances. Workers share the block budget
        force_workers(workers)
        n, d = 100_000, 50
        mat = sp.random(n, d, density=0.2, format="csr", random_state=5)
        data = as_dataset(mat if sparse else mat.toarray())
        tracemalloc.start()
        try:
            lightweight_distribution(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        per_value = 64 if sparse else 8
        assert peak <= 2 * 8 * n + per_value * 2**16 + 2**16


def two_share_sensitivity(costs, sigma, k):
    """The formula of ``_sensitivity_from_costs``, with the two shares as separate arrays."""
    total = float(costs.sum())
    sizes = np.bincount(sigma, minlength=k)
    k_nonempty = int((sizes > 0).sum())
    cost_share = costs / total if total > 0 else np.zeros_like(costs)
    size_share = 1.0 / sizes[sigma]
    return (cost_share + size_share) / ((1.0 if total > 0 else 0.0) + k_nonempty)


def two_share_lightweight(points):
    """The formula of ``lightweight_distribution``, with the two shares as separate arrays."""
    data = as_dataset(points)
    n = data.n
    mean = np.asarray(data.points.sum(axis=0)).ravel() / n
    d2 = pointwise_assignment_costs(data, mean[None], np.zeros(n, dtype=np.intp))
    total = float(d2.sum())
    if total > 0:
        size_share, cost_share = np.full(n, 1.0 / (2.0 * n)), d2 / (2.0 * total)
    else:
        size_share, cost_share = np.full(n, 1.0 / n), np.zeros(n)
    return size_share + cost_share


class TestInPlaceFormulas:
    # the in-place arithmetic must give the bits that separate shares give

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
    def test_sensitivity_bit_identical(self, sparse, z):
        rng = np.random.default_rng(17)
        pts = rng.standard_normal((500, 7)) * 10.0 ** rng.integers(-3, 4, size=7)
        pts[rng.random(pts.shape) < 0.5] = 0.0
        points = sp.csr_matrix(pts) if sparse else pts
        k = 12
        sigma = rng.integers(0, k - 3, size=500)  # cluster ids 9 to 11 have no points
        centers = rng.standard_normal((k, 7))
        costs = pointwise_assignment_costs(points, centers, sigma, z)
        want = two_share_sensitivity(costs, sigma, k)
        got = _sensitivity_from_costs(costs.copy(), sigma, k)
        np.testing.assert_array_equal(got, want)
        model = ClusteringModel(centers, sigma, float(costs.sum()), z)
        np.testing.assert_array_equal(sensitivity_distribution(points, model), want)

    def test_sensitivity_zero_total_cost(self):
        sigma = np.array([0, 0, 3, 3, 3, 1])  # cluster id 2 has no points
        costs = np.zeros(6)
        want = two_share_sensitivity(costs, sigma, 5)
        np.testing.assert_array_equal(_sensitivity_from_costs(costs, sigma, 5), want)

    @pytest.mark.parametrize("sparse", [False, True])
    def test_lightweight_bit_identical(self, sparse):
        mat = sp.random(700, 30, density=0.2, format="csr", random_state=4) * 1e3
        points = mat if sparse else mat.toarray()
        np.testing.assert_array_equal(lightweight_distribution(points), two_share_lightweight(points))

    @pytest.mark.parametrize("sparse", [False, True])
    def test_lightweight_zero_total(self, sparse):
        pts = np.full((9, 3), 2.5)
        points = sp.csr_matrix(pts) if sparse else pts
        np.testing.assert_array_equal(lightweight_distribution(points), two_share_lightweight(points))


def line(n):
    return as_dataset(np.arange(float(n))[:, None])


def walk_back_inverse_cdf(masses, r):
    """The rule before the shared helper: search, clamp to n - 1, walk back over zeros."""
    n = masses.size
    idx = int(np.searchsorted(np.cumsum(masses), r, side="right"))
    if idx >= n:
        idx = n - 1
    while masses[idx] == 0.0:
        idx -= 1
    return idx


masses_with_zeros = st.tuples(
    st.integers(0, 3),
    st.lists(
        st.one_of(st.just(0.0), st.floats(0.0, 1e300), st.floats(0.0, 1e-300)),
        min_size=1,
        max_size=30,
    ),
    st.integers(0, 3),
).map(lambda t: np.array([0.0] * t[0] + t[1] + [0.0] * t[2])).filter(lambda m: m.sum() > 0)


class TestInverseCdf:
    @settings(max_examples=300, deadline=None)
    @given(masses=masses_with_zeros, data=st.data())
    def test_matches_walk_back_rule(self, masses, data):
        top = float(np.cumsum(masses)[-1])
        r_values = st.one_of(
            st.just(0.0),
            st.floats(0.0, 1.0).map(lambda u: u * top),
            st.sampled_from([top, np.nextafter(top, np.inf), 2.0 * top, padded_pairwise_sum(masses)]),
        )
        rs = data.draw(st.lists(r_values, min_size=1, max_size=8))
        expect = [walk_back_inverse_cdf(masses, r) for r in rs]
        assert [int(inverse_cdf(masses, r)) for r in rs] == expect
        np.testing.assert_array_equal(inverse_cdf(masses, np.array(rs)), expect)

    def test_edges(self):
        m = np.array([0.0, 0.0, 2.0, 0.0, 1.0, 0.0, 0.0])
        assert int(inverse_cdf(m, 0.0)) == 2  # leading zeros are skipped
        assert int(inverse_cdf(m, 2.0)) == 4  # interior zero is skipped
        assert int(inverse_cdf(m, 3.0)) == 4  # at the total: last positive mass
        assert int(inverse_cdf(m, 1e9)) == 4
        np.testing.assert_array_equal(inverse_cdf(m, np.array([0.0, 1.999, 2.5, 3.0])), [2, 2, 4, 4])


class TestCoresetDraws:
    def test_single_outcome(self):
        cs = sample_coreset(line(1), [1.0], s=10, rng=np.random.default_rng(0))
        assert cs.source_indices.tolist() == [0] * 10
        np.testing.assert_array_equal(cs.weights, np.full(10, 0.1))

    def test_empirical_frequencies(self):
        probs = np.array([0.5, 0.3, 0.2])
        cs = sample_coreset(line(3), probs, s=60_000, rng=np.random.default_rng(9))
        freq = np.bincount(cs.source_indices, minlength=3) / 60_000
        se = np.sqrt(probs * (1 - probs) / 60_000)
        assert (np.abs(freq - probs) < 3 * se).all()

    def test_reproducible(self):
        probs = [0.25, 0.75]
        a = sample_coreset(line(2), probs, s=100, rng=np.random.default_rng(4))
        b = sample_coreset(line(2), probs, s=100, rng=np.random.default_rng(4))
        np.testing.assert_array_equal(a.source_indices, b.source_indices)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_normalizes_relative_masses(self):
        # inputs are relative masses; [1, 3] behaves like [0.25, 0.75]
        cs = sample_coreset(line(2), [1.0, 3.0], s=40_000, rng=np.random.default_rng(2))
        assert cs.source_indices.mean() == pytest.approx(0.75, abs=3 * np.sqrt(0.1875 / 40_000))

    def test_relative_masses_scale_weights_too(self):
        p = np.random.default_rng(3).random(50)
        p /= p.sum()
        a = sample_coreset(line(50), p, s=200, rng=np.random.default_rng(7))
        b = sample_coreset(line(50), 4.0 * p, s=200, rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a.source_indices, b.source_indices)
        np.testing.assert_array_equal(a.weights, b.weights)

    def test_rejects_bad_masses(self):
        bad = {
            "must be finite and nonnegative": ([-0.1, 1.1], [np.nan, 1.0], [np.inf, 1.0]),
            "must not all be zero": ([0.0, 0.0],),
            "must have one entry per point": ([], [1.0], [0.2, 0.3, 0.5]),
        }
        for message, cases in bad.items():
            for probs in cases:
                with pytest.raises(ValueError, match=f"probabilities {message}"):
                    sample_coreset(line(2), probs, s=4, rng=0)

    def test_rejects_complex_masses(self):
        # the float64 cast used to drop the imaginary part with only a warning
        ones = np.ones(2) * (1 + 1j)
        with pytest.raises(ValueError, match="^probabilities must be real, not complex$"):
            sample_coreset(line(2), ones, s=4, rng=0)
        with pytest.raises(ValueError, match="^weights must be real, not complex$"):
            kmeanspp_seed(line(100), 2, weights=np.ones(100) * 1j)


class TestSampleCoreset:
    def test_uniform_weights_are_one(self):
        data, model = model_for([[float(i)] for i in range(8)], [[float(i)] for i in range(8)])
        # every point its own center: uniform distribution over 8 points
        probs = sensitivity_distribution(data, model)
        cs = sample_coreset(data, probs, s=8, rng=1)
        np.testing.assert_allclose(cs.weights, np.ones(8))
        assert cs.size == 8

    def test_single_sample_weight(self):
        data, model = model_for([[0.0], [1.0], [10.0]], [[0.0], [10.0]])
        probs = sensitivity_distribution(data, model)
        cs = sample_coreset(data, probs, s=1, rng=5)
        i = cs.source_indices[0]
        assert cs.weights[0] == pytest.approx(1.0 / probs[i], rel=1e-12)

    def test_unbiased_cost_estimate(self):
        data, _ = gen_gaussian_mixture(5, 200, 4, 100.0, rng=2)
        centers = np.random.default_rng(3).uniform(0, 100, size=(5, 4))
        full = cost_with_nearest(data, centers, z=2)
        model = kmeanspp_seed(data, k=5, z=2, rng=7)
        probs = sensitivity_distribution(data, model)
        rng = np.random.default_rng(11)
        est = []
        for _ in range(300):
            cs = sample_coreset(data, probs, s=256, rng=rng)
            est.append(cost_with_nearest(cs.points, centers, z=2, weights=cs.weights))
        assert np.mean(est) == pytest.approx(full, rel=0.05)

    def test_dense_and_csr_identical(self):
        # half-zero integer coordinates in [-3, 3], and centers that are data
        # points: dense and CSR costs are both exact, so every draw agrees
        rng = np.random.default_rng(4)
        pts = rng.integers(-3, 4, size=(200, 5)).astype(np.float64)
        pts[rng.random(pts.shape) < 0.5] = 0.0
        coresets = []
        for points in (pts, sp.csr_matrix(pts)):
            model = kmeanspp_seed(points, 6, 2, np.random.default_rng(1))
            probs = sensitivity_distribution(points, model)
            coresets.append(sample_coreset(points, probs, 50, rng=9))
        dense, csr = coresets
        np.testing.assert_array_equal(csr.points, dense.points)
        np.testing.assert_array_equal(csr.weights, dense.weights)
        np.testing.assert_array_equal(csr.source_indices, dense.source_indices)

    def test_rejects_bad_s(self):
        data, model = model_for([[0.0], [1.0]], [[0.0]])
        probs = sensitivity_distribution(data, model)
        with pytest.raises(ValueError):
            sample_coreset(data, probs, s=0, rng=0)

    def test_s_must_be_an_integer(self):
        # these used to fail inside numpy with a TypeError
        data, model = model_for([[0.0], [1.0]], [[0.0]])
        probs = sensitivity_distribution(data, model)
        for s in (2.5, True, np.float64(3.0)):
            with pytest.raises(ValueError, match=r"^s=.* must be an integer$"):
                sample_coreset(data, probs, s=s, rng=0)
        with pytest.raises(ValueError, match=r"^s=0 must be >= 1$"):
            sample_coreset(data, probs, s=0, rng=0)
        assert sample_coreset(data, probs, s=np.int64(3), rng=0).size == 3


class TestBoosted:
    @pytest.mark.parametrize("z", [float("nan"), float("inf")])
    def test_non_finite_z_rejected(self, z):
        data, _ = gen_gaussian_mixture(2, 50, 2, 10.0, rng=0)
        with pytest.raises(ValueError, match="finite"):
            boosted_prone(data, k=2, z=z, alpha=0.5, rng=0)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), 0.0, -0.5])
    def test_non_finite_or_nonpositive_alpha_rejected(self, alpha):
        data, _ = gen_gaussian_mixture(2, 50, 2, 10.0, rng=0)
        with pytest.raises(ValueError, match="alpha=.* must be finite and positive"):
            boosted_prone(data, k=2, z=2, alpha=alpha, rng=0)

    def test_overflowing_costs_rejected(self):
        data, _ = gen_gaussian_mixture(4, 50, 3, 1e102, rng=0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(ValueError, match="^points' costs must be finite$"):
                boosted_prone(data, k=2, z=4, alpha=0.5, rng=0)

    def test_alpha_above_one_draws_more_than_n(self):
        data, _ = gen_gaussian_mixture(2, 50, 2, 10.0, rng=0)
        res = boosted_prone(data, k=2, z=2, alpha=3.0, rng=0)
        assert res.coreset.weights.shape == (300,)

    def test_alpha_n_below_k_rejected(self):
        data, _ = gen_gaussian_mixture(2, 50, 2, 10.0, rng=0)
        with pytest.raises(ValueError, match="alpha"):
            boosted_prone(data, k=5, z=2, alpha=0.001, rng=0)

    def test_k_equals_n_alpha_one_zero_coreset_cost(self):
        pts = np.random.default_rng(2).standard_normal((12, 3))
        res = boosted_prone(as_dataset(pts), k=12, z=2, alpha=1.0, rng=4)
        # all distinct coreset points become centers: coreset cost is exactly 0
        assert res.model.cost == 0.0

    def test_weight_scaling_invariance(self):
        # uniform weight scaling must not change seeding decisions
        pts = np.random.default_rng(6).standard_normal((40, 3))
        data = as_dataset(pts)
        a = kmeanspp_seed(data, k=5, z=2, rng=np.random.default_rng(8), weights=np.ones(40))
        b = kmeanspp_seed(data, k=5, z=2, rng=np.random.default_rng(8), weights=7.0 * np.ones(40))
        np.testing.assert_array_equal(a.centers, b.centers)
        np.testing.assert_array_equal(a.assignment, b.assignment)
        assert b.cost == pytest.approx(7.0 * a.cost, rel=1e-12)

    def test_mixture_quality_near_kmeanspp(self):
        data, _ = gen_gaussian_mixture(20, 500, 10, 1e5, rng=4)
        boosted_costs, base_costs = [], []
        for seed in range(5):
            res = boosted_prone(data, k=20, z=2, alpha=0.1, rng=seed)
            ev = res.evaluate(data)
            boosted_costs.append(ev.cost)
            base = kmeanspp_seed(data, k=20, z=2, rng=np.random.default_rng(seed))
            base_costs.append(cost_with_nearest(data, base.centers, z=2))
        assert np.mean(boosted_costs) <= 1.5 * np.mean(base_costs)

    def test_evaluate_assigns_full_data(self):
        data, _ = gen_gaussian_mixture(4, 100, 5, 100.0, rng=9)
        res = boosted_prone(data, k=4, z=2, alpha=0.2, rng=1)
        ev = res.evaluate(data)
        assert ev.assignment.shape == (400,)
        assert ev.cost == pytest.approx(cost_with_nearest(data, ev.centers, z=2), rel=1e-12)

    def test_dense_and_csr_costs_agree(self):
        data, _ = gen_gaussian_mixture(5, 60, 6, 20.0, rng=3)
        pts = data.to_dense().copy()
        pts[np.random.default_rng(0).random(pts.shape) < 0.3] = 0.0
        dense = boosted_prone(pts, k=5, z=2, alpha=0.3, rng=7)
        csr = boosted_prone(sp.csr_matrix(pts), k=5, z=2, alpha=0.3, rng=7)
        for a, b in ((dense.prone_result.model, csr.prone_result.model),
                     (dense.model, csr.model), (dense.evaluate(pts), csr.evaluate(pts))):
            assert b.cost == pytest.approx(a.cost, rel=1e-9)

    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
    def test_equals_the_steps_run_in_turn(self, sparse, z):
        # boosted_prone hands prone's per-point costs to the sensitivity
        # step; recomputing them from the model must change nothing
        data, _ = gen_gaussian_mixture(5, 80, 6, 20.0, rng=3)
        pts = data.to_dense().copy()
        pts[np.random.default_rng(0).random(pts.shape) < 0.3] = 0.0
        points = sp.csr_matrix(pts) if sparse else pts
        k, alpha = 5, 0.25
        rng = np.random.default_rng(7)
        base = prone(points, ProneConfig(k=k, z=z), rng=rng)
        probs = sensitivity_distribution(points, base.model)
        coreset = sample_coreset(points, probs, math.ceil(alpha * len(pts)), rng)
        seeded = kmeanspp_seed(coreset.points, k, z, rng, weights=coreset.weights)
        want = BoostedResult(model=seeded, prone_result=base, coreset=coreset, timings={})

        got = boosted_prone(points, k, z, alpha, rng=np.random.default_rng(7))
        assert got.prone_result.model.cost == base.model.cost
        np.testing.assert_array_equal(got.coreset.source_indices, coreset.source_indices)
        np.testing.assert_array_equal(got.coreset.weights, coreset.weights)
        np.testing.assert_array_equal(got.model.centers, seeded.centers)
        assert got.model.cost == seeded.cost
        got_ev, want_ev = got.evaluate(points), want.evaluate(points)
        np.testing.assert_array_equal(got_ev.assignment, want_ev.assignment)
        assert got_ev.cost == want_ev.cost

    def test_peak_memory_of_one_call(self):
        # the peak is prone's own (see test_pipeline's test of the same name):
        # the sensitivity step writes the probabilities over prone's cost
        # vector, so it adds no n-vector on top of it
        n = 200_000
        pts = as_dataset(np.random.default_rng(5).standard_normal((n, 16)))
        tracemalloc.start()
        try:
            boosted_prone(pts, k=100, z=2, alpha=0.01, rng=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capacity = 1 << (n - 1).bit_length()
        projection = 8 * n if sys.version_info < (3, 11) else 0
        assert peak < projection + 2 * 8 * n + 16 * capacity + 2**20

    def test_timings_present(self):
        data, _ = gen_gaussian_mixture(3, 60, 4, 50.0, rng=5)
        res = boosted_prone(data, k=3, z=2, alpha=0.5, rng=2)
        assert {"prone", "coreset", "weighted_seed"} <= set(res.timings)

    def test_prone_stage_covers_prones_own_stages(self):
        data, _ = gen_gaussian_mixture(3, 60, 4, 50.0, rng=5)
        res = boosted_prone(data, k=3, z=2, alpha=0.5, rng=2)
        assert list(res.timings) == ["prone", "coreset", "weighted_seed"]
        assert res.timings["prone"] >= sum(res.prone_result.timings.values())
