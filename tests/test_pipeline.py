"""End-to-end tests for the project -> 1-D seed -> lift pipeline."""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from prone import seeding1d
from prone.baseline import cost_with_nearest
from prone.dataset import as_dataset, gen_gaussian_mixture
from prone.pipeline import ProneConfig, ProneResult, prone, prone_center_cost


class TestProne:
    def test_k_equals_n_zero_cost(self):
        pts = np.random.default_rng(0).standard_normal((8, 3))
        res = prone(as_dataset(pts), ProneConfig(k=8, seed=4))
        assert res.model.cost == 0.0
        assert res.model.k == 8

    def test_two_far_singletons(self):
        data = as_dataset([[0.0, 0.0], [1000.0, 1000.0]])
        for seed in range(25):
            res = prone(data, ProneConfig(k=2, seed=seed))
            assert res.model.cost == 0.0
            assert res.model.assignment[0] != res.model.assignment[1]

    @pytest.mark.parametrize("variant", ["standard", "variance", "covariance"])
    def test_dense_and_csr_costs_agree(self, variant):
        data, _ = gen_gaussian_mixture(5, 60, 6, 20.0, rng=3)
        pts = data.to_dense().copy()
        pts[np.random.default_rng(0).random(pts.shape) < 0.3] = 0.0
        cfg = ProneConfig(k=5, z=2, variant=variant, seed=11)
        dense, csr = prone(pts, cfg), prone(sp.csr_matrix(pts), cfg)
        np.testing.assert_array_equal(csr.model.assignment, dense.model.assignment)
        assert csr.model.cost == pytest.approx(dense.model.cost, rel=1e-9)

    def test_deterministic_bit_for_bit(self):
        data, _ = gen_gaussian_mixture(5, 40, 6, 100.0, rng=3)
        a = prone(data, ProneConfig(k=5, z=2, seed=42))
        b = prone(data, ProneConfig(k=5, z=2, seed=42))
        np.testing.assert_array_equal(a.model.centers, b.model.centers)
        np.testing.assert_array_equal(a.model.assignment, b.model.assignment)
        assert a.model.cost == b.model.cost
        np.testing.assert_array_equal(a.projection.direction, b.projection.direction)

    def test_seed_changes_output(self):
        data, _ = gen_gaussian_mixture(5, 40, 6, 100.0, rng=3)
        a = prone(data, ProneConfig(k=5, seed=1))
        b = prone(data, ProneConfig(k=5, seed=2))
        assert not np.array_equal(a.projection.direction, b.projection.direction)

    def test_mixture_quality_vs_ground_truth(self):
        # separation >> noise: assignment cost within 10x of true-center cost
        data, true_centers = gen_gaussian_mixture(20, 500, 10, 1e5, rng=11)
        true_cost = cost_with_nearest(data, true_centers, z=2)
        ratios = []
        for seed in range(30):
            res = prone(data, ProneConfig(k=20, z=2, seed=seed))
            ratios.append(res.model.cost / true_cost)
        assert np.median(ratios) <= 10.0

    def test_exhausted_duplicates(self):
        data = as_dataset([[1.0], [1.0], [1.0], [5.0]])
        res = prone(data, ProneConfig(k=4, seed=0))
        assert res.exhausted
        assert res.model.k == 2

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            prone(as_dataset([[1.0], [2.0]]), ProneConfig(k=3, seed=0))

    def test_variants_run(self):
        data, _ = gen_gaussian_mixture(4, 30, 5, 200.0, rng=8)
        for variant in ("standard", "variance", "covariance"):
            res = prone(data, ProneConfig(k=4, variant=variant, seed=9))
            assert res.projection.variant == variant
            assert np.isfinite(res.model.cost)

    def test_timings_cover_phases(self):
        data, _ = gen_gaussian_mixture(3, 20, 4, 100.0, rng=1)
        res = prone(data, ProneConfig(k=3, seed=2))
        assert set(res.timings) >= {"project", "seed", "lift", "assign"}

    def test_scale_equivariance(self):
        rng = np.random.default_rng(23)
        pts = rng.standard_normal((60, 4))
        lam = 4.0
        for z in (1.0, 2.0):
            a = prone(as_dataset(pts), ProneConfig(k=6, z=z, seed=77))
            b = prone(as_dataset(lam * pts), ProneConfig(k=6, z=z, seed=77))
            np.testing.assert_array_equal(a.model.assignment, b.model.assignment)
            assert b.model.cost == pytest.approx(lam**z * a.model.cost, rel=1e-9)

    @pytest.mark.parametrize("scale", [1e-200, 1e160])
    def test_extreme_scales_seed_every_center(self, scale):
        # the projected masses would underflow to 0 (one center, exhausted)
        # or overflow (masses not finite) without the seeders' rescaling
        data, _ = gen_gaussian_mixture(5, 200, 3, 100.0, rng=1)
        pts = data.to_dense()
        want = prone(pts, ProneConfig(k=5, seed=0))
        got = prone(pts * scale, ProneConfig(k=5, seed=0))
        assert got.seeding.k_found == 5 and not got.exhausted
        np.testing.assert_array_equal(got.seeding.center_indices, want.seeding.center_indices)
        np.testing.assert_array_equal(got.model.assignment, want.model.assignment)

    def test_result_holds_no_per_point_costs(self):
        # the result keeps the assignment (8n bytes) and O(kd); a per-point
        # cost vector kept alongside would add another 8n, which a slack
        # of 1 MB would hide at this n
        n = 200_000
        pts = np.random.default_rng(5).standard_normal((n, 16))
        tracemalloc.start()
        try:
            res = prone(pts, ProneConfig(k=50, seed=3))
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.model.assignment.nbytes == 8 * n
        assert held < 1.5 * 8 * n + 2**18


class TestNonFiniteZ:
    @pytest.mark.parametrize("z", [float("nan"), float("inf"), 0.5])
    def test_config_rejects(self, z):
        # prone takes z only through its config, so this guards prone too
        with pytest.raises(ValueError, match="finite and >= 1"):
            ProneConfig(k=2, z=z)


def _ancestor_count(capacity, start, stop):
    """Distinct internal nodes above leaves [start, stop) of a padded tree."""
    level = {capacity + i for i in range(start, stop)}
    count = 0
    while level != {1}:
        level = {node >> 1 for node in level}
        count += len(level)
    return count


class TestTracedLayerNames:
    """One prone call must go through the names a per-layer trace wraps."""

    def test_prone_reaches_traced_layers(self, monkeypatch):
        calls = {"find": 0, "update": 0}
        find = seeding1d.SamplingTree.find
        update = seeding1d.SamplingTree.update

        def counted_find(tree, r):
            calls["find"] += 1
            return find(tree, r)

        def checked_update(tree, a, start, stop):
            calls["update"] += 1
            tree.last_update_leaf_nodes = tree.last_update_internal_nodes = -1
            update(tree, a, start, stop)
            assert tree.last_update_leaf_nodes == stop - start
            assert tree.last_update_internal_nodes == _ancestor_count(tree.capacity, start, stop)

        monkeypatch.setattr(seeding1d.SamplingTree, "find", counted_find)
        monkeypatch.setattr(seeding1d.SamplingTree, "update", checked_update)
        data, _ = gen_gaussian_mixture(6, 300, 4, 100.0, rng=2)
        res = prone(data, ProneConfig(k=6, seed=1))
        assert res.seeding.k_found == 6
        assert calls == {"find": 5, "update": 5}


class TestProneCenterCost:
    def test_never_exceeds_assignment_cost(self):
        data, _ = gen_gaussian_mixture(6, 50, 5, 50.0, rng=5)
        for seed in range(10):
            res = prone(data, ProneConfig(k=6, seed=seed))
            assert prone_center_cost(data, res) <= res.model.cost + 1e-9

    def test_k_equals_n(self):
        pts = np.random.default_rng(3).standard_normal((7, 2))
        data = as_dataset(pts)
        res = prone(data, ProneConfig(k=7, seed=1))
        assert prone_center_cost(data, res) == 0.0

    def test_matches_direct_nearest_cost(self):
        data, _ = gen_gaussian_mixture(4, 25, 3, 30.0, rng=6)
        res = prone(data, ProneConfig(k=4, seed=3))
        assert prone_center_cost(data, res) == pytest.approx(
            cost_with_nearest(data, res.model.centers, 2.0), rel=1e-12
        )
