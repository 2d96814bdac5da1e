"""End-to-end tests for the project -> 1-D seed -> lift pipeline."""

import sys
import time
import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse as sp

from prone import pipeline, seeding1d
from prone._util import StageClock
from prone.baseline import cost_with_nearest, kmeanspp_seed
from prone.dataset import as_dataset, gen_gaussian_mixture
from prone.pipeline import ProneConfig, ProneResult, prone
from prone.projection import VARIANTS
from prone.seeding1d import seed_1d_fast


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

    @pytest.mark.parametrize("variant", VARIANTS)
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
        np.testing.assert_array_equal(a.direction, b.direction)

    def test_seed_changes_output(self):
        data, _ = gen_gaussian_mixture(5, 40, 6, 100.0, rng=3)
        a = prone(data, ProneConfig(k=5, seed=1))
        b = prone(data, ProneConfig(k=5, seed=2))
        assert not np.array_equal(a.direction, b.direction)

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
        assert res.seeding.exhausted
        assert res.model.k == 2

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            prone(as_dataset([[1.0], [2.0]]), ProneConfig(k=3, seed=0))

    def test_variants_run(self):
        data, _ = gen_gaussian_mixture(4, 30, 5, 200.0, rng=8)
        for variant in VARIANTS:
            res = prone(data, ProneConfig(k=4, variant=variant, seed=9))
            assert res.direction.shape == (data.d,)
            assert np.isfinite(res.model.cost)

    def test_timings_cover_phases(self):
        data, _ = gen_gaussian_mixture(3, 20, 4, 100.0, rng=1)
        res = prone(data, ProneConfig(k=3, seed=2))
        assert list(res.timings) == ["project", "seed", "lift", "assign"]

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
        assert got.seeding.k_found == 5 and not got.seeding.exhausted
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


    def test_peak_memory_of_one_call(self):
        # the seeding's peak holds the sorted values, the int32 order and
        # labels, the tree's nodes and one scan block. No name in ``_prone``
        # holds the projection; CPython >= 3.11 hands a call's arguments to
        # the callee, so the seeder frees it after sorting, while on 3.10 the
        # caller's stack keeps it until the seeder returns
        n = 200_000
        pts = as_dataset(np.random.default_rng(5).standard_normal((n, 16)))
        tracemalloc.start()
        try:
            prone(pts, ProneConfig(k=50, seed=3))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        capacity = 1 << (n - 1).bit_length()
        projection = 8 * n if sys.version_info < (3, 11) else 0
        assert peak < projection + 2 * 8 * n + 16 * capacity + 2**20


class TestNonFiniteZ:
    @pytest.mark.parametrize("z", [float("nan"), float("inf"), 0.5])
    def test_config_rejects(self, z):
        # prone takes z only through its config, so this guards prone too
        with pytest.raises(ValueError, match="finite and >= 1"):
            ProneConfig(k=2, z=z)


def test_config_rejects_unknown_variant():
    with pytest.raises(ValueError, match=r"expected one of \('standard', 'covariance'\)"):
        ProneConfig(k=3, variant="variance")


# every entry point that takes k, called on 10 points in R^2
K_ENTRY_POINTS = {
    "prone": lambda pts, k: prone(pts, ProneConfig(k=k, seed=0)),
    "seed_1d_fast": lambda pts, k: seed_1d_fast(pts[:, 0], k, rng=0),
    "kmeanspp_seed": lambda pts, k: kmeanspp_seed(pts, k, rng=0),
}


@pytest.mark.parametrize("entry", sorted(K_ENTRY_POINTS))
def test_k_must_be_an_integer(entry):
    # a float k used to fail inside numpy with a TypeError, and k=True ran as k=1
    call = K_ENTRY_POINTS[entry]
    pts = np.random.default_rng(3).standard_normal((10, 2))
    for k in (2.5, 3.0, np.float64(3.0), True):
        with pytest.raises(ValueError, match=r"^k=.* must be an integer$"):
            call(pts, k)
    for k in (0, 11):
        with pytest.raises(ValueError, match=r"^k=.* must satisfy 1 <= k <= n=10$"):
            call(pts, k)
    call(pts, np.int64(3))


def test_z_must_not_be_a_bool():
    # z=True used to run as z = 1
    pts = np.random.default_rng(3).standard_normal((10, 2))
    calls = (
        lambda z: ProneConfig(k=2, z=z),
        lambda z: seed_1d_fast(pts[:, 0], 2, z, rng=0),
        lambda z: kmeanspp_seed(pts, 2, z, rng=0),
    )
    for call in calls:
        for z in (True, np.True_):
            with pytest.raises(ValueError, match=r"^z=.* must be a number, not a bool$"):
                call(z)


@pytest.mark.parametrize("seed", [2.5, np.float64(3.0), True, "1", -1, np.int64(-1)])
def test_config_rejects_bad_seed(seed):
    # a float seed used to fail in SeedSequence, and -1 without naming the seed
    with pytest.raises(ValueError, match=r"^seed=.* must be (an integer|nonnegative)$"):
        ProneConfig(k=2, seed=seed)


def test_config_accepts_integer_seeds():
    pts = np.random.default_rng(3).standard_normal((10, 2))
    want = prone(pts, ProneConfig(k=3, seed=7)).model.assignment
    got = prone(pts, ProneConfig(k=3, seed=np.int64(7))).model.assignment
    np.testing.assert_array_equal(got, want)
    ProneConfig(k=3, seed=None)


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

        data, _ = gen_gaussian_mixture(6, 300, 4, 100.0, rng=2)
        capacity = 1 << (data.n - 1).bit_length()

        def checked_update(tree, start, stop):
            calls["update"] += 1
            tree.last_update_leaf_nodes = tree.last_update_internal_nodes = -1
            update(tree, start, stop)
            assert tree.last_update_leaf_nodes == stop - start
            assert tree.last_update_internal_nodes == _ancestor_count(capacity, start, stop)

        monkeypatch.setattr(seeding1d.SamplingTree, "find", counted_find)
        monkeypatch.setattr(seeding1d.SamplingTree, "update", checked_update)
        res = prone(data, ProneConfig(k=6, seed=1))
        assert res.seeding.k_found == 6
        # the build is one update over all n leaves, then one per draw
        assert calls == {"find": 5, "update": 6}

    def test_prone_looks_up_its_stages_when_called(self, monkeypatch):
        # the projection goes straight into the seeder, yet both stay module
        # globals that a trace can wrap, and the projection's time is its own
        reached = []
        for name in ("sample_direction", "project", "seed_1d_fast", "centers_of_mass"):
            real = getattr(pipeline, name)

            def spy(*args, _name=name, _real=real, **kwargs):
                reached.append(_name)
                if _name == "project":
                    time.sleep(0.02)
                return _real(*args, **kwargs)

            monkeypatch.setattr(pipeline, name, spy)
        data, _ = gen_gaussian_mixture(6, 300, 4, 100.0, rng=2)
        res = prone(data, ProneConfig(k=6, seed=1))
        assert reached == ["sample_direction", "project", "seed_1d_fast", "centers_of_mass"]
        assert res.timings["project"] >= 0.02


class TestProneCenterCost:
    def test_never_exceeds_assignment_cost(self):
        data, _ = gen_gaussian_mixture(6, 50, 5, 50.0, rng=5)
        for seed in range(10):
            res = prone(data, ProneConfig(k=6, seed=seed))
            assert cost_with_nearest(data, res.model.centers, res.model.z) <= res.model.cost + 1e-9

    def test_k_equals_n(self):
        pts = np.random.default_rng(3).standard_normal((7, 2))
        data = as_dataset(pts)
        res = prone(data, ProneConfig(k=7, seed=1))
        assert cost_with_nearest(data, res.model.centers, res.model.z) == 0.0

    def test_matches_direct_nearest_cost(self):
        data, _ = gen_gaussian_mixture(4, 25, 3, 30.0, rng=6)
        res = prone(data, ProneConfig(k=4, seed=3))
        # against a brute-force minimum over every (point, center) pair
        pts, centers = data.to_dense(), res.model.centers
        direct = ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2).min(axis=1).sum()
        assert cost_with_nearest(data, centers, res.model.z) == pytest.approx(direct, rel=1e-12)


class TestStageClock:
    def test_laps_tile_the_elapsed_time(self):
        clock = StageClock()
        for name in ("b", "a", "c"):
            clock.lap(name)
        assert list(clock.timings) == ["b", "a", "c"]
        assert all(s >= 0 for s in clock.timings.values())
        assert sum(clock.timings.values()) <= clock.elapsed()

    def test_lap_returns_its_value_and_keeps_no_reference(self):
        clock = StageClock()
        values = clock.lap("make", np.ones(16))
        ref = weakref.ref(values)
        assert clock.lap("same", values) is values
        del values
        assert ref() is None
