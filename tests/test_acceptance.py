"""End-to-end acceptance checks for the full toolkit.

Each test covers one headline guarantee and prints a single PASS/FAIL
line (visible under ``pytest -s``) before asserting, so a full run
produces a ten-line scoreboard.  Budgeted tests also enforce their
wall-clock limit.
"""

import math
import time

import numpy as np

from prone.baseline import (
    cost_with_assignment,
    cost_with_nearest,
    kmeanspp_seed,
    lloyd_iterate,
    nearest_assignment,
)
from prone.coreset import (
    boosted_prone,
    lightweight_distribution,
    sample_coreset,
    sensitivity_distribution,
)
from prone.dataset import gen_adversarial_gaussian, gen_gaussian_mixture
from prone.pipeline import ProneConfig, prone
from prone.projection import project, sample_direction
from prone.seeding1d import seed_1d_fast, seed_1d_naive


def _report(num, name, ok, detail):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


def _mixture_20x500():
    data, _ = gen_gaussian_mixture(20, 500, 10, 1e5, rng=11)
    return data


def test_01_fast_seeder_matches_naive_exactly():
    t0 = time.perf_counter()
    meta = np.random.default_rng(1001)
    mismatches = 0
    for _ in range(1000):
        n = int(meta.integers(1, 513))
        k = int(meta.integers(1, min(n, 64) + 1))
        z = float(meta.choice([1.0, 2.0, 3.0]))
        xs = meta.normal(size=n)
        if n > 1 and meta.random() < 0.5:
            # overwrite a random subset with existing values to force ties
            m = int(meta.integers(1, n + 1))
            xs[meta.integers(0, n, size=m)] = meta.choice(xs, size=m)
        stream = int(meta.integers(0, 2**63 - 1))
        fast, _ = seed_1d_fast(xs, k, z=z, rng=np.random.default_rng(stream))
        naive = seed_1d_naive(xs, k, z=z, rng=np.random.default_rng(stream))
        same = (
            np.array_equal(fast.center_indices, naive.center_indices)
            and np.array_equal(fast.assignment, naive.assignment)
            and fast.exhausted == naive.exhausted
        )
        mismatches += not same
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and elapsed < 60.0
    _report(1, "fast seeder == naive seeder on 1000 instances", ok,
            f"{mismatches} mismatches, {elapsed:.1f}s (limit 60s)")
    assert mismatches == 0
    assert elapsed < 60.0


def test_02_update_count_scales_as_n_log_n():
    t0 = time.perf_counter()
    sizes = [2**10, 2**12, 2**14, 2**16]
    means = []
    for n in sizes:
        xs = np.random.default_rng(n).random(n)
        ratios = []
        for seed in range(20):
            _, stats = seed_1d_fast(
                xs, n // 4, z=2.0, rng=np.random.default_rng([n, seed])
            )
            ratios.append(stats.total_updates / (n * math.log(n)))
        means.append(float(np.mean(ratios)))
    growth = (means[-1] - means[0]) / means[0]
    elapsed = time.perf_counter() - t0
    ok = max(means) <= 20.0 and growth < 0.25 and elapsed < 120.0
    _report(2, "total updates stay O(n log n)", ok,
            f"mean ratios {[round(m, 3) for m in means]} (limit 20), "
            f"growth {growth * 100:.1f}% (limit 25%), {elapsed:.1f}s (limit 120s)")
    assert max(means) <= 20.0
    assert growth < 0.25
    assert elapsed < 120.0


def test_03_runtime_nearly_independent_of_k():
    t0 = time.perf_counter()
    data, _ = gen_gaussian_mixture(50, 20000, 16, 1000.0, rng=7)

    def median_prone_seconds(k):
        times = []
        for rep in range(10):
            t1 = time.perf_counter()
            prone(data, ProneConfig(k=k, z=2.0, seed=rep))
            times.append(time.perf_counter() - t1)
        return float(np.median(times))

    prone_small = median_prone_seconds(10)
    prone_large = median_prone_seconds(1000)

    pts = data.points
    base_times = []
    for rep in range(2):
        t1 = time.perf_counter()
        kmeanspp_seed(pts, 10, z=2.0, rng=np.random.default_rng(rep))
        base_times.append(time.perf_counter() - t1)
    base_small = float(np.median(base_times))
    t1 = time.perf_counter()
    kmeanspp_seed(pts, 1000, z=2.0, rng=np.random.default_rng(0))
    base_large = time.perf_counter() - t1

    elapsed = time.perf_counter() - t0
    flat = prone_large <= 2.0 * prone_small
    steep = base_large >= 20.0 * base_small
    ok = flat and steep and elapsed < 600.0
    _report(3, "k=1000 costs PRONE <=2x of k=10 while kmeans++ pays >=20x", ok,
            f"prone {prone_small:.2f}s -> {prone_large:.2f}s "
            f"({prone_large / prone_small:.2f}x, limit 2x); "
            f"kmeans++ {base_small:.2f}s -> {base_large:.2f}s "
            f"({base_large / base_small:.1f}x, need >=20x); "
            f"{elapsed:.0f}s (limit 600s)")
    assert flat
    assert steep
    assert elapsed < 600.0


def test_04_second_center_matches_conditional_d2_law():
    t0 = time.perf_counter()
    pts = np.array([0.0, 1.0, 3.0, 7.0, 12.0])
    n = pts.size
    runs = 200_000
    rng = np.random.default_rng(424242)
    counts = np.zeros((n, n), dtype=np.int64)
    for _ in range(runs):
        res, _ = seed_1d_fast(pts, 2, z=2.0, rng=rng)
        counts[res.center_indices[0], res.center_indices[1]] += 1

    worst = 0.0
    for first in range(n):
        group = counts[first].sum()
        mass = (pts - pts[first]) ** 2
        law = mass / mass.sum()
        for second in range(n):
            p = law[second]
            freq = counts[first, second] / group
            if p == 0.0:
                assert counts[first, second] == 0
                continue
            se = math.sqrt(p * (1.0 - p) / group)
            worst = max(worst, abs(freq - p) / se)
    elapsed = time.perf_counter() - t0
    ok = worst <= 3.0 and elapsed < 60.0
    _report(4, "second-center frequencies follow the conditional D^2 law", ok,
            f"worst deviation {worst:.2f} SE (limit 3), "
            f"{runs} runs, {elapsed:.1f}s (limit 60s)")
    assert worst <= 3.0
    assert elapsed < 60.0


def test_05_sensitivity_coresets_are_unbiased():
    t0 = time.perf_counter()
    data, _ = gen_gaussian_mixture(10, 1000, 8, 100.0, rng=55)
    pts = data.points
    rng = np.random.default_rng(56)
    centers = rng.normal(scale=50.0, size=(12, pts.shape[1]))
    assignment, d2 = nearest_assignment(pts, centers)
    full_cost = float(np.sum(d2))

    from prone.baseline import ClusteringModel

    model = ClusteringModel(centers=centers, assignment=assignment,
                            cost=full_cost, z=2.0)
    dist = sensitivity_distribution(pts, model)
    costs = []
    for _ in range(500):
        coreset = sample_coreset(pts, dist, 256, rng=rng)
        costs.append(cost_with_nearest(coreset.points, centers, z=2.0,
                                       weights=coreset.weights))
    rel_err = abs(float(np.mean(costs)) - full_cost) / full_cost
    elapsed = time.perf_counter() - t0
    ok = rel_err <= 0.05 and elapsed < 60.0
    _report(5, "mean weighted coreset cost matches full cost", ok,
            f"relative error {rel_err * 100:.2f}% (limit 5%), "
            f"{elapsed:.1f}s (limit 60s)")
    assert rel_err <= 0.05
    assert elapsed < 60.0


def test_06_lightweight_coresets_fail_on_adversarial_data():
    t0 = time.perf_counter()
    data = gen_adversarial_gaussian(3000, rng=20260814)
    pts = data.points
    k = 10
    s = math.ceil(0.01 * data.n)

    def train_and_score(coreset, rng):
        model = kmeanspp_seed(coreset.points, k, z=2.0, rng=rng,
                              weights=coreset.weights)
        model = lloyd_iterate(coreset.points, model, weights=coreset.weights)
        return cost_with_nearest(pts, model.centers, z=2.0)

    light_dist = lightweight_distribution(pts)
    wins = 0
    trials = 20
    for trial in range(trials):
        ss = np.random.default_rng(np.random.SeedSequence(entropy=99, spawn_key=(trial,)))
        seeds = [int(v) for v in ss.integers(0, 2**63 - 1, size=4)]
        res = prone(data, ProneConfig(k=k, z=2.0, seed=seeds[0]))
        sens_dist = sensitivity_distribution(pts, res.model)
        sens_set = sample_coreset(pts, sens_dist, s, rng=np.random.default_rng(seeds[1]))
        sens_cost = train_and_score(sens_set, np.random.default_rng(seeds[2]))
        light_set = sample_coreset(pts, light_dist, s, rng=np.random.default_rng(seeds[1]))
        light_cost = train_and_score(light_set, np.random.default_rng(seeds[3]))
        wins += light_cost >= 2.0 * sens_cost
    elapsed = time.perf_counter() - t0
    ok = wins >= 0.8 * trials and elapsed < 300.0
    _report(6, "lightweight coreset >=2x worse on mirrored-cluster data", ok,
            f"{wins}/{trials} trials (need >=16), {elapsed:.1f}s (limit 300s)")
    assert wins >= 0.8 * trials
    assert elapsed < 300.0


def test_07_reassigned_centers_match_kmeanspp_quality():
    data = _mixture_20x500()
    pts = data.points
    k = 20
    prone_costs = []
    base_costs = []
    for seed in range(10):
        res = prone(data, ProneConfig(k=k, z=2.0, seed=seed))
        prone_costs.append(cost_with_nearest(data, res.model.centers, res.model.z))
        model = kmeanspp_seed(pts, k, z=2.0, rng=np.random.default_rng(seed))
        base_costs.append(model.cost)
    ratio = float(np.median(prone_costs)) / float(np.median(base_costs))
    ok = ratio <= 2.0
    _report(7, "median reassigned PRONE cost <=2x median kmeans++ cost", ok,
            f"ratio {ratio:.3f} (limit 2.0)")
    assert ratio <= 2.0


def test_08_boosted_pipeline_parity_and_speed():
    data = _mixture_20x500()
    pts = data.points
    k = 20
    boosted_costs = []
    base_costs = []
    for run in range(5):
        ss = np.random.default_rng(np.random.SeedSequence(entropy=808, spawn_key=(run,)))
        seeds = [int(v) for v in ss.integers(0, 2**63 - 1, size=2)]
        boost = boosted_prone(data, k, z=2.0, alpha=0.1,
                              rng=np.random.default_rng(seeds[0]))
        boosted_costs.append(boost.evaluate(pts).cost)
        model = kmeanspp_seed(pts, k, z=2.0, rng=np.random.default_rng(seeds[1]))
        base_costs.append(model.cost)
    cost_ratio = float(np.mean(boosted_costs)) / float(np.mean(base_costs))

    k_big = 100
    boost_walls = []
    base_walls = []
    for rep in range(7):
        t1 = time.perf_counter()
        boosted_prone(data, k_big, z=2.0, alpha=0.1, rng=np.random.default_rng(rep))
        boost_walls.append(time.perf_counter() - t1)
        t1 = time.perf_counter()
        kmeanspp_seed(pts, k_big, z=2.0, rng=np.random.default_rng(rep))
        base_walls.append(time.perf_counter() - t1)
    boost_wall = float(np.median(boost_walls))
    base_wall = float(np.median(base_walls))

    ok = cost_ratio <= 1.5 and boost_wall < base_wall
    _report(8, "boosted pipeline matches kmeans++ cost and beats it at k=100", ok,
            f"cost ratio {cost_ratio:.3f} (limit 1.5); wall "
            f"{boost_wall * 1e3:.0f}ms vs {base_wall * 1e3:.0f}ms at k={k_big}")
    assert cost_ratio <= 1.5
    assert boost_wall < base_wall


def test_09_projection_preserves_cost_in_expectation():
    rng = np.random.default_rng(909)
    pts = rng.normal(size=(1000, 10)) * rng.uniform(0.5, 3.0, size=10)
    model = kmeanspp_seed(pts, 8, z=2.0, rng=np.random.default_rng(910))
    original = cost_with_assignment(pts, model.centers, model.assignment, z=2.0)

    draws = 10_000
    draw_rng = np.random.default_rng(911)
    total = 0.0
    for _ in range(draws):
        vec = sample_direction(pts, variant="standard", rng=draw_rng)
        px = project(pts, vec)
        pc = project(model.centers, vec)
        diff = px - pc[model.assignment]
        total += float(diff @ diff)
    rel_err = abs(total / draws - original) / original
    ok = rel_err <= 0.05
    _report(9, "mean projected cost within 5% of original", ok,
            f"relative error {rel_err * 100:.2f}% over {draws} projections")
    assert rel_err <= 0.05


def test_10_lloyd_monotone_and_means_locally_optimal():
    meta = np.random.default_rng(1010)
    delta = 1e-3
    monotone_failures = 0
    perturb_failures = 0
    for _ in range(100):
        n = int(meta.integers(30, 201))
        d = int(meta.integers(2, 7))
        k = int(meta.integers(2, 9))
        pts = meta.normal(size=(n, d)) * meta.uniform(0.5, 2.0)
        model = kmeanspp_seed(pts, k, z=2.0, rng=meta)
        trace = []
        final = lloyd_iterate(pts, model, cost_trace=trace)
        if any(b > a + 1e-9 * max(1.0, a) for a, b in zip(trace, trace[1:])):
            monotone_failures += 1
        base = cost_with_assignment(pts, final.centers, final.assignment, z=2.0)
        sizes = np.bincount(final.assignment, minlength=final.centers.shape[0])
        for j in np.flatnonzero(sizes):
            for axis in range(d):
                for sign in (-1.0, 1.0):
                    moved = final.centers.copy()
                    moved[j, axis] += sign * delta
                    cost = cost_with_assignment(pts, moved, final.assignment, z=2.0)
                    if cost <= base:
                        perturb_failures += 1
    ok = monotone_failures == 0 and perturb_failures == 0
    _report(10, "Lloyd cost non-increasing and means are strict local minima", ok,
            f"{monotone_failures} monotonicity / {perturb_failures} "
            f"perturbation failures over 100 instances (delta {delta})")
    assert monotone_failures == 0
    assert perturb_failures == 0
