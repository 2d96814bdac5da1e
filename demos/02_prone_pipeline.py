"""The projected seeding pipeline, end to end.

PRONE turns a d-dimensional (k,z)-clustering instance into a
one-dimensional one: draw a random direction, project every point onto
it, seed k centers on the line with the fast one-dimensional seeder,
and lift each one-dimensional cluster back to d dimensions by taking
its mean.  The expensive O(ndk) seeding loop disappears; what is left
is one pass to project, an O(n log n) expected seeding, and one pass
to lift.

The script clusters a well-separated Gaussian mixture and compares
cost and wall time against full k-means++ seeding, then shows the
two direction variants side by side.
"""

import time

import numpy as np

from prone.baseline import cost_with_nearest, kmeanspp_seed
from prone.dataset import gen_gaussian_mixture
from prone.pipeline import ProneConfig, prone
from prone.projection import VARIANTS


def main() -> None:
    k = 20
    data, true_centers = gen_gaussian_mixture(k, 500, 10, 1e5, rng=3)
    pts = data.points
    print(f"dataset: n={data.n}, d={data.d}, {k} well separated clusters")

    print("\n== PRONE vs k-means++ seeding (5 seeds each) ==")
    print(f"  {'method':<22} {'median cost':>14} {'median ms':>10}")
    rows = {}
    for name in ("prone", "prone+reassign", "kmeans++"):
        costs, walls = [], []
        for seed in range(5):
            t0 = time.perf_counter()
            if name == "kmeans++":
                model = kmeanspp_seed(pts, k, z=2.0, rng=np.random.default_rng(seed))
                cost = model.cost
            else:
                res = prone(data, ProneConfig(k=k, z=2.0, seed=seed))
                cost = res.model.cost
                if name == "prone+reassign":
                    cost = cost_with_nearest(data, res.model.centers, res.model.z)
            walls.append(time.perf_counter() - t0)
            costs.append(cost)
        rows[name] = (np.median(costs), np.median(walls) * 1e3)
        print(f"  {name:<22} {rows[name][0]:>14.4g} {rows[name][1]:>10.1f}")
    print("  (prone's own assignment comes from the projected line; one")
    print("   optional nearest-center pass tightens it to k-means++ level)")

    print("\n== where the time goes ==")
    res = prone(data, ProneConfig(k=k, z=2.0, seed=0))
    for stage, seconds in res.timings.items():
        print(f"  {stage:<10} {seconds * 1e3:8.2f} ms")
    print(f"  seeding updates: {res.seeding_stats.total_updates} "
          f"(n ln n = {int(data.n * np.log(data.n))})")

    print("\n== direction variants ==")
    print(f"  {'variant':<12} {'median reassigned cost':>24}")
    for variant in VARIANTS:
        costs = [
            cost_with_nearest(data, prone(data, ProneConfig(
                k=k, z=2.0, variant=variant, seed=seed)).model.centers)
            for seed in range(5)
        ]
        print(f"  {variant:<12} {np.median(costs):>24.4g}")
    print("  (covariance weights the direction toward the data's spread;")
    print("   on an isotropic mixture the two look alike)")


if __name__ == "__main__":
    main()
