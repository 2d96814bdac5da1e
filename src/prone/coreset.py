"""Importance-sampled coresets and the boosted seeding pipeline.

A coreset here is s i.i.d. draws from a per-point probability vector, each
sampled point carrying weight 1/(s * p_i) so that weighted sums are
unbiased estimates of full-data sums (in particular clustering costs).

Two distributions are provided, each returned as a plain length-n float64
probability vector, which is what ``sample_coreset`` takes:

* sensitivity: p_i proportional to cost_i / total_cost + 1 / |cluster(i)|
  for an existing clustering (the two terms sum to 1 + k' analytically, so
  that is the normalizer);
* lightweight: p_i = 1/(2n) + ||x_i - mean||^2 / (2 * sum of squares),
  which needs no clustering but hedges only against the mean.

Sampling inverts the cumulative distribution: one O(n) prefix sum, then a
binary search per draw, O(n + s log n) for s draws.

``boosted_prone`` chains the projected pipeline into a sensitivity
distribution, samples a coreset of ceil(alpha * n) points, and runs
weighted powered-distance seeding on it, giving k-means++-quality centers
in roughly projected-seeding time. It reads the full data three times,
all inside prone: the projection, the lift (centers of mass) and the
per-point assignment costs. The sensitivity step writes its
probabilities over that cost vector rather than recomputing it, and
everything after it touches only the sampled rows. The full-data
assignment is left to the caller (:meth:`BoostedResult.evaluate`, one
O(ndk) nearest-center pass plus one O(nd) pass for the winners'
distances), since it is the expensive part and often unneeded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import (
    StageClock, _check_count, as_generator, check_assignment, check_finite, check_fraction,
    check_k, check_masses, check_z, inverse_cdf, padded_pairwise_sum,
)
from .baseline import (
    ClusteringModel,
    _assigned_costs,
    _check_centers,
    _power_from_sq,
    kmeanspp_seed,
    nearest_assignment,
)
from .dataset import as_dataset
from .pipeline import ProneConfig, ProneResult, _prone

__all__ = [
    "WeightedCoreset",
    "sensitivity_distribution",
    "lightweight_distribution",
    "sample_coreset",
    "BoostedResult",
    "boosted_prone",
]


@dataclass(frozen=True)
class WeightedCoreset:
    """Sampled points (dense rows), their weights, and source row indices."""

    points: np.ndarray
    weights: np.ndarray
    source_indices: np.ndarray

    @property
    def size(self) -> int:
        return int(self.weights.size)


def sensitivity_distribution(points, model: ClusteringModel) -> np.ndarray:
    """Sampling probabilities from a clustering: cost share plus size share.

    With per-point costs c_i and cluster sizes |X_j|, the unnormalized mass
    is c_i / sum(c) + 1 / |X_{sigma(i)}| (the first term vanishes when the
    clustering has zero cost). Masses sum to 1 + k' for k' nonempty
    clusters, so probabilities divide by that analytic total.
    """
    data = as_dataset(points)
    sigma = check_assignment(model.assignment, data.n, model.k)
    costs = _assigned_costs(data, _check_centers(model.centers, data.d), sigma, check_z(model.z))
    return _sensitivity_from_costs(costs, sigma, model.k)


def _sensitivity_from_costs(costs: np.ndarray, sigma: np.ndarray, k: int) -> np.ndarray:
    """:func:`sensitivity_distribution` from each point's cost under ``sigma``.

    The probabilities are written over ``costs``, which is returned.
    """
    total = float(costs.sum())
    if not math.isfinite(total):
        raise ValueError("points' costs must be finite")
    sizes = np.bincount(sigma, minlength=k)
    k_nonempty = int((sizes > 0).sum())
    if total > 0:
        costs /= total
    else:
        costs.fill(0.0)
    # indexed first: ``1.0 / sizes`` would divide by an empty cluster's 0
    costs += 1.0 / sizes[sigma]
    costs /= (1.0 if total > 0 else 0.0) + k_nonempty
    return costs


def lightweight_distribution(points) -> np.ndarray:
    """Mean-based sampling probabilities: 1/(2n) + d^2(x, mean)/(2 sum d^2).

    When every point equals the mean the distance term carries no mass and
    the distribution is plain uniform. The distances come from the cost
    kernel, with every point assigned to the mean, so no copy of X is made,
    and the probabilities are written over them.
    """
    data = as_dataset(points)
    n = data.n
    # scipy's CSR ``mean`` copies the stored values; its ``sum`` does not
    mean = np.asarray(data.points.sum(axis=0)).ravel() / n
    check_finite(mean, "points' mean")
    d2 = _assigned_costs(data, mean[None], np.zeros(n, dtype=np.intp), 2.0)
    total = float(d2.sum())
    if total > 0:
        d2 /= 2.0 * total
        d2 += 1.0 / (2.0 * n)
    else:
        d2.fill(1.0 / n)
    return d2


def sample_coreset(points, probabilities, s: int, rng=None) -> WeightedCoreset:
    """Draw s points i.i.d. from ``probabilities``; weight each by 1/(s * p_i).

    The weight is the reciprocal of the *expected number of draws* of the
    point, which makes weighted sums unbiased (a plain reciprocal of the
    probability would bias them by a factor of s). The probabilities may
    be relative masses: draws and weights divide by the same total.
    """
    data = as_dataset(points)
    _check_count(s, "s")
    p = check_masses(probabilities, data.n, "probabilities")
    rng = as_generator(rng)
    total = padded_pairwise_sum(p)
    idx = inverse_cdf(p, rng.random(s) * total)
    weights = total / (s * p[idx])
    return WeightedCoreset(
        points=data.rows(idx),
        weights=weights,
        source_indices=idx,
    )


@dataclass(frozen=True)
class BoostedResult:
    """Output of the boosted pipeline.

    ``model``'s centers live in the full space but its assignment and cost
    refer to the weighted coreset the seeding ran on; call
    :meth:`evaluate` for the full-data nearest-center model.
    """

    model: ClusteringModel
    prone_result: ProneResult
    coreset: WeightedCoreset
    timings: dict

    def evaluate(self, points) -> ClusteringModel:
        """Nearest assignment and cost of the boosted centers on ``points``."""
        assignment, d2 = nearest_assignment(points, self.model.centers)
        cost = float(np.sum(_power_from_sq(d2, self.model.z)))
        return ClusteringModel(
            centers=self.model.centers,
            assignment=assignment,
            cost=cost,
            z=self.model.z,
        )


def boosted_prone(
    data,
    k: int,
    z: float = 2.0,
    alpha: float = 0.1,
    rng=None,
) -> BoostedResult:
    """Projected seeding, sensitivity coreset, then weighted seeding on it.

    The coreset has s = ceil(alpha * n) i.i.d. draws, so any finite alpha > 0
    with s >= k works; a smaller s cannot seed k centers.

    Full-data passes, all inside prone: the projection ``X @ v``, the lift
    (centers of mass) and the per-point assignment costs. The sensitivity
    step writes its probabilities over prone's cost vector instead of
    computing the costs again; the coreset draw copies only the s sampled
    rows. The result is bit-identical to ``prone``,
    ``sensitivity_distribution``, ``sample_coreset`` and weighted
    ``kmeanspp_seed`` called in turn on one generator.
    """
    check_z(z)
    check_fraction(alpha, "alpha")
    data = as_dataset(data)
    check_k(k, data.n)
    s = math.ceil(alpha * data.n)
    if s < k:
        raise ValueError(
            f"alpha*n < k: coreset of ceil({alpha} * {data.n}) = {s} points "
            f"cannot seed k={k} centers"
        )
    rng = as_generator(rng)
    clock = StageClock()
    base, point_costs = clock.lap("prone", _prone(data, ProneConfig(k=k, z=z), rng=rng))
    probabilities = _sensitivity_from_costs(point_costs, base.model.assignment, base.model.k)
    coreset = clock.lap("coreset", sample_coreset(data, probabilities, s, rng))
    seeded = clock.lap(
        "weighted_seed", kmeanspp_seed(coreset.points, k, z, rng, weights=coreset.weights)
    )
    return BoostedResult(model=seeded, prone_result=base, coreset=coreset, timings=clock.timings)
