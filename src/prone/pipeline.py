"""The projected clustering pipeline: project, seed in 1-D, lift.

``prone`` reduces the data to one dimension with a random direction, runs
the fast 1-D seeding there, and lifts the resulting partition back to R^d
by taking each part's center of mass. The reported cost is the cost of
that fixed partition, which is computable in O(nnz + n + kd); the
classical nearest-center cost is a separate, more expensive evaluation
(:func:`~prone.baseline.cost_with_nearest` on the model's centers).

Everything is deterministic in (data, config): the config's seed drives a
single counter-based stream used for the direction and then the seeding.

``ProneResult.timings`` holds the seconds of each stage: ``project`` (the
direction and ``X @ v``), ``seed``, ``lift`` and ``assign`` (the per-point
costs and their sum). They are laps of one :class:`~prone._util.StageClock`,
so they tile the call from the direction's draw to the cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._util import StageClock, as_generator, check_k, check_seed, check_z
from .baseline import ClusteringModel, _assigned_costs, centers_of_mass
from .dataset import as_dataset
from .projection import check_variant, sample_direction, project
from .seeding1d import Seeding1DResult, SeedingStats, seed_1d_fast

__all__ = ["ProneConfig", "ProneResult", "prone"]


@dataclass(frozen=True)
class ProneConfig:
    """Parameters for one pipeline run."""

    k: int
    z: float = 2.0
    variant: str = "standard"
    seed: int | None = None

    def __post_init__(self) -> None:
        check_z(self.z)
        check_variant(self.variant)
        check_seed(self.seed)


@dataclass(frozen=True)
class ProneResult:
    """Model, the direction it was projected on, and instrumentation.

    ``seeding.exhausted`` is True when the 1-D seeding found fewer than k
    distinct centers; the model then simply carries k' < k clusters.
    """

    model: ClusteringModel
    direction: np.ndarray
    seeding: Seeding1DResult
    seeding_stats: SeedingStats
    timings: dict = field(default_factory=dict)


def prone(data, cfg: ProneConfig, rng=None) -> ProneResult:
    """Run the projected pipeline; see the module docstring.

    ``rng`` overrides the config seed when a caller wants to embed the run
    in a larger stream (the boosted pipeline does this).
    """
    return _prone(data, cfg, rng)[0]


def _prone(data, cfg: ProneConfig, rng=None) -> tuple[ProneResult, np.ndarray]:
    """:func:`prone`, plus each point's powered distance to its center.

    The model's cost is the sum of that vector, as
    :func:`~prone.baseline.cost_with_assignment` would compute it; the
    boosted pipeline reuses the vector instead of computing it again.
    """
    data = as_dataset(data)
    check_k(cfg.k, data.n)
    gen = as_generator(rng) if rng is not None else as_generator(cfg.seed)

    clock = StageClock()
    direction = sample_direction(data, cfg.variant, gen)
    # neither a name here nor the clock holds the projection, so the seeder can free it
    seeding, stats = clock.lap(
        "seed", seed_1d_fast(clock.lap("project", project(data, direction)), cfg.k, cfg.z, gen)
    )
    centers, _ = clock.lap("lift", centers_of_mass(data, seeding.assignment, seeding.k_found))
    point_costs = _assigned_costs(data, centers, seeding.assignment, cfg.z)
    cost = float(np.sum(point_costs))
    clock.lap("assign")

    model = ClusteringModel(
        centers=centers, assignment=seeding.assignment, cost=cost, z=cfg.z
    )
    result = ProneResult(model, direction, seeding, stats, clock.timings)
    return result, point_costs
