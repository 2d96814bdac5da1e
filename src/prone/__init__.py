"""Projected one-dimensional (k,z)-clustering toolkit.

Reduce points to one dimension with a random projection, seed k centers
there in expected O(n log n) time, and lift the partition back to the full
space; plus the classical k-means++/Lloyd baselines, importance-sampled
coresets, and a benchmark harness comparing all of them.
"""

from .baseline import (
    ClusteringModel,
    centers_of_mass,
    cost_with_assignment,
    cost_with_nearest,
    kmeanspp_seed,
    lloyd_iterate,
    nearest_assignment,
    pointwise_assignment_costs,
)
from .coreset import (
    BoostedResult,
    WeightedCoreset,
    boosted_prone,
    lightweight_distribution,
    sample_coreset,
    sensitivity_distribution,
)
from .dataset import (
    Dataset,
    DatasetFormatError,
    as_dataset,
    gen_adversarial_gaussian,
    gen_gaussian_mixture,
    load_dense_csv,
    load_sparse,
    write_dense_csv,
)
from .pipeline import ProneConfig, ProneResult, prone
from .projection import VARIANTS, project, sample_direction
from .seeding1d import (
    Seeding1DResult,
    SeedingStats,
    seed_1d_fast,
    seed_1d_naive,
)

__version__ = "0.1.0"

__all__ = [
    "BoostedResult",
    "ClusteringModel",
    "Dataset",
    "DatasetFormatError",
    "ProneConfig",
    "ProneResult",
    "Seeding1DResult",
    "SeedingStats",
    "VARIANTS",
    "WeightedCoreset",
    "as_dataset",
    "boosted_prone",
    "centers_of_mass",
    "cost_with_assignment",
    "cost_with_nearest",
    "gen_adversarial_gaussian",
    "gen_gaussian_mixture",
    "kmeanspp_seed",
    "lightweight_distribution",
    "lloyd_iterate",
    "load_dense_csv",
    "load_sparse",
    "nearest_assignment",
    "pointwise_assignment_costs",
    "prone",
    "project",
    "sample_coreset",
    "sample_direction",
    "seed_1d_fast",
    "seed_1d_naive",
    "sensitivity_distribution",
    "write_dense_csv",
]
