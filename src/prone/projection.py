"""Random 1-D projections of a point set.

Three ways to draw the direction vector:

* ``standard``   - g ~ N(0, I_d);
* ``variance``   - entry j is g_j times the empirical std of feature j,
  emphasizing high-variance features (constant features project to 0);
* ``covariance`` - v = X_c^T h / sqrt(n) with h ~ N(0, I_n) and X_c the
  mean-centered data, which has law N(0, Sigma_emp) without ever forming
  the d x d covariance matrix: O(nnz + n + d) time.

Projecting is a single matrix-vector product, so the whole reduction to
one dimension costs O(nnz + n + d).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_generator
from .dataset import as_dataset

__all__ = ["ProjectionVector", "VARIANTS", "sample_direction", "project"]

VARIANTS = ("standard", "variance", "covariance")


@dataclass(frozen=True)
class ProjectionVector:
    """A direction in R^d plus the variant that made it."""

    direction: np.ndarray
    variant: str


def _draw(data, variant: str, rng: np.random.Generator) -> np.ndarray:
    d = data.d
    if variant == "standard":
        return rng.standard_normal(d)
    if variant == "variance":
        g = rng.standard_normal(d)
        if data.is_sparse:
            mat = data.points
            mean = np.asarray(mat.mean(axis=0)).ravel()
            mean_sq = np.asarray(mat.multiply(mat).mean(axis=0)).ravel()
            var = np.maximum(mean_sq - mean * mean, 0.0)
        else:
            var = np.var(data.points, axis=0)
        return g * np.sqrt(var)
    if variant == "covariance":
        n = data.n
        h = rng.standard_normal(n)
        xth = data.points.T @ h
        # a CSR matrix's mean is a (1, d) np.matrix
        mean = np.asarray(data.points.mean(axis=0)).ravel()
        return (xth - mean * h.sum()) / np.sqrt(n)
    raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def sample_direction(data, variant: str = "standard", rng=None) -> ProjectionVector:
    """Draw a projection direction for ``data`` using the given variant.

    A data-dependent direction is exactly zero only for deterministic
    reasons (constant features, identical points), so a redraw would be zero
    again; such a draw falls back to one standard Gaussian draw instead, so
    downstream code still receives a usable vector.
    """
    data = as_dataset(data)
    rng = as_generator(rng)
    direction = _draw(data, variant, rng)
    if not np.any(direction != 0.0):
        direction = rng.standard_normal(data.d)
    return ProjectionVector(direction=direction, variant=variant)


def project(data, vec: ProjectionVector) -> np.ndarray:
    """Project every point onto the direction: returns the length-n array X v."""
    data = as_dataset(data)
    v = np.asarray(vec.direction, dtype=np.float64)
    if v.shape != (data.d,):
        raise ValueError(f"direction has shape {v.shape}, data dimension is {data.d}")
    return np.asarray(data.points @ v).ravel()
