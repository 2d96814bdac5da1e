"""Random 1-D projections of a point set.

Two ways to draw the direction vector:

* ``standard``   - g ~ N(0, I_d);
* ``covariance`` - v = X_c^T h / sqrt(n) with h ~ N(0, I_n) and X_c the
  mean-centered data, which has law N(0, Sigma_emp) without ever forming
  the d x d covariance matrix: O(nnz + n + d) time.

``sample_direction`` returns the direction as a plain length-d float64
array, and ``project(data, direction)`` takes any length-d vector.
Projecting is a single matrix-vector product, so the whole reduction to
one dimension costs O(nnz + n + d). Neither draw copies X: each holds
O(n + d) scalars beyond it, on dense and CSR input alike.
"""

from __future__ import annotations

import numpy as np

from ._util import as_float64, as_generator, check_finite
from .dataset import as_dataset

__all__ = ["VARIANTS", "sample_direction", "project"]

VARIANTS = ("standard", "covariance")


def _constant_features(data) -> np.ndarray:
    """Mask of the features whose column max equals its min."""
    if not data.is_sparse:
        return data.points.max(axis=0) == data.points.min(axis=0)
    # scipy's column max and min convert X to CSC first, a full copy; the
    # stored entries (canonical, see Dataset) are reduced into d-length
    # accumulators instead, and a column stored in fewer than n rows has a 0
    mat = data.points
    hi = np.full(data.d, -np.inf)
    lo = np.full(data.d, np.inf)
    np.maximum.at(hi, mat.indices, mat.data)
    np.minimum.at(lo, mat.indices, mat.data)
    stored = np.zeros(data.d, dtype=np.intp)
    np.add.at(stored, mat.indices, 1)  # bincount would copy the indices to intp
    has_zero = stored < data.n
    hi[has_zero] = np.maximum(hi[has_zero], 0.0)
    lo[has_zero] = np.minimum(lo[has_zero], 0.0)
    return hi == lo


def check_variant(variant: str) -> None:
    """Raise unless ``variant`` names one of ``VARIANTS``."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")


def sample_direction(data, variant: str = "standard", rng=None) -> np.ndarray:
    """Draw a projection direction for ``data``: a length-d float64 vector.

    The covariance direction gives a constant feature (column max equal to
    its min) exactly zero weight. It is zero only for deterministic
    reasons (all features constant), so a redraw would be zero again; such
    a draw falls back to one standard Gaussian draw instead, so downstream
    code still receives a usable vector.
    """
    check_variant(variant)
    data = as_dataset(data)
    rng = as_generator(rng)
    if variant == "standard":
        direction = rng.standard_normal(data.d)
    else:
        n = data.n
        h = rng.standard_normal(n)
        # X_c^T h = X^T (h - mean(h)): no column means, and so no copy of a
        # CSR X, which scipy's mean makes
        h -= h.mean()
        direction = (data.points.T @ h) / np.sqrt(n)
        # the centered sums round to about 1e-16 of a constant feature's
        # value instead of 0, so its weight is set to 0
        direction[_constant_features(data)] = 0.0
    if not np.any(direction != 0.0):
        direction = rng.standard_normal(data.d)
    return direction


def project(data, direction) -> np.ndarray:
    """Project every point onto ``direction``: returns the length-n array X v."""
    data = as_dataset(data)
    v = as_float64(direction, "direction")
    if v.shape != (data.d,):
        raise ValueError(f"direction has shape {v.shape}, data dimension is {data.d}")
    check_finite(v, "direction")
    return np.asarray(data.points @ v).ravel()
