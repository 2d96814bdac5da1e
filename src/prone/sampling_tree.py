"""Weighted random sampling over a mutable array of nonnegative masses.

A complete binary tree stores the masses at its leaves (zero-padded to a
power of two) and every internal node holds the sum of its children. That
gives three operations:

* ``total``  - O(1), the root sum,
* ``find(r)`` - O(log n), the leaf holding the r-th unit of mass,
* ``update(a, start, stop)`` - refresh a contiguous leaf range, touching
  O((stop - start) + log n) nodes: one vectorized pass per level while the
  changed range spans more than ``_SCALAR_LEVEL_WIDTH`` nodes, then scalar
  adds through a memoryview on the narrow tail levels and up the single
  path that remains (a numpy call costs as much as about ten such adds).

Internal sums are always recomputed from the two children rather than
adjusted incrementally, so the root equals the pairwise tree-order sum of
the current leaves bit for bit and no drift accumulates across updates.

``find`` descends with the strict rule "go left iff r < left-child sum".
Stored sums round, so the descent can overshoot by an ulp and land on a
zero-mass leaf; in that case it steps back to the previous positive leaf,
which keeps the result within one ulp of the exact prefix-sum boundary and
guarantees a zero-mass leaf is never returned.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["SamplingTree"]

# Levels of an update at most this many nodes wide are summed with scalar
# memoryview adds: one numpy call costs about as much as ten of them, and
# per-update times were flat for widths 4..14.
_SCALAR_LEVEL_WIDTH = 8


def _check_masses(vals: np.ndarray) -> None:
    """Raise unless every mass is finite and nonnegative (-0.0 passes)."""
    # NaN and negatives fail the first test, +inf the second; the exact
    # message is worked out only on failure
    if not (vals.min() >= 0.0 and vals.max() < math.inf):
        if not np.isfinite(vals).all():
            raise ValueError("masses must be finite")
        raise ValueError("masses must be nonnegative")


class SamplingTree:
    """Complete binary tree over n nonnegative masses, externally 0-indexed."""

    def __init__(self, masses) -> None:
        a = np.asarray(masses, dtype=np.float64)
        if a.ndim != 1 or a.size == 0:
            raise ValueError("masses must be a non-empty 1-D array")
        _check_masses(a)
        self._n = int(a.size)
        self._capacity = 1 << max(0, self._n - 1).bit_length()
        nodes = np.zeros(2 * self._capacity, dtype=np.float64)
        # the leaf masses as a writable view; seeding1d writes new masses
        # into it and then calls update over the written range, and until
        # that call total and find still read the old sums
        self._leaves = nodes[self._capacity : self._capacity + self._n]
        self._leaves[:] = a
        lo = self._capacity
        while lo > 1:
            lo >>= 1
            np.add(
                nodes[2 * lo : 4 * lo : 2], nodes[2 * lo + 1 : 4 * lo : 2], out=nodes[lo : 2 * lo]
            )
        self._nodes = nodes
        # scalar reads and writes through a memoryview are Python floats,
        # several times cheaper than numpy scalar indexing, and round the same
        self._view = memoryview(nodes)
        # instrumentation: node writes performed by the latest update() call
        self.last_update_leaf_nodes = 0
        self.last_update_internal_nodes = 0

    def __len__(self) -> int:
        return self._n

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def total(self) -> float:
        """Sum of all masses (the root node)."""
        return self._view[1]

    @property
    def masses(self) -> np.ndarray:
        """Copy of the current leaf masses."""
        return self._leaves.copy()

    def find(self, r: float) -> int:
        """Return the smallest index i with prefix_sum(i) > r.

        Requires 0 <= r < total and a positive total; never returns an
        index whose mass is zero.
        """
        nodes = self._view
        total = nodes[1]
        if not total > 0.0:
            raise ValueError("find() on a tree with zero total mass")
        if not (0.0 <= r < total):
            raise ValueError(f"r={r!r} outside [0, {total!r})")
        idx = 1
        cap = self._capacity
        while idx < cap:
            left = 2 * idx
            ls = nodes[left]
            if r < ls:
                idx = left
            else:
                r -= ls
                idx = left + 1
        leaf = idx - cap
        # rounding in stored sums can overshoot onto a zero leaf
        while nodes[cap + leaf] == 0.0:
            leaf -= 1
            if leaf < 0:
                raise AssertionError("positive total but no positive leaf found")
        return leaf

    def update(self, a, start: int, stop: int) -> None:
        """Refresh leaves [start, stop) from ``a``.

        ``a`` may be a full-length array aligned with the leaves (the slice
        [start:stop] is taken) or exactly the stop - start replacement values.
        ``a`` may also be the tree's own ``_leaves``, already written over
        the range. Recomputes every ancestor of the changed leaves from its
        children, level by level: one numpy add per level wider than
        ``_SCALAR_LEVEL_WIDTH`` nodes, scalar float adds (which round exactly
        like numpy's) on the narrower levels and up the single path to the
        root. The masses are checked with one ``min`` and one
        ``max``, and invalid masses raise before any node is written. Masses
        a caller already wrote into ``_leaves`` are not rolled back: they
        stay there with stale ancestors until a valid update of their range.
        """
        if not (0 <= start < stop <= self._n):
            raise ValueError(f"range [{start}, {stop}) invalid for size {self._n}")
        vals = np.asarray(a, dtype=np.float64)
        if vals.ndim != 1 or vals.shape[0] not in (self._n, stop - start):
            raise ValueError(
                f"expected {self._n} (full) or {stop - start} (range) values, got shape {vals.shape}"
            )
        if vals.shape[0] == self._n:
            vals = vals[start:stop]
        _check_masses(vals)
        nodes = self._nodes
        view = self._view
        lo = self._capacity + start
        hi = self._capacity + stop - 1
        # numpy skips the copy when vals is that very range of _leaves
        nodes[lo : hi + 1] = vals
        self.last_update_leaf_nodes = stop - start
        internal = 0
        while lo < hi:
            lo >>= 1
            hi >>= 1
            if hi - lo < _SCALAR_LEVEL_WIDTH:
                for idx in range(lo, hi + 1):
                    view[idx] = view[2 * idx] + view[2 * idx + 1]
            else:
                np.add(
                    nodes[2 * lo : 2 * hi + 2 : 2],
                    nodes[2 * lo + 1 : 2 * hi + 2 : 2],
                    out=nodes[lo : hi + 1],
                )
            internal += hi - lo + 1
        acc = view[lo]
        internal += lo.bit_length() - 1
        while lo > 1:
            acc += view[lo ^ 1]
            lo >>= 1
            view[lo] = acc
        self.last_update_internal_nodes = internal

    def check_consistency(self) -> None:
        """Assert every internal node equals the sum of its children (tests)."""
        nodes = self._nodes
        for idx in range(1, self._capacity):
            expect = nodes[2 * idx] + nodes[2 * idx + 1]
            if nodes[idx] != expect:
                raise AssertionError(f"node {idx}: stored {nodes[idx]!r} != children {expect!r}")
