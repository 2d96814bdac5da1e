"""One-dimensional (k,z) seeding in expected O(n log n) time.

Both entry points sample k centers from n scalars with the classic
powered-distance seeding law: the first center is uniform, every later
center is drawn with probability proportional to min_c |x_i - c|^z over
the centers chosen so far.

``seed_1d_fast`` sorts the points once, keeps the powered distances in a
:class:`~prone.sampling_tree.SamplingTree`, and after each draw repairs the
distance array by scanning outward from the new center only while the new
center improves a point. On sorted points the improved region is one
contiguous interval, so a draw costs O(log n) for the tree lookup plus the
length of the interval, and the intervals sum to O(n log n) in expectation
over a whole run. The repaired range is the new center plus the run of
points it strictly improves, so writing the center's rank over that range
keeps every point's label in step with its mass; no assignment pass
follows.

One draw makes a fixed, small number of numpy calls. The repair computes
the powered distances on a window of ``_WINDOW`` points each side of the
new center, and one comparison with the current masses finds the first
point on each side that the new center does not improve; only a side
whose run reaches the window's edge continues with a scan in doubling
blocks. The tree then gets one ``update`` over the whole written range,
which validates the masses and recomputes their ancestors. The uniforms
for all k - 1 draws come from one ``rng.random(k - 1)`` call, which on
numpy's generators yields the same values and leaves the same state as
k - 1 scalar calls. If the run exhausts after j draws, the generator is
reset to its state before that call and advanced by ``rng.random(j)``,
so it ends exactly where a scalar loop would have left it; callers such
as the boosted pipeline keep drawing from it.

``seed_1d_naive`` recomputes all n distances after every draw (O(nk)). It
exists as an oracle: both functions consume randomness identically (one
uniform integer for the first center, then exactly one uniform real per
later center, scaled by the current total mass) and share the low-level
mass arithmetic, so with the same generator state they must return
identical centers and assignments, which the tests assert index for index.

If the remaining total mass hits zero before k draws (fewer than k
distinct values), both return k' < k centers and set ``exhausted``.

Both compute masses on :func:`~prone._util.mass_values` of the sorted
points, which rescales values of extreme magnitude by a power of two, so
the input's scale alone neither underflows the masses (an early
``exhausted``) nor overflows them; the reported center values are the
points as given.

Both seeders sort with the same permutation: the default (unstable, SIMD)
argsort, redone with a stable sort only when two values are equal. Without
ties every correct sort returns the stable permutation, so the order never
depends on which sort ran.

Centers are reported in selection order, and assignments use ranks into
that list. A point goes to the nearest center, measured by the same powered
distances the draws use, and among equally near centers to the one chosen
first, the rule :func:`~prone.baseline.kmeanspp_seed` follows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import as_generator, check_z, inverse_cdf, mass_values, padded_pairwise_sum, power_abs
from .sampling_tree import SamplingTree

__all__ = [
    "Seeding1DResult",
    "SeedingStats",
    "seed_1d_fast",
    "seed_1d_naive",
]

# Points scanned on each side of a new center in one pass. Most improved
# runs are shorter, so one comparison settles both sides of a draw.
_WINDOW = 256

# Length of a fallback scan's first block. A numpy call's fixed cost is
# about that of a few hundred elements of scan work, so starting here wastes
# at most about one call on a short run and saves doublings on a long one.
_FIRST_BLOCK = 512


@dataclass(frozen=True)
class Seeding1DResult:
    """Centers and per-point assignment produced by 1-D seeding.

    ``center_indices[j]`` is the position in the *original* input of the
    j-th center in selection order (the first entry is the uniform draw);
    ``assignment[i]`` is the rank j of the center nearest to point i, the
    earliest-chosen one among equally near centers.
    ``exhausted`` is True when fewer than the requested k distinct centers
    existed.
    """

    center_indices: np.ndarray
    center_values: np.ndarray
    assignment: np.ndarray
    exhausted: bool

    @property
    def k_found(self) -> int:
        return int(self.center_indices.size)


@dataclass
class SeedingStats:
    """Instrumentation for one fast-seeding run.

    ``total_updates`` counts distance-array writes made by the outward
    scans (the new center's own zero is not counted); ``comparisons``
    counts the loop-condition evaluations of a scalar outward walk, which
    tests once per write plus once to stop on each side, so always
    ``comparisons == total_updates + 2 * (k_found - 1)``.
    """

    total_updates: int = 0
    comparisons: int = 0


def _validate(points: np.ndarray, k: int, z: float) -> None:
    if points.ndim != 1 or points.size == 0:
        raise ValueError("points must be a non-empty 1-D array")
    if not np.isfinite(points).all():
        raise ValueError("points must be finite")
    if not 1 <= k <= points.size:
        raise ValueError(f"k={k} must satisfy 1 <= k <= n={points.size}")
    check_z(z)


def _sort(xs_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (order, xs_in[order]) with ``order`` the stable argsort.

    Runs the faster default argsort and falls back to a stable one only if
    the sorted values contain a tie (-0.0 and 0.0 count as one).
    """
    order = np.argsort(xs_in)
    xs = xs_in[order]
    if (xs[1:] == xs[:-1]).any():
        order = np.argsort(xs_in, kind="stable")
        xs = xs_in[order]
    return order, xs


def _improve(xs: np.ndarray, a: np.ndarray, center: int, z: float) -> tuple[int, int]:
    """Lower ``a`` to |x_i - x_center|^z on the improved run around ``center``.

    The run extends on each side while the new center improves a point, up
    to the first point it does not improve; ``a[center]`` must already be
    0, so the center stops both sides (0 >= 0). The power transform is
    monotone, so the first non-improving point on a side ends its run
    exactly as a scalar walk would. One comparison over a window of
    ``_WINDOW`` points per side finds both stops; a side whose run reaches
    the window's edge continues with :func:`_scan_out`. Returns the range
    [lo, hi) of written entries, the center included.
    """
    n = xs.size
    c = xs[center]
    w0 = max(center - _WINDOW, 0)
    w1 = min(center + _WINDOW + 1, n)
    vals = power_abs(xs[w0:w1] - c, z)
    # the method forms skip the dispatch of np.flatnonzero/np.searchsorted
    stops = (vals >= a[w0:w1]).nonzero()[0]
    at = int(stops.searchsorted(center - w0))  # stops[at] is the center
    lo = w0 + int(stops[at - 1]) + 1 if at else w0
    hi = w0 + int(stops[at + 1]) if at + 1 < stops.size else w1
    a[lo:hi] = vals[lo - w0 : hi - w0]
    if lo == w0 > 0:
        lo = _scan_out(xs, a, c, w0 - 1, -1, z) + 1
    if hi == w1 < n:
        hi = _scan_out(xs, a, c, w1, 1, z)
    return lo, hi


def _scan_out(xs: np.ndarray, a: np.ndarray, c: float, i: int, step: int, z: float) -> int:
    """Continue an improving run from index ``i`` in direction ``step`` (+-1).

    Writes |x_j - c|^z over ``a`` for j = i, i + step, ... while it is
    smaller, in blocks that double in length, and returns the first index
    it did not improve (-1 or n past either end).
    """
    n = xs.size
    block = _FIRST_BLOCK
    while 0 <= i < n:
        if step > 0:
            part = slice(i, min(i + block, n))
        else:
            part = slice(max(i - block, -1) + 1, i + 1)
        # both reversed when walking left, so index 0 is nearest the center
        vals = power_abs(xs[part][::step] - c, z)
        seg = a[part][::step]  # a view: writes land in ``a``
        improve = vals < seg
        run = int(np.argmin(improve))  # first point not improved, 0 if all are
        if improve[run]:
            run = improve.size
        seg[:run] = vals[:run]
        i += step * run
        if run < improve.size:
            break
        block <<= 1
    return i


def seed_1d_fast(points, k: int, z: float = 2.0, rng=None) -> tuple[Seeding1DResult, SeedingStats]:
    """Tree-backed 1-D seeding in expected O(n log n) total work."""
    xs_in = np.asarray(points, dtype=np.float64)
    _validate(xs_in, k, z)
    rng = as_generator(rng)
    n = xs_in.size

    order, xs = _sort(xs_in)
    xm = mass_values(xs, z)

    first = int(rng.integers(n))
    a = power_abs(xm - xm[first], z)
    a[first] = 0.0
    tree = SamplingTree(a)
    label = np.zeros(n, dtype=np.intp)
    chosen = [first]
    writes = 0
    exhausted = False

    state = rng.bit_generator.state
    # a memoryview yields each uniform as a Python float, one at a time
    for u in memoryview(rng.random(k - 1)):
        total = tree.total
        if not total > 0.0:
            exhausted = True
            # give back the uniforms this run did not use
            rng.bit_generator.state = state
            rng.random(len(chosen) - 1)
            break
        r = u * total
        if r >= total:  # u close to 1 can round u*total up to total
            r = np.nextafter(total, 0.0)
        lt = tree.find(r)
        a[lt] = 0.0
        lo, hi = _improve(xm, a, lt, z)
        tree.update(a, lo, hi)
        label[lo:hi] = len(chosen)
        chosen.append(lt)
        writes += hi - lo - 1
    draws = len(chosen) - 1
    stats = SeedingStats(total_updates=writes, comparisons=writes + 2 * draws)

    chosen_arr = np.array(chosen, dtype=np.intp)
    assignment = np.empty(n, dtype=np.intp)
    assignment[order] = label
    result = Seeding1DResult(
        center_indices=order[chosen_arr],
        center_values=xs[chosen_arr],
        assignment=assignment,
        exhausted=exhausted,
    )
    return result, stats


def seed_1d_naive(points, k: int, z: float = 2.0, rng=None) -> Seeding1DResult:
    """Reference 1-D seeding with a full O(n) distance refresh per draw.

    Same sampling semantics and randomness consumption as
    :func:`seed_1d_fast`; selection is a linear prefix-sum scan and the
    assignment is the first minimum of the (n, k') table of powered
    distances, with centers in selection order.
    """
    xs_in = np.asarray(points, dtype=np.float64)
    _validate(xs_in, k, z)
    rng = as_generator(rng)
    n = xs_in.size

    order, xs = _sort(xs_in)
    xm = mass_values(xs, z)

    first = int(rng.integers(n))
    a = power_abs(xm - xm[first], z)
    a[first] = 0.0
    chosen = [first]
    exhausted = False

    for _ in range(k - 1):
        total = padded_pairwise_sum(a)
        if not total > 0.0:
            exhausted = True
            break
        lt = int(inverse_cdf(a, rng.random() * total))
        a = np.minimum(a, power_abs(xm - xm[lt], z))
        chosen.append(lt)

    chosen_arr = np.array(chosen, dtype=np.intp)
    # argmin takes the first minimum, so ties go to the earliest-chosen center
    assignment = np.empty(n, dtype=np.intp)
    assignment[order] = np.argmin(power_abs(xm[:, None] - xm[chosen_arr], z), axis=1)
    return Seeding1DResult(
        center_indices=order[chosen_arr],
        center_values=xs[chosen_arr],
        assignment=assignment,
        exhausted=exhausted,
    )
