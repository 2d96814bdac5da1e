"""One-dimensional (k,z) seeding in expected O(n log n) time.

Both entry points sample k centers from n scalars with the classic
powered-distance seeding law: the first center is uniform, every later
center is drawn with probability proportional to min_c |x_i - c|^z over
the centers chosen so far.

``seed_1d_fast`` sorts the points once, keeps the powered distances in a
:class:`SamplingTree` of partial sums, and after each draw repairs the
distance array by scanning outward from the new center only while the new
center improves a point. On sorted points the improved region is one
contiguous interval, so a draw costs O(log n) for the tree lookup plus the
length of the interval, and the intervals sum to O(n log n) in expectation
over a whole run. The repaired range is the new center plus the run of
points it strictly improves, so writing the center's rank over that range
keeps every point's label in step with its mass; no assignment pass
follows.

The interval and the identity with ``seed_1d_naive`` below hold only
while rounding keeps the powered distances in order. Once they exceed
about 2^53 times the gap between the new center and an older center on
the same side, the rounded values alternate between ties and strict
improvements, and the scan stops at the first tie: on the sorted values
[0, 1, 2^53+2, 2^53+4, 2^53+6, 2^53+8, 2^53+10] with masses from center
0, the repair for center 1 (z = 1 or 2) stops at index 3 and leaves
2^53+6 and 2^53+10 above the minimum that ``seed_1d_naive`` stores. A
run meets this only if the close center is drawn while the far points
still hold their mass, with probability below about 2^(-53 z) per draw.

One draw makes a fixed, small number of numpy calls. The centers just
left and right of the new one hold mass 0, so they stop its improved run
on both sides and bound the window the repair computes on: each center's
rank keeps links to its neighbours in sorted order, and the new center's
owner, ``label`` at the drawn point, is where the search for its place
starts. The repair computes the powered distances on that window, at most
``_BLOCK_VALUES // 2`` points each side of the new center, and one
comparison with the current masses finds the first point on each side
that the new center does not improve; only a side whose run reaches that
cap continues with a scan in blocks of ``_BLOCK_VALUES``, which also stops
at the neighbour. The repair writes the masses straight into the tree's
leaves, and the tree then gets one ``update`` over the whole written
range, which recomputes their ancestors without checking them. The first
masses are written there too, and one ``update`` over all n leaves builds
the tree. The uniforms for all k - 1 draws come from one
``rng.random(k - 1)`` call, which on numpy's generators yields the same
values and leaves the same state as k - 1 scalar calls. If the run
exhausts after j draws, the generator is reset to its state before that
call and advanced by ``rng.random(j)``, so it ends exactly where a scalar
loop would have left it; callers such as the boosted pipeline keep drawing
from it.

``seed_1d_naive`` recomputes all n distances after every draw (O(nk)). It
exists as an oracle: both functions consume randomness identically (one
uniform integer for the first center, then exactly one uniform real per
later center, scaled by the current total mass) and share the low-level
mass arithmetic, so with the same generator state they must return
identical centers and assignments, which the tests assert index for index.

If the remaining total mass hits zero before k draws (fewer than k
distinct values), both return k' < k centers and set ``exhausted``.
Both check their arguments with the rules in :mod:`prone._util`.

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

from ._util import (
    _BLOCK_VALUES, as_float64, as_generator, check_finite, check_k, check_z, inverse_cdf,
    mass_values, padded_pairwise_sum, power_abs,
)

__all__ = [
    "Seeding1DResult",
    "SeedingStats",
    "seed_1d_fast",
    "seed_1d_naive",
]

# Points of a repair's window on each side of the new center, at most: the
# window's temporaries then hold at most ``_BLOCK_VALUES`` values.
_SIDE = _BLOCK_VALUES // 2

# Levels of a tree update at most this many nodes wide are summed with
# scalar memoryview adds: one numpy call costs about as much as ten of them,
# and per-update times were flat for widths 4..14.
_SCALAR_LEVEL_WIDTH = 8


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
    scans (the new center's own zero is not counted) and ``draws`` the
    centers drawn after the first, ``k_found - 1``.
    """

    total_updates: int = 0
    draws: int = 0

    @property
    def comparisons(self) -> int:
        """Loop-condition evaluations of a scalar outward walk.

        Such a walk tests once per write plus once to stop on each side.
        """
        return self.total_updates + 2 * self.draws


class SamplingTree:
    """Complete binary tree of partial sums over n nonnegative masses.

    The masses sit at the leaves, zero-padded to a power of two, and every
    internal node holds the sum of its two children, so ``total`` (the
    root) is O(1) and ``find`` is O(log n). The seeder writes masses
    straight into ``_leaves`` and then calls ``update`` over the written
    range; until that call, ``total`` and ``find`` still read the old sums.
    Internal sums are always recomputed from the two children rather than
    adjusted incrementally, so the root equals the pairwise tree-order sum
    of the current leaves bit for bit (the total
    :func:`~prone._util.padded_pairwise_sum` gives ``seed_1d_naive``) and no
    drift accumulates across updates.

    It checks nothing from its one caller, :func:`seed_1d_fast`, whose ranges
    index checked points and whose masses are finite and >= 0 by construction
    (``_validate``, ``mass_values`` below 2^1022, ``power_abs``); a check
    would cost every draw a ``min`` and a ``max``.
    """

    def __init__(self, n: int) -> None:
        self._capacity = 1 << (n - 1).bit_length()
        self._nodes = np.zeros(2 * self._capacity, dtype=np.float64)
        self._leaves = self._nodes[self._capacity : self._capacity + n]
        # the children of nodes lo..hi are _even[lo : hi + 1] and _odd[lo : hi + 1]
        self._even = self._nodes[0::2]
        self._odd = self._nodes[1::2]
        # scalar reads and writes through a memoryview are Python floats,
        # several times cheaper than numpy scalar indexing, and round the same
        self._view = memoryview(self._nodes)
        # instrumentation: node writes performed by the latest update() call
        self.last_update_leaf_nodes = 0
        self.last_update_internal_nodes = 0

    @property
    def total(self) -> float:
        """Sum of all masses (the root node)."""
        return self._view[1]

    def find(self, r: float) -> int:
        """Return the smallest index i with prefix_sum(i) > r.

        Requires 0 <= r < total and a positive total (unchecked). The descent
        goes left iff r < left-child sum; stored sums round, so it can
        overshoot by an ulp onto a zero-mass leaf, and then steps back to the
        previous positive leaf. A zero-mass index is never returned.
        """
        nodes = self._view
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
        while nodes[cap + leaf] == 0.0:
            leaf -= 1
            if leaf < 0:
                raise AssertionError("positive total but no positive leaf found")
        return leaf

    def update(self, start: int, stop: int) -> None:
        """Re-sum the ancestors of leaves [start, stop) after a write to them.

        Requires 0 <= start < stop <= n and finite masses >= 0 (unchecked).
        Each level wider than ``_SCALAR_LEVEL_WIDTH`` nodes is one numpy add
        of its children, two plain slices of the even and odd views made in
        ``__init__``, into the level's own slice, about 0.8 us on a 2-CPU
        Xeon; the narrower levels and the single path to the root are scalar
        float adds, which round exactly like numpy's. That touches
        O((stop - start) + log n) nodes.
        """
        nodes, even, odd, view = self._nodes, self._even, self._odd, self._view
        lo = self._capacity + start
        hi = self._capacity + stop - 1
        self.last_update_leaf_nodes = stop - start
        internal = 0
        while lo < hi:
            lo >>= 1
            hi >>= 1
            if hi - lo < _SCALAR_LEVEL_WIDTH:
                for idx in range(lo, hi + 1):
                    view[idx] = view[2 * idx] + view[2 * idx + 1]
            else:
                # a positional ``out`` skips the keyword's parsing
                np.add(even[lo : hi + 1], odd[lo : hi + 1], nodes[lo : hi + 1])
            internal += hi - lo + 1
        acc = view[lo]
        internal += lo.bit_length() - 1
        while lo > 1:
            acc += view[lo ^ 1]
            lo >>= 1
            view[lo] = acc
        self.last_update_internal_nodes = internal


def _validate(points, k: int, z: float) -> np.ndarray:
    """``points`` as float64 (not copied if they are) once every argument passes."""
    xs = as_float64(points, "points")
    if xs.ndim != 1 or xs.size == 0:
        raise ValueError("points must be a non-empty 1-D array")
    check_finite(xs, "points")
    check_k(k, xs.size)
    check_z(z)
    return xs


def _sort(xs_in: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return (order, xs_in[order]) with ``order`` the stable argsort.

    Runs the faster default argsort and falls back to a stable one only if
    the sorted values contain a tie (-0.0 and 0.0 count as one). ``order``
    is int32 when n < 2^31, half the size of the sort's own permutation,
    and is cast before the gather, so the sort's permutation is freed
    before the sorted values are allocated.
    """
    index = np.int32 if xs_in.size <= np.iinfo(np.int32).max else np.intp
    order = np.argsort(xs_in).astype(index, copy=False)
    xs = xs_in[order]
    if (xs[1:] == xs[:-1]).any():
        order = np.argsort(xs_in, kind="stable").astype(index, copy=False)
        xs = xs_in[order]
    return order, xs


def _first_masses(xm: np.ndarray, first: int, z: float, out=None) -> np.ndarray:
    """Masses |x_i - x_first|^z of every point after the first draw.

    Computed in place on one n-length difference array (``out`` if given),
    shared by both seeders so that they start from bit-identical masses.
    """
    a = np.subtract(xm, xm[first], out=out)
    power_abs(a, z, out=a)
    a[first] = 0.0
    return a


def _powered(xs: np.ndarray, c: float, z: float) -> np.ndarray:
    """|xs - c|^z as a new array: one subtraction, then the power in place.

    For z = 2 the square is the one ``power_abs`` takes, d * d, without its
    coercion; ``c`` is a Python float, which numpy takes faster than its own
    scalar.
    """
    vals = np.subtract(xs, c)
    if z == 2:
        return np.multiply(vals, vals, vals)
    return power_abs(vals, z, out=vals)


def _improve(
    xs: np.ndarray, a: np.ndarray, center: int, z: float, lo: int, hi: int
) -> tuple[int, int]:
    """Lower ``a`` to |x_i - x_center|^z on the improved run around ``center``.

    The run extends on each side while the new center improves a point, up
    to the first point it does not improve, and lies within [lo, hi): the
    seeder passes the points strictly between the neighbouring centers,
    whose masses of 0 stop the run, or the array's ends. The power transform
    is monotone, so the first non-improving point on a side ends its run
    exactly as a scalar walk would. One comparison over a window of [lo, hi)
    cut to ``_SIDE`` points per side finds both stops; a side whose run
    reaches the cut continues with :func:`_scan_out`. Returns the range
    [start, end) of written entries, the center included.
    """
    c = float(xs[center])
    w0 = max(lo, center - _SIDE)
    w1 = min(hi, center + _SIDE)
    vals = _powered(xs[w0:w1], c, z)
    stop = np.greater_equal(vals, a[w0:w1])
    # the first stop on each side, counted outward from the center; argmax
    # returns 0 when a side has none, which the read at that index tells
    m = center - w0
    start, end = center, center + 1
    if m:
        t = int(stop[m - 1 :: -1].argmax())
        start = center - t if stop[m - 1 - t] else w0
    if end < w1:
        t = int(stop[m + 1 :].argmax())
        end = end + t if stop[m + 1 + t] else w1
    a[start:end] = vals[start - w0 : end - w0]
    del vals, stop  # freed before a scan's blocks are allocated
    if start == w0 > lo:
        start = _scan_out(xs, a, c, w0 - 1, -1, z, lo - 1) + 1
    if end == w1 < hi:
        end = _scan_out(xs, a, c, w1, 1, z, hi)
    return start, end


def _scan_out(
    xs: np.ndarray, a: np.ndarray, c: float, i: int, step: int, z: float, end: int
) -> int:
    """Continue an improving run from index ``i`` in direction ``step`` (+-1).

    Writes |x_j - c|^z over ``a`` for j = i, i + step, ... while it is
    smaller, in blocks of ``_BLOCK_VALUES``, and returns the first index it
    did not improve, or ``end`` (the first index past the run's bound) if
    it improved them all.
    """
    while i != end:
        if step > 0:
            lo, hi = i, min(i + _BLOCK_VALUES, end)
        else:
            lo, hi = max(i - _BLOCK_VALUES, end) + 1, i + 1
        # the arithmetic runs on forward views, never negative strides; only
        # the search for the first point not improved starts at the center
        vals = _powered(xs[lo:hi], c, z)
        stop = np.greater_equal(vals, a[lo:hi])
        toward = stop[::step]  # index 0 is nearest the center
        run = int(toward.argmax())  # first point not improved, 0 if all are
        if not toward[run]:
            run = stop.size
        part = slice(0, run) if step > 0 else slice(stop.size - run, None)
        a[lo:hi][part] = vals[part]
        i += step * run
        if run < stop.size:
            break
        del vals, stop  # freed before the next block's are allocated
    return i


def seed_1d_fast(points, k: int, z: float = 2.0, rng=None) -> tuple[Seeding1DResult, SeedingStats]:
    """Tree-backed 1-D seeding in expected O(n log n) total work."""
    xs_in = _validate(points, k, z)
    rng = as_generator(rng)
    n = xs_in.size

    order, xs = _sort(xs_in)
    # on CPython >= 3.11 a call hands its arguments to the callee, so an
    # input the caller built in the call expression is freed here, before
    # the tree is allocated
    del points, xs_in
    xm = mass_values(xs, z)

    first = int(rng.integers(n))
    label = np.zeros(n, dtype=np.int32 if k <= np.iinfo(np.int32).max else np.intp)
    # the tree comes last, so its nodes are the newest large block, freed first
    tree = SamplingTree(n)
    # the masses live in the tree's leaves: the first masses and each repair
    # are written once there, and ``update`` re-sums the written range
    a = _first_masses(xm, first, z, out=tree._leaves)
    tree.update(0, n)
    find, update = tree.find, tree.update
    owner = memoryview(label)  # reads a label as a Python int
    chosen = [first]
    # per rank, the ranks of the nearest centers to its left and right
    left_of, right_of = [None], [None]
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
        lt = find(r)
        # the drawn point's owner is one of its two neighbours unless a
        # rounding tie stopped an earlier repair short (module docstring);
        # the walks find its place between centers from any start
        j = owner[lt]
        if chosen[j] < lt:
            left, right = j, right_of[j]
            while right is not None and chosen[right] < lt:
                left, right = right, right_of[right]
        else:
            left, right = left_of[j], j
            while left is not None and chosen[left] > lt:
                left, right = left_of[left], left
        lo = 0 if left is None else chosen[left] + 1
        hi = n if right is None else chosen[right]
        lo, hi = _improve(xm, a, lt, z, lo, hi)
        update(lo, hi)
        rank = len(chosen)
        label[lo:hi] = rank
        chosen.append(lt)
        left_of.append(left)
        right_of.append(right)
        if left is not None:
            right_of[left] = rank
        if right is not None:
            left_of[right] = rank
        writes += hi - lo - 1
    stats = SeedingStats(total_updates=writes, draws=len(chosen) - 1)
    # the leaves are n masses; free them before the scatter, with the bound
    # methods that would keep the tree alive
    del tree, a, find, update

    chosen_arr = np.array(chosen, dtype=np.intp)
    assignment = np.empty(n, dtype=np.intp)
    assignment[order] = label
    result = Seeding1DResult(
        center_indices=order[chosen_arr].astype(np.intp),
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
    xs_in = _validate(points, k, z)
    rng = as_generator(rng)
    n = xs_in.size

    order, xs = _sort(xs_in)
    xm = mass_values(xs, z)

    first = int(rng.integers(n))
    a = _first_masses(xm, first, z)
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
        center_indices=order[chosen_arr].astype(np.intp),
        center_values=xs[chosen_arr],
        assignment=assignment,
        exhausted=exhausted,
    )
