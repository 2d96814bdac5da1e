"""Tests for 1-D seeding: worked examples, fast == naive oracle equivalence, distribution law."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prone import seeding1d
from prone._util import _BLOCK_VALUES, mass_values, power_abs
from prone.seeding1d import (
    _SIDE,
    _improve,
    SamplingTree,
    SeedingStats,
    _sort,
    seed_1d_fast,
    seed_1d_naive,
)


def two_pointer_assign(points_sorted, centers_sorted):
    """Reference sweep: advance the center while the next one is at least as close.

    Ranks are into the ascending centers; an exact midpoint tie goes right.
    """
    sigma = np.empty(len(points_sorted), dtype=np.intp)
    cs = [float(c) for c in centers_sorted]
    j = 0
    for i, xi in enumerate(float(x) for x in points_sorted):
        while j + 1 < len(cs) and abs(xi - cs[j]) >= abs(xi - cs[j + 1]):
            j += 1
        sigma[i] = j
    return sigma


class TestWorkedExamples:
    def test_k_equals_n_zero_cost(self):
        for z in (1.0, 2.0, 3.0):
            res, _ = seed_1d_fast([0, 1, 3], k=3, z=z, rng=11)
            assert res.k_found == 3
            assert sorted(res.center_values.tolist()) == [0, 1, 3]
            # every point is its own center
            vals = res.center_values[res.assignment]
            np.testing.assert_array_equal(vals, [0, 1, 3])

    def test_single_point(self):
        res = seed_1d_naive([5], k=1, rng=0)
        assert res.center_indices.tolist() == [0]
        assert res.assignment.tolist() == [0]
        assert res.center_values.tolist() == [5]

    def test_two_points_both_centers(self):
        for seed in range(10):
            res = seed_1d_naive([0, 10], k=2, rng=seed)
            assert sorted(res.center_values.tolist()) == [0, 10]

    def test_second_center_conditional_law(self):
        # points [0,1,3], z=2, first center at value 0: remaining masses are
        # (1, 9), so the second center is 3 w.p. 9/10 and 1 w.p. 1/10
        rng = np.random.default_rng(42)
        counts = {1.0: 0, 3.0: 0}
        runs = 0
        for _ in range(120_000):
            res, _ = seed_1d_fast([0, 1, 3], k=2, z=2, rng=rng)
            if res.center_values[0] != 0.0:
                continue  # condition on the forced first center
            runs += 1
            counts[float(res.center_values[1])] += 1
        p = 9.0 / 10.0
        se = np.sqrt(p * (1 - p) / runs)
        assert abs(counts[3.0] / runs - p) < 3 * se

    def test_duplicates_early_stop(self):
        res, _ = seed_1d_fast([2.0, 2.0, 2.0, 7.0], k=4, rng=1)
        assert res.exhausted
        assert res.k_found == 2
        assert sorted(res.center_values.tolist()) == [2.0, 7.0]


class TestValidation:
    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            seed_1d_fast([1, 2], k=3, rng=0)
        with pytest.raises(ValueError):
            seed_1d_fast([1, 2], k=0, rng=0)
        with pytest.raises(ValueError):
            seed_1d_naive([1, 2], k=3, rng=0)

    def test_non_finite_points(self):
        with pytest.raises(ValueError):
            seed_1d_fast([1, float("nan")], k=1, rng=0)

    def test_z_below_one(self):
        with pytest.raises(ValueError):
            seed_1d_fast([1, 2], k=1, z=0.5, rng=0)

    @pytest.mark.parametrize("z", [float("nan"), float("inf")])
    @pytest.mark.parametrize("seeder", [seed_1d_fast, seed_1d_naive])
    def test_non_finite_z(self, seeder, z):
        with pytest.raises(ValueError, match="finite"):
            seeder([1.0, 2.0, 4.0], k=2, z=z, rng=0)


class TestFastNaiveEquivalence:
    def test_shared_stream_256_points(self):
        base = np.random.default_rng(2024)
        x = base.random(256)
        for z in (1.0, 2.0, 3.0):
            fast_res, _ = seed_1d_fast(x, k=16, z=z, rng=np.random.default_rng(99))
            naive_res = seed_1d_naive(x, k=16, z=z, rng=np.random.default_rng(99))
            np.testing.assert_array_equal(fast_res.center_indices, naive_res.center_indices)
            np.testing.assert_array_equal(fast_res.assignment, naive_res.assignment)

    def test_randomized_instances(self):
        # mixed duplicates, all z values, varied sizes
        meta = np.random.default_rng(7)
        for trial in range(300):
            n = int(meta.integers(1, 120))
            k = int(meta.integers(1, min(n, 24) + 1))
            z = float(meta.choice([1.0, 2.0, 3.0]))
            vals = meta.random(n)
            if n > 3 and meta.random() < 0.5:
                dup = meta.integers(0, n, size=n // 2)
                vals[dup] = vals[dup[0]]  # force duplicate mass
            seed = int(meta.integers(2**32))
            fast_res, stats = seed_1d_fast(vals, k=k, z=z, rng=np.random.default_rng(seed))
            naive_res = seed_1d_naive(vals, k=k, z=z, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(
                fast_res.center_indices, naive_res.center_indices, err_msg=f"trial {trial}"
            )
            np.testing.assert_array_equal(
                fast_res.assignment, naive_res.assignment, err_msg=f"trial {trial}"
            )
            assert fast_res.exhausted == naive_res.exhausted
            assert stats.total_updates <= n * (k - 1)


class TestInvariants:
    def test_never_reselects_a_center(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(2, 80))
            x = rng.random(n)
            res, _ = seed_1d_fast(x, k=min(n, 10), rng=np.random.default_rng(rng.integers(2**32)))
            idx = res.center_indices.tolist()
            assert len(set(idx)) == len(idx)

    def test_centers_assigned_to_themselves(self):
        rng = np.random.default_rng(6)
        x = rng.random(64)
        res, _ = seed_1d_fast(x, k=8, rng=np.random.default_rng(1))
        for rank, i in enumerate(res.center_indices):
            assert res.assignment[i] == rank

    def test_update_count_sanity(self):
        # light version of the n log n scaling check (full version in acceptance)
        n = 2**12
        x = np.random.default_rng(0).random(n)
        _, stats = seed_1d_fast(x, k=n // 4, z=2, rng=np.random.default_rng(1))
        assert stats.total_updates / (n * np.log(n)) <= 20
        assert stats.total_updates <= n * (n // 4 - 1)

    def test_first_masses_are_written_into_the_tree(self):
        # k = 1 keeps the draws' scan blocks out of the peak, so it is the
        # build's: the sorted values, the int32 order, the labels and the
        # tree's nodes, with no n-length mass array beside them
        n = 2**17
        x = np.random.default_rng(0).standard_normal(n)
        tracemalloc.start()
        try:
            seed_1d_fast(x, k=1, rng=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= (8 + 4 + 4 + 16) * n + 2**16

    @pytest.mark.parametrize("seeder", [seed_1d_fast, seed_1d_naive])
    def test_center_indices_are_intp(self, seeder):
        # the sort's order is int32, but the reported indices keep numpy's
        # index dtype
        res = seeder(np.random.default_rng(2).standard_normal(300), k=5, rng=4)
        res = res[0] if isinstance(res, tuple) else res
        assert res.center_indices.dtype == np.intp
        assert res.assignment.dtype == np.intp


def assert_nearest_first_chosen(x, res, z):
    """Each point's center attains its least powered distance on the mass
    values, and no earlier-chosen center attains it."""
    order, xs = _sort(np.asarray(x, dtype=np.float64))
    xm = np.empty(xs.size)
    xm[order] = mass_values(xs, z)
    dists = power_abs(xm[:, None] - xm[res.center_indices], z)
    least = dists.min(axis=1)
    rows = np.arange(xs.size)
    np.testing.assert_array_equal(dists[rows, res.assignment], least)
    earlier = np.arange(res.k_found) < res.assignment[:, None]
    assert not (earlier & (dists == least[:, None])).any()


def run_both(x, k, z, seed):
    fast, _ = seed_1d_fast(x, k, z, rng=seed)
    return fast, seed_1d_naive(x, k, z, rng=seed)


# an integer grid forces exact ties and duplicates; arbitrary floats reach
# magnitudes where distances round together or masses need rescaling
_value = st.one_of(
    st.integers(-6, 6).map(float), st.floats(allow_nan=False, allow_infinity=False)
)


class TestAssignmentRule:
    """A point goes to its nearest center; among equally near ones, to the first chosen."""

    @pytest.mark.parametrize("seeder", ["fast", "naive"])
    def test_midpoint_tie_goes_to_first_chosen(self, seeder):
        seen = set()
        for seed in range(200):
            fast, naive = run_both([0.0, 1.0, 2.0], 2, 2.0, seed)
            res = fast if seeder == "fast" else naive
            first, second = res.center_values.tolist()
            if {first, second} != {0.0, 2.0}:
                continue
            seen.add(first)
            assert res.assignment.tolist() == ([0, 0, 1] if first == 0.0 else [1, 0, 0])
        assert seen == {0.0, 2.0}

    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.lists(st.integers(-6, 6).map(float), min_size=1, max_size=40),
            st.lists(_value, min_size=1, max_size=40),
        ),
        st.integers(1, 10),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_nearest_then_first_chosen(self, x, k, z, seed):
        k = min(k, len(x))
        for res in run_both(x, k, z, seed):
            assert_nearest_first_chosen(x, res, z)

    @pytest.mark.parametrize("z", [1.0, 1.5, 2.0, 3.0])
    def test_integer_grids(self, z):
        meta = np.random.default_rng(12)
        for _ in range(100):
            n = int(meta.integers(1, 200))
            x = meta.integers(-8, 9, n).astype(np.float64)
            k = int(meta.integers(1, min(n, 20) + 1))
            for res in run_both(x, k, z, int(meta.integers(2**32))):
                assert_nearest_first_chosen(x, res, z)

    @pytest.mark.parametrize("z", [1.0, 2.0])
    def test_tie_free_input_matches_sweep(self, z):
        # where no tie exists the rule changes nothing: the assignment is the
        # sweep's over the centers in ascending order, mapped to selection ranks
        meta = np.random.default_rng(13)
        for _ in range(100):
            n = int(meta.integers(1, 300))
            x = meta.standard_normal(n) * 10.0 ** float(meta.integers(-5, 6))
            k = int(meta.integers(1, min(n, 30) + 1))
            for res in run_both(x, k, z, int(meta.integers(2**32))):
                by_value = np.argsort(res.center_values)
                sweep = two_pointer_assign(np.sort(x), res.center_values[by_value])
                np.testing.assert_array_equal(res.assignment[np.argsort(x)], by_value[sweep])


class TestSort:
    @pytest.mark.parametrize("n", [1, 2, 50, 5000])
    def test_tie_heavy_input_is_stable(self, n):
        x = np.random.default_rng(n).integers(0, 7, size=n).astype(np.float64)
        order, xs = _sort(x)
        np.testing.assert_array_equal(order, np.argsort(x, kind="stable"))
        np.testing.assert_array_equal(xs, x[order])

    def test_signed_zeros_count_as_ties(self):
        x = np.array([0.0, -0.0, 1.0, -0.0, 0.0])
        order, _ = _sort(x)
        np.testing.assert_array_equal(order, np.argsort(x, kind="stable"))

    def test_distinct_input(self):
        x = np.random.default_rng(3).standard_normal(4096)
        order, xs = _sort(x)
        np.testing.assert_array_equal(order, np.argsort(x, kind="stable"))
        np.testing.assert_array_equal(xs, np.sort(x))


def scan_left_reference(xs, a, center, z):
    """Outward scan left of ``center`` in doubling blocks: (lowest written index, writes)."""
    c = xs[center]
    i = center - 1
    block = 512
    writes = 0
    while i >= 0:
        lo = max(0, i - block + 1)
        vals = power_abs(xs[lo : i + 1] - c, z)
        from_right = (vals < a[lo : i + 1])[::-1]
        if from_right.all():
            a[lo : i + 1] = vals
            writes += i + 1 - lo
            i = lo - 1
            block <<= 1
        else:
            run = int(np.argmin(from_right))
            if run:
                a[i - run + 1 : i + 1] = vals[vals.size - run :]
                writes += run
            i -= run
            break
    return i + 1, writes


def scan_right_reference(xs, a, center, z):
    """Mirror image of :func:`scan_left_reference`: (highest written index, writes)."""
    n = xs.size
    c = xs[center]
    j = center + 1
    block = 512
    writes = 0
    while j < n:
        hi = min(n, j + block)
        vals = power_abs(xs[j:hi] - c, z)
        improve = vals < a[j:hi]
        if improve.all():
            a[j:hi] = vals
            writes += hi - j
            j = hi
            block <<= 1
        else:
            run = int(np.argmin(improve))
            if run:
                a[j : j + run] = vals[:run]
                writes += run
            j += run
            break
    return j - 1, writes


def window_bounds(a, center, kind):
    """A range [lo, hi) that holds the improved run around ``center``.

    ``ends`` is the whole array; ``neighbours`` stops short of the nearest
    point of mass 0 on each side, as the seeder's neighbouring centers do;
    ``one point`` is the center alone, after zeroing the masses beside it.
    """
    n = a.size
    if kind == "ends":
        return 0, n
    if kind == "one point":
        a[max(center - 1, 0) : center + 2] = 0.0
        return center, center + 1
    zeros = np.flatnonzero(a == 0.0)
    below, above = zeros[zeros < center], zeros[zeros > center]
    return (int(below[-1]) + 1 if below.size else 0), (int(above[0]) if above.size else n)


@st.composite
def scan_instances(draw):
    # a small cut and block reach the fallback scan, and several of its
    # blocks, at small n; the seeder's own sizes are among the draws
    side = draw(st.sampled_from([1, 2, 3, 16, 256, _SIDE]))
    block = draw(st.sampled_from([1, 2, 7, 512, _BLOCK_VALUES]))
    # runs that end just inside the cut, at it, one past it, at the fallback
    # scan's first block boundary, and at the array's end
    edges = [0, 1, side - 1, side, side + 1, side + block - 1, side + block, side + block + 1]
    n = draw(st.one_of(st.integers(1, 2 * side), st.integers(1, 1400)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xs = np.sort(gen.integers(0, max(n // 16, 2), n).astype(np.float64))  # ties
    else:
        xs = np.sort(gen.standard_normal(n) * 10.0 ** draw(st.integers(-3, 2)))
    # centers near the ends, including cuts that stop one point short of either end
    near_end = [0, side, side + 1, n - side - 2, n - side - 1, n - 1]
    center = draw(st.one_of(st.sampled_from([min(max(c, 0), n - 1) for c in near_end]), st.integers(0, n - 1)))
    z = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    runs = None
    if draw(st.booleans()):
        # masses from a few earlier centers, as the seeder holds them
        prior = gen.integers(0, n, int(gen.integers(1, 6)))
        a = np.min([power_abs(xs - xs[p], z) for p in prior], axis=0)
    else:
        # every point improvable except one stop per side
        run_len = st.one_of(st.sampled_from(edges + [n]), st.integers(0, n))
        runs = draw(run_len), draw(run_len)
        a = np.full(n, 1e300)
        if center - runs[0] - 1 >= 0:
            a[center - runs[0] - 1] = 0.0
        if center + runs[1] + 1 < n:
            a[center + runs[1] + 1] = 0.0
    kind = draw(st.sampled_from(["ends", "neighbours", "one point"]))
    if kind == "one point":
        runs = None if runs is None else (0, 0)
    a[center] = 0.0
    lo, hi = window_bounds(a, center, kind)
    return xs, a, center, z, runs, (lo, hi), (side, block)


class TestWindowScan:
    @settings(max_examples=400, deadline=None)
    @given(scan_instances())
    def test_matches_outward_scans(self, case):
        xs, a, center, z, runs, window, (side, block) = case
        expect = a.copy()
        lo, w_left = scan_left_reference(xs, expect, center, z)
        last, w_right = scan_right_reference(xs, expect, center, z)
        with mock.patch.object(seeding1d, "_SIDE", side), mock.patch.object(seeding1d, "_BLOCK_VALUES", block):
            got_lo, got_hi = _improve(xs, a, center, z, *window)
        assert (got_lo, got_hi) == (lo, last + 1)
        assert got_hi - got_lo - 1 == w_left + w_right
        assert a.tobytes() == expect.tobytes()
        if runs is not None:
            assert lo == max(center - runs[0], 0)
            assert last == min(center + runs[1], xs.size - 1)

    def test_window_and_blocks_hold_at_most_the_block_budget(self):
        # a run over every point from the middle: the window is cut to
        # _SIDE points a side, and the scans go on in blocks of the budget
        n = 3 * _BLOCK_VALUES
        xs = np.arange(n, dtype=np.float64)
        a = np.full(n, np.inf)
        a[n // 2] = 0.0
        sizes = []
        powered = seeding1d._powered

        def recorded(values, c, z):
            sizes.append(values.size)
            return powered(values, c, z)

        with mock.patch.object(seeding1d, "_powered", recorded):
            assert _improve(xs, a, n // 2, 2.0, 0, n) == (0, n)
        assert sizes[0] == 2 * _SIDE == _BLOCK_VALUES
        assert max(sizes) == _BLOCK_VALUES and sum(sizes) == n

    def test_long_scan_peak_is_bounded(self):
        # one improving run over 2**20 points (8 MiB of values): the window
        # and the scan's blocks hold at most 2**16 values, well under 1 MiB
        n = 2**20
        xs = np.arange(n, dtype=np.float64)
        a = np.full(n, np.inf)
        a[0] = 0.0
        tracemalloc.start()
        try:
            lo, hi = _improve(xs, a, 0, 2.0, 0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (lo, hi) == (0, n)
        assert a.tobytes() == (xs * xs).tobytes()
        assert peak < 2**20


def scalar_repairs(xs, draws, z):
    """Labels and write count of scalar outward walks for the centers ``draws``, in order."""
    a = power_abs(xs - xs[draws[0]], z)
    label = np.zeros(xs.size, dtype=np.intp)
    writes = 0
    for t, c in enumerate(draws[1:], 1):
        a[c], label[c] = 0.0, t
        for step in (-1, 1):
            i = c + step
            while 0 <= i < xs.size and power_abs(xs[i : i + 1] - xs[c], z)[0] < a[i]:
                a[i], label[i] = power_abs(xs[i : i + 1] - xs[c], z)[0], t
                writes += 1
                i += step
    return label, writes


class TestNeighbourWindows:
    """The window between the new center's neighbours, found from its owner's label."""

    # the module docstring's data: the repair for the center at 1 stops at
    # the tie at index 3, so 2^53+6 keeps the label of the center at 0
    TIE_STOP = np.array([0.0, 1.0, 2.0**53 + 2, 2.0**53 + 4, 2.0**53 + 6, 2.0**53 + 8, 2.0**53 + 10])

    @pytest.mark.parametrize("z", [1.0, 2.0])
    @pytest.mark.parametrize("draws", [[0, 1, 4], [0, 1, 4, 6, 2], [0, 1, 6, 4], [0, 1, 4, 2, 6, 3]])
    def test_owner_that_is_not_a_neighbour(self, draws, z):
        # after the draws 0 and 1, the point at 4 is owned by the center at 0,
        # with the center at 1 between them: the draw must walk past it
        xs = self.TIE_STOP
        assert scalar_repairs(xs, [0, 1], z)[0][4] == 0
        label, writes = scalar_repairs(xs, draws, z)
        script = iter(draws[1:])
        with mock.patch.object(SamplingTree, "find", lambda tree, r: next(script)):
            res, stats = seed_1d_fast(xs, len(draws), z, rng=np.random.Generator(np.random.Philox(0)))
        assert res.center_indices.tolist() == draws  # Philox(0) draws index 0 first
        np.testing.assert_array_equal(res.assignment, label)
        assert stats.total_updates == writes

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.integers(-6, 6).map(float) | st.floats(-1e3, 1e3), min_size=1, max_size=60),
        st.integers(1, 20),
        st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        st.integers(0, 2**32 - 1),
    )
    def test_repairs_match_scalar_walks(self, x, k, z, seed):
        xs = np.sort(np.asarray(x))
        res, stats = seed_1d_fast(xs, min(k, xs.size), z, rng=seed)
        # sorted input with ties: the stable sort keeps the order, so
        # positions are indices
        label, writes = scalar_repairs(mass_values(xs, z), res.center_indices.tolist(), z)
        np.testing.assert_array_equal(res.assignment, label)
        assert stats.total_updates == writes


def input_family(name, n, seed):
    """n values of one input family, drawn with ``seed``."""
    gen = np.random.default_rng(seed)
    if name == "gaussian":
        return gen.standard_normal(n)
    if name == "grid":
        return np.arange(n, dtype=np.float64)
    if name == "geometric":
        return 1.0001 ** np.arange(n)
    if name == "cauchy":
        return gen.standard_cauchy(n)
    if name == "lognormal":
        return gen.lognormal(0.0, 5.0, n)
    x = gen.standard_normal(n)
    if name == "two clumps":
        x[n // 2 :] += 1e6
    else:  # "outlier"
        x[0] = 1e12
    return x


FAMILIES = ["gaussian", "grid", "geometric", "cauchy", "lognormal", "two clumps", "outlier"]


class TestInputFamilies:
    """The paper's bounds hold for every input, not only for Gaussian mixtures."""

    @pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_fast_equals_naive_with_ties_and_signed_zeros(self, family, z):
        meta = np.random.default_rng(FAMILIES.index(family))
        for trial in range(4):
            x = input_family(family, 200, trial)
            x[meta.integers(0, 200, 20)] = x[meta.integers(0, 200, 20)]  # ties
            x[meta.integers(0, 200, 6)] = [0.0, -0.0, 0.0, -0.0, 0.0, -0.0]
            for k in (2, 9, 60, 200):
                seed = int(meta.integers(2**32))
                fast, naive = run_both(x, k, z, seed)
                np.testing.assert_array_equal(fast.center_indices, naive.center_indices)
                np.testing.assert_array_equal(fast.assignment, naive.assignment)
                assert fast.exhausted == naive.exhausted

    @pytest.mark.parametrize("family", FAMILIES)
    def test_writes_at_most_n_ln_n(self, family):
        # the most any family wrote here was 0.66 n ln n (Gaussian, k = 2e4)
        n = 200_000
        x = input_family(family, n, 1)
        for k in (10, 1000, 20_000):
            _, stats = seed_1d_fast(x, k, 2.0, rng=k)
            assert stats.total_updates <= n * math.log(n)

    def test_second_center_law_on_the_geometric_family(self):
        # as test_04, on 1.0001^i at indices spread over three decades, so
        # the masses from one first center span eight orders of magnitude
        pts = 1.0001 ** np.array([0.0, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0, 1000.0])
        n, runs = pts.size, 40_000
        rng = np.random.default_rng(424242)
        counts = np.zeros((n, n), dtype=np.int64)
        for _ in range(runs):
            res, _ = seed_1d_fast(pts, 2, z=2.0, rng=rng)
            counts[res.center_indices[0], res.center_indices[1]] += 1
        for first in range(n):
            mass = (pts - pts[first]) ** 2
            law = mass / mass.sum()
            group = counts[first].sum()
            freq = counts[first] / group
            se = np.sqrt(law * (1.0 - law) / group)
            assert counts[first, first] == 0
            others = np.arange(n) != first
            assert (np.abs(freq - law)[others] <= 3.0 * se[others]).all()


class TestRandomStream:
    """``seed_1d_fast`` draws its uniforms in one batch; the stream must not notice."""

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64])
    @pytest.mark.parametrize("m", [0, 1, 2, 7, 999])
    def test_batch_equals_scalar_draws(self, bitgen, m):
        batched = np.random.Generator(bitgen(5))
        scalar = np.random.Generator(bitgen(5))
        batched.integers(17)  # the seeders draw the first center before the uniforms
        scalar.integers(17)
        assert batched.random(m).tolist() == [scalar.random() for _ in range(m)]
        np.testing.assert_equal(batched.bit_generator.state, scalar.bit_generator.state)

    @pytest.mark.parametrize("bitgen", [np.random.Philox, np.random.PCG64])
    @pytest.mark.parametrize("values", [[3.0], [0.0, 1.0, 5.0], [-2.0, 0.0, 4.0, 9.0, 9.5]])
    def test_exhausted_run_leaves_generator_as_naive_does(self, bitgen, values):
        x = np.repeat(values, 30)
        for seed in range(10):
            fast_rng = np.random.Generator(bitgen(seed))
            naive_rng = np.random.Generator(bitgen(seed))
            res, _ = seed_1d_fast(x, k=len(values) + 4, rng=fast_rng)
            naive = seed_1d_naive(x, k=len(values) + 4, rng=naive_rng)
            assert res.exhausted and naive.exhausted
            assert res.k_found == naive.k_found == len(values)
            np.testing.assert_equal(fast_rng.bit_generator.state, naive_rng.bit_generator.state)
            assert fast_rng.random() == naive_rng.random()


class TestSeedingStats:
    def test_comparisons_identity(self):
        meta = np.random.default_rng(8)
        for trial in range(60):
            n = int(meta.integers(1, 2000))
            x = meta.standard_normal(n)
            if trial % 2:
                x = np.round(x * 2)  # few distinct values: most runs exhaust
            k = int(meta.integers(1, n + 1))
            z = float(meta.choice([1.0, 1.5, 2.0, 3.0]))
            res, stats = seed_1d_fast(x, k=k, z=z, rng=int(meta.integers(2**32)))
            assert stats.comparisons == stats.total_updates + 2 * (res.k_found - 1)

    def test_stores_draws_and_derives_comparisons(self):
        res, stats = seed_1d_fast(np.arange(40.0), k=7, rng=2)
        assert stats.draws == res.k_found - 1 == 6
        assert SeedingStats(total_updates=5, draws=2).comparisons == 9


def masses_checked():
    """Patch ``SamplingTree.update`` to assert its range is valid and its masses finite and >= 0.

    The tree checks neither; the seeder's masses hold both by construction,
    which the extreme scales and exponents below put to the test.
    """
    update = SamplingTree.update

    def checked(tree, start, stop):
        masses = tree._leaves[start:stop]
        assert 0 <= start < stop <= tree._leaves.size
        assert np.isfinite(masses).all() and (masses >= 0).all()
        update(tree, start, stop)

    return mock.patch.object(SamplingTree, "update", checked)


@st.composite
def power_of_two_rescalings(draw):
    """(xs, j, z): integer-grid or Gaussian values times 2^m, |m| <= 20, so xs * 2^j stays normal."""
    n = draw(st.integers(1, 80))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xs = gen.integers(-(2**20), 2**20, n).astype(np.float64)
        if draw(st.booleans()):
            xs = np.round(xs / 2**17)  # few distinct values: runs exhaust
    else:
        xs = gen.standard_normal(n)
    xs = np.ldexp(xs, draw(st.integers(-20, 20)))
    j = draw(st.one_of(st.sampled_from([-900, -600, 600, 900]), st.integers(-900, 900)))
    return xs, j, draw(st.sampled_from([1.0, 2.0]))


class TestScaleInvariance:
    """Masses are computed on values rescaled by a power of two, so seeding ignores the units."""

    @settings(max_examples=300, deadline=None)
    @given(power_of_two_rescalings(), st.integers(1, 12), st.integers(0, 2**32 - 1))
    def test_power_of_two_rescaling_changes_nothing(self, case, k, seed):
        xs, j, z = case
        k = min(k, xs.size)
        with masses_checked():
            want, _ = seed_1d_fast(xs, k, z, rng=seed)
            got, _ = seed_1d_fast(np.ldexp(xs, j), k, z, rng=seed)
        naive = seed_1d_naive(np.ldexp(xs, j), k, z, rng=seed)
        for res in (got, naive):
            np.testing.assert_array_equal(res.center_indices, want.center_indices)
            np.testing.assert_array_equal(res.assignment, want.assignment)
            assert res.exhausted == want.exhausted
        np.testing.assert_array_equal(got.center_values, np.ldexp(want.center_values, j))


@st.composite
def large_z_instances(draw):
    """(xs, k, z): up to 60 uniform or grid values times 2^m, and z up to 1e4."""
    n = draw(st.integers(1, 60))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xs = gen.uniform(-1.0, 1.0, n)
    else:
        xs = gen.integers(-4, 5, n).astype(np.float64)
    xs = np.ldexp(xs, draw(st.integers(-40, 40)))
    z = draw(st.one_of(st.sampled_from([700.0, 1000.0, 1500.0, 2000.0, 1e4]), st.floats(1.0, 1e4)))
    return xs, draw(st.integers(1, n)), z


class TestLargeZ:
    """The largest mass is span^z; values are scaled down when n of them could overflow."""

    @pytest.mark.parametrize("seed", range(6))
    def test_three_points_at_z_2000(self, seed):
        got, _ = seed_1d_fast([-0.9, 0.9, 0.1], 3, 2000.0, rng=seed)
        want = seed_1d_naive([-0.9, 0.9, 0.1], 3, 2000.0, rng=seed)
        np.testing.assert_array_equal(got.center_indices, want.center_indices)
        np.testing.assert_array_equal(got.assignment, want.assignment)

    @settings(max_examples=300, deadline=None)
    @given(large_z_instances(), st.integers(0, 2**32 - 1))
    def test_fast_equals_naive_without_error(self, case, seed):
        xs, k, z = case
        with masses_checked():
            got, _ = seed_1d_fast(xs, k, z, rng=seed)
        want = seed_1d_naive(xs, k, z, rng=seed)
        np.testing.assert_array_equal(got.center_indices, want.center_indices)
        np.testing.assert_array_equal(got.assignment, want.assignment)
        assert got.exhausted == want.exhausted

    def test_no_rescaling_where_no_mass_can_overflow(self):
        # 50 * 1.8^1000 is far below float64's largest value, so z = 1000
        # seeds on the values as given and finds all three centers
        xs = np.random.default_rng(0).uniform(-0.9, 0.9, 50)
        runs = [seed_1d_fast(xs, 3, 1000.0, rng=seed)[0] for seed in range(20)]
        assert not any(res.exhausted for res in runs)


def test_power_abs_square_matches_abs_square_bitwise():
    d = np.array(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-160, 1e-170, 1e200, -1e200, 3.5, -3.5, -1.0, 7e153]
    )
    with np.errstate(over="ignore", under="ignore"):
        expect = np.abs(d) * np.abs(d)
        got = power_abs(d, 2.0)
    assert got.tobytes() == expect.tobytes()
