"""Tests for 1-D seeding: worked examples, fast == naive oracle equivalence, distribution law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prone._util import mass_values, power_abs
from prone.seeding1d import (
    _WINDOW,
    _improve,
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


# runs that end just inside the window, at its edge, one past it, at the
# fallback scan's first block boundary, and at the array's end
_RUN_EDGES = [0, 1, _WINDOW - 1, _WINDOW, _WINDOW + 1, _WINDOW + 511, _WINDOW + 512, _WINDOW + 513]


@st.composite
def scan_instances(draw):
    n = draw(st.one_of(st.integers(1, 2 * _WINDOW), st.integers(2 * _WINDOW + 1, 2 * _WINDOW + 1400)))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        xs = np.sort(gen.integers(0, max(n // 16, 2), n).astype(np.float64))  # ties
    else:
        xs = np.sort(gen.standard_normal(n) * 10.0 ** draw(st.integers(-3, 2)))
    # centers near the ends, including windows that stop one point short of either end
    near_end = [0, _WINDOW, _WINDOW + 1, n - _WINDOW - 2, n - _WINDOW - 1, n - 1]
    center = draw(st.one_of(st.sampled_from([min(max(c, 0), n - 1) for c in near_end]), st.integers(0, n - 1)))
    z = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    runs = None
    if draw(st.booleans()):
        # masses from a few earlier centers, as the seeder holds them
        prior = gen.integers(0, n, int(gen.integers(1, 6)))
        a = np.min([power_abs(xs - xs[p], z) for p in prior], axis=0)
    else:
        # every point improvable except one stop per side
        run_len = st.one_of(st.sampled_from(_RUN_EDGES + [n]), st.integers(0, n))
        runs = draw(run_len), draw(run_len)
        a = np.full(n, 1e300)
        if center - runs[0] - 1 >= 0:
            a[center - runs[0] - 1] = 0.0
        if center + runs[1] + 1 < n:
            a[center + runs[1] + 1] = 0.0
    a[center] = 0.0
    return xs, a, center, z, runs


class TestWindowScan:
    @settings(max_examples=400, deadline=None)
    @given(scan_instances())
    def test_matches_outward_scans(self, case):
        xs, a, center, z, runs = case
        expect = a.copy()
        lo, w_left = scan_left_reference(xs, expect, center, z)
        last, w_right = scan_right_reference(xs, expect, center, z)
        got_lo, got_hi = _improve(xs, a, center, z)
        assert (got_lo, got_hi) == (lo, last + 1)
        assert got_hi - got_lo - 1 == w_left + w_right
        assert a.tobytes() == expect.tobytes()
        if runs is not None:
            assert lo == max(center - runs[0], 0)
            assert last == min(center + runs[1], xs.size - 1)


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
        want, _ = seed_1d_fast(xs, k, z, rng=seed)
        got, _ = seed_1d_fast(np.ldexp(xs, j), k, z, rng=seed)
        naive = seed_1d_naive(np.ldexp(xs, j), k, z, rng=seed)
        for res in (got, naive):
            np.testing.assert_array_equal(res.center_indices, want.center_indices)
            np.testing.assert_array_equal(res.assignment, want.assignment)
            assert res.exhausted == want.exhausted
        np.testing.assert_array_equal(got.center_values, np.ldexp(want.center_values, j))


def test_power_abs_square_matches_abs_square_bitwise():
    d = np.array(
        [-0.0, 0.0, 5e-324, -5e-324, 2.2e-308, -1e-160, 1e-170, 1e200, -1e200, 3.5, -3.5, -1.0, 7e153]
    )
    with np.errstate(over="ignore", under="ignore"):
        expect = np.abs(d) * np.abs(d)
        got = power_abs(d, 2.0)
    assert got.tobytes() == expect.tobytes()
