"""Tests for the 1-D seeder's mass-sampling tree: worked examples, a linear-scan oracle, and bounds."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prone._util import padded_pairwise_sum
from prone.seeding1d import SamplingTree


def build(masses):
    """A tree over ``masses``, built as the seeder builds it: write the leaves, then update."""
    a = np.asarray(masses, dtype=np.float64)
    tree = SamplingTree(a.size)
    tree._leaves[:] = a
    tree.update(0, a.size)
    return tree


def write(tree, vals, start, stop):
    """Write ``vals`` over leaves [start, stop), then re-sum their ancestors."""
    tree._leaves[start:stop] = vals
    tree.update(start, stop)


def oracle_find(masses, r):
    """Linear prefix-sum scan: smallest index with prefix(i) > r."""
    acc = 0.0
    for i, m in enumerate(masses):
        acc += m
        if r < acc:
            return i
    raise AssertionError("r out of range for oracle")


class TestConstruction:
    def test_root_sum(self):
        assert build([1, 2, 3]).total == 6

    def test_single_zero_leaf(self):
        assert build([0]).total == 0

    def test_padding_to_power_of_two(self):
        tree = build([1, 1, 1, 1, 1])
        assert tree._capacity == 8
        assert tree.total == 5
        # padded leaves carry no mass
        assert tree._nodes[8:].tolist() == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            build([1, -1])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            build([1, float("nan")])
        with pytest.raises(ValueError):
            build([float("inf")])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match=r"^n=0 must be at least 1$"):
            SamplingTree(0)

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, float("nan")], "finite"),
            ([float("inf")], "finite"),
            ([-1.0, float("-inf")], "finite"),
            ([-1.0, float("nan")], "finite"),
            ([1.0, -1e-300], "nonnegative"),
        ],
    )
    def test_rejection_messages(self, bad, message):
        with pytest.raises(ValueError, match=f"masses must be {message}"):
            build(bad)

    def test_accepts_negative_zero(self):
        assert build([-0.0, 2.0]).total == 2.0

    def test_peak_memory_is_the_node_array(self):
        # validation is two reductions and every level is added into the
        # node array, so nothing n-sized is allocated beside it
        masses = np.random.default_rng(2).random(200_000)
        tracemalloc.start()
        try:
            tree = build(masses)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16 * tree._capacity + 2**12


class TestFind:
    def test_first_leaf(self):
        assert build([1, 2, 3]).find(0.5) == 0

    def test_middle_leaf(self):
        assert build([1, 2, 3]).find(2.9) == 1

    def test_skips_zero_mass_leaves(self):
        tree = build([0, 4, 0, 1])
        assert tree.find(3.999) == 1
        assert tree.find(4.0) == 3

    def test_boundary_goes_right(self):
        # r equal to a prefix sum belongs to the next positive leaf
        tree = build([1, 2, 3])
        assert tree.find(0.0) == 0
        assert tree.find(1.0) == 1
        assert tree.find(3.0) == 2

    def test_out_of_range(self):
        tree = build([1, 2, 3])
        with pytest.raises(ValueError):
            tree.find(-0.1)
        with pytest.raises(ValueError):
            tree.find(6.0)

    def test_all_zero_mass(self):
        with pytest.raises(ValueError):
            build([0, 0]).find(0.0)


class TestUpdate:
    def test_zero_everything(self):
        tree = build([1, 2, 3])
        write(tree, [0, 0, 0], 0, 3)
        assert tree.total == 0

    def test_fsum_after_single_leaf_update(self):
        tree = build([1, 2, 3])
        write(tree, [5], 1, 2)
        assert tree.total == 9

    def test_find_after_update(self):
        # masses become [1, 7, 3]; prefix sums 1, 8, 11, so r=7.5 lands on leaf 1
        tree = build([1, 2, 3])
        write(tree, [7], 1, 2)
        assert tree.find(7.5) == oracle_find([1, 7, 3], 7.5) == 1

    def test_touched_node_bound(self):
        tree = build(np.ones(8))
        write(tree, [5, 5, 5], 2, 5)
        width = 3
        assert tree.last_update_leaf_nodes == width
        assert tree.last_update_internal_nodes <= width + 2 * int(math.log2(8)) + 1

    def test_rejects_bad_range(self):
        tree = build([1, 2, 3])
        for start, stop in ((-1, 0), (2, 4), (2, 1), (1, 1)):
            with pytest.raises(ValueError, match=rf"^range \[{start}, {stop}\) invalid for size 3$"):
                tree.update(start, stop)

    def test_rejects_negative_mass(self):
        tree = build([1, 2, 3])
        with pytest.raises(ValueError):
            write(tree, [-1], 0, 1)

    @pytest.mark.parametrize(
        "bad, message",
        [
            (float("nan"), "masses must be finite"),
            (float("inf"), "masses must be finite"),
            (float("-inf"), "masses must be finite"),
            (-1e-300, "masses must be nonnegative"),
            (-2.0, "masses must be nonnegative"),
        ],
    )
    @pytest.mark.parametrize("full", [False, True])
    def test_rejection_messages(self, bad, message, full):
        # ``full`` re-sums every leaf, as the build does, instead of the written range
        tree = build([1.0, 2.0, 3.0, 4.0, 5.0])
        nodes = tree._nodes.copy()
        tree._leaves[1:4] = [0.5, bad, 0.5]
        with pytest.raises(ValueError, match=f"^{message}$"):
            tree.update(*((0, 5) if full else (1, 4)))
        # no internal node was written
        np.testing.assert_array_equal(tree._nodes[: tree._capacity], nodes[: tree._capacity])

    def test_non_finite_reported_before_negative(self):
        tree = build([1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="^masses must be finite$"):
            write(tree, [-1.0, float("nan")], 0, 2)

    def test_accepts_negative_zero(self):
        tree = build([1.0, 2.0, 3.0])
        write(tree, [-0.0, 4.0], 0, 2)
        assert tree.total == 7.0
        assert tree.find(0.0) == 1
        tree.check_consistency()

    def test_invalid_leaf_write_raises_and_a_valid_rewrite_recovers(self):
        tree = build([1.0, 2.0, 3.0])
        tree._leaves[1] = -1.0
        with pytest.raises(ValueError, match="masses must be nonnegative"):
            tree.update(1, 2)
        tree._leaves[1] = 0.5
        tree.update(1, 2)
        tree.check_consistency()
        assert tree.total == 4.5
        assert tree.find(1.2) == 1

    def test_internal_node_count_across_scalar_levels(self):
        # widths 1..64 from every offset mod 16 cross the width at which the
        # update switches between numpy and scalar adds
        tree = build(np.ones(200))
        cap = tree._capacity
        rng = np.random.default_rng(4)
        for start in range(16, 32):
            for width in range(1, 65):
                stop = start + width
                write(tree, rng.random(width), start, stop)
                ancestors = sum(
                    ((cap + stop - 1) >> level) - ((cap + start) >> level) + 1
                    for level in range(1, cap.bit_length())
                )
                assert tree.last_update_leaf_nodes == width
                assert tree.last_update_internal_nodes == ancestors
                tree.check_consistency()


@settings(max_examples=200, deadline=None)
@given(
    masses=st.lists(st.integers(min_value=0, max_value=100), min_size=1, max_size=64),
    data=st.data(),
)
def test_oracle_equivalence_randomized(masses, data):
    """Random init/update/find sequences agree with a flat-array linear scan."""
    if sum(masses) == 0:
        masses[data.draw(st.integers(0, len(masses) - 1))] = 1
    tree = build(masses)
    flat = [float(m) for m in masses]
    n = len(masses)
    for _ in range(data.draw(st.integers(0, 8))):
        if data.draw(st.booleans()):
            start = data.draw(st.integers(0, n - 1))
            stop = data.draw(st.integers(start + 1, n))
            vals = data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=100),
                    min_size=stop - start,
                    max_size=stop - start,
                )
            )
            write(tree, vals, start, stop)
            flat[start:stop] = [float(v) for v in vals]
        total = sum(flat)
        assert tree.total == total  # integer masses: exact
        if total > 0:
            r = data.draw(st.floats(min_value=0, max_value=total, exclude_max=True, allow_nan=False))
            assert tree.find(r) == oracle_find(flat, r)
    tree.check_consistency()


@settings(max_examples=100, deadline=None)
@given(
    masses=st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=40),
)
def test_float_masses_fsum_close(masses):
    tree = build(masses)
    expected = sum(masses)
    assert tree.total == pytest.approx(expected, rel=1e-9, abs=1e-12)
    # the root seed_1d_naive's total must equal bit for bit
    assert tree.total == padded_pairwise_sum(masses)
    tree.check_consistency()


def test_find_monotone_in_r():
    rng = np.random.default_rng(7)
    masses = rng.random(37)
    masses[rng.integers(0, 37, size=10)] = 0.0
    tree = build(masses)
    rs = np.sort(rng.random(200) * tree.total)
    found = [tree.find(float(r)) for r in rs]
    assert all(a <= b for a, b in zip(found, found[1:]))


def test_internal_sums_exact_children():
    rng = np.random.default_rng(3)
    tree = build(rng.random(33))
    for _ in range(50):
        start = int(rng.integers(0, 33))
        stop = int(rng.integers(start + 1, 34))
        write(tree, rng.random(stop - start), start, stop)
    tree.check_consistency()
