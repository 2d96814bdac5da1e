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


def check_consistency(tree):
    """Assert every internal node equals the sum of its two children."""
    nodes = tree._nodes
    for idx in range(1, tree._capacity):
        assert nodes[idx] == nodes[2 * idx] + nodes[2 * idx + 1], f"node {idx}"


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

    def test_accepts_negative_zero(self):
        assert build([-0.0, 2.0]).total == 2.0

    def test_peak_memory_is_the_node_array(self):
        # every level is added into the node array, so nothing n-sized is
        # allocated beside it
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

    def test_accepts_negative_zero(self):
        tree = build([1.0, 2.0, 3.0])
        write(tree, [-0.0, 4.0], 0, 2)
        assert tree.total == 7.0
        assert tree.find(0.0) == 1
        check_consistency(tree)

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
                check_consistency(tree)


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
    check_consistency(tree)


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
    check_consistency(tree)


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
    check_consistency(tree)
