"""The argument contract shared by every public entry point.

A bad argument raises a ``ValueError`` whose message starts with the
parameter's name. A valid one may come as a list or in any real numeric
dtype, and labels in any integer dtype, and the results are bit-identical
to those for the same values as float64 (labels as intp).
"""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prone import baseline
from prone.baseline import (
    ClusteringModel,
    centers_of_mass,
    cost_with_assignment,
    cost_with_nearest,
    kmeanspp_seed,
    lloyd_iterate,
    nearest_assignment,
    pointwise_assignment_costs,
)
from prone.coreset import (
    boosted_prone, lightweight_distribution, sample_coreset, sensitivity_distribution,
)
from prone.dataset import as_dataset, gen_gaussian_mixture
from prone.pipeline import ProneConfig, prone
from prone.projection import project, sample_direction
from prone.seeding1d import seed_1d_fast, seed_1d_naive

X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
CSR = sp.csr_matrix(X)
C = X[:2]
LABELS = np.array([0, 1, 1])
WIDE = np.zeros((1, 3))  # one center with d + 1 coordinates
STRINGS = np.array(["1", "2", "3"])
MODEL = ClusteringModel(C, LABELS, 0.0, 2.0)

# (parameter, call, message); each message starts with the parameter's name
_CASES = {
    "seed_1d_fast-complex": (
        "points", lambda: seed_1d_fast([1 + 1j, 2, 3], 2, rng=0), "points must be real, not complex"
    ),
    "seed_1d_naive-complex": (
        "points", lambda: seed_1d_naive([1 + 1j, 2, 3], 2, rng=0),
        "points must be real, not complex",
    ),
    "seed_1d_fast-strings": (
        "points", lambda: seed_1d_fast(np.array(["1", "2"]), 1, rng=0),
        "points must be numeric, not dtype <U1",
    ),
    "seed_1d_naive-strings": (
        "points", lambda: seed_1d_naive(np.array(["1", "2"]), 1, rng=0),
        "points must be numeric, not dtype <U1",
    ),
    "nearest_assignment-complex-centers": (
        "centers", lambda: nearest_assignment(X, C + 1j), "centers must be real, not complex"
    ),
    "project-complex-direction": (
        "direction", lambda: project(X, np.array([1.0, 1j])), "direction must be real, not complex"
    ),
    "project-nan-direction": (
        "direction", lambda: project(X, [np.nan, 1.0]), "direction must be finite"
    ),
    "sample_coreset-string-probabilities": (
        "probabilities", lambda: sample_coreset(X, STRINGS, 2, rng=0),
        "probabilities must be numeric, not dtype <U1",
    ),
    "kmeanspp_seed-string-weights": (
        "weights", lambda: kmeanspp_seed(X, 2, rng=0, weights=STRINGS),
        "weights must be numeric, not dtype <U1",
    ),
    "pointwise_assignment_costs-csr-wide-center": (
        "centers", lambda: pointwise_assignment_costs(CSR, WIDE, np.zeros(3, dtype=int)),
        "centers must have d=2 columns, not 3",
    ),
    "cost_with_assignment-csr-wide-center": (
        "centers", lambda: cost_with_assignment(CSR, WIDE, np.zeros(3, dtype=int)),
        "centers must have d=2 columns, not 3",
    ),
    "nearest_assignment-1d-centers": (
        "centers", lambda: nearest_assignment(X, C[0]), "centers must be a non-empty (k, d) array"
    ),
    "pointwise_assignment_costs-1d-centers": (
        "centers", lambda: pointwise_assignment_costs(X, C[0], LABELS),
        "centers must be a non-empty (k, d) array",
    ),
    "pointwise_assignment_costs-float-labels": (
        "assignment", lambda: pointwise_assignment_costs(X, C, LABELS.astype(float)),
        "assignment must hold integers in [0, 2)",
    ),
    "centers_of_mass-float-labels": (
        "assignment", lambda: centers_of_mass(X, LABELS.astype(float), 2),
        "assignment must hold integers in [0, 2)",
    ),
    "centers_of_mass-fractional-k": (
        "k", lambda: centers_of_mass(X, LABELS, 2.5), "k=2.5 must be an integer"
    ),
    "centers_of_mass-bool-k": (
        "k", lambda: centers_of_mass(X, LABELS, True), "k=True must be an integer"
    ),
    "lloyd_iterate-fractional-max_iters": (
        "max_iters", lambda: lloyd_iterate(X, MODEL, max_iters=2.5),
        "max_iters=2.5 must be an integer",
    ),
    "lloyd_iterate-bool-max_iters": (
        "max_iters", lambda: lloyd_iterate(X, MODEL, max_iters=True),
        "max_iters=True must be an integer",
    ),
    "lloyd_iterate-nan-tol": (
        "tol", lambda: lloyd_iterate(X, MODEL, tol=np.nan), "tol=nan must be finite and nonnegative"
    ),
    "lloyd_iterate-negative-tol": (
        "tol", lambda: lloyd_iterate(X, MODEL, tol=-1), "tol=-1 must be finite and nonnegative"
    ),
    "pointwise_assignment_costs-z-below-one": (
        "z", lambda: pointwise_assignment_costs(X, C, LABELS, z=0.5),
        "z=0.5 must be finite and >= 1",
    ),
    "pointwise_assignment_costs-nan-z": (
        "z", lambda: pointwise_assignment_costs(X, C, LABELS, z=np.nan),
        "z=nan must be finite and >= 1",
    ),
    "cost_with_nearest-nan-z": (
        "z", lambda: cost_with_nearest(X, C, z=np.nan), "z=nan must be finite and >= 1"
    ),
    "cost_with_assignment-negative-z": (
        "z", lambda: cost_with_assignment(X, C, LABELS, z=-1), "z=-1 must be finite and >= 1"
    ),
    # a scalar must be a real number, checked before it is compared
    "boosted_prone-none-k": (
        "k", lambda: boosted_prone(X, None, alpha=1.0, rng=0), "k=None must be an integer"
    ),
    "boosted_prone-none-alpha": (
        "alpha", lambda: boosted_prone(X, 2, alpha=None, rng=0), "alpha=None must be a number"
    ),
    "boosted_prone-bool-alpha": (
        "alpha", lambda: boosted_prone(X, 2, alpha=True, rng=0),
        "alpha=True must be a number, not a bool",
    ),
    "seed_1d_fast-string-z": (
        "z", lambda: seed_1d_fast([1.0, 2.0], 1, "2", rng=0), "z='2' must be a number"
    ),
    "lloyd_iterate-none-tol": (
        "tol", lambda: lloyd_iterate(X, MODEL, tol=None), "tol=None must be a number"
    ),
    "gen_gaussian_mixture-none-separation": (
        "separation", lambda: gen_gaussian_mixture(2, 3, 2, None, rng=0),
        "separation=None must be a number",
    ),
    # every rng that is not a Generator is a seed
    "seed_1d_fast-fractional-rng": (
        "seed", lambda: seed_1d_fast([1.0, 2.0], 1, rng=2.5), "seed=2.5 must be an integer"
    ),
    "kmeanspp_seed-string-rng": (
        "seed", lambda: kmeanspp_seed(X, 2, rng="7"), "seed='7' must be an integer"
    ),
    "sample_direction-negative-rng": (
        "seed", lambda: sample_direction(X, rng=-1), "seed=-1 must be nonnegative"
    ),
    "prone-bool-rng": (
        "seed", lambda: prone(X, ProneConfig(k=2), rng=True), "seed=True must be an integer"
    ),
    # weights are checked before the pass over X, which would fail on its own argument
    "cost_with_nearest-weights-first": (
        "weights", lambda: cost_with_nearest(X, WIDE, weights=np.ones(2)),
        "weights must have one entry per point",
    ),
    "cost_with_assignment-weights-first": (
        "weights", lambda: cost_with_assignment(X, C, LABELS.astype(float), weights=np.ones(2)),
        "weights must have one entry per point",
    ),
}


@pytest.mark.parametrize("param, call, message", _CASES.values(), ids=_CASES.keys())
def test_bad_argument_named(param, call, message):
    assert message.startswith(param)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: cost_with_nearest(X, C, weights=np.ones(2)),
        lambda: cost_with_assignment(X, C, LABELS, weights=np.ones(2)),
    ],
    ids=["cost_with_nearest", "cost_with_assignment"],
)
def test_weights_checked_before_the_pass(monkeypatch, call):
    def no_pass(*args, **kwargs):
        raise AssertionError("the pass over X ran before the weights were checked")

    monkeypatch.setattr(baseline, "nearest_assignment", no_pass)
    monkeypatch.setattr(baseline, "pointwise_assignment_costs", no_pass)
    with pytest.raises(ValueError, match="^weights must have one entry per point$"):
        call()


# --- valid arguments: any real dtype gives the float64 results -------------

_KINDS = [list, bool, np.int8, np.uint64, np.float32]
_LABEL_DTYPES = [
    np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64,
]


def _as_kind(values: np.ndarray, kind):
    return values.tolist() if kind is list else values.astype(kind)


def _results(points, centers, weights, direction, line, labels, k):
    """Everything the entry points return on these arguments, as plain values."""
    model = ClusteringModel(centers, labels, 0.0, 2.0)
    fast, stats = seed_1d_fast(line, k, rng=3)
    naive = seed_1d_naive(line, k, rng=3)
    seeded = kmeanspp_seed(points, k, rng=4, weights=weights)
    refined = lloyd_iterate(points, model, max_iters=3, weights=weights)
    coreset = sample_coreset(points, weights, 5, rng=5)
    run = prone(points, ProneConfig(k=k, seed=6))
    return [
        as_dataset(points).points,
        *nearest_assignment(points, centers),
        cost_with_nearest(points, centers, 1.5, weights=weights),
        cost_with_assignment(points, centers, labels, 3.0, weights=weights),
        pointwise_assignment_costs(points, centers, labels, 1.0),
        *centers_of_mass(points, labels, len(centers), weights=weights),
        seeded.centers, seeded.assignment, seeded.cost,
        refined.centers, refined.assignment, refined.cost,
        project(points, direction),
        fast.center_indices, fast.assignment, stats.total_updates,
        naive.center_indices, naive.assignment,
        coreset.points, coreset.weights, coreset.source_indices,
        run.model.centers, run.model.assignment, run.model.cost,
        sensitivity_distribution(points, model),
        lightweight_distribution(points),
    ]


def _assert_bit_identical(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        a, b = np.asarray(a), np.asarray(b)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@st.composite
def _problems(draw, top=100):
    """Points, centers, weights, direction, 1-D points, labels and k, all float64 or intp.

    The values are integers in [0, top], which int8, uint64 and float32 hold
    exactly; bool needs top = 1.
    """
    n, d = draw(st.integers(2, 12)), draw(st.integers(1, 3))
    k = draw(st.integers(1, n))
    values = st.integers(0, top).map(float)
    points = draw(arrays(np.float64, (n, d), elements=values))
    centers = draw(arrays(np.float64, (k, d), elements=values))
    weights = draw(arrays(np.float64, n, elements=st.integers(1, top).map(float)))
    direction = draw(arrays(np.float64, d, elements=values))
    labels = draw(arrays(np.intp, n, elements=st.integers(0, k - 1)))
    return points, centers, weights, direction, points[:, 0].copy(), labels, k


@settings(max_examples=60, deadline=None)
@given(data=st.data(), kind=st.sampled_from(_KINDS))
def test_real_dtypes_give_the_float64_results(data, kind):
    problem = data.draw(_problems(top=1 if kind is bool else 100))
    points, centers, weights, direction, line, labels, k = problem
    expect = _results(points, centers, weights, direction, line, labels, k)
    typed = [_as_kind(a, kind) for a in (points, centers, weights, direction, line)]
    _assert_bit_identical(_results(*typed, labels, k), expect)


@settings(max_examples=60, deadline=None)
@given(problem=_problems(), dtype=st.sampled_from(_LABEL_DTYPES))
def test_integer_labels_give_the_intp_results(problem, dtype):
    points, centers, weights, direction, line, labels, k = problem
    expect = _results(points, centers, weights, direction, line, labels, k)
    _assert_bit_identical(
        _results(points, centers, weights, direction, line, labels.astype(dtype), k), expect
    )
