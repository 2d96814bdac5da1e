"""d-dimensional (k,z) clustering primitives: costs, k-means++ and Lloyd.

Costs use Euclidean distances raised to the power z >= 1. Two evaluation
modes exist: against a fixed assignment, which is O(nnz + kd) and is the
primary reported cost, and against the nearest center, which is the
classical O(ndk) objective. Both kernels work through blocks of 2**16 / w
rows, where w is the number of values a row holds: d for dense rows and
ceil(nnz / n) for CSR, and at least k in ``nearest_assignment``, whose
block holds k distances per row. So a block's temporaries hold about 2**16
values each, whatever n, d and k are. ``nearest_assignment`` expands
distances about one origin per call (the mean of the centers), so labels
do not depend on where the data sit.

Both kernels run their blocks on the CPUs in the process's affinity
mask, two at most (see ``_MIN_WORKER_VALUES``): the blocks are cut into
contiguous spans, one per worker, and the 2**16-value budget
(``_util._BLOCK_VALUES``) is shared by the workers, so a pass holds as
much memory as on one CPU. Each block makes its own temporaries. Every
row's result is computed from that row alone, in the same order whatever
the block size, so results do not depend on how many workers there are.
The first span runs on the calling thread and the others on a thread
pool that lasts one pass: none of its threads is alive when a kernel
returns.

``kmeanspp_seed`` is the standard powered-distance seeding, optionally
weighted (a weighted point set behaves like the multiset with that many
copies; the first center is drawn proportionally to weight). It consumes
randomness exactly like the 1-D seeders: one uniform integer (unweighted
first center), then one uniform real per subsequent center scaled by the
current total mass, so on sorted (n, 1) input with a shared generator it
reproduces ``seed_1d_naive`` draw for draw. Its distances come from the
cost kernel on dense rows and from one sparse product per center on CSR.

Every entry point coerces its points through :func:`prone.dataset.as_dataset`
(a Dataset, an (n, d) array or a sparse matrix) and every other argument,
``weights`` before any pass over the data, through its rule in
:mod:`prone._util`, so a bad one raises a ``ValueError`` naming it. Each
rule runs once per public call: a public kernel is its checks plus one call
to a private core (``_nearest``, ``_assigned_costs``, ``_centers_of_mass``),
and library code holding checked arrays, like the Lloyd loop, calls the core.

``lloyd_iterate`` is plain Lloyd for z = 2 with weighted variants for
coresets. Empty clusters are repaired by relocating the center to the
point farthest from its nearest surviving center, which keeps the cost
monotone non-increasing.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from ._util import (
    _BLOCK_VALUES, _check_count, as_float64, as_generator, check_assignment, check_finite, check_k,
    check_masses, check_nonnegative, check_z, inverse_cdf, padded_pairwise_sum,
)
from .dataset import as_dataset

__all__ = [
    "ClusteringModel",
    "cost_with_nearest",
    "cost_with_assignment",
    "pointwise_assignment_costs",
    "nearest_assignment",
    "kmeanspp_seed",
    "centers_of_mass",
    "lloyd_iterate",
]


@dataclass(frozen=True)
class ClusteringModel:
    """Centers plus the assignment and cost they were evaluated with.

    ``cost`` is always recomputable from (centers, assignment, z) on the
    data the model was built from. ``assignment`` may be None for models
    whose full-data assignment is deliberately deferred.
    """

    centers: np.ndarray
    assignment: np.ndarray | None
    cost: float
    z: float

    @property
    def k(self) -> int:
        return len(self.centers)


def _power_from_sq(d2: np.ndarray, z: float, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distances clamped at 0, to the power z/2; ``out`` may be ``d2``."""
    p = np.maximum(d2, 0.0, out=out)
    if z == 1:
        np.sqrt(p, out=p)
    elif z != 2:
        # the in-place operator keeps ``**``'s scalar-exponent fast paths
        p **= z / 2.0
    return p


def _check_centers(centers, d: int) -> np.ndarray:
    c = as_float64(centers, "centers")
    if c.ndim != 2 or c.shape[0] == 0:
        raise ValueError("centers must be a non-empty (k, d) array")
    if c.shape[1] != d:
        raise ValueError(f"centers must have d={d} columns, not {c.shape[1]}")
    check_finite(c, "centers")
    return c


# Smallest block, in values, that pays for a worker of its own. The nearest
# pass at n = 2e5, d = 16, k = 100 (2-CPU Xeon, one BLAS thread) took 28.3 ms
# on one thread in 655-row blocks, 21.2 ms on two in 327-row blocks (2**15
# values each), and 30.2 ms on two in 163-row blocks, where the numpy calls
# that hold the GIL in every block outweigh the work they hand off. So the
# budget above goes to at most two workers.
_MIN_WORKER_VALUES = 2**15


def _block_rows(width: int) -> int:
    """Rows per kernel block when each row holds ``width`` values: 2**16 values in all.

    A pass on w workers gives each block 1/w of these rows, so the budget is
    shared; results are the same whatever w is.
    """
    return max(1, _BLOCK_VALUES // max(width, 1))


def _row_width(data) -> int:
    """Values stored per row: d for dense rows, ceil(nnz / n) for CSR."""
    return -(-data.nnz // data.n)


def _cpus() -> int:
    """CPUs this process may run on: its affinity mask where the OS has one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _plan(n: int, width: int) -> tuple[int, int]:
    """Workers and rows per block for a pass over ``n`` rows of ``width`` values.

    The workers share the budget's rows: there are at most as many as the
    CPUs and as ``_MIN_WORKER_VALUES`` fits into ``_BLOCK_VALUES``, and fewer
    when a worker would get no whole row or fewer than two blocks.
    """
    rows = _block_rows(width)
    workers = max(1, min(_cpus(), _BLOCK_VALUES // _MIN_WORKER_VALUES, rows))
    while workers > 1 and n < 2 * workers * (rows // workers):
        workers -= 1
    return workers, rows // workers


def _run_blocks(n: int, width: int, run_block) -> None:
    """Call ``run_block(lo, hi)`` on row blocks ``[lo, hi)`` covering ``range(n)``.

    The blocks are cut into one contiguous span per worker (see
    :func:`_plan`). The first span runs on the calling thread and the others
    on a thread pool that lasts this one pass: a one-worker pass starts
    nothing, the pool is joined before this returns, and a worker's exception
    is raised here. Each block makes its own temporaries.
    """
    workers, rows = _plan(n, width)
    blocks = -(-n // rows)
    starts = [rows * (blocks * j // workers) for j in range(workers + 1)]

    def span(j: int) -> None:
        for lo in range(starts[j], min(n, starts[j + 1]), rows):
            run_block(lo, min(n, lo + rows))

    if workers == 1:
        span(0)
        return
    with ThreadPoolExecutor(workers - 1) as pool:
        futures = [pool.submit(span, j) for j in range(1, workers)]
        span(0)
        for future in futures:
            future.result()


def nearest_assignment(points, centers) -> tuple[np.ndarray, np.ndarray]:
    """Nearest center per point: returns (assignment, squared distances).

    The argmin is taken over ``||c'||^2 - 2 (x - o).c'`` with ``c' = c - o``
    for one origin ``o`` per call (the mean of the centers), so the result
    does not depend on where the data sit or on the block size. Dense blocks are
    shifted by ``o``; sparse rows are not (that would densify them), so
    their cross term is ``x.c' - o.c'``. The winner's squared distance is
    the one :func:`pointwise_assignment_costs` gives for that assignment.
    """
    data = as_dataset(points)
    return _nearest(data, _check_centers(centers, data.d))


def _nearest(data, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`nearest_assignment` on a Dataset and checked centers."""
    mat, sparse = data.points, data.is_sparse
    n, k = data.n, c.shape[0]
    origin = c.mean(axis=0)
    shifted = c - origin
    # scaling by -2 is exact, so folding it into the centers rounds nothing
    cT = -2.0 * shifted.T
    bias = np.einsum("ij,ij->i", shifted, shifted)
    if sparse:
        # rows stay unshifted: (x - o).c' = x.c' - o.c'
        bias -= origin @ cT
    assignment = np.empty(n, dtype=np.intp)

    def run_block(lo, hi):
        block = mat[lo:hi]
        dist = np.asarray(block @ cT) if sparse else (block - origin) @ cT
        dist += bias
        np.argmin(dist, axis=1, out=assignment[lo:hi])

    _run_blocks(n, max(k, _row_width(data)), run_block)
    d2 = _assigned_costs(data, c, assignment, 2.0)
    # finite points can still overflow a distance, and then every label is 0
    check_finite(d2, "points' squared distances to centers")
    return assignment, d2


def _weighted_total(terms: np.ndarray, w: np.ndarray | None) -> float:
    """Sum of ``terms``, each times its checked weight when ``w`` is given."""
    return float(np.sum(terms if w is None else terms * w))


def cost_with_nearest(points, centers, z: float = 2.0, weights=None) -> float:
    """Sum of powered distances to each point's nearest center (O(ndk))."""
    check_z(z)
    data = as_dataset(points)
    w = None if weights is None else check_masses(weights, data.n, "weights")
    _, d2 = nearest_assignment(data, centers)
    return _weighted_total(_power_from_sq(d2, z), w)


def pointwise_assignment_costs(points, centers, assignment, z: float = 2.0) -> np.ndarray:
    """Powered distance of each point to its assigned center, O(nnz + kd).

    Works through blocks of about 2**16 stored values, pairing each row
    with its own center, so temporaries stay O(2**16) and no n x k distance
    matrix is ever formed; the clamp and the power are applied in place on
    the returned array.

    Sparse rows use the expanded form ||x||^2 - 2 x.c + ||c||^2, which
    loses all precision far from the origin: on
    ``gen_gaussian_mixture(5, 200, 3, 10.0, rng=1)`` shifted by 1e9, with
    its shifted means as centers, 824 of the 1000 costs come out clamped
    to 0 and others are off by up to 1024, while the median true squared
    distance is 2.3. Dense rows take differences and have no such limit.
    """
    check_z(z)
    data = as_dataset(points)
    c = _check_centers(centers, data.d)
    return _assigned_costs(data, c, check_assignment(assignment, data.n, c.shape[0]), z)


def _assigned_costs(data, c: np.ndarray, sigma: np.ndarray, z: float) -> np.ndarray:
    """:func:`pointwise_assignment_costs` on a Dataset, checked centers and intp labels."""
    mat, sparse, n = data.points, data.is_sparse, data.n
    d2 = np.empty(n, dtype=np.float64)
    if sparse:
        cn = np.einsum("ij,ij->i", c, c)

    def run_block(lo, hi):
        block, s = mat[lo:hi], sigma[lo:hi]
        if sparse:
            # per-row dot with its own center, summed in stored order
            rows = np.repeat(np.arange(hi - lo), np.diff(block.indptr))
            prods = block.data * c[s[rows], block.indices]
            cross = np.bincount(rows, weights=prods, minlength=hi - lo)
            xn = np.asarray(block.multiply(block).sum(axis=1)).ravel()
            d2[lo:hi] = np.maximum(xn - 2.0 * cross + cn[s], 0.0)
        else:
            # one temporary: the block's centers, then its differences
            diff = np.take(c, s, axis=0)
            np.subtract(block, diff, out=diff)
            np.einsum("ij,ij->i", diff, diff, out=d2[lo:hi])

    _run_blocks(n, _row_width(data), run_block)
    return _power_from_sq(d2, z, out=d2)


def cost_with_assignment(points, centers, assignment, z: float = 2.0, weights=None) -> float:
    """Cost of a fixed assignment: sum of powered distances to assigned centers."""
    data = as_dataset(points)
    w = None if weights is None else check_masses(weights, data.n, "weights")
    return _weighted_total(pointwise_assignment_costs(data, centers, assignment, z), w)


def _sq_dists_to(data, i: int, one: np.ndarray, xn: np.ndarray | None) -> np.ndarray:
    """Squared distances of all points to point ``i``; ``one`` assigns each to center 0."""
    if not data.is_sparse:
        return _assigned_costs(data, data.rows([i]), one, 2.0)
    # the kernel's gather of one center entry per stored value is far slower
    c = data.rows(i)
    return np.maximum(xn - 2.0 * np.asarray(data.points @ c).ravel() + c @ c, 0.0)


def kmeanspp_seed(points, k: int, z: float = 2.0, rng=None, weights=None) -> ClusteringModel:
    """Powered-distance (k-means++) seeding on points in R^d.

    Returns a model whose centers are data points, with the nearest-center
    assignment and cost implied by the final distance table. Stops early
    with fewer centers if the remaining mass is exhausted.
    """
    data = as_dataset(points)
    n = data.n
    check_k(k, n)
    check_z(z)
    w = None if weights is None else check_masses(weights, n, "weights")
    rng = as_generator(rng)
    one = np.zeros(n, dtype=np.intp)
    # squared row norms: the kernel's distances to the origin
    xn = _assigned_costs(data, np.zeros((1, data.d)), one, 2.0) if data.is_sparse else None

    if w is None:
        first = int(rng.integers(n))
    else:
        first = int(inverse_cdf(w, rng.random() * padded_pairwise_sum(w)))

    d2 = _sq_dists_to(data, first, one, xn)
    assignment = np.zeros(n, dtype=np.intp)
    chosen = [first]

    for t in range(1, k):
        masses = _power_from_sq(d2, z)
        if w is not None:
            masses = w * masses
        total = padded_pairwise_sum(masses)
        if not total > 0.0:
            break
        idx = int(inverse_cdf(masses, rng.random() * total))
        nd2 = _sq_dists_to(data, idx, one, xn)
        closer = nd2 < d2
        d2[closer] = nd2[closer]
        assignment[closer] = t
        chosen.append(idx)

    return ClusteringModel(
        centers=data.rows(chosen),
        assignment=assignment,
        cost=_weighted_total(_power_from_sq(d2, z), w),
        z=z,
    )


def centers_of_mass(
    points, assignment, k: int, weights=None
) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster (weighted) means; empty clusters are flagged and repaired.

    Returns (centers, relocated) where ``relocated`` lists the cluster ids
    that had no members (or zero total weight) and were therefore placed on
    the point farthest from its nearest nonempty mean, farthest first.
    The sums are one product of a (k, n) one-hot matrix with the data, so
    the lift is O(nnz + kd) for dense and sparse input alike.
    """
    data = as_dataset(points)
    _check_count(k, "k")
    sigma = check_assignment(assignment, data.n, k)
    w = None if weights is None else check_masses(weights, data.n, "weights")
    return _centers_of_mass(data, sigma, k, w)


def _centers_of_mass(data, sigma: np.ndarray, k: int, w: np.ndarray | None):
    """:func:`centers_of_mass` on a Dataset, intp labels and checked weights or None."""
    mat, sparse, n = data.points, data.is_sparse, data.n
    # unweighted, the counts are these sums without adding n ones
    wsum = np.bincount(sigma, weights=w, minlength=k)
    # one-hot with one stored entry per point, so each sum adds its
    # cluster's points in input order, dense or sparse; its index arrays
    # come in the dtype scipy picks for this shape, so it copies neither
    idx = np.int32 if max(n, k) <= np.iinfo(np.int32).max else np.int64
    values = np.ones(n) if w is None else w
    onehot = sp.csc_matrix(
        (values, sigma.astype(idx, copy=False), np.arange(n + 1, dtype=idx)), shape=(k, n)
    )
    if sparse:
        # against a CSC one-hot scipy would copy X to CSC, O(nnz); the
        # one-hot's conversion is O(n) and keeps each cluster's points in
        # input order (a dense product is faster from CSC). C order, as the
        # dense product gives: ``einsum``'s row sums depend on the layout
        centers = (onehot.tocsr() @ mat).toarray(order="C")
    else:
        centers = onehot @ mat
    nonempty = wsum > 0
    # the sums become the means in place; an empty cluster's sums are 0
    np.divide(centers, wsum[:, None], out=centers, where=nonempty[:, None])
    # sums of finite points can overflow; raised before the relocation's pass
    check_finite(centers, "points' cluster means")
    relocated = np.flatnonzero(~nonempty)
    if relocated.size:
        if not nonempty.any():
            raise ValueError("every cluster is empty")
        _, d2 = _nearest(data, centers[nonempty])
        far_order = np.argsort(d2)[::-1]
        centers[relocated] = data.rows(far_order[np.arange(relocated.size) % far_order.size])
    return centers, relocated


def lloyd_iterate(
    points,
    model: ClusteringModel,
    max_iters: int = 300,
    tol: float = 1e-4,
    weights=None,
    cost_trace: list | None = None,
) -> ClusteringModel:
    """Lloyd's algorithm (z = 2 only) from an initial model.

    Alternates nearest assignment and center-of-mass steps until the
    relative cost improvement drops below ``tol`` or ``max_iters`` passes.
    The cost sequence is non-increasing; pass a list as ``cost_trace`` to
    collect it.
    """
    if model.z != 2:
        raise ValueError("lloyd_iterate supports z=2 only")
    _check_count(max_iters, "max_iters")
    check_nonnegative(tol, "tol")
    points = as_dataset(points)  # once, not on every pass
    w = None if weights is None else check_masses(weights, points.n, "weights")
    centers = _check_centers(model.centers, points.d)
    k = centers.shape[0]
    assignment, d2 = _nearest(points, centers)
    cost = _weighted_total(d2, w)
    if cost_trace is not None:
        cost_trace.append(cost)
    for _ in range(max_iters):
        centers, _ = _centers_of_mass(points, assignment, k, w)
        assignment, d2 = _nearest(points, centers)
        new_cost = _weighted_total(d2, w)
        if cost_trace is not None:
            cost_trace.append(new_cost)
        if cost > 0 and (cost - new_cost) / cost < tol:
            cost = new_cost
            break
        cost = new_cost
        if cost == 0.0:
            break
    return replace(model, centers=centers, assignment=assignment, cost=cost)
