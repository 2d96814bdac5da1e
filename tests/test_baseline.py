"""Tests for d-dimensional costs, k-means++ seeding, center updates, and Lloyd refinement."""

import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from prone import baseline
from prone._util import inverse_cdf, padded_pairwise_sum
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
from prone.dataset import as_dataset
from prone.seeding1d import seed_1d_naive


def with_workers(*values):
    """Each value at 1 worker under its own id, then each at 4 workers."""
    return [pytest.param(v, w, id=str(v) if w == 1 else f"{v}-4workers")
            for w in (1, 4) for v in values]


def brute_force_nearest_cost(pts, centers, z):
    total = 0.0
    for x in pts:
        best = min(float(np.linalg.norm(x - c)) for c in centers)
        total += best**z
    return total


def per_column_centers_of_mass(mat, sigma, k, weights=None):
    """Reference lift: one bincount per column (dense) or a COO-built one-hot (sparse)."""
    n, d = mat.shape
    if weights is None:
        wsum = np.bincount(sigma, minlength=k).astype(np.float64)
        w = np.ones(n)
    else:
        w = np.asarray(weights, dtype=np.float64)
        wsum = np.bincount(sigma, weights=w, minlength=k)
    if sp.issparse(mat):
        onehot = sp.csr_matrix((w, (sigma, np.arange(n))), shape=(k, n))
        sums = np.asarray((onehot @ mat).todense())
    else:
        sums = np.empty((k, d), dtype=np.float64)
        for j in range(d):
            col = mat[:, j] if weights is None else w * mat[:, j]
            sums[:, j] = np.bincount(sigma, weights=col, minlength=k)
    nonempty = wsum > 0
    centers = np.zeros((k, d), dtype=np.float64)
    centers[nonempty] = sums[nonempty] / wsum[nonempty, None]
    relocated = np.flatnonzero(~nonempty)
    if relocated.size:
        _, d2 = nearest_assignment(mat, centers[nonempty])
        far_order = np.argsort(d2)[::-1]
        for slot, cluster in enumerate(relocated):
            row = far_order[slot % far_order.size]
            centers[cluster] = mat[row].toarray().ravel() if sp.issparse(mat) else mat[row]
    return centers, relocated


def per_cluster_assignment_costs(mat, centers, sigma, z):
    """Reference cost: gather each cluster's rows and combine them with its center."""
    order = np.argsort(sigma, kind="stable")
    boundaries = np.searchsorted(sigma[order], np.arange(centers.shape[0] + 1))
    d2 = np.empty(mat.shape[0], dtype=np.float64)
    if sp.issparse(mat):
        xn = np.asarray(mat.multiply(mat).sum(axis=1)).ravel()
        cn = np.einsum("ij,ij->i", centers, centers)
    for j in range(centers.shape[0]):
        rows = order[boundaries[j] : boundaries[j + 1]]
        if rows.size == 0:
            continue
        if sp.issparse(mat):
            cross = np.asarray(mat[rows] @ centers[j]).ravel()
            d2[rows] = np.maximum(xn[rows] - 2.0 * cross + cn[j], 0.0)
        else:
            diff = mat[rows] - centers[j]
            d2[rows] = np.einsum("ij,ij->i", diff, diff)
    d2 = np.maximum(d2, 0.0)
    return d2 if z == 2 else np.sqrt(d2) if z == 1 else d2 ** (z / 2.0)


def expanded_form_nearest_assignment(mat, centers, chunk=None):
    """Reference: argmin of ||x||^2 - 2 x.c + ||c||^2 over chunks of up to 65 536 rows."""
    n, k = mat.shape[0], centers.shape[0]
    if chunk is None:
        chunk = max(256, min(65536, 16_777_216 // k))
    cn = np.einsum("ij,ij->i", centers, centers)
    assignment = np.empty(n, dtype=np.intp)
    d2 = np.empty(n, dtype=np.float64)
    for lo in range(0, n, chunk):
        hi = min(n, lo + chunk)
        block = mat[lo:hi]
        if sp.issparse(mat):
            xn = np.asarray(block.multiply(block).sum(axis=1)).ravel()
            cross = np.asarray(block @ centers.T)
        else:
            xn = np.einsum("ij,ij->i", block, block)
            cross = block @ centers.T
        dist = xn[:, None] - 2.0 * cross + cn[None, :]
        idx = np.argmin(dist, axis=1)
        assignment[lo:hi] = idx
        if sp.issparse(mat):
            d2[lo:hi] = np.maximum(dist[np.arange(hi - lo), idx], 0.0)
        else:
            diff = block - centers[idx]
            d2[lo:hi] = np.einsum("ij,ij->i", diff, diff)
    return assignment, d2


def full_pass_kmeanspp_seed(mat, k, z, rng, w=None):
    """Reference k-means++: every center's distances from one pass over all of X at once.

    Dense rows subtract the center from the whole matrix; CSR rows take
    their norms from X squared elementwise, then one product per center.
    """
    n = mat.shape[0]
    sparse = sp.issparse(mat)
    if sparse:
        xn = np.asarray(mat.multiply(mat).sum(axis=1)).ravel()

    def sq_dists_to(i):
        if sparse:
            c = mat[i].toarray().ravel()
            return np.maximum(xn - 2.0 * np.asarray(mat @ c).ravel() + c @ c, 0.0)
        diff = mat - mat[i]
        return np.einsum("ij,ij->i", diff, diff)

    def power(d2):
        p = np.maximum(d2, 0.0)
        return p if z == 2 else np.sqrt(p) if z == 1 else p ** (z / 2.0)

    if w is None:
        first = int(rng.integers(n))
    else:
        first = int(inverse_cdf(w, rng.random() * padded_pairwise_sum(w)))
    d2 = sq_dists_to(first)
    assignment = np.zeros(n, dtype=np.intp)
    chosen = [first]
    for t in range(1, k):
        masses = power(d2) if w is None else w * power(d2)
        total = padded_pairwise_sum(masses)
        if not total > 0.0:
            break
        idx = int(inverse_cdf(masses, rng.random() * total))
        nd2 = sq_dists_to(idx)
        closer = nd2 < d2
        d2[closer] = nd2[closer]
        assignment[closer] = t
        chosen.append(idx)
    terms = power(d2) if w is None else power(d2) * w
    return chosen, assignment, float(terms.sum())


def _lift_instance(seed, n, sparse):
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((n, 6)) * 10.0 ** rng.integers(-3, 4, size=6)
    if sparse:
        mat[rng.random(mat.shape) < 0.6] = 0.0
        mat = sp.csr_matrix(mat)
    k = 9
    sigma = rng.integers(0, k - 2, size=n)  # clusters 7 and 8 stay empty
    return mat, sigma, k, rng


@pytest.fixture
def blocks_of_4096(monkeypatch):
    """Blocks of 4096 rows in both kernels, so that the larger n below span several."""
    monkeypatch.setattr(baseline, "_block_rows", lambda width: 4096)


class TestBitIdenticalToReferences:
    # n is not a multiple of the block size, and spans several blocks
    @pytest.mark.usefixtures("blocks_of_4096")
    @pytest.mark.parametrize("n", [1, 37, 2 * 4096 + 37])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_centers_of_mass(self, n, sparse, weighted):
        mat, sigma, k, rng = _lift_instance(n, n, sparse)
        w = rng.random(n) * 4.0 if weighted else None
        got, relocated = centers_of_mass(mat, sigma, k, weights=w)
        want, want_relocated = per_column_centers_of_mass(mat, sigma, k, w)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(relocated, want_relocated)
        assert relocated.size >= 2

    def test_centers_of_mass_zero_weight_cluster(self):
        mat, sigma, k, rng = _lift_instance(5, 500, False)
        w = rng.random(500)
        w[sigma == 3] = 0.0
        got, relocated = centers_of_mass(mat, sigma, k, weights=w)
        want, _ = per_column_centers_of_mass(mat, sigma, k, w)
        np.testing.assert_array_equal(got, want)
        assert 3 in relocated.tolist()

    @pytest.mark.usefixtures("blocks_of_4096")
    @pytest.mark.parametrize(
        "n", [1, 37, 2 * 4096 + 37, 4096 - 1, 4096, 4096 + 1]
    )
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
    def test_pointwise_assignment_costs(self, n, sparse, z):
        mat, sigma, k, rng = _lift_instance(n + 1, n, sparse)
        centers = rng.standard_normal((k, 6)) * 100.0
        got = pointwise_assignment_costs(mat, centers, sigma, z)
        np.testing.assert_array_equal(got, per_cluster_assignment_costs(mat, centers, sigma, z))

    @pytest.mark.usefixtures("blocks_of_4096")
    @pytest.mark.parametrize("n", [1, 37, 2 * 4096 + 37])
    @pytest.mark.parametrize("sparse", [False, True])
    @pytest.mark.parametrize("z", [1.0, 2.0, 3.0])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_kmeanspp_seed(self, n, sparse, z, weighted):
        mat, _, _, rng = _lift_instance(n + 3, n, sparse)
        w = rng.random(n) * 4.0 if weighted else None
        k = min(n, 12)
        got = kmeanspp_seed(mat, k, z, np.random.default_rng(n), weights=w)
        chosen, assignment, cost = full_pass_kmeanspp_seed(mat, k, z, np.random.default_rng(n), w)
        want_centers = mat[chosen].toarray() if sparse else mat[chosen]
        np.testing.assert_array_equal(got.centers, want_centers)
        np.testing.assert_array_equal(got.assignment, assignment)
        assert got.cost == cost

    # k = 512 puts the default block at 2**16 // 512 = 128 rows; n straddles
    # its multiples
    @pytest.mark.parametrize("n", [1, 255, 256, 257, 2 * 256 + 1])
    @pytest.mark.parametrize("k", [7, 512])
    @pytest.mark.parametrize("chunk", [13, 256, None])
    @pytest.mark.parametrize("sparse", [False, True])
    def test_nearest_assignment(self, n, k, chunk, sparse, monkeypatch):
        # chunk None keeps the default block; otherwise both sides use chunk rows
        if chunk is not None:
            monkeypatch.setattr(baseline, "_block_rows", lambda width: chunk)
        mat, _, _, rng = _lift_instance(n + 2, n, sparse)
        centers = rng.standard_normal((k, 6)) * 10.0 ** rng.integers(-3, 4, size=6)
        got = nearest_assignment(mat, centers)
        want = expanded_form_nearest_assignment(mat, centers, chunk)
        np.testing.assert_array_equal(got[0], want[0])
        np.testing.assert_array_equal(got[1], want[1])


class TestWorkers:
    N = 1009  # prime, so no block or span length below divides it

    @pytest.fixture(params=[False, True], ids=["dense", "csr"])
    def instance(self, request):
        rng = np.random.default_rng(8)
        mat = rng.standard_normal((self.N, 5))
        if request.param:
            mat[rng.random(mat.shape) < 0.5] = 0.0
            mat = sp.csr_matrix(mat)
        distinct = rng.standard_normal((5, 5))
        # centers 3 and 6 repeat centers 1 and 0, so their points tie
        return mat, distinct[[0, 1, 2, 1, 3, 4, 0]]

    def test_results_do_not_depend_on_worker_count(self, instance, force_workers, monkeypatch):
        mat, centers = instance
        # blocks of 24 rows on one worker, and of 12, 8 and 6 on two, three and four
        monkeypatch.setattr(baseline, "_block_rows", lambda width: 24)
        runs = {}
        interval = sys.getswitchinterval()
        # threads switch often, so a lost or misplaced block write would show
        sys.setswitchinterval(1e-6)
        try:
            for w in (1, 2, 3, 4):
                force_workers(w)
                assert baseline._plan(self.N, 5) == (w, 24 // w)
                labels, d2 = nearest_assignment(mat, centers)
                seeded = kmeanspp_seed(mat, 12, 2.0, rng=5)
                runs[w] = [
                    labels,
                    d2,
                    pointwise_assignment_costs(mat, centers, labels[::-1], 3.0),
                    cost_with_nearest(mat, centers, 1.0),
                    seeded.centers,
                    seeded.assignment,
                    seeded.cost,
                ]
        finally:
            sys.setswitchinterval(interval)
        for w in (2, 3, 4):
            for got, want in zip(runs[w], runs[1]):
                np.testing.assert_array_equal(got, want)
        # points of centers 0 and 1 tie, and every tie went to the first center
        labels = runs[1][0]
        assert np.isin(labels, [0, 1]).any()
        assert not np.isin(labels, [3, 6]).any()

    def test_threads_are_joined_before_return(self, force_workers):
        force_workers(2)
        seen = set()
        before = threading.active_count()
        baseline._run_blocks(2**18, 1, lambda lo, hi, buf: seen.add(threading.get_ident()))
        assert len(seen) == 2
        assert threading.active_count() == before
        X = np.random.default_rng(0).standard_normal((50_000, 4))
        assert baseline._plan(len(X), 4)[0] == 2
        nearest_assignment(X, X[:3])
        assert threading.active_count() == before

    def test_a_worker_exception_reaches_the_caller(self, force_workers):
        # 8 blocks of 2**15 rows; the second span starts at block 4
        force_workers(2)
        n, done = 2**18, []

        def run_block(lo, hi, buf):
            if lo >= n // 2:
                where = "caller" if threading.current_thread() is threading.main_thread() else "worker"
                raise RuntimeError(f"block {lo} on the {where}")
            done.append(lo)

        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"^block {n // 2} on the worker$"):
            baseline._run_blocks(n, 1, run_block)
        assert done == [0, 2**15, 2 * 2**15, 3 * 2**15]
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_a_child_forked_after_a_threaded_pass_runs_its_own(self):
        # Python 3.12 warns when it forks a process with live threads, an
        # error under -W error. BLAS is held to one thread, so the runner's
        # are the only threads that could be alive at the fork. The child
        # kills itself with SIGALRM if its pass hangs
        script = textwrap.dedent("""
            import os
            import signal

            import numpy as np

            from prone import baseline

            baseline._cpus = lambda: 2
            X = np.random.default_rng(0).standard_normal((50_000, 4))
            assert baseline._plan(len(X), 4)[0] == 2
            labels, _ = baseline.nearest_assignment(X, X[:3])
            pid = os.fork()
            if pid == 0:
                signal.alarm(60)
                again, _ = baseline.nearest_assignment(X, X[:3])
                os._exit(0 if np.array_equal(again, labels) else 3)
            _, status = os.waitpid(pid, 0)
            raise SystemExit(os.waitstatus_to_exitcode(status))
        """)
        src = str(Path(baseline.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        proc = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr


class TestNearestAssignment:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), sparse=st.booleans(), shift=st.sampled_from([1e9, -1e9]))
    def test_labels_equal_brute_force_under_shift(self, data, sparse, shift):
        # points lie within 2 sqrt(5) < 5 of a lattice center 10 apart from
        # every other, so the generating center is the only nearest one
        d = data.draw(st.integers(1, 5), label="d")
        lattice = st.tuples(*[st.integers(-4, 4)] * d)
        grid = data.draw(st.lists(lattice, min_size=1, max_size=8, unique=True), label="grid")
        centers = 10.0 * np.array(grid, dtype=np.float64)
        n = data.draw(st.integers(1, 40), label="n")
        truth = np.array(data.draw(st.lists(st.integers(0, len(grid) - 1), min_size=n, max_size=n)))
        offsets = data.draw(arrays(np.float64, (n, d), elements=st.floats(-2.0, 2.0)))
        pts = centers[truth] + offsets + shift
        shifted_centers = centers + shift
        brute = ((pts[:, None, :] - shifted_centers[None]) ** 2).sum(axis=2).argmin(axis=1)
        np.testing.assert_array_equal(brute, truth)
        labels, d2 = nearest_assignment(sp.csr_matrix(pts) if sparse else pts, shifted_centers)
        np.testing.assert_array_equal(labels, truth)
        if not sparse:
            diff = pts - shifted_centers[truth]
            np.testing.assert_array_equal(d2, np.einsum("ij,ij->i", diff, diff))

    @pytest.mark.parametrize("workers", [1, 4])
    def test_temporaries_stay_small(self, workers, force_workers):
        # one n x k distance table would be 50 000 * 100 * 8 B = 40 MB
        force_workers(workers)
        rng = np.random.default_rng(4)
        pts = as_dataset(rng.standard_normal((50_000, 16)))
        centers = rng.standard_normal((100, 16))
        tracemalloc.start()
        try:
            nearest_assignment(pts, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000


class TestCosts:
    def test_single_center_z1(self):
        pts = [[0.0, 0.0], [3.0, 4.0]]
        assert cost_with_nearest(as_dataset(pts), np.array([[0.0, 0.0]]), z=1) == 5.0

    def test_points_equal_centers(self):
        pts = as_dataset([[0.0], [2.0]])
        assert cost_with_nearest(pts, np.array([[0.0], [2.0]]), z=2) == 0.0

    def test_swapped_assignment(self):
        pts = as_dataset([[0.0], [2.0]])
        centers = np.array([[0.0], [2.0]])
        cost = cost_with_assignment(pts, centers, np.array([1, 0]), z=2)
        assert cost == 8.0

    @pytest.mark.parametrize("z, workers", with_workers(1.0, 2.0, 3.0))
    def test_dense_cost_kernel_peak_memory(self, z, workers, force_workers):
        # the output plus one block buffer of 2**16 values: the gather writes
        # straight into the buffer, and the clamp and the power reuse the output
        force_workers(workers)
        n, d = 200_000, 16
        rng = np.random.default_rng(6)
        pts = as_dataset(rng.standard_normal((n, d)))
        centers = rng.standard_normal((20, d))
        sigma = rng.integers(20, size=n)
        tracemalloc.start()
        try:
            out = pointwise_assignment_costs(pts, centers, sigma, z)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 8 * 2**16 + 2**16

    def test_nearest_assignment_cost_agrees(self):
        pts = as_dataset([[0.0], [2.0]])
        centers = np.array([[0.0], [2.0]])
        labels, _ = nearest_assignment(pts, centers)
        assert cost_with_assignment(pts, centers, labels, z=2) == cost_with_nearest(
            pts, centers, z=2
        )

    def test_empty_center_set_rejected(self):
        with pytest.raises(ValueError):
            cost_with_nearest(as_dataset([[1.0]]), np.empty((0, 1)), z=2)

    def test_assignment_out_of_range(self):
        with pytest.raises(ValueError):
            cost_with_assignment(
                as_dataset([[1.0]]), np.array([[0.0]]), np.array([3]), z=2
            )

    def test_random_instances_match_brute_force(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n, d, k = rng.integers(1, 20), rng.integers(1, 5), rng.integers(1, 6)
            z = float(rng.choice([1.0, 2.0, 3.0]))
            pts = rng.standard_normal((n, d))
            centers = rng.standard_normal((k, d))
            got = cost_with_nearest(as_dataset(pts), centers, z)
            assert got == pytest.approx(brute_force_nearest_cost(pts, centers, z), rel=1e-9)

    def test_nearest_never_exceeds_any_assignment(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            pts = rng.standard_normal((12, 3))
            centers = rng.standard_normal((4, 3))
            sigma = rng.integers(0, 4, size=12)
            data = as_dataset(pts)
            assert cost_with_nearest(data, centers, 2) <= cost_with_assignment(
                data, centers, sigma, 2
            ) + 1e-12

    def test_weighted_cost(self):
        pts = as_dataset([[0.0], [2.0]])
        centers = np.array([[0.0]])
        w = np.array([1.0, 3.0])
        assert cost_with_nearest(pts, centers, z=2, weights=w) == 12.0

    def test_pointwise_costs(self):
        pts = as_dataset([[0.0], [3.0]])
        centers = np.array([[0.0], [1.0]])
        per = pointwise_assignment_costs(pts, centers, np.array([0, 1]), z=2)
        assert per.tolist() == [0.0, 4.0]

    @pytest.mark.parametrize("k, workers", with_workers(2, 40))
    def test_peak_memory_at_high_d_holds_no_copy_of_x(self, k, workers, force_workers):
        # X takes 32 MB; blocks hold about 2**16 values whatever d and k are,
        # so the peak is the labels, the distances and a few blocks. Blocks
        # sized by k alone would shift all of X by the origin at once at k = 2
        force_workers(workers)
        n, d = 8_000, 500
        rng = np.random.default_rng(12)
        pts = as_dataset(rng.standard_normal((n, d)))
        centers = rng.standard_normal((k, d))
        tracemalloc.start()
        try:
            nearest_assignment(pts, centers)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * 8 * n + 3 * 8 * 2**16 + 2**16

    def test_chunked_assignment_matches_unchunked(self, monkeypatch):
        rng = np.random.default_rng(77)
        pts = as_dataset(rng.standard_normal((101, 4)))
        centers = rng.standard_normal((7, 4))
        labels_b, d2_b = nearest_assignment(pts, centers)
        monkeypatch.setattr(baseline, "_block_rows", lambda width: 13)
        labels_a, d2_a = nearest_assignment(pts, centers)
        np.testing.assert_array_equal(labels_a, labels_b)
        np.testing.assert_array_equal(d2_a, d2_b)


class TestKmeansppSeed:
    @pytest.mark.parametrize("sparse, workers", with_workers(False, True))
    def test_peak_memory_holds_no_copy_of_x(self, sparse, workers, force_workers):
        # a few n-length arrays (distances, labels, masses and their prefix
        # sums) plus one block of 2**16 values of the cost kernel; no n x d
        # difference array (dense) and no elementwise square of X (CSR)
        force_workers(workers)
        n, d = 100_000, 32
        rng = np.random.default_rng(3)
        if sparse:
            mat = sp.random(n, d, density=0.3, format="csr", random_state=3)
        else:
            mat = rng.standard_normal((n, d))
        data = as_dataset(mat)
        tracemalloc.start()
        try:
            kmeanspp_seed(data, 5, 2.0, rng=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 10 * 8 * n + 8 * 2**16 + 2**16

    @pytest.mark.parametrize("z", [1.0, 2.0])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_dense_and_csr_identical(self, z, weighted):
        # half-zero integer coordinates in [-3, 3]: both distance forms are exact
        rng = np.random.default_rng(21)
        pts = rng.integers(-3, 4, size=(300, 6)).astype(np.float64)
        pts[rng.random(pts.shape) < 0.5] = 0.0
        w = rng.random(300) if weighted else None
        dense = kmeanspp_seed(pts, 12, z, np.random.default_rng(5), weights=w)
        csr = kmeanspp_seed(sp.csr_matrix(pts), 12, z, np.random.default_rng(5), weights=w)
        np.testing.assert_array_equal(csr.centers, dense.centers)
        np.testing.assert_array_equal(csr.assignment, dense.assignment)
        assert csr.cost == dense.cost

    def test_k_equals_n_zero_cost(self):
        rng = np.random.default_rng(2)
        pts = rng.standard_normal((9, 3))
        model = kmeanspp_seed(as_dataset(pts), k=9, z=2, rng=rng)
        assert model.cost == 0.0
        assert model.k == 9

    def test_k1_uniform_first_center(self):
        pts = as_dataset(np.arange(5.0)[:, None])
        rng = np.random.default_rng(99)
        counts = np.zeros(5)
        runs = 20_000
        for _ in range(runs):
            model = kmeanspp_seed(pts, k=1, z=2, rng=rng)
            counts[int(model.centers[0, 0])] += 1
        p = 1 / 5
        se = np.sqrt(p * (1 - p) / runs)
        assert np.abs(counts / runs - p).max() < 3 * se

    def test_centers_are_input_points(self):
        rng = np.random.default_rng(10)
        pts = rng.standard_normal((30, 2))
        model = kmeanspp_seed(as_dataset(pts), k=6, z=2, rng=rng)
        rows = {tuple(r) for r in pts}
        assert all(tuple(c) in rows for c in model.centers)

    def test_matches_1d_seeder_on_sorted_input(self):
        # same RNG contract: identical index stream on pre-sorted 1-D data at z=2
        base = np.random.default_rng(303)
        for trial in range(50):
            n = int(base.integers(2, 200))
            k = int(base.integers(1, min(n, 16) + 1))
            xs = np.sort(base.random(n))
            seed = int(base.integers(2**32))
            model = kmeanspp_seed(as_dataset(xs[:, None]), k, z=2, rng=np.random.default_rng(seed))
            ref = seed_1d_naive(xs, k, z=2, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(
                model.centers[:, 0], ref.center_values, err_msg=f"trial {trial}"
            )
            np.testing.assert_array_equal(model.assignment, ref.assignment)
        # integer grids: exact ties, which both give to the earliest-chosen center
        grid = np.random.default_rng(304)
        for trial in range(50):
            n = int(grid.integers(2, 200))
            k = int(grid.integers(1, min(n, 16) + 1))
            xs = np.sort(grid.integers(-10, 11, n).astype(np.float64))
            seed = int(grid.integers(2**32))
            model = kmeanspp_seed(as_dataset(xs[:, None]), k, z=2, rng=np.random.default_rng(seed))
            ref = seed_1d_naive(xs, k, z=2, rng=np.random.default_rng(seed))
            np.testing.assert_array_equal(
                model.centers[:, 0], ref.center_values, err_msg=f"grid trial {trial}"
            )
            np.testing.assert_array_equal(model.assignment, ref.assignment)

    def test_weighted_first_center_law(self):
        pts = as_dataset([[0.0], [1.0]])
        w = np.array([1.0, 3.0])
        rng = np.random.default_rng(5)
        hits = 0
        runs = 20_000
        for _ in range(runs):
            model = kmeanspp_seed(pts, k=1, z=2, rng=rng, weights=w)
            hits += model.centers[0, 0] == 1.0
        p = 0.75
        se = np.sqrt(p * (1 - p) / runs)
        assert abs(hits / runs - p) < 3 * se

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeanspp_seed(as_dataset([[1.0]]), k=2, z=2, rng=0)

    def test_weighted_first_center_matches_walk_back_rule(self):
        def walk_back_first(w, rng):
            # the draw before the shared inverse-CDF helper
            r = rng.random() * padded_pairwise_sum(w)
            first = min(int(np.searchsorted(np.cumsum(w), r, side="right")), w.size - 1)
            while w[first] == 0.0:
                first -= 1
            return first

        gen = np.random.default_rng(12)
        for trial in range(200):
            n = int(gen.integers(1, 40))
            w = gen.exponential(size=n) * 10.0 ** gen.integers(-300, 300)
            w[gen.random(n) < 0.5] = 0.0
            w[: gen.integers(0, 3)] = 0.0
            w[n - int(gen.integers(0, 3)) :] = 0.0
            if not w.sum() > 0:
                w[int(gen.integers(n))] = 1.0
            pts = as_dataset(np.arange(float(n))[:, None])
            model = kmeanspp_seed(pts, 1, z=2, rng=np.random.default_rng(trial), weights=w)
            expect = walk_back_first(w, np.random.default_rng(trial))
            assert model.centers[0, 0] == expect, f"trial {trial}"


class TestNonFiniteZ:
    @pytest.mark.parametrize("z", [float("nan"), float("inf")])
    def test_kmeanspp_rejects(self, z):
        pts = as_dataset(np.random.default_rng(0).standard_normal((20, 2)))
        with pytest.raises(ValueError, match="finite"):
            kmeanspp_seed(pts, 5, z=z, rng=0)


_CENTERS = np.array([[0.0, 0.0], [1.0, 1.0]])
# every entry point on points p; all coerce through as_dataset
_ENTRY_POINTS = {
    "kmeanspp_seed": lambda p: kmeanspp_seed(p, 2, z=2, rng=0),
    "nearest_assignment": lambda p: nearest_assignment(p, _CENTERS),
    "cost_with_nearest": lambda p: cost_with_nearest(p, _CENTERS),
    "cost_with_assignment": lambda p: cost_with_assignment(p, _CENTERS, np.zeros(len(p), int)),
    "centers_of_mass": lambda p: centers_of_mass(p, np.arange(len(p)) % 2, 2),
    "lloyd_iterate": lambda p: lloyd_iterate(p, ClusteringModel(_CENTERS, None, 0.0, 2.0)),
}


class TestPointsCoercion:
    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    def test_non_finite_points_rejected(self, name):
        pts = np.random.default_rng(0).standard_normal((10, 2))
        pts[3, 1] = np.nan
        with pytest.raises(ValueError, match="points must be finite"):
            _ENTRY_POINTS[name](pts)

    @pytest.mark.parametrize("name", sorted(_ENTRY_POINTS))
    def test_one_dimensional_array_rejected(self, name):
        with pytest.raises(ValueError, match="2-D"):
            _ENTRY_POINTS[name](np.arange(10.0))

    def test_lloyd_validates_points_once(self, monkeypatch):
        import prone.baseline as baseline

        calls = []
        real = baseline.as_dataset
        monkeypatch.setattr(baseline, "as_dataset", lambda p: calls.append(p) or real(p))
        pts = np.random.default_rng(1).standard_normal((50, 2))
        model = kmeanspp_seed(pts, 3, z=2, rng=0)
        calls.clear()
        lloyd_iterate(pts, model, max_iters=5)
        # one coercion of the raw array; every pass after it gets the Dataset back
        assert sum(c is pts for c in calls) == 1


_BAD_WEIGHTS = {
    "scalar": 2.0,
    "length-1": [1.0],
    "wrong-length": np.ones(4),
    "negative": [1.0, -1.0, 1.0],
    "nan": [1.0, np.nan, 1.0],
    "complex": np.ones(3) + 0j,
    "all-zero": np.zeros(3),
}

_WEIGHTED_CALLS = {
    "cost_with_nearest": lambda pts, w: cost_with_nearest(pts, pts[:2], 2.0, weights=w),
    "cost_with_assignment": lambda pts, w: cost_with_assignment(
        pts, pts[:2], np.array([0, 1, 1]), 2.0, weights=w
    ),
    "centers_of_mass": lambda pts, w: centers_of_mass(pts, np.array([0, 1, 1]), 2, weights=w),
    "lloyd_iterate": lambda pts, w: lloyd_iterate(
        pts, ClusteringModel(pts[:2], None, 0.0, 2.0), weights=w
    ),
}


@pytest.mark.parametrize("weights", _BAD_WEIGHTS.values(), ids=_BAD_WEIGHTS.keys())
@pytest.mark.parametrize("call", _WEIGHTED_CALLS.values(), ids=_WEIGHTED_CALLS.keys())
def test_bad_weights_rejected(call, weights):
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    with pytest.raises(ValueError, match="^weights "):
        call(pts, weights)


class TestCentersOfMass:
    def test_two_point_mean(self):
        centers, relocated = centers_of_mass(as_dataset([[0.0, 0.0], [2.0, 0.0]]), np.array([0, 0]), k=1)
        np.testing.assert_array_equal(centers, [[1.0, 0.0]])
        assert relocated.size == 0

    def test_singleton_cluster(self):
        centers, _ = centers_of_mass(
            as_dataset([[5.0, 1.0], [0.0, 0.0]]), np.array([0, 1]), k=2
        )
        np.testing.assert_array_equal(centers[0], [5.0, 1.0])

    def test_weighted_mean(self):
        centers, _ = centers_of_mass(
            as_dataset([[0.0], [4.0]]), np.array([0, 0]), k=1, weights=np.array([3.0, 1.0])
        )
        np.testing.assert_array_equal(centers, [[1.0]])

    def test_empty_cluster_relocated_to_farthest_point(self):
        pts = as_dataset([[0.0], [1.0], [100.0]])
        centers, relocated = centers_of_mass(pts, np.array([0, 0, 0]), k=2)
        assert relocated.tolist() == [1]
        assert centers[1, 0] == 100.0  # farthest from the lone real center

    def test_perturbing_mean_increases_cost(self):
        rng = np.random.default_rng(14)
        pts = rng.standard_normal((40, 3))
        labels = rng.integers(0, 3, size=40)
        data = as_dataset(pts)
        centers, _ = centers_of_mass(data, labels, k=3)
        base = cost_with_assignment(data, centers, labels, z=2)
        delta = 1e-3
        for j in range(3):
            for axis in range(3):
                for sign in (+1.0, -1.0):
                    moved = centers.copy()
                    moved[j, axis] += sign * delta
                    assert cost_with_assignment(data, moved, labels, z=2) > base


    def test_peak_memory_holds_no_index_copies(self):
        # the one-hot's n ones and its two int32 index arrays, which scipy
        # takes as given; int64 ones would be copied to int32 on top
        n, k, d = 200_000, 50, 16
        rng = np.random.default_rng(7)
        pts = as_dataset(rng.standard_normal((n, d)))
        sigma = rng.integers(k, size=n)
        tracemalloc.start()
        try:
            centers_of_mass(pts, sigma, k)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n + 4 * (2 * n + 1) + 2**17


class TestLloyd:
    def test_hand_example(self):
        data = as_dataset([[0.0], [2.0], [10.0]])
        start = np.array([[0.0], [10.0]])
        labels, _ = nearest_assignment(data, start)
        model = ClusteringModel(
            centers=start, assignment=labels, cost=cost_with_assignment(data, start, labels, 2), z=2.0
        )
        trace: list = []
        out = lloyd_iterate(data, model, cost_trace=trace)
        np.testing.assert_array_equal(np.sort(out.centers[:, 0]), [1.0, 10.0])
        assert out.cost == 2.0
        # running again from the fixed point changes nothing
        again = lloyd_iterate(data, out)
        np.testing.assert_array_equal(again.centers, out.centers)
        assert again.cost == 2.0

    def test_rejects_z_not_2(self):
        data = as_dataset([[0.0], [1.0]])
        model = kmeanspp_seed(data, k=1, z=1, rng=0)
        with pytest.raises(ValueError):
            lloyd_iterate(data, model)

    def test_cost_non_increasing(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            pts = rng.standard_normal((50, 4))
            data = as_dataset(pts)
            model = kmeanspp_seed(data, k=5, z=2, rng=rng)
            trace: list = []
            out = lloyd_iterate(data, model, cost_trace=trace)
            assert out.cost <= model.cost + 1e-12
            assert all(b <= a + 1e-9 for a, b in zip(trace, trace[1:]))

    def test_weighted_matches_replicated(self):
        pts = np.array([[0.0], [1.0], [9.0]])
        rep = as_dataset(np.array([[0.0], [1.0], [1.0], [9.0]]))
        wtd = as_dataset(pts)
        start = np.array([[0.5], [8.0]])
        labels_r, _ = nearest_assignment(rep, start)
        labels_w, _ = nearest_assignment(wtd, start)
        m_r = ClusteringModel(start, labels_r, cost_with_assignment(rep, start, labels_r, 2), 2.0)
        m_w = ClusteringModel(start, labels_w, cost_with_assignment(wtd, start, labels_w, 2, weights=np.array([1.0, 2.0, 1.0])), 2.0)
        out_r = lloyd_iterate(rep, m_r)
        out_w = lloyd_iterate(wtd, m_w, weights=np.array([1.0, 2.0, 1.0]))
        np.testing.assert_allclose(np.sort(out_w.centers, axis=0), np.sort(out_r.centers, axis=0))
        assert out_w.cost == pytest.approx(out_r.cost)


@settings(max_examples=300, deadline=None)
@given(
    a=st.floats(min_value=0, max_value=1e6),
    b=st.floats(min_value=0, max_value=1e6),
    z=st.floats(min_value=1, max_value=4),
)
def test_power_mean_inequality(a, b, z):
    # (a + b)^z <= 2^(z-1) (a^z + b^z), the splitting device behind the cost bounds
    lhs = (a + b) ** z
    rhs = 2 ** (z - 1) * (a**z + b**z)
    assert lhs <= rhs * (1 + 1e-12) + 1e-300
