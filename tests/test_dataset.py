"""Tests for the data model, file formats, and synthetic generators."""

import math
import pickle
import re
import tracemalloc
import warnings
from decimal import Decimal

import numpy as np
import pytest
import scipy.sparse as sp

from prone.dataset import (
    Dataset,
    DatasetFormatError,
    as_dataset,
    gen_adversarial_gaussian,
    gen_gaussian_mixture,
    load_dense_csv,
    load_sparse,
    write_dense_csv,
)
from prone.pipeline import ProneConfig, prone


class TestDataset:
    def test_dense_shape_and_nnz(self):
        data = as_dataset([[0.0, 0.0], [3.0, 4.0]])
        assert (data.n, data.d, data.nnz) == (2, 2, 4)
        assert not data.is_sparse

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_dataset([[1.0, float("inf")]])

    @pytest.mark.parametrize("layout", [np.asarray, sp.csr_matrix])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_any_non_finite_value_named(self, layout, bad):
        pts = np.arange(12.0).reshape(4, 3)
        pts[2, 1] = bad
        with pytest.raises(ValueError, match="^points must be finite$"):
            Dataset(layout(pts))

    def test_sparse_with_no_stored_values(self):
        data = Dataset(sp.csr_matrix((3, 2)))
        assert (data.n, data.d, data.nnz) == (3, 2, 0)

    @pytest.mark.parametrize("layout", [np.asarray, sp.csr_matrix])
    def test_rejects_complex(self, layout):
        # the float64 cast would drop the imaginary part with only a warning
        with pytest.raises(ValueError, match="complex"):
            Dataset(layout(np.ones((3, 2)) + 1j))

    @pytest.mark.parametrize(
        "values, dtype",
        [
            # the float64 cast would parse strings and accept any object with
            # __float__; None would surface as "points must be finite"
            (np.array([["1", "2"]]), "<U1"),
            (np.array([[b"1", b"2"]]), "|S1"),
            (np.array([[Decimal(1), Decimal(2)]], dtype=object), "object"),
            (np.array([[1, None]], dtype=object), "object"),
            (np.zeros((1, 2), dtype="V8"), "|V8"),
            ([["1", "2"]], "<U1"),
        ],
        ids=["str", "bytes", "decimal", "none", "void", "str-list"],
    )
    def test_rejects_non_numeric_dense(self, values, dtype):
        message = f"points must be numeric, not dtype {re.escape(dtype)}$"
        with pytest.raises(ValueError, match=message):
            as_dataset(values)

    @pytest.mark.parametrize("dtype", [object, "S3"])
    def test_rejects_non_numeric_csr(self, dtype):
        # scipy will not build such a matrix, but its stored values can be swapped in
        mat = sp.csr_matrix(np.array([[1.0, 0.0], [0.0, 2.0]]))
        mat.data = mat.data.astype(dtype)
        with pytest.raises(ValueError, match="points must be numeric, not dtype"):
            as_dataset(mat)

    @pytest.mark.parametrize("dtype", [bool, np.int8, np.uint64, np.float32])
    @pytest.mark.parametrize("layout", [np.asarray, sp.csr_matrix])
    def test_accepts_real_numeric_dtypes(self, dtype, layout):
        data = as_dataset(layout(np.array([[1, 0], [0, 1]], dtype=dtype)))
        np.testing.assert_array_equal(data.to_dense(), np.eye(2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            as_dataset(np.empty((0, 3)))

    def test_dense_rows_read_only(self):
        data = as_dataset([[1.0, 2.0]])
        with pytest.raises(ValueError):
            data.points[0, 0] = 9.0

    def test_callers_array_stays_writeable(self):
        # a C-contiguous float64 array is wrapped without a copy; only the
        # Dataset's own view of it is frozen
        pts = np.arange(6.0).reshape(3, 2)
        data = as_dataset(pts)
        assert np.shares_memory(data.points, pts)
        prone(pts, ProneConfig(k=2, seed=0))
        assert pts.flags.writeable
        pts[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            data.points[0, 0] = 9.0

    @pytest.mark.parametrize("storage", [sp.csr_matrix, sp.csr_array])
    def test_canonical_float64_csr_not_copied(self, storage):
        mat = storage(np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert np.shares_memory(Dataset(mat).points.data, mat.data)

    def test_non_canonical_csr_left_unchanged(self):
        # row 0 stores column 1 twice, row 1 its columns out of order
        mat = sp.csr_matrix(
            ([1.0, 2.0, 3.0, 4.0], [1, 1, 1, 0], [0, 2, 4]), shape=(2, 2)
        )
        before = [a.copy() for a in (mat.data, mat.indices, mat.indptr)]
        data = Dataset(mat)
        assert data.points.has_canonical_format and data.nnz == 3
        np.testing.assert_array_equal(data.to_dense(), [[0.0, 3.0], [4.0, 3.0]])
        for got, want in zip((mat.data, mat.indices, mat.indptr), before):
            np.testing.assert_array_equal(got, want)

    def test_wrapping_a_raw_array_builds_no_mask(self):
        # the finiteness check must not allocate an n x d bool array (3.8 MiB
        # here): prone on the raw array peaks as it does on a Dataset
        x = np.random.default_rng(0).standard_normal((20_000, 200))
        peaks = []
        for arg in (as_dataset(x), x):
            tracemalloc.start()
            try:
                prone(arg, ProneConfig(k=10, seed=0))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert peaks[1] <= peaks[0] + 2**20

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix])
    def test_pickled_copy_stays_read_only(self, storage):
        # pickle and multiprocessing rebuild a Dataset through ``__reduce__``
        data = as_dataset(storage([[1.0, 0.0], [0.0, 2.0]]))
        copy = pickle.loads(pickle.dumps(data))
        assert copy.is_sparse == data.is_sparse
        np.testing.assert_array_equal(copy.to_dense(), data.to_dense())
        if not copy.is_sparse:
            with pytest.raises(ValueError, match="read-only"):
                copy.points[0, 0] = 9.0

    def test_later_writes_reach_the_dataset_unchecked(self):
        # the documented contract: finiteness is checked once, at wrapping
        pts = np.arange(6.0).reshape(3, 2)
        data = as_dataset(pts)
        pts[1, 1] = np.nan
        assert np.isnan(data.points[1, 1])

    @pytest.mark.parametrize("storage", [np.asarray, sp.csr_matrix, sp.csr_array])
    def test_rows_are_dense_copies(self, storage):
        pts = np.array([[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]])
        data = as_dataset(storage(pts))
        row, block = data.rows(1), data.rows([2, 0, 2])
        assert row.shape == (2,) and block.shape == (3, 2)
        assert row.dtype == block.dtype == np.float64
        np.testing.assert_array_equal(row, pts[1])
        np.testing.assert_array_equal(block, pts[[2, 0, 2]])
        row[:] = 9.0
        block[:] = 9.0
        # a literal, not pts: a dense Dataset shares pts' memory
        np.testing.assert_array_equal(data.to_dense(), [[0.0, 2.0], [3.0, 0.0], [0.0, 0.0]])


class TestDenseCsv:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("0,0\n3,4\n")
        data = load_dense_csv(p)
        assert (data.n, data.d, data.nnz) == (2, 2, 4)
        np.testing.assert_array_equal(data.to_dense(), [[0, 0], [3, 4]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n")
        data = load_dense_csv(p, has_header=True)
        assert (data.n, data.d) == (1, 2)

    def test_ragged_row_names_line(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dense_csv(p)

    def test_non_numeric_field(self, tmp_path):
        p = tmp_path / "n.csv"
        p.write_text("1,2\n3,cat\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dense_csv(p)

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(17)
        original = rng.standard_normal((23, 5)) * np.exp(rng.standard_normal(5) * 8)
        p = tmp_path / "rt.csv"
        write_dense_csv(as_dataset(original), p)
        reloaded = load_dense_csv(p).to_dense()
        np.testing.assert_array_equal(reloaded, original)  # full-precision format


def _load_text(tmp_path, text, has_header=False):
    p = tmp_path / "t.csv"
    p.write_bytes(text.encode())
    return load_dense_csv(p, has_header=has_header)


class TestDenseCsvLines:
    def test_blank_and_whitespace_only_lines_skipped(self, tmp_path):
        data = _load_text(tmp_path, "1,2\n\n   \n\t\n3,4\n  \n")
        np.testing.assert_array_equal(data.to_dense(), [[1, 2], [3, 4]])

    def test_bad_field_after_header_and_blank_lines(self, tmp_path):
        with pytest.raises(DatasetFormatError, match=r"t\.csv: line 5: could not convert 'x'"):
            _load_text(tmp_path, "a,b\n\n1,2\n \n3,x\n", has_header=True)

    def test_short_row_after_header_and_blank_lines(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 5: expected 2 fields, got 1"):
            _load_text(tmp_path, "a,b\n\n1,2\n\n3\n", has_header=True)

    def test_first_bad_line_is_named(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 2: could not convert"):
            _load_text(tmp_path, "1,2\n3,?\n1,2,3\n")
        with pytest.raises(DatasetFormatError, match="line 2: expected 2 fields"):
            _load_text(tmp_path, "1,2\n1,2,3\n3,?\n")

    @pytest.mark.parametrize("bad, message", [("7,oops", "could not convert 'oops'"), ("7", "expected 2 fields")])
    def test_bad_line_far_into_the_file(self, tmp_path, bad, message):
        text = "1.5,2.5\n" * 50_001 + bad + "\n" + "1,2\n" * 3
        with pytest.raises(DatasetFormatError, match=f"line 50002: {message}"):
            _load_text(tmp_path, text)

    def test_crlf_line_endings(self, tmp_path):
        data = _load_text(tmp_path, "1,2\r\n\r\n3,4\r\n")
        np.testing.assert_array_equal(data.to_dense(), [[1, 2], [3, 4]])
        with pytest.raises(DatasetFormatError, match="line 3: could not convert 'x'"):
            _load_text(tmp_path, "1,2\r\n\r\nx,4\r\n")

    @pytest.mark.parametrize("text, has_header", [("", False), ("a,b\n", True), (" \n\n", False)])
    def test_no_rows_without_numpy_warning(self, tmp_path, text, has_header):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DatasetFormatError, match="no data rows"):
                _load_text(tmp_path, text, has_header=has_header)

    def test_python_only_spelling_rejected(self, tmp_path):
        with pytest.raises(DatasetFormatError, match="line 1: could not convert '1_000'"):
            _load_text(tmp_path, "1_000,2\n")

    def test_extreme_values_round_trip_bit_exact(self, tmp_path):
        values = [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e308, -1e308,
                  1.7976931348623157e308, -1.7976931348623157e308]
        original = np.array(values).reshape(-1, 1) * np.array([1.0, -1.0])
        p = tmp_path / "x.csv"
        write_dense_csv(as_dataset(original), p)
        reloaded = load_dense_csv(p).to_dense()
        np.testing.assert_array_equal(reloaded.view(np.uint64), original.view(np.uint64))

    def test_peak_memory_near_the_matrix(self, tmp_path):
        # a list of Python floats per row costs several times the float64 matrix
        original = np.random.default_rng(8).standard_normal((20_000, 16))
        p = tmp_path / "m.csv"
        write_dense_csv(as_dataset(original), p)
        tracemalloc.start()
        try:
            data = load_dense_csv(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(data.to_dense(), original)
        assert peak < 2 * original.nbytes


class TestSparse:
    def test_basic_parse(self, tmp_path):
        p = tmp_path / "s.txt"
        p.write_text("0:1.5 3:2.0\n")
        data = load_sparse(p)
        assert (data.n, data.d, data.nnz) == (1, 4, 2)
        np.testing.assert_array_equal(data.to_dense(), [[1.5, 0, 0, 2.0]])

    def test_dimension_directive(self, tmp_path):
        p = tmp_path / "sd.txt"
        p.write_text("#d 10\n0:1\n")
        data = load_sparse(p)
        assert (data.n, data.d, data.nnz) == (1, 10, 1)

    def test_non_increasing_indices(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("3:1 1:2\n")
        with pytest.raises(DatasetFormatError, match="line 1"):
            load_sparse(p)

    def test_negative_index(self, tmp_path):
        p = tmp_path / "neg.txt"
        p.write_text("-1:2\n")
        with pytest.raises(DatasetFormatError):
            load_sparse(p)

    def test_index_beyond_directive(self, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("#d 3\n5:1\n")
        with pytest.raises(DatasetFormatError):
            load_sparse(p)

    def test_sparse_is_csr(self, tmp_path):
        p = tmp_path / "s2.txt"
        p.write_text("0:1 2:3\n1:5\n")
        data = load_sparse(p)
        assert data.is_sparse
        assert data.nnz == 3


class TestAdversarial:
    def test_full_scale_count(self):
        # full-size check is cheap: only the shape matters here
        data = gen_adversarial_gaussian(30000, rng=0)
        assert (data.n, data.d) == (240005, 4)

    def test_m1_mirror_symmetry(self):
        data = gen_adversarial_gaussian(1, rng=3)
        assert data.n == 13
        pts = data.to_dense()
        nonzero = pts[(pts != 0).any(axis=1)]
        as_set = {tuple(row) for row in nonzero}
        assert {tuple(-row) for row in nonzero} == as_set

    def test_exact_cancellation(self):
        data = gen_adversarial_gaussian(3000, rng=1)
        assert data.n == 24005
        pts = data.to_dense()
        # exact (correctly rounded) summation: mirrored pairs cancel to 0.0
        for axis in range(4):
            assert math.fsum(pts[:, axis]) == 0.0

    def test_five_origin_points(self):
        pts = gen_adversarial_gaussian(7, rng=5).to_dense()
        assert int(((pts == 0).all(axis=1)).sum()) == 5

    def test_m0_rejected(self):
        with pytest.raises(ValueError):
            gen_adversarial_gaussian(0, rng=0)

    @pytest.mark.parametrize("m", [2.5, True, np.float64(3.0)])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ValueError, match=r"^m=.* must be an integer$"):
            gen_adversarial_gaussian(m, rng=0)

    def test_clusters_sit_far_out_on_each_axis(self):
        pts = gen_adversarial_gaussian(50, rng=2).to_dense()
        for axis in range(4):
            assert (np.abs(pts[:, axis]) > 900).sum() >= 100  # +D and -D groups


class TestMixture:
    def test_sizes(self):
        data, centers = gen_gaussian_mixture(1, 5, 2, 10.0, rng=0)
        assert (data.n, data.d) == (5, 2)
        assert centers.shape == (1, 2)

    def test_ground_truth_centers(self):
        data, centers = gen_gaussian_mixture(20, 500, 10, 100.0, rng=0)
        assert (data.n, data.d) == (10000, 10)
        assert centers.shape == (20, 10)

    def test_points_near_generating_center(self):
        data, centers = gen_gaussian_mixture(3, 50, 4, 1000.0, rng=9)
        pts = data.to_dense()
        for c, block in zip(centers, pts.reshape(3, 50, 4)):
            assert np.linalg.norm(block - c, axis=1).max() < 10  # unit noise

    def test_reproducible(self):
        a, _ = gen_gaussian_mixture(4, 10, 3, 50.0, rng=77)
        b, _ = gen_gaussian_mixture(4, 10, 3, 50.0, rng=77)
        np.testing.assert_array_equal(a.to_dense(), b.to_dense())

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            gen_gaussian_mixture(0, 5, 2, 10.0, rng=0)
        with pytest.raises(ValueError):
            gen_gaussian_mixture(2, 5, 2, -1.0, rng=0)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2.5, 3, 2, 1.0), "k=2.5 must be an integer"),
            ((True, 3, 2, 1.0), "k=True must be an integer"),
            ((2, 3.0, 2, 1.0), "per_cluster=3.0 must be an integer"),
            ((2, 3, 2.0, 1.0), "d=2.0 must be an integer"),
            ((2, 0, 2, 1.0), "per_cluster=0 must be >= 1"),
            ((2, 3, 2, math.nan), "separation=nan must be finite and nonnegative"),
            ((2, 3, 2, math.inf), "separation=inf must be finite and nonnegative"),
            ((2, 3, 2, -1.0), "separation=-1.0 must be finite and nonnegative"),
        ],
    )
    def test_bad_argument_named(self, args, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gen_gaussian_mixture(*args, rng=0)

    def test_numpy_integer_counts_and_zero_separation_accepted(self):
        data, centers = gen_gaussian_mixture(np.int64(2), np.int32(3), np.uint8(2), 0.0, rng=0)
        assert (data.n, data.d) == (6, 2)
        assert not centers.any()
