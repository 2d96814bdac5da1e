"""Point-set container, file formats, and synthetic generators.

A :class:`Dataset` wraps n points in R^d stored either as a dense float64
matrix or as a CSR sparse matrix. Loaders parse two text formats:

* dense CSV: one row per point, comma-separated floats, optional header;
* sparse: one row per point, whitespace-separated ``index:value`` pairs
  with strictly increasing 0-based indices, optionally preceded by a
  ``#d <int>`` line declaring the dimension.

Parse errors name the offending line. Writing a dense dataset uses full
``repr`` precision so a round trip reproduces every finite double exactly.
"""

from __future__ import annotations

import itertools

import numpy as np
import scipy.sparse as sp

from ._util import (
    _check_count, _check_real, as_float64, as_generator, check_finite, check_nonnegative,
)

__all__ = [
    "Dataset",
    "DatasetFormatError",
    "as_dataset",
    "load_dense_csv",
    "load_sparse",
    "write_dense_csv",
    "gen_adversarial_gaussian",
    "gen_gaussian_mixture",
    "MIRROR_DISTANCE",
]

# Distance of each adversarial cluster center from the origin, in units of
# the (unit) cluster standard deviation. The construction only requires
# "far"; 1000 makes the mirrored clusters unambiguous for any sane seed.
MIRROR_DISTANCE = 1000.0


class DatasetFormatError(ValueError):
    """Raised for malformed dataset files; the message names the line."""


class Dataset:
    """Read-only set of n >= 1 points in R^d, dense or sparse rows.

    A C-contiguous float64 array or canonical float64 CSR matrix is wrapped
    without a copy (a non-canonical one is summed on a copy): the Dataset
    does not write to it, but the caller still can, and values written
    after wrapping are not checked again.
    """

    __slots__ = ("_mat", "is_sparse")

    def __init__(self, mat) -> None:
        self.is_sparse = sp.issparse(mat)
        if self.is_sparse:
            _check_real(mat.dtype, "points")
            m = mat.tocsr().astype(np.float64, copy=False)
            # canonical: sorted indices, each (row, column) stored at most once
            if not m.has_canonical_format:
                m = m.copy()
                m.sum_duplicates()
            values = m.data
        else:
            # a view, so that freezing it leaves a caller's own array writeable
            m = values = as_float64(mat, "points", order="C").view()
            if m.ndim != 2:
                raise ValueError("expected a 2-D array of points")
            m.setflags(write=False)
        check_finite(values, "points")
        self._mat = m
        if self.n < 1 or self.d < 1:
            raise ValueError("dataset must have n >= 1 points and d >= 1 dimensions")

    @property
    def points(self):
        """The underlying (n, d) matrix: ndarray if dense, CSR if sparse."""
        return self._mat

    @property
    def n(self) -> int:
        return int(self._mat.shape[0])

    @property
    def d(self) -> int:
        return int(self._mat.shape[1])

    @property
    def nnz(self) -> int:
        """Stored entries: n*d for dense storage, stored nonzeros for sparse."""
        if self.is_sparse:
            return int(self._mat.nnz)
        return self.n * self.d

    def rows(self, idx) -> np.ndarray:
        """Dense float64 copy of the rows at ``idx``; 1-D for a scalar index."""
        if self.is_sparse:
            out = self._mat[idx].toarray()
            # one row of a CSR matrix is (1, d), of a CSR array (d,)
            return out.ravel() if np.ndim(idx) == 0 else out
        return np.take(self._mat, idx, axis=0)

    def to_dense(self) -> np.ndarray:
        if self.is_sparse:
            return np.asarray(self._mat.todense())
        return np.asarray(self._mat)

    def __reduce__(self):
        # rebuilt through __init__, which makes a dense copy read-only again
        return Dataset, (self._mat,)

    def __repr__(self) -> str:
        kind = "sparse" if self.is_sparse else "dense"
        return f"Dataset(n={self.n}, d={self.d}, {kind}, nnz={self.nnz})"


def as_dataset(data) -> Dataset:
    """Coerce an ndarray / sparse matrix / Dataset into a Dataset."""
    if isinstance(data, Dataset):
        return data
    return Dataset(data)


def _read_rows(lines, **kwargs) -> np.ndarray:
    return np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, dtype=np.float64, **kwargs)


def _data_lines(fh, has_header: bool):
    """Each line that holds data, with its 1-based line number in the file."""
    for lineno, line in enumerate(fh, start=1):
        if not (line.isspace() or (has_header and lineno == 1)):
            yield lineno, line


def _first_bad_line(path, lines) -> DatasetFormatError | None:
    """The first data line, in file order, that is not a row like the first one."""
    width = None
    for lineno, line in lines:
        fields = line.split(",")
        width = width or len(fields)
        if len(fields) != width:
            return DatasetFormatError(
                f"{path}: line {lineno}: expected {width} fields, got {len(fields)}"
            )
        try:
            _read_rows([line])
        except ValueError:
            for col, field in enumerate(fields):
                try:
                    _read_rows([line], usecols=col)
                except ValueError:
                    return DatasetFormatError(
                        f"{path}: line {lineno}: could not convert {field.strip()!r} to float"
                    )
    return None


def load_dense_csv(path, has_header: bool = False) -> Dataset:
    """Load a dense CSV file of floats, one point per row.

    Blank and whitespace-only lines are skipped, and so is line 1 when
    ``has_header``. Every other line must have as many comma-separated
    fields as the first. Fields follow ``np.loadtxt`` syntax, with optional
    surrounding whitespace; spellings only Python's ``float`` accepts, such
    as ``1_000``, are rejected. Conversion is correctly rounded, so
    ``write_dense_csv`` output reloads bit for bit.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = (line for _, line in _data_lines(fh, has_header))
        first = next(rows, None)
        if first is None:
            raise DatasetFormatError(f"{path}: no data rows")
        try:
            mat = _read_rows(itertools.chain((first,), rows))
        except ValueError:
            # np.loadtxt's messages count rows, not file lines: find the line again
            fh.seek(0)
            bad = _first_bad_line(path, _data_lines(fh, has_header))
            if bad is None:
                raise
            raise bad from None
    return Dataset(mat)


def write_dense_csv(data: Dataset, path) -> None:
    """Write a dense CSV with full round-trip precision (repr of each double)."""
    mat = data.to_dense()
    with open(path, "w", encoding="utf-8") as fh:
        for row in mat:
            fh.write(",".join(repr(v) for v in row.tolist()) + "\n")


def load_sparse(path) -> Dataset:
    """Load a sparse ``index:value`` file, one point per row."""
    declared_d = None
    indptr = [0]
    indices: list[int] = []
    values: list[float] = []
    max_idx = -1
    n = 0
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if lineno == 1 and line.startswith("#d"):
                try:
                    declared_d = int(line.split()[1])
                except (IndexError, ValueError):
                    raise DatasetFormatError(f"{path}: line 1: malformed '#d' header") from None
                if declared_d < 1:
                    raise DatasetFormatError(f"{path}: line 1: dimension must be >= 1")
                continue
            if not line:
                continue
            prev = -1
            for tok in line.split():
                idx_s, _, val_s = tok.partition(":")
                if not _:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: expected 'index:value', got {tok!r}"
                    )
                try:
                    idx = int(idx_s)
                    val = float(val_s)
                except ValueError as exc:
                    raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from None
                if idx < 0:
                    raise DatasetFormatError(f"{path}: line {lineno}: negative index {idx}")
                if idx <= prev:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: indices must be strictly increasing "
                        f"({idx} after {prev})"
                    )
                if declared_d is not None and idx >= declared_d:
                    raise DatasetFormatError(
                        f"{path}: line {lineno}: index {idx} outside declared dimension {declared_d}"
                    )
                prev = idx
                indices.append(idx)
                values.append(val)
            max_idx = max(max_idx, prev)
            indptr.append(len(indices))
            n += 1
    if n == 0:
        raise DatasetFormatError(f"{path}: no data rows")
    d = declared_d if declared_d is not None else max_idx + 1
    if d < 1:
        raise DatasetFormatError(f"{path}: cannot infer dimension (no entries and no '#d' header)")
    mat = sp.csr_matrix(
        (np.array(values, dtype=np.float64), np.array(indices, dtype=np.int64), np.array(indptr)),
        shape=(n, d),
    )
    return Dataset(mat)


def gen_adversarial_gaussian(m: int, rng=None) -> Dataset:
    """Mirrored Gaussian clusters plus a tiny origin cluster (d = 4).

    For each of the 4 axes, draws m unit-variance Gaussian points centered
    at +MIRROR_DISTANCE along that axis, then mirrors all 4m points through
    the origin and appends 5 exact origin points: n = 8m + 5. The mirror
    copies make the mean exactly zero and leave the origin cluster so small
    that uniform-flavored sampling schemes are likely to miss it.
    """
    _check_count(m, "m")
    rng = as_generator(rng)
    d = 4
    blocks = []
    for axis in range(d):
        pts = rng.standard_normal((m, d))
        pts[:, axis] += MIRROR_DISTANCE
        blocks.append(pts)
    half = np.vstack(blocks)
    pts = np.vstack([half, -half, np.zeros((5, d))])
    return Dataset(pts)


def gen_gaussian_mixture(
    k: int, per_cluster: int, d: int, separation: float, rng=None
) -> tuple[Dataset, np.ndarray]:
    """Isotropic unit-variance Gaussian mixture with uniform random centers.

    Centers are drawn uniformly from [0, separation]^d, then each center
    gets ``per_cluster`` points of isotropic unit noise. Returns the
    dataset and the (k, d) ground-truth center matrix.
    """
    for name, count in (("k", k), ("per_cluster", per_cluster), ("d", d)):
        _check_count(count, name)
    check_nonnegative(separation, "separation")
    rng = as_generator(rng)
    centers = rng.uniform(0.0, separation, size=(k, d))
    noise = rng.standard_normal((k * per_cluster, d))
    pts = np.repeat(centers, per_cluster, axis=0) + noise
    return Dataset(pts), centers
