"""Linear operators (CSR sparse and row-major dense) and vector primitives.

Both operator classes are immutable after construction; their arrays are
marked read-only so concurrent read access is safe.  All arithmetic is
64-bit floating point.
"""

import numpy as np

from .errors import DimensionMismatch, NonFiniteVector


def backend_name():
    """Name of the CSR kernel implementation; the only one is NumPy."""
    return "python"


def as_vector(x, name="vector"):
    """Coerce ``x`` to a contiguous 1-D float64 array, rejecting NaN/Inf.

    Used at public boundaries; internal code passes arrays through
    unchecked.
    """
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteVector(f"{name} contains non-finite entries")
    return v


def dot(u, v):
    """Euclidean inner product of two equal-length vectors."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape or u.ndim != 1:
        raise DimensionMismatch(f"dot: shapes {u.shape} and {v.shape}")
    return float(np.dot(u, v))


def norm2(v):
    """Euclidean norm."""
    return float(np.linalg.norm(np.asarray(v, dtype=np.float64)))


def _readonly(a):
    a.flags.writeable = False
    return a


class LinearOperator:
    """Square-or-rectangular real matrix supporting y = A x and z = A' u.

    Concrete storage is either :class:`CsrMatrix` or :class:`DenseMatrix`.
    """

    nrows = 0
    ncols = 0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def apply(self, v):
        raise NotImplementedError

    def apply_transpose(self, u):
        raise NotImplementedError

    def row(self, i):
        """Row ``i`` densified to a length-``ncols`` vector."""
        raise NotImplementedError

    def rows_dense(self, start, stop):
        """Rows ``start:stop`` as a dense (stop-start) x ncols array."""
        raise NotImplementedError

    def to_dense(self):
        raise NotImplementedError

    def frobenius_norm(self):
        """Frobenius norm, computed once and cached (breakdown scale)."""
        cached = getattr(self, "_fro", None)
        if cached is None:
            cached = self._fro = float(np.linalg.norm(self._value_array()))
        return cached

    def _value_array(self):
        raise NotImplementedError

    def _check_apply(self, v, length, name):
        v = np.ascontiguousarray(v, dtype=np.float64)
        if v.ndim != 1 or v.shape[0] != length:
            raise DimensionMismatch(
                f"{name}: operator is {self.nrows}x{self.ncols}, "
                f"vector has shape {v.shape}"
            )
        return v


class CsrMatrix(LinearOperator):
    """Compressed sparse row matrix.

    ``row_offsets`` has length nrows+1 with ``row_offsets[0] == 0``;
    within each row the column indices are strictly increasing (which
    also rules out duplicates).  Construction checks all of this.
    """

    def __init__(self, nrows, ncols, row_offsets, col_indices, values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        self.row_offsets = _readonly(np.ascontiguousarray(row_offsets, dtype=np.int64))
        self.col_indices = _readonly(np.ascontiguousarray(col_indices, dtype=np.int64))
        self.values = _readonly(np.ascontiguousarray(values, dtype=np.float64))
        self._validate()

    def _validate(self):
        off, cols, vals = self.row_offsets, self.col_indices, self.values
        if self.nrows < 0 or self.ncols < 0:
            raise ValueError("negative dimensions")
        if off.shape != (self.nrows + 1,):
            raise ValueError(f"row_offsets length {off.shape[0]} != nrows+1")
        if off[0] != 0 or off[-1] != len(vals) or len(vals) != len(cols):
            raise ValueError("row_offsets endpoints inconsistent with data arrays")
        if np.any(np.diff(off) < 0):
            raise ValueError("row_offsets must be non-decreasing")
        if len(cols):
            if cols.min() < 0 or cols.max() >= self.ncols:
                raise ValueError("column index out of range")
            # strictly increasing inside each row; gaps at row starts are exempt
            d = np.diff(cols)
            interior = np.ones(len(d), dtype=bool)
            starts = off[1:-1]
            interior[starts[(starts > 0) & (starts < len(cols))] - 1] = False
            if np.any(d[interior] <= 0):
                raise ValueError("column indices must be strictly increasing within a row")
        if not np.all(np.isfinite(vals)):
            raise NonFiniteVector("CSR values contain non-finite entries")

    @property
    def nnz(self):
        return len(self.values)

    @classmethod
    def from_coo(cls, nrows, ncols, rows, cols, values):
        """Build from unordered triplets; duplicates are rejected."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if len(rows) > 1 and np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
            raise ValueError("duplicate (row, col) entries")
        offsets = np.zeros(nrows + 1, dtype=np.int64)
        np.add.at(offsets, rows + 1, 1)
        np.cumsum(offsets, out=offsets)
        return cls(nrows, ncols, offsets, cols, values)

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=np.float64)
        rows, cols = np.nonzero(array)
        return cls.from_coo(array.shape[0], array.shape[1], rows, cols,
                            array[rows, cols])

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=np.int64)
        return cls(n, n, np.arange(n + 1, dtype=np.int64), idx, np.ones(n))

    def apply(self, v):
        # np.bincount keeps the per-row sums in C; the row ids cost nnz ints
        v = self._check_apply(v, self.ncols, "apply")
        rows = np.repeat(np.arange(self.nrows, dtype=np.int64),
                         np.diff(self.row_offsets))
        return np.bincount(rows, weights=self.values * v[self.col_indices],
                           minlength=self.nrows)

    def apply_transpose(self, u):
        # row scatter: no transpose is materialized
        u = self._check_apply(u, self.nrows, "apply_transpose")
        scaled = self.values * np.repeat(u, np.diff(self.row_offsets))
        return np.bincount(self.col_indices, weights=scaled,
                           minlength=self.ncols)

    def row(self, i):
        out = np.zeros(self.ncols)
        lo, hi = self.row_offsets[i], self.row_offsets[i + 1]
        out[self.col_indices[lo:hi]] = self.values[lo:hi]
        return out

    def rows_dense(self, start, stop):
        # one scatter; rows hold no duplicate columns, so no entry is summed
        offsets = self.row_offsets[start:stop + 1]
        rows = np.repeat(np.arange(stop - start, dtype=np.int64),
                         np.diff(offsets))
        out = np.zeros((stop - start, self.ncols))
        lo, hi = offsets[0], offsets[-1]
        out[rows, self.col_indices[lo:hi]] = self.values[lo:hi]
        return out

    def to_dense(self):
        return self.rows_dense(0, self.nrows)

    def _value_array(self):
        return self.values

    def __repr__(self):
        return f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


class DenseMatrix(LinearOperator):
    """Row-major dense matrix."""

    def __init__(self, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"dense values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteVector("dense values contain non-finite entries")
        self.values = _readonly(values)
        self.nrows, self.ncols = values.shape

    def apply(self, v):
        v = self._check_apply(v, self.ncols, "apply")
        return self.values @ v

    def apply_transpose(self, u):
        u = self._check_apply(u, self.nrows, "apply_transpose")
        return self.values.T @ u

    def row(self, i):
        return self.values[i].copy()

    def rows_dense(self, start, stop):
        return self.values[start:stop].copy()

    def to_dense(self):
        return self.values.copy()

    def _value_array(self):
        return self.values

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols})"
