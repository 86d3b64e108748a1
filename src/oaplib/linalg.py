"""Linear operators (CSR sparse and row-major dense) and vector primitives.

Both operator classes are immutable after construction: their arrays
are marked read-only, so concurrent read access is safe, and the
attributes that name them (``values``, and a ``CsrMatrix``'s
``row_offsets`` and ``col_indices``) are read-only properties, so none
can be pointed at another array.  A caller's
``values`` array is copied, never shared, so it stays the caller's and
writable; only the library's own constructors, which drop their array,
hand it over without the copy (``LinearOperator._adopt``).  All
arithmetic is 64-bit floating point.  ``CsrMatrix`` checks its indices
as int64 and then keeps them as int32, its only index arrays; an
operator with more than 2**31 - 1 rows, columns or nonzeros is refused
before anything is narrowed.

Every product, of either operator, is one call of the compiled
``oap_product`` (``oaplib._kernels``) over the operator's C descriptor,
``_operator``, which its first product of either kind builds, so an
operator that sees no product builds nothing.  The descriptor holds the
arrays it reads (the one lifetime rule of ``oaplib._kernels``), the
same arrays the read-only attributes return.  The reduction steps
(``oaplib.reductions``) run their products over the same descriptor,
inside one compiled call per step.  A ``CsrMatrix`` picks its layout
from its structure alone:

* banded: when the d distinct diagonals, padding and in-band zeros
  included, read no more bytes than the CSR arrays
  (8 d max(nrows, ncols) <= 12 nnz), read-only diagonal (DIA) arrays of
  A are built, offsets ascending, and both products stream each of A's
  diagonals with no index gather, 512 output entries at a time;
* otherwise both products read the operator's own CSR arrays (12 bytes
  per nonzero): ``A v`` row by row, and ``A' u`` by scattering A's rows,
  since A's CSR arrays are A' in CSC form.

Each output's terms are added into +0.0 in ascending column order of
the matrix multiplied (A's rows, for ``A' u``), as scipy's
``csr_matvec`` and ``csc_matvec`` add them; the DIA kernel, like
scipy's ``dia_matvec`` over that matrix, adds them diagonal by diagonal
in ascending offset order (A's diagonals descending, for ``A' u``),
which is the same order.  The DIA terms CSR lacks are
in-band zeros times finite entries of x, exact zeros, so the two layouts
give the same bits.  The product contract: vectors are finite.  A DIA
product also multiplies its in-band zero slots, so an inf or NaN in x
can reach rows that the CSR product leaves finite.  A ``DenseMatrix``
multiplies with the bits of ``np.matmul``: its descriptor is the
row-major block, which the kernel hands to numpy's own ``cblas_dgemv``
with the arguments ``np.matmul`` passes.

Both operators return each product as a new array, every entry of it
written by the kernel.

The solve drivers run under ``_one_blas_thread``: numpy's OpenBLAS works
on the calling thread for the whole solve, and the caller's thread count
comes back on return and on raise.  The count is process-wide, so while
any solve runs every BLAS call in the process is on one thread; the
first solve in saves the count and the last one out restores it,
through numpy's private ``scipy_openblas`` thread symbols, which
``oaplib._kernels`` binds on import beside ``ddot`` and ``dgemv``.
OpenBLAS's count is all that this holds: a banded product of at least
``OAP_WORKER_MIN_WORK`` stored entries, and the two-sided step's A'u on
an operator that large, may run on the kernels' one worker thread
(``oaplib._kernels``), with the same bits.
"""

import contextlib
import functools
import math
import operator
import threading

import numpy as np

from . import _kernels
from .errors import DimensionMismatch, NonFiniteVector


def backend_name():
    """"scipy": the name under which benchmark records compare
    (``perfbench/envinfo.py`` keys them on it).  It once named scipy's
    ``csr_matvec`` and ``csc_matvec``; the products now run in
    ``oaplib._kernels``, with the same bits, and the name stays so that
    records before and after compare."""
    return "scipy"


class _OneBlasThread(contextlib.ContextDecorator):
    """Holds numpy's OpenBLAS to the calling thread while any solve runs,
    as a decorator of the solve drivers or a ``with`` block.

    A second thread would change the order in which ``ddot`` adds the
    partial sums of more than 10,000 entries, and with it a solve's
    rounding; an idle OpenBLAS worker also spin-waits beside the solve's
    own NumPy passes.  The count is process-wide (a second thread sees
    the count a first one set), so the first solve to enter saves the
    caller's count and sets it to 1, and the last to leave restores it,
    on return or raise."""

    def __init__(self):
        self._lock = threading.Lock()
        self._depth = 0
        self._saved = None

    def __enter__(self):
        with self._lock:
            if self._depth == 0:
                self._saved = _kernels.get_blas_threads()
                _kernels.set_blas_threads(1)
            self._depth += 1

    def __exit__(self, *exc):
        with self._lock:
            self._depth -= 1
            if self._depth == 0:
                _kernels.set_blas_threads(self._saved)


_one_blas_thread = _OneBlasThread()


def as_vector(x, name="vector"):
    """Coerce ``x`` to a contiguous 1-D float64 array, rejecting NaN/Inf.

    Used at public boundaries; internal code passes arrays through
    unchecked.
    """
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if not np.isfinite(v).all():
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
    """Euclidean norm of the flattened array.

    The same sum of squares ``np.linalg.norm`` forms, without its
    dispatch on ``ord`` and ``axis``.  The solvers call it a few times per
    cycle or restart (the seed, ||rhs||, the restart's residual), never
    per inner step: the steps and the cycle form their norms in C.
    """
    v = np.asarray(v, dtype=np.float64).ravel(order="K")
    return math.sqrt(v.dot(v))


def _readonly(a):
    a.flags.writeable = False
    return a


def _held(name):
    """A read-only attribute over the array ``_<name>`` that construction
    checked and stored.  The products' descriptor holds that array from
    the first product on, so the attribute cannot be pointed at another:
    products, norms and writers all read one A."""
    return property(operator.attrgetter("_" + name),
                    doc=f"``{name}``, read-only: the array construction "
                        f"checked.")


def aligned_empty(shape):
    """A new C-contiguous float64 array of ``shape`` whose first entry
    starts a 64-byte cache line; numpy aligns its arrays to 16 bytes
    only.  The dense products (OpenBLAS's ``dgemv``) run ~20% faster over
    a block that starts 32-byte aligned, with the same bits: one A v plus
    one A'u of a 300 x 300 block took 23 us at offsets 0 and 32 of a
    cache line and 27-39 us at 8, 16 and 48, on a Xeon with AVX-512."""
    size = math.prod(shape)
    buf = np.empty(size + 8)
    start = (-buf.ctypes.data % 64) // 8
    return buf[start:start + size].reshape(shape)


_INDEX_MAX = int(np.iinfo(np.int32).max)  # largest size an int32 index holds


def _unshared(values):
    """``values`` as a contiguous float64 array that shares no memory with
    the caller's array, which stays theirs and writable."""
    vals = np.ascontiguousarray(values, dtype=np.float64)
    if isinstance(values, np.ndarray) and np.may_share_memory(vals, values):
        vals = vals.copy()
    return vals


def _check_sizes(nrows, ncols, nnz):
    """Refuse sizes that int32 indices and offsets cannot hold, before
    any size-dependent array is built."""
    for name, size in (("nrows", nrows), ("ncols", ncols), ("nnz", nnz)):
        if size > _INDEX_MAX:
            raise ValueError(f"{name} = {size} exceeds the int32 index "
                             f"limit {_INDEX_MAX}")


class LinearOperator:
    """Square-or-rectangular real matrix supporting y = A x and z = A' u.

    Concrete storage is either :class:`CsrMatrix` or :class:`DenseMatrix`.
    """

    nrows = 0
    ncols = 0

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @classmethod
    def _adopt(cls, *args):
        """The operator over arrays its caller gives up: the library's own
        constructors, which drop their array once the operator holds it.
        A contiguous float64 ``values`` array is stored and made read-only
        without the copy that ``__init__`` makes of a caller's array."""
        op = cls.__new__(cls)
        op._store(*args)
        return op

    @property
    def _operator(self):
        """The C descriptor of both products (``oaplib._kernels``), built
        on the first product of either kind and kept."""
        raise NotImplementedError

    def apply(self, v):
        """A v, as a new array."""
        return self._product(0, v, self.ncols, self.nrows, "apply")

    def apply_transpose(self, u):
        """A' u, as a new array."""
        return self._product(1, u, self.nrows, self.ncols, "apply_transpose")

    # The kernel reads x unchecked: ``_check_apply`` is its guard.
    def _product(self, transpose, x, in_len, out_len, name):
        """A x (``transpose`` 0) or A'x (1) of x (``in_len`` entries), as a
        new array of ``out_len`` entries."""
        x = self._check_apply(x, in_len, name)
        out = np.empty(out_len)
        _kernels.product(self._operator, transpose, x, out)
        return out

    def rows_dense(self, start, stop):
        """Rows ``start:stop`` as a dense (stop-start) x ncols array."""
        raise NotImplementedError

    def to_dense(self):
        """The whole operator as a dense nrows x ncols array."""
        return self.rows_dense(0, self.nrows)

    def frobenius_norm(self):
        """Frobenius norm, computed once and cached (breakdown scale)."""
        cached = getattr(self, "_fro", None)
        if cached is None:
            cached = self._fro = float(np.linalg.norm(self.values))
        return cached

    def _check_rows(self, start, stop):
        if not 0 <= start <= stop <= self.nrows:
            raise IndexError(f"rows {start}:{stop} not within 0:{self.nrows}")

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
    also rules out duplicates).  Construction checks all of this on the
    indices read as int64, and only then stores ``row_offsets``,
    ``col_indices`` and, later, the product layout's indices as int32.
    The stored arrays are the operator's own: a caller's ``values`` array
    is copied, not shared and marked read-only.
    """

    def __init__(self, nrows, ncols, row_offsets, col_indices, values):
        self._store(nrows, ncols, row_offsets, col_indices, _unshared(values))

    def _store(self, nrows, ncols, row_offsets, col_indices, values):
        self.nrows = int(nrows)
        self.ncols = int(ncols)
        vals = np.ascontiguousarray(values, dtype=np.float64)
        _check_sizes(self.nrows, self.ncols, len(vals))
        off = np.ascontiguousarray(row_offsets, dtype=np.int64)
        cols = np.ascontiguousarray(col_indices, dtype=np.int64)
        self._validate(off, cols, vals)
        # every offset lies in 0..nnz and every index in 0..ncols-1 now,
        # so narrowing changes no value
        self._row_offsets = _readonly(off.astype(np.int32))
        self._col_indices = _readonly(cols.astype(np.int32))
        self._values = _readonly(vals)

    row_offsets = _held("row_offsets")
    col_indices = _held("col_indices")
    values = _held("values")

    def _validate(self, off, cols, vals):
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
        """Build from unordered triplets; duplicates are rejected.

        Triplets already in strictly increasing row-major order, as the
        Matrix Market writer and ``from_dense`` produce them, are taken
        as they are; any other order is sorted first.
        """
        return cls._from_coo(nrows, ncols, rows, cols, values, adopt=False)

    @classmethod
    def _from_coo(cls, nrows, ncols, rows, cols, values, adopt):
        """``from_coo``; ``adopt`` says that the caller gives ``values`` up
        (see ``_adopt``)."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=np.float64)
        if not len(rows) == len(cols) == len(values):
            raise ValueError("rows, cols and values differ in length")
        _check_sizes(int(nrows), int(ncols), len(values))
        if len(rows) and (rows.min() < 0 or rows.max() >= nrows):
            raise ValueError("row index out of range")
        if not _strictly_row_major(rows, cols):
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            adopt = True  # the sorted copy is this call's own
            if np.any((np.diff(rows) == 0) & (np.diff(cols) == 0)):
                raise ValueError("duplicate (row, col) entries")
        offsets = np.zeros(nrows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nrows), out=offsets[1:])
        build = cls._adopt if adopt else cls
        return build(nrows, ncols, offsets, cols, values)

    @classmethod
    def from_dense(cls, array):
        array = np.asarray(array, dtype=np.float64)
        rows, cols = np.nonzero(array)
        return cls._from_coo(array.shape[0], array.shape[1], rows, cols,
                             array[rows, cols], adopt=True)

    @classmethod
    def identity(cls, n):
        idx = np.arange(n, dtype=np.int64)
        return cls._adopt(n, n, np.arange(n + 1, dtype=np.int64), idx,
                          np.ones(n))

    # picked on the first product, not at construction: the Matrix
    # Market reader builds operators that see no product
    @functools.cached_property
    def _operator(self):
        """The DIA descriptor when ``_diagonals`` builds one, else the CSR
        one over the operator's own arrays."""
        dia = self._diagonals()
        if dia is not None:
            return _kernels.banded(self.nrows, self.ncols, *dia)
        return _kernels.csr(self.nrows, self.ncols, self.row_offsets,
                            self.col_indices, self.values)

    def _diagonals(self):
        """Read-only DIA arrays ``(offsets, data)`` of A, which both
        products read, or None when they would read more bytes per product
        than the CSR arrays: 8 d max(nrows, ncols) > 12 nnz for d distinct
        diagonals.  Offsets ascend; ``data[i, c]`` holds A[c - k, c] for
        offset k = ``offsets[i]``, zero where A has no entry, as scipy's
        ``dia_matvec`` reads it."""
        n, m, nnz = self.nrows, self.ncols, self.nnz
        width = 8 * max(n, m)  # bytes per diagonal
        if nnz:
            limit = 12 * nnz // width  # the most diagonals the rule allows
            # a block of entries has no more distinct diagonals than the
            # whole, so a first block with more than the limit refuses
            # before the whole count: at most 8 entries per allowed one
            head = min(nnz, 8 * (limit + 1))
            rows = np.searchsorted(self.row_offsets,  # both int32: no copy
                                   np.arange(head, dtype=np.int32),
                                   side="right") - 1
            if (limit == 0 or
                    len(np.unique(self.col_indices[:head] - rows)) > limit):
                return None
        # col - row + n lies in 1..n+m-1; int32 unless that overflows
        index = np.int32 if n + m <= _INDEX_MAX else np.int64
        diag = self.col_indices - np.repeat(np.arange(n, dtype=index),
                                            np.diff(self.row_offsets))
        diag += n
        counts = np.bincount(diag)  # at most n + m <= 3 nnz counts
        present = np.flatnonzero(counts)
        d = len(present)
        if width * d > 12 * nnz:
            return None
        start = np.zeros(len(counts), dtype=np.int64)  # first flat slot
        start[present] = np.arange(d) * m
        flat = start[diag]
        flat += self.col_indices
        data = np.zeros((d, m))
        np.put(data, flat, self.values)
        return _readonly((present - n).astype(np.int32)), _readonly(data)

    # in the class's own namespace, where the benchmark's tracer wraps them
    apply = LinearOperator.apply
    apply_transpose = LinearOperator.apply_transpose

    def rows_dense(self, start, stop):
        # one scatter; rows hold no duplicate columns, so no entry is summed
        self._check_rows(start, stop)
        offsets = self.row_offsets[start:stop + 1]
        rows = np.repeat(np.arange(stop - start, dtype=np.int64),
                         np.diff(offsets))
        out = np.zeros((stop - start, self.ncols))
        lo, hi = offsets[0], offsets[-1]
        out[rows, self.col_indices[lo:hi]] = self.values[lo:hi]
        return out

    def __repr__(self):
        return f"CsrMatrix({self.nrows}x{self.ncols}, nnz={self.nnz})"


def _strictly_row_major(rows, cols):
    """Whether each (row, col) pair follows the one before it in strictly
    increasing row-major order, which also rules out duplicates.  A
    function of its own, so that its temporaries are freed before the
    caller builds the matrix."""
    dr = np.diff(rows)
    return bool(np.all((dr > 0) | ((dr == 0) & (np.diff(cols) > 0))))


class DenseMatrix(LinearOperator):
    """Row-major dense matrix; a caller's ``values`` array is copied, not
    shared and marked read-only."""

    def __init__(self, values):
        self._store(_unshared(values))

    def _store(self, values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"dense values must be 2-D, got shape {values.shape}")
        if not np.all(np.isfinite(values)):
            raise NonFiniteVector("dense values contain non-finite entries")
        self._values = _readonly(values)
        self.nrows, self.ncols = values.shape

    values = _held("values")

    @functools.cached_property
    def _operator(self):
        return _kernels.dense(self.values)

    apply = LinearOperator.apply
    apply_transpose = LinearOperator.apply_transpose

    def rows_dense(self, start, stop):
        self._check_rows(start, stop)
        return self.values[start:stop].copy()

    def __repr__(self):
        return f"DenseMatrix({self.nrows}x{self.ncols})"
