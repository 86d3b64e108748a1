import numpy as np
import pytest
import scipy.sparse

import oaplib
import oaplib._kernels
import oaplib.linalg
from oaplib import (CsrMatrix, DenseMatrix, DimensionMismatch,
                    NonFiniteVector, as_vector, backend_name, dot,
                    gen_convdiff2d, gen_poisson_lshape, gen_random_dense,
                    gen_tridiag_unsym, norm2, read_matrix_market,
                    write_matrix_market)

from conftest import (bincount_apply, bincount_apply_transpose,
                      random_sparse, run_python, traced_kept, traced_peak)


# the name of each product of each layout, as ``ProductSpy`` records it
PRODUCT_NAMES = {("banded", 0): "dia_matvec", ("banded", 1): "dia_matvec A'",
                 ("csr", 0): "csr_matvec", ("csr", 1): "csc_matvec",
                 ("dense", 0): "gemv", ("dense", 1): "gemv A'"}


def layout_name(op):
    """"banded", "csr" or "dense": the layout of the descriptor ``op``."""
    lib = oaplib._kernels.lib
    return {lib.OAP_BANDED: "banded", lib.OAP_CSR: "csr",
            lib.OAP_DENSE: "dense"}[op.layout]


class ProductSpy:
    """Stands in for ``oaplib._kernels.product``: records each product as
    ``(name, descriptor)`` and, while ``run`` is set, runs the real one
    on its arguments."""

    def __init__(self, real):
        self.real = real
        self.calls = []
        self.run = True

    def __call__(self, op, transpose, x, y):
        self.calls.append((PRODUCT_NAMES[layout_name(op), transpose], op))
        if self.run:
            self.real(op, transpose, x, y)


@pytest.fixture
def kernels(monkeypatch):
    spy = ProductSpy(oaplib._kernels.product)
    monkeypatch.setattr(oaplib._kernels, "product", spy)
    return spy


class TestApply:
    @pytest.mark.parametrize("make, product, x, want", [
        (lambda: CsrMatrix.identity(3), "apply", [1.0, 2.0, 3.0],
         [1.0, 2.0, 3.0]),
        (lambda: CsrMatrix.identity(2), "apply_transpose", [4.0, 5.0],
         [4.0, 5.0]),
        # a column and a row of [[1, 1], [0, 1]] read off
        (lambda: DenseMatrix([[1.0, 1.0], [0.0, 1.0]]), "apply", [1.0, 0.0],
         [1.0, 0.0]),
        (lambda: DenseMatrix([[1.0, 1.0], [0.0, 1.0]]), "apply_transpose",
         [1.0, 0.0], [1.0, 1.0])],
        ids=["identity 3", "identity 2 A'", "dense column", "dense row"])
    def test_hand_products(self, make, product, x, want):
        np.testing.assert_array_equal(getattr(make(), product)(x), want)

    def test_tridiag_stencil_hand_expansion(self):
        A = gen_tridiag_unsym(3).A
        got = A.apply(np.ones(3))
        np.testing.assert_allclose(got, [0.9, -0.1, 1.0], atol=1e-15)
        # cross-check against the dense representation
        np.testing.assert_allclose(got, A.to_dense() @ np.ones(3), atol=1e-15)

    def test_empty_rows_and_columns(self):
        # row 1 empty; column 0 never referenced by the transpose scatter
        A = CsrMatrix(3, 3, [0, 1, 1, 2], [1, 2], [4.0, 9.0])
        x = np.array([1.0, 2.0, 3.0])
        np.testing.assert_array_equal(A.apply(x), [8.0, 0.0, 27.0])
        np.testing.assert_array_equal(A.apply_transpose(x), [0.0, 4.0, 27.0])
        # 4x5: the trailing row and column are empty, so both outputs
        # get their full length only from the kernels' minlength
        A = CsrMatrix(4, 5, [0, 2, 2, 4, 4], [0, 2, 1, 3], [1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(A.apply([1.0, 2.0, 3.0, 4.0, 5.0]),
                                      [7.0, 0.0, 22.0, 0.0])
        np.testing.assert_array_equal(A.apply_transpose([1.0, 2.0, 3.0, 4.0]),
                                      [1.0, 9.0, 2.0, 12.0, 0.0])

    def test_adjoint_identity_random_csr(self, rng):
        A = random_sparse(rng, 8)
        bound = 1e-13
        for _ in range(10):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            lhs = dot(A.apply_transpose(u), v)
            rhs = dot(u, A.apply(v))
            assert abs(lhs - rhs) <= bound * max(abs(lhs), abs(rhs), 1.0)


class TestVectorOps:
    @pytest.mark.parametrize("value, want", [
        (lambda: dot([1.0, 0.0], [0.0, 1.0]), 0.0),
        (lambda: dot([1.0, 2.0], [3.0, 4.0]), 11.0),
        (lambda: norm2([0.0, 0.0, 0.0]), 0.0),
        (lambda: norm2([3.0, 4.0]), 5.0)],
        ids=["dot orthogonal", "dot", "norm of zero", "norm 3-4-5"])
    def test_by_hand(self, value, want):
        assert value() == want

    def test_dot_norm_consistency(self, rng):
        v = rng.standard_normal(40)
        assert dot(v, v) == pytest.approx(norm2(v) ** 2, rel=1e-15)

    def test_dot_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot([1.0], [1.0, 2.0])

    def test_norm_homogeneity(self, rng):
        v = rng.standard_normal(25)
        for t in (-3.5, 0.25, 1e8):
            assert norm2(t * v) == pytest.approx(abs(t) * norm2(v), rel=1e-15)

    def test_as_vector_rejects_nan(self):
        with pytest.raises(NonFiniteVector):
            as_vector([1.0, np.nan])


class TestValidation:
    # name -> (construction, error, message)
    REFUSED = {
        "offsets start": (lambda: CsrMatrix(2, 2, [1, 1, 2], [0, 1],
                                            [1.0, 1.0]), ValueError, None),
        "decreasing offsets": (lambda: CsrMatrix(2, 2, [0, 2, 1], [0, 1],
                                                 [1.0, 1.0]), ValueError, None),
        "column out of range": (lambda: CsrMatrix(2, 2, [0, 1, 2], [0, 2],
                                                  [1.0, 1.0]), ValueError, None),
        "duplicate columns in a row": (lambda: CsrMatrix(
            1, 3, [0, 2], [1, 1], [1.0, 2.0]), ValueError, None),
        "unsorted columns in a row": (lambda: CsrMatrix(
            1, 3, [0, 2], [2, 0], [1.0, 2.0]), ValueError, None),
        "from_coo duplicates": (lambda: CsrMatrix.from_coo(
            2, 2, [0, 0], [1, 1], [1.0, 2.0]), ValueError, None),
        # np.add.at would wrap -2 to row 0 and place the entry in row 1
        "from_coo negative row": (lambda: CsrMatrix.from_coo(
            2, 2, [-2], [0], [1.0]), ValueError, "row index out of range"),
        "from_coo row past the end": (lambda: CsrMatrix.from_coo(
            2, 2, [2], [0], [1.0]), ValueError, "row index out of range"),
        "from_coo lengths differ": (lambda: CsrMatrix.from_coo(
            2, 2, [0, 1], [0], [1.0]), ValueError, "differ in length"),
        "negative dimensions": (lambda: CsrMatrix(-1, 2, [0], [], []),
                                ValueError, "negative dimensions"),
        "offsets of another length": (lambda: CsrMatrix(2, 2, [0, 1], [0],
                                                        [1.0]),
                                      ValueError, "row_offsets length"),
        "CSR non-finite value": (lambda: CsrMatrix(1, 1, [0, 1], [0],
                                                   [np.nan]),
                                 NonFiniteVector, None),
        "dense values not 2-D": (lambda: DenseMatrix(np.ones(3)), ValueError,
                                 "must be 2-D"),
        "dense non-finite value": (lambda: DenseMatrix([[np.nan]]),
                                   NonFiniteVector, None),
    }

    @pytest.mark.parametrize("case", REFUSED)
    def test_refused(self, case):
        make, error, message = self.REFUSED[case]
        with pytest.raises(error, match=message):
            make()

    def test_empty_rows_allowed(self):
        A = CsrMatrix(3, 3, [0, 1, 1, 2], [0, 2], [5.0, 7.0])
        np.testing.assert_array_equal(A.apply([1.0, 1.0, 1.0]), [5.0, 0.0, 7.0])


def coo_of(A):
    """(rows, cols, values) of ``A``'s entries in row-major order."""
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_offsets))
    return rows, A.col_indices.astype(np.int64), A.values.copy()


def read_back(A, tmp_path):
    path = tmp_path / "a.mtx"
    write_matrix_market(path, A)
    return read_matrix_market(path)


class TestInt32Indices:
    """Indices are checked as given and only then stored as int32."""

    def test_index_past_int32_is_refused_not_wrapped(self):
        # narrowed first, 2**32 + 1 would read as column 1 of 4
        with pytest.raises(ValueError, match="column index out of range"):
            CsrMatrix(2, 4, [0, 1, 1], [2**32 + 1], [1.0])

    def test_offset_past_int32_is_refused_not_wrapped(self):
        # narrowed first, the middle offset would read as 1
        with pytest.raises(ValueError, match="non-decreasing"):
            CsrMatrix(2, 2, [0, 2**32 + 1, 1], [0], [1.0])

    def test_ncols_past_int32_is_refused(self):
        # only ncols: a missed check on nrows would allocate nrows offsets
        with pytest.raises(ValueError, match="ncols"):
            CsrMatrix(2, 2**31, [0, 0, 0], [], [])
        with pytest.raises(ValueError, match="ncols"):
            CsrMatrix.from_coo(2, 2**31, [], [], [])

    def test_largest_int32_column_is_kept_exactly(self):
        A = CsrMatrix(1, 2**31 - 1, [0, 1], [2**31 - 2], [3.0])
        assert A.col_indices.dtype == np.int32
        assert A.col_indices.tolist() == [2**31 - 2]

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_caller_index_arrays_are_copied(self, dtype):
        off = np.array([0, 1, 2], dtype=dtype)
        cols = np.array([1, 0], dtype=dtype)
        A = CsrMatrix(2, 2, off, cols, [1.0, 2.0])
        assert off.flags.writeable and cols.flags.writeable
        assert not np.shares_memory(A.col_indices, cols)
        assert not np.shares_memory(A.row_offsets, off)

    @pytest.mark.parametrize("view", [False, True])
    def test_caller_values_array_stays_the_callers(self, view):
        base = np.array([0.0, 1.0, 2.0])
        vals = base[1:] if view else np.array([1.0, 2.0])
        A = CsrMatrix(2, 2, [0, 1, 2], [0, 1], vals)
        vals[0] = 5.0  # raised when the array itself was stored
        assert A.values.tolist() == [1.0, 2.0]
        assert not A.values.flags.writeable

    CONSTRUCTIONS = {
        "constructor": lambda _: CsrMatrix(
            3, 4, [0, 2, 2, 3], [0, 3, 1], [1.0, 2.0, 3.0]),
        "from_coo sorted": lambda _: CsrMatrix.from_coo(
            3, 4, [0, 0, 2], [0, 3, 1], [1.0, 2.0, 3.0]),
        "from_coo shuffled": lambda _: CsrMatrix.from_coo(
            3, 4, [2, 0, 0], [1, 3, 0], [3.0, 2.0, 1.0]),
        "from_dense": lambda _: CsrMatrix.from_dense(
            [[1.0, 0.0, 0.0, 2.0], [0.0] * 4, [0.0, 3.0, 0.0, 0.0]]),
        "identity": lambda _: CsrMatrix.identity(5),
        "convdiff2d": lambda _: gen_convdiff2d(4, 3).A,
        "poisson-lshape": lambda _: gen_poisson_lshape(4).A,
        "tridiag-unsym": lambda _: gen_tridiag_unsym(6).A,
        "read_matrix_market": lambda tmp: read_back(gen_convdiff2d(4, 3).A,
                                                    tmp),
    }

    @pytest.mark.parametrize("path", CONSTRUCTIONS)
    def test_every_construction_path_stores_int32(self, path, tmp_path):
        A = self.CONSTRUCTIONS[path](tmp_path)
        op = A._operator  # picks the layout: CSR arrays, or DIA arrays
        if kernels_of(A) == DIA:
            # A's offsets, read through the descriptor from the
            # read-only int32 array that _diagonals builds
            offsets, data = A._diagonals()
            assert c_bytes(op.offsets, offsets) == offsets.tobytes()
            stored = [offsets, data]
        else:  # A's own arrays, read in place by both products
            stored = [A.row_offsets, A.col_indices, A.values]
            assert [address(op.row_offsets), address(op.col_indices),
                    address(op.values)] == [data_address(a) for a in stored]
        indices = [a for a in stored if a.dtype != np.float64]
        assert len(indices) == (1 if kernels_of(A) == DIA else 2)
        for a in [A.row_offsets, A.col_indices] + indices:
            assert a.dtype == np.int32 and not a.flags.writeable
        assert not any(a.flags.writeable for a in stored)

    def test_sorted_triplets_with_a_duplicate_are_refused(self):
        with pytest.raises(ValueError, match="duplicate"):
            CsrMatrix.from_coo(2, 3, [0, 0, 1], [1, 1, 2], [1.0, 2.0, 3.0])

    def test_shuffled_triplets_give_the_same_arrays(self, rng, monkeypatch):
        A = gen_convdiff2d(19, 19).A
        rows, cols, values = coo_of(A)
        sorts = []
        lexsort = np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: sorts.append(1) or lexsort(keys))
        in_order = CsrMatrix.from_coo(A.nrows, A.ncols, rows, cols, values)
        assert not sorts  # row-major triplets are taken as they are
        perm = rng.permutation(A.nnz)
        shuffled = CsrMatrix.from_coo(A.nrows, A.ncols, rows[perm], cols[perm],
                                      values[perm])
        assert sorts == [1]
        for B in (in_order, shuffled):
            for got, want in ((B.row_offsets, A.row_offsets),
                              (B.col_indices, A.col_indices),
                              (B.values, A.values)):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()


class TestRepresentationEquivalence:
    def test_csr_vs_dense_apply(self, rng):
        for _ in range(5):
            A = random_sparse(rng, 20)
            D = DenseMatrix(A.to_dense())
            v = rng.standard_normal(20)
            got, want = A.apply(v), D.apply(v)
            np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)
            u = rng.standard_normal(20)
            np.testing.assert_allclose(A.apply_transpose(u), D.apply_transpose(u),
                                       rtol=1e-13, atol=1e-13)

    def test_immutable_after_construction(self):
        A = CsrMatrix.identity(2)
        with pytest.raises(ValueError):
            A.values[0] = 2.0
        D = DenseMatrix(np.eye(2))
        with pytest.raises(ValueError):
            D.values[0, 0] = 2.0

    @pytest.mark.parametrize("make, names", [
        (lambda: CsrMatrix.identity(2),
         ["values", "col_indices", "row_offsets"]),
        (lambda: DenseMatrix(np.eye(2)), ["values"])],
        ids=["csr", "dense"])
    def test_arrays_cannot_be_reassigned(self, make, names):
        # the products' descriptor holds the arrays of the first product:
        # a reassigned attribute would leave the norms and the writers
        # reading another A than the products
        A = make()
        A.apply(np.ones(2))
        for name in names:
            stored = getattr(A, name)
            with pytest.raises(AttributeError):
                setattr(A, name, stored.copy())
            assert getattr(A, name) is stored

    def test_frobenius_cached(self, rng, monkeypatch):
        A = random_sparse(rng, 10)
        want = np.linalg.norm(A.to_dense())
        norms = []

        def counted(a, *args, **kwargs):
            norms.append(a)
            return norm(a, *args, **kwargs)

        norm = np.linalg.norm
        monkeypatch.setattr(np.linalg, "norm", counted)
        first = A.frobenius_norm()
        assert first == pytest.approx(want, rel=1e-14)
        # the second call reads the cache: no norm is computed again
        assert A.frobenius_norm() == first
        assert len(norms) == 1 and norms[0] is A.values

    def test_row_extraction(self, rng):
        A = random_sparse(rng, 9)
        D = A.to_dense()
        for i in (0, 4, 8):
            np.testing.assert_array_equal(A.rows_dense(i, i + 1), D[i:i + 1])
        np.testing.assert_array_equal(A.rows_dense(2, 5), D[2:5])

    @pytest.mark.parametrize("kind", ["csr", "dense"])
    def test_row_indices_checked(self, rng, kind):
        A = random_sparse(rng, 9)
        if kind == "dense":
            A = DenseMatrix(A.to_dense())
        # (-1, 2) and (9, 10) reach the rows -1 and 9
        for start, stop in ((-1, 2), (5, 12), (4, 3), (9, 10)):
            with pytest.raises(IndexError):
                A.rows_dense(start, stop)
        assert A.rows_dense(9, 9).shape == (0, 9)

    def test_rows_dense_matches_dense_literal(self):
        # 6x4 with empty rows 0, 3 and 5
        A = CsrMatrix(6, 4, [0, 0, 2, 3, 3, 5, 5], [0, 3, 1, 2, 3],
                      [1.0, -2.0, 3.0, 4.0, 5.0])
        D = np.array([[0.0, 0.0, 0.0, 0.0],
                      [1.0, 0.0, 0.0, -2.0],
                      [0.0, 3.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 0.0],
                      [0.0, 0.0, 4.0, 5.0],
                      [0.0, 0.0, 0.0, 0.0]])
        for start in range(6):
            for stop in range(start + 1, 7):
                np.testing.assert_array_equal(A.rows_dense(start, stop),
                                              D[start:stop])


# the (A v, A'u) products of each layout
CSR = (PRODUCT_NAMES["csr", 0], PRODUCT_NAMES["csr", 1])
DIA = (PRODUCT_NAMES["banded", 0], PRODUCT_NAMES["banded", 1])


def kernels_of(A):
    """Names of the (A v, A'u) products of the layout ``A`` picked."""
    name = layout_name(A._operator)
    return (PRODUCT_NAMES[name, 0], PRODUCT_NAMES[name, 1])


def address(ptr):
    """The address a C pointer of a descriptor holds."""
    return int(oaplib._kernels.ffi.cast("uintptr_t", ptr))


def data_address(a):
    return a.__array_interface__["data"][0]


def c_bytes(ptr, like):
    """The bytes at the C pointer ``ptr``, as many as the array ``like``
    holds."""
    return bytes(oaplib._kernels.ffi.buffer(ptr, like.nbytes))


def banded(nrows, ncols, offsets, seed=3):
    """Dense array with random entries on the given diagonals; every 7th
    slot of the array is zeroed, so the band holds zeros."""
    rng = np.random.Generator(np.random.PCG64(seed))
    dense = np.zeros((nrows, ncols))
    for k in offsets:
        i = np.arange(max(0, -k), min(nrows, ncols - k))
        dense[i, i + k] = rng.uniform(1.0, 2.0, len(i)) * rng.choice([-1, 1],
                                                                    len(i))
    dense.flat[::7] = 0.0
    return dense


def three_band(entries):
    """6x6 with the given slots of the main, super- and first sub-diagonal
    filled: three diagonals, so DIA reads 8 * 3 * 6 = 144 bytes."""
    dense = np.zeros((6, 6))
    rows, cols = zip(*entries)
    dense[rows, cols] = np.arange(1.0, len(entries) + 1)
    return CsrMatrix.from_dense(dense)


def empty_row_and_column():
    dense = banded(30, 30, (-1, 0, 1))
    dense[3, :] = 0.0
    dense[:, 5] = 0.0
    return CsrMatrix.from_dense(dense)


def striped(nrows, per_row, seed, banded_rows=0):
    """nrows x nrows with one entry per row in each of ``per_row`` column
    stripes, at a random column: scattered diagonals.  The first
    ``banded_rows`` rows hold the tridiagonal band instead."""
    rng = np.random.Generator(np.random.PCG64(seed))
    width = nrows // per_row
    cols = rng.integers(0, width, (nrows, per_row)) + np.arange(per_row) * width
    rows = np.repeat(np.arange(nrows), per_row)
    keep = rows >= banded_rows
    i = np.arange(banded_rows)
    band = np.stack([i - 1, i, i + 1], axis=1)
    inside = (band >= 0) & (band < nrows)
    rows = np.concatenate([np.repeat(i, 3)[inside.ravel()], rows[keep]])
    cols = np.concatenate([band[inside], cols.ravel()[keep]])
    return CsrMatrix.from_coo(nrows, nrows, rows, cols,
                              rng.standard_normal(len(rows)))


AT_RULE = [(i, i) for i in range(6)] + [(i, i + 1) for i in range(5)] + [(1, 0)]

# name -> (operator, the layout it picks)
OPERATORS = {
    # grid-row ends leave zeros in the +-1 diagonals
    "convdiff 7x5": (lambda: gen_convdiff2d(7, 5).A, DIA),
    "convdiff 60x60": (lambda: gen_convdiff2d(60, 60).A, DIA),
    "poisson-lshape m9": (lambda: gen_poisson_lshape(9).A, DIA),  # d = 7
    "poisson-lshape m5": (lambda: gen_poisson_lshape(5).A, CSR),  # d = 7
    "tridiag-unsym 6": (lambda: gen_tridiag_unsym(6).A, DIA),
    "identity 5": (lambda: CsrMatrix.identity(5), DIA),
    # roap2 takes rectangular A: both shapes of one band
    "banded 40x44": (lambda: CsrMatrix.from_dense(banded(40, 44, range(-3, 4))),
                     DIA),
    "banded 44x40": (lambda: CsrMatrix.from_dense(
        banded(40, 44, range(-3, 4)).T), DIA),
    "banded, empty row and column": (empty_row_and_column, DIA),
    "4x5, empty trailing row and column": (lambda: CsrMatrix(
        4, 5, [0, 2, 2, 4, 4], [0, 2, 1, 3], [1.0, 2.0, 3.0, 4.0]), CSR),
    "scattered 7x11": (lambda: CsrMatrix.from_dense(
        np.where(np.arange(77).reshape(7, 11) % 4 == 1,
                 np.arange(77.0).reshape(7, 11), 0.0)), CSR),
    "nnz 0, 3x4": (lambda: CsrMatrix(3, 4, [0, 0, 0, 0], [], []), DIA),
    "nnz 0, 0x3": (lambda: CsrMatrix(0, 3, [0], [], []), DIA),
    "nnz 0, 3x0": (lambda: CsrMatrix(3, 0, [0, 0, 0, 0], [], []), DIA),
    # 12 entries on 3 diagonals: 144 = 12 * 12 bytes, DIA just within
    "at the byte rule": (lambda: three_band(AT_RULE), DIA),
    # one entry fewer: 144 > 12 * 11, DIA just past it
    "one entry past the byte rule": (lambda: three_band(AT_RULE[1:]), CSR),
}


def build(name):
    return OPERATORS[name][0]()


def no_diagonals(monkeypatch):
    """Every operator keeps the CSR layout."""
    monkeypatch.setattr(CsrMatrix, "_diagonals", lambda self: None)


def counted_diagonals(monkeypatch):
    """A list that gains an entry each time a DIA layout is considered."""
    built = []
    diagonals = CsrMatrix._diagonals
    monkeypatch.setattr(CsrMatrix, "_diagonals",
                        lambda self: built.append(1) or diagonals(self))
    return built


class TestProductLayouts:
    """Each operator picks its product layout on its first product of
    either kind: DIA arrays for both products when they read no more
    bytes than CSR, else its own CSR arrays; its C descriptor
    (``oaplib._kernels``) holds them, and every product runs over it.
    The NumPy ``bincount`` kernels in conftest are the reference of both,
    and scipy's ``todia`` the oracle of the DIA arrays (scipy's kernels
    are the products' oracles in ``tests/test_kernels.py``)."""

    @staticmethod
    def operators():
        return [build("4x5, empty trailing row and column"),
                gen_convdiff2d(19, 19).A, gen_convdiff2d(60, 60).A]

    @pytest.mark.parametrize("layout", ["picked", "csr"])
    @pytest.mark.parametrize("name", OPERATORS)
    def test_bit_identical_to_bincount_kernels(self, rng, monkeypatch, name,
                                               layout):
        want = OPERATORS[name][1]
        if layout == "csr":
            no_diagonals(monkeypatch)
            want = CSR
        A = build(name)
        for _ in range(3):
            v = rng.standard_normal(A.ncols)
            u = rng.standard_normal(A.nrows)
            atu = bincount_apply_transpose(A, u).tobytes()
            assert A.apply_transpose(u).tobytes() == atu
            assert A.apply(v).tobytes() == bincount_apply(A, v).tobytes()
            assert A.apply_transpose(u).tobytes() == atu
        assert kernels_of(A) == want

    @pytest.mark.parametrize("layout", ["strided", "int", "list"])
    @pytest.mark.parametrize("product", ["apply", "apply_transpose"])
    def test_coerced_input_matches_contiguous_float64(self, rng, product,
                                                      layout):
        for A in self.operators():
            n = A.ncols if product == "apply" else A.nrows
            x = (rng.integers(-9, 10, n) if layout == "int"
                 else rng.standard_normal(n))
            given = {"strided": np.repeat(x, 2)[::2], "int": x,
                     "list": x.tolist()}[layout]
            want = getattr(A, product)(np.array(x, dtype=np.float64))
            assert getattr(A, product)(given).tobytes() == want.tobytes()

    @staticmethod
    def assert_reads_own_csr_arrays(A, op):
        """The descriptor points at A's own CSR arrays, not copies."""
        assert (op.nrows, op.ncols) == (A.nrows, A.ncols)
        assert [address(op.row_offsets), address(op.col_indices),
                address(op.values)] == [data_address(a) for a in (
                    A.row_offsets, A.col_indices, A.values)]

    @pytest.mark.parametrize("name", ["scattered 7x11", "convdiff 7x5",
                                      "banded 40x44"])
    def test_products_read_the_layout_arrays(self, kernels, name):
        A = build(name)
        A.apply(np.ones(A.ncols))
        A.apply_transpose(np.ones(A.nrows))
        A.apply(np.ones(A.ncols))
        (n1, op1), (n2, op2), (n3, op3) = kernels.calls
        layout = OPERATORS[name][1]
        assert (n1, n2, n3) == (layout[0], layout[1], layout[0])
        # one descriptor, built once, read by every product
        assert op1 is op2 is op3 is A._operator
        if layout == CSR:
            self.assert_reads_own_csr_arrays(A, op1)
        else:
            # A's DIA arrays' bytes (test_dia_arrays_match_scipy), the
            # one pair both products read
            offsets, data = A._diagonals()
            assert op1.n_diags == len(offsets)
            for ptr, want in ((op1.offsets, offsets), (op1.data, data)):
                assert c_bytes(ptr, want) == want.tobytes()

    @pytest.mark.parametrize("first", ["apply", "apply_transpose"])
    def test_banded_operator_keeps_one_set_of_diagonals(self, first):
        # one-time costs of a first product anywhere (cffi's and numpy's
        # own caches) are paid on another operator first
        getattr(gen_convdiff2d(5, 4).A, first)(np.ones(20))
        A = gen_convdiff2d(200, 200).A
        y, kept = traced_kept(getattr(A, first), np.ones(A.ncols))
        # beyond its output, the first product keeps A's DIA arrays, the
        # descriptor and its two C arrays: no second set for A'u
        offsets, data = A._diagonals()
        assert kernels_of(A) == DIA
        assert kept - y.nbytes <= offsets.nbytes + data.nbytes + 2048

    @pytest.mark.parametrize("name", ["scattered 7x11", "poisson-lshape m5"])
    def test_first_transpose_product_reads_the_operators_own_arrays(
            self, monkeypatch, name):
        A = build(name)
        # the count of diagonals that refuses DIA (it has temporaries of
        # its own) is made before the measure
        dia = A._diagonals()
        assert dia is None
        monkeypatch.setattr(A, "_diagonals", lambda: dia)
        # a process's first ffi.gc (about 1.6 KB of cffi's own set-up)
        # and first oap_product call (about 0.5 KB) are paid once, on
        # another operator, before the measure
        gen_convdiff2d(5, 4).A.apply_transpose(np.ones(20))
        u = np.ones(A.nrows)
        first = traced_peak(A.apply_transpose, u)
        later = traced_peak(A.apply_transpose, u)
        # beyond its output, the first A'u allocates only the
        # descriptor and its few C arrays: no array, no copy of A
        assert first <= later + 512
        # what each product reads (test_products_read_the_layout_arrays)
        assert kernels_of(A) == CSR
        self.assert_reads_own_csr_arrays(A, A._operator)

    def test_scattered_operator_refused_on_its_first_entries(self):
        # 100,000 entries on ~100,000 diagonals, where the rule allows 7:
        # the first 64 entries already show more than 7, so the refusal
        # builds no entry-long diagonal index (400,000 bytes) and no count
        # over the 40,000 diagonals
        A = striped(20_000, 5, seed=11)
        assert traced_peak(A._diagonals) <= 16_384
        assert A._diagonals() is None
        assert kernels_of(A) == CSR

    def test_banded_first_entries_still_count_the_whole(self):
        # the first half of the rows is tridiagonal, so the first block
        # passes and the whole count refuses
        A = striped(2000, 3, seed=12, banded_rows=1000)
        limit = 12 * A.nnz // (8 * A.nrows)
        head = A.col_indices[:8 * (limit + 1)]
        assert head.max() < 8 * (limit + 1)  # the first block is banded
        assert A._diagonals() is None
        assert kernels_of(A) == CSR

    @pytest.mark.parametrize("name", ["convdiff 7x5", "banded 40x44",
                                      "banded 44x40", "poisson-lshape m9",
                                      "banded, empty row and column"])
    def test_dia_arrays_match_scipy(self, name):
        A = build(name)
        offsets, data = A._diagonals()
        op = A._operator
        # the kernel reads the bytes of these arrays, for both products
        assert op.n_diags == len(offsets)
        assert c_bytes(op.offsets, offsets) == offsets.tobytes()
        assert c_bytes(op.data, data) == data.tobytes()
        assert offsets.dtype == np.int32 and data.dtype == np.float64
        assert not (offsets.flags.writeable or data.flags.writeable)
        assert np.all(np.diff(offsets) > 0)
        want = scipy.sparse.csr_array(
            (A.values, A.col_indices, A.row_offsets), shape=A.shape).todia()
        assert offsets.tolist() == want.offsets.tolist()
        width = want.data.shape[1]  # scipy's ends at the last column used
        assert data[:, :width].tobytes() == want.data.tobytes()
        assert not data[:, width:].any()
        assert data.shape == (len(offsets), A.ncols)

    @pytest.mark.parametrize("first", ["apply", "apply_transpose"])
    @pytest.mark.parametrize("name", ["scattered 7x11", "convdiff 7x5"])
    def test_first_product_of_either_kind_picks_the_layout(
            self, kernels, monkeypatch, name, first):
        built = counted_diagonals(monkeypatch)
        A = build(name)
        assert "_operator" not in vars(A) and not built
        getattr(A, first)(np.ones(A.ncols if first == "apply" else A.nrows))
        assert "_operator" in vars(A) and built == [1]
        layout = OPERATORS[name][1]
        assert [c[0] for c in kernels.calls] == [
            layout[0] if first == "apply" else layout[1]]

    def test_generators_and_reader_build_nothing(self, tmp_path, monkeypatch):
        built = counted_diagonals(monkeypatch)
        write_matrix_market(tmp_path / "a.mtx", gen_convdiff2d(5, 4).A)
        for A in (gen_convdiff2d(5, 4).A, gen_poisson_lshape(4).A,
                  read_matrix_market(tmp_path / "a.mtx")):
            assert "_operator" not in vars(A)
        assert not built
        # a generator that forms b = A x_true picks on that one A v
        for problem in (gen_convdiff2d(5, 4, constructed=True),
                        gen_tridiag_unsym(7)):
            assert kernels_of(problem.A) == DIA
        assert built == [1, 1]

    @pytest.mark.parametrize("name", ["scattered 7x11", "convdiff 7x5"])
    def test_layout_picked_once_per_operator(self, kernels, monkeypatch,
                                             name):
        built = counted_diagonals(monkeypatch)
        A = build(name)
        for _ in range(3):
            A.apply(np.ones(A.ncols))
        for _ in range(2):
            A.apply_transpose(np.ones(A.nrows))
        A.apply(np.ones(A.ncols))
        av, atu = OPERATORS[name][1]
        names = [name for name, _ in kernels.calls]
        assert names == [av] * 3 + [atu] * 2 + [av]
        assert built == [1]

    def test_wide_sparse_operator_counts_no_diagonals(self):
        # one diagonal of 10**7 slots would read 8e7 bytes against CSR's
        # 12, so the rule refuses before a count over 10**7 diagonals
        A = CsrMatrix(1, 10**7, [0, 1], [10**7 - 1], [1.0])
        assert A._diagonals() is None
        assert traced_peak(A._diagonals) < 10**5


class TestOwnership:
    """A caller's array stays the caller's; the library's own
    constructors hand theirs over without a copy."""

    @pytest.mark.parametrize("view", [False, True])
    def test_dense_caller_array_stays_the_callers(self, view):
        a = np.arange(12.0).reshape(4, 3)[1:] if view else np.eye(2)
        want = a.copy()
        D = DenseMatrix(a)
        a[0, 0] = 3.0  # raised when the array itself was stored
        assert D.values.tobytes() == want.tobytes()
        assert a.flags.writeable and not D.values.flags.writeable

    def test_adopted_arrays_are_stored_as_given(self):
        vals = np.array([1.0, 2.0])
        A = CsrMatrix._adopt(2, 2, [0, 1, 2], [0, 1], vals)
        dense = np.eye(2)
        D = DenseMatrix._adopt(dense)
        assert A.values is vals and D.values is dense
        assert not (vals.flags.writeable or dense.flags.writeable)

    LIBRARY_PATHS = {
        "gen_random_dense": lambda tmp: gen_random_dense(6, 1).A,
        "stencil generator": lambda tmp: gen_convdiff2d(4, 3).A,
        "from_coo shuffled": lambda tmp: CsrMatrix.from_coo(
            3, 4, [2, 0, 0], [1, 3, 0], [3.0, 2.0, 1.0]),
        "from_dense": lambda tmp: CsrMatrix.from_dense(np.eye(3)),
        "identity": lambda tmp: CsrMatrix.identity(4),
        "read coordinate": lambda tmp: read_matrix_market(tmp / "a.mtx"),
        "read array": lambda tmp: read_matrix_market(tmp / "d.mtx"),
    }

    @pytest.mark.parametrize("path", LIBRARY_PATHS)
    def test_library_paths_skip_the_copy(self, path, tmp_path, monkeypatch):
        write_matrix_market(tmp_path / "a.mtx", gen_convdiff2d(4, 3).A)
        write_matrix_market(tmp_path / "d.mtx", DenseMatrix(np.eye(3)))
        copies = []
        unshared = oaplib.linalg._unshared
        monkeypatch.setattr(oaplib.linalg, "_unshared",
                            lambda values: copies.append(1) or unshared(values))
        A = self.LIBRARY_PATHS[path](tmp_path)
        assert not A.values.flags.writeable
        assert copies == []
        # the public constructors still go through the copy
        CsrMatrix.from_coo(2, 2, [0, 1], [0, 1], np.ones(2))
        DenseMatrix(np.eye(2))
        assert copies == [1, 1]


def test_import_leaves_scipy_sparse_unloaded():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oaplib; "
            "print('scipy.sparse' in sys.modules)")
    out = run_python(code)
    assert out.stdout.strip() == "False"


def test_solves_load_no_scipy():
    # every product runs in oaplib._kernels: solves over a scattered
    # (CSR layout) operator and a dense one, both engines, import no
    # scipy module at all
    code = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from oaplib import CsrMatrix, DenseMatrix, roap_solve
rng = np.random.default_rng(3)
dense = np.eye(40) * 8.0 + np.where(rng.random((40, 40)) < 0.1,
                                    rng.standard_normal((40, 40)), 0.0)
A = CsrMatrix.from_dense(dense)
layouts = []
for op in (A, DenseMatrix(dense)):
    for variant in ("roap2", "roap3"):
        _, report = roap_solve(op, np.ones(40), variant)
        assert report.termination == "converged", report
    layouts.append(int(op._operator.layout))
print(layouts, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = run_python(code)
    lib = oaplib._kernels.lib
    assert out.stdout.strip() == f"[{lib.OAP_CSR}, {lib.OAP_DENSE}] []"


def test_norm2_rounds_like_numpy_norm():
    # norm2 forms np.linalg.norm's sum of squares itself; solve outputs
    # stay bit-identical only while the two agree to the last bit
    rng = np.random.Generator(np.random.PCG64(8))
    arrays = [np.zeros(7), np.arange(12.0).reshape(3, 4),
              np.asfortranarray(rng.standard_normal((5, 3))),
              rng.standard_normal(40)[::3]]
    for _ in range(2000):
        n = int(rng.integers(1, 5001))
        arrays.append(10.0 ** rng.uniform(-150, 150) * rng.standard_normal(n))
    for v in arrays:
        assert (np.float64(norm2(v)).tobytes()
                == np.float64(np.linalg.norm(v)).tobytes())


def test_aligned_empty_starts_a_cache_line():
    # numpy aligns to 16 bytes only; each array is kept, so each has its
    # own buffer and its own offset from a cache line
    arrays = [oaplib.linalg.aligned_empty((k, 3)) for k in range(1, 33)]
    assert all(a.ctypes.data % 64 == 0 and a.shape == (k, 3)
               and a.flags.c_contiguous
               for k, a in enumerate(arrays, 1))


def test_implementation_name_is_scipy():
    assert backend_name() == "scipy"


# every OPERATORS entry, plus dense ones, square and rectangular
VECTOR_OPERATORS = {name: make for name, (make, _) in OPERATORS.items()}
VECTOR_OPERATORS.update({
    "dense 5x5": lambda: DenseMatrix(np.arange(25.0).reshape(5, 5) % 7 - 3),
    "dense 6x4": lambda: DenseMatrix(np.arange(24.0).reshape(6, 4) % 5 - 2),
    "dense 4x6": lambda: DenseMatrix(np.arange(24.0).reshape(4, 6) % 5 - 2),
    "dense 3x2": lambda: DenseMatrix(np.ones((3, 2))),
})
PRODUCTS = pytest.mark.parametrize("product", ["apply", "apply_transpose"])
# one operator of each layout, with a rectangular banded one
LAYOUT_NAMES = ["convdiff 7x5", "banded 40x44", "scattered 7x11", "dense 6x4"]
LAYOUT_OPERATORS = pytest.mark.parametrize("name", LAYOUT_NAMES)


def product_sizes(A, product):
    """(input length, output length) of ``product`` on A."""
    return (A.ncols, A.nrows) if product == "apply" else (A.nrows, A.ncols)


def vector_form(kind, x):
    """The float64 vector ``x``, of whole numbers, in another form that a
    product takes and reads as exactly these numbers."""
    if kind == "strided":
        buf = np.full(2 * len(x), np.nan)
        buf[::2] = x
        return buf[::2]
    if kind == "read-only":
        x = x.copy()
        x.flags.writeable = False
        return x
    return {"list": x.tolist, "tuple": lambda: tuple(x.tolist()),
            "float32": lambda: x.astype(np.float32),
            "int64": lambda: x.astype(np.int64),
            "big-endian": lambda: x.astype(">f8")}[kind]()


def bad_vector(kind, length):
    """A vector that a product of input ``length`` must refuse."""
    return {"short": lambda: np.ones(length - 1),
            "long": lambda: np.ones(length + 1),
            "row": lambda: np.ones((1, length)),
            "column": lambda: np.ones((length, 1)),
            "empty": lambda: np.ones(0),
            "scalar": lambda: np.float64(1.0)}[kind]()


class TestProductVector:
    """``apply(v)`` and ``apply_transpose(u)`` take one vector and return
    the product as a new float64 array that shares no memory with the
    input or with an earlier product; any array-like of the right length
    gives the bytes of its float64 copy, and a vector of the wrong shape
    is refused, naming the product, before any kernel runs."""

    @PRODUCTS
    @pytest.mark.parametrize("name", VECTOR_OPERATORS)
    def test_product_is_a_new_array(self, rng, name, product):
        A = VECTOR_OPERATORS[name]()
        n_in, n_out = product_sizes(A, product)
        x = rng.standard_normal(n_in)
        given = x.copy()
        first = getattr(A, product)(x)
        second = getattr(A, product)(x)
        for y in (first, second):
            assert y.dtype == np.float64 and y.shape == (n_out,)
            assert y.flags.c_contiguous and y.flags.writeable
            assert y.flags.owndata and not np.shares_memory(y, x)
        assert first is not second and not np.shares_memory(first, second)
        assert first.tobytes() == second.tobytes()
        assert x.tobytes() == given.tobytes()
        # a caller's write into a product changes no later one
        want = second.copy()
        first[:] = np.nan
        second[:] = np.nan
        assert getattr(A, product)(x).tobytes() == want.tobytes()
        # and it is the product: within rounding of the dense one
        D = A.to_dense() if product == "apply" else A.to_dense().T
        assert np.all(np.abs(want - D @ x) <= 1e-12 * (np.abs(D) @ np.abs(x)))

    @PRODUCTS
    @pytest.mark.parametrize("kind", ["list", "tuple", "float32", "int64",
                                      "big-endian", "strided", "read-only"])
    @LAYOUT_OPERATORS
    def test_any_form_gives_the_float64_products_bytes(self, name, product,
                                                       kind):
        A = VECTOR_OPERATORS[name]()
        n_in, _ = product_sizes(A, product)
        x = np.arange(n_in, dtype=np.float64) % 7 - 3
        want = getattr(A, product)(x)
        v = vector_form(kind, x)
        before = np.array(v).tobytes()
        assert getattr(A, product)(v).tobytes() == want.tobytes()
        assert np.array(v).tobytes() == before

    # the kernels read x unchecked, so no bad vector may reach them
    @PRODUCTS
    @pytest.mark.parametrize("kind", ["short", "long", "row", "column",
                                      "empty", "scalar"])
    @pytest.mark.parametrize("name", [
        *LAYOUT_NAMES, "4x5, empty trailing row and column", "dense 3x2"])
    def test_bad_vector_is_refused_before_any_kernel(self, kernels, name,
                                                     product, kind):
        A = VECTOR_OPERATORS[name]()
        n_in, _ = product_sizes(A, product)
        A._operator  # layout picked up front: a call recorded below is a product
        kernels.calls.clear()
        kernels.run = False  # a product that slipped through reads no memory
        with pytest.raises(DimensionMismatch, match=f"^{product}: "):
            getattr(A, product)(bad_vector(kind, n_in))
        assert kernels.calls == []
