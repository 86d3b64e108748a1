import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse

import oaplib
import oaplib.linalg
from oaplib import (CsrMatrix, DenseMatrix, DimensionMismatch,
                    NonFiniteVector, as_vector, backend_name, dot,
                    gen_convdiff2d, gen_poisson_lshape, gen_tridiag_unsym,
                    norm2, read_matrix_market, write_matrix_market)

from conftest import (bincount_apply, bincount_apply_transpose,
                      random_sparse)


class KernelSpy:
    """Stands in for scipy's ``_sparsetools``: records each kernel call
    and, while ``run`` is set, runs the real kernel on its arguments."""

    def __init__(self, real):
        self.real = real
        self.calls = []
        self.run = True

    def __getattr__(self, name):
        kernel = getattr(self.real, name)

        def spy(*args):
            self.calls.append((name, args))
            if self.run:
                kernel(*args)
        return spy


@pytest.fixture
def kernels(monkeypatch):
    spy = KernelSpy(oaplib.linalg._sparsetools())
    monkeypatch.setattr(oaplib.linalg, "_sparsetools", lambda: spy)
    return spy


class TestApply:
    def test_identity_csr(self):
        A = CsrMatrix.identity(3)
        np.testing.assert_array_equal(A.apply([1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_tridiag_stencil_hand_expansion(self):
        A = gen_tridiag_unsym(3).A
        got = A.apply(np.ones(3))
        np.testing.assert_allclose(got, [0.9, -0.1, 1.0], atol=1e-15)
        # cross-check against the dense representation
        np.testing.assert_allclose(got, A.to_dense() @ np.ones(3), atol=1e-15)

    def test_dense_column_readoff(self):
        A = DenseMatrix([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(A.apply([1.0, 0.0]), [1.0, 0.0])

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

    # the kernel reads x unchecked, so no bad vector may reach it
    @pytest.mark.parametrize("bad", ["short", "long", "2-D", "empty"])
    @pytest.mark.parametrize("product", ["apply", "apply_transpose"])
    def test_dimension_mismatch(self, kernels, product, bad):
        A = CsrMatrix(4, 5, [0, 2, 2, 4, 4], [0, 2, 1, 3], [1.0, 2.0, 3.0, 4.0])
        n = A.ncols if product == "apply" else A.nrows
        x = {"short": np.ones(n - 1), "long": np.ones(n + 1),
             "2-D": np.ones((1, n)), "empty": np.ones(0)}[bad]
        A._transpose  # built up front: any call recorded below is a product
        kernels.calls.clear()
        kernels.run = False  # a product that slipped through reads no memory
        with pytest.raises(DimensionMismatch):
            getattr(A, product)(x)
        assert kernels.calls == []


class TestApplyTranspose:
    def test_identity(self):
        A = CsrMatrix.identity(2)
        np.testing.assert_array_equal(A.apply_transpose([4.0, 5.0]), [4.0, 5.0])

    def test_dense_row_readoff(self):
        A = DenseMatrix([[1.0, 1.0], [0.0, 1.0]])
        np.testing.assert_array_equal(A.apply_transpose([1.0, 0.0]), [1.0, 1.0])

    def test_adjoint_identity_random_csr(self, rng):
        A = random_sparse(rng, 8)
        bound = 1e-13
        for _ in range(10):
            u = rng.standard_normal(8)
            v = rng.standard_normal(8)
            lhs = dot(A.apply_transpose(u), v)
            rhs = dot(u, A.apply(v))
            assert abs(lhs - rhs) <= bound * max(abs(lhs), abs(rhs), 1.0)

    def test_dimension_mismatch(self):
        A = DenseMatrix(np.ones((3, 2)))
        with pytest.raises(DimensionMismatch):
            A.apply_transpose(np.ones(2))


class TestVectorOps:
    def test_dot_orthogonal(self):
        assert dot([1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_dot_direct(self):
        assert dot([1.0, 2.0], [3.0, 4.0]) == 11.0

    def test_dot_norm_consistency(self, rng):
        v = rng.standard_normal(40)
        assert dot(v, v) == pytest.approx(norm2(v) ** 2, rel=1e-15)

    def test_dot_mismatch(self):
        with pytest.raises(DimensionMismatch):
            dot([1.0], [1.0, 2.0])

    def test_norm_zero(self):
        assert norm2([0.0, 0.0, 0.0]) == 0.0

    def test_norm_pythagorean(self):
        assert norm2([3.0, 4.0]) == 5.0

    def test_norm_homogeneity(self, rng):
        v = rng.standard_normal(25)
        for t in (-3.5, 0.25, 1e8):
            assert norm2(t * v) == pytest.approx(abs(t) * norm2(v), rel=1e-15)

    def test_as_vector_rejects_nan(self):
        with pytest.raises(NonFiniteVector):
            as_vector([1.0, np.nan])


class TestCsrValidation:
    def test_bad_offsets_start(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [1, 1, 2], [0, 1], [1.0, 1.0])

    def test_decreasing_offsets(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [0, 2, 1], [0, 1], [1.0, 1.0])

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            CsrMatrix(2, 2, [0, 1, 2], [0, 2], [1.0, 1.0])

    def test_duplicate_columns_in_row(self):
        with pytest.raises(ValueError):
            CsrMatrix(1, 3, [0, 2], [1, 1], [1.0, 2.0])

    def test_unsorted_columns_in_row(self):
        with pytest.raises(ValueError):
            CsrMatrix(1, 3, [0, 2], [2, 0], [1.0, 2.0])

    def test_from_coo_duplicates(self):
        with pytest.raises(ValueError):
            CsrMatrix.from_coo(2, 2, [0, 0], [1, 1], [1.0, 2.0])

    def test_from_coo_negative_row(self):
        # np.add.at would wrap -2 to row 0 and place the entry in row 1
        with pytest.raises(ValueError, match="row index out of range"):
            CsrMatrix.from_coo(2, 2, [-2], [0], [1.0])

    def test_from_coo_row_past_end(self):
        with pytest.raises(ValueError, match="row index out of range"):
            CsrMatrix.from_coo(2, 2, [2], [0], [1.0])

    def test_from_coo_lengths_differ(self):
        with pytest.raises(ValueError, match="differ in length"):
            CsrMatrix.from_coo(2, 2, [0, 1], [0], [1.0])

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
        offsets, indices, _ = A._transpose
        for a in (A.row_offsets, A.col_indices, offsets, indices):
            assert a.dtype == np.int32 and not a.flags.writeable

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

    def test_frobenius_cached(self, rng, monkeypatch):
        A = random_sparse(rng, 10)
        want = np.linalg.norm(A.to_dense())
        first = A.frobenius_norm()
        assert first == pytest.approx(want, rel=1e-14)
        # a recomputation would read the swapped-in values and return 0
        monkeypatch.setattr(A, "values", np.zeros_like(A.values))
        assert A.frobenius_norm() == first

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


class TestScipyKernels:
    """The products call scipy's compiled ``csr_matvec``, ``A' u`` on a
    transpose built on first use; the NumPy ``bincount`` kernels in
    conftest are their reference."""

    @staticmethod
    def operators():
        # the 4x5 operator has an empty trailing row and column
        return [CsrMatrix(4, 5, [0, 2, 2, 4, 4], [0, 2, 1, 3],
                          [1.0, 2.0, 3.0, 4.0]),
                gen_convdiff2d(19, 19).A, gen_convdiff2d(60, 60).A]

    def test_bit_identical_to_bincount_kernels(self, rng):
        for A in self.operators():
            for _ in range(3):
                v = rng.standard_normal(A.ncols)
                u = rng.standard_normal(A.nrows)
                assert A.apply(v).tobytes() == bincount_apply(A, v).tobytes()
                assert (A.apply_transpose(u).tobytes()
                        == bincount_apply_transpose(A, u).tobytes())

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

    def test_products_read_the_operator_arrays(self, kernels):
        A = self.operators()[1]
        A.apply(np.ones(A.ncols))
        A.apply_transpose(np.ones(A.nrows))
        (name, av), (name_t, atu) = [c for c in kernels.calls
                                     if c[0] != "csr_tocsc"]
        assert (name, name_t) == ("csr_matvec", "csr_matvec")
        assert av[:2] == (A.nrows, A.ncols) and atu[:2] == (A.ncols, A.nrows)
        # the arrays themselves, not copies
        for got, want in zip(av[2:5], (A.row_offsets, A.col_indices, A.values)):
            assert got is want
        for got, want in zip(atu[2:5], A._transpose):
            assert got is want

    def test_construction_and_av_build_no_transpose(self):
        A = self.operators()[0]
        assert "_transpose" not in vars(A)
        A.apply(np.ones(A.ncols))
        assert "_transpose" not in vars(A)
        A.apply_transpose(np.ones(A.nrows))
        assert "_transpose" in vars(A)

    def test_transpose_built_once_per_operator(self, kernels):
        A = gen_convdiff2d(9, 10).A
        for _ in range(3):
            A.apply(np.ones(A.ncols))
        for _ in range(2):
            A.apply_transpose(np.ones(A.nrows))
        names = [name for name, _ in kernels.calls]
        assert names.count("csr_tocsc") == 1
        assert names.index("csr_tocsc") == 3  # on the first A'u

    def test_transpose_matches_scipy(self):
        for A in self.operators() + [CsrMatrix(3, 4, [0, 0, 0, 0], [], [])]:
            offsets, indices, values = A._transpose
            for a, dtype in ((offsets, np.int32), (indices, np.int32),
                             (values, np.float64)):
                assert a.dtype == dtype and not a.flags.writeable
            for c in range(A.ncols):
                assert np.all(np.diff(indices[offsets[c]:offsets[c + 1]]) > 0)
            want = scipy.sparse.csr_array(
                (A.values, A.col_indices, A.row_offsets), shape=A.shape).T.tocsr()
            want.sort_indices()
            assert offsets.tobytes() == want.indptr.astype(np.int32).tobytes()
            assert indices.tobytes() == want.indices.astype(np.int32).tobytes()
            assert values.tobytes() == want.data.tobytes()


def test_import_leaves_scipy_sparse_unloaded():
    src = os.path.dirname(os.path.dirname(oaplib.__file__))
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oaplib; "
            "print('scipy.sparse' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


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


def test_implementation_name_is_scipy():
    assert backend_name() == "scipy"
