import numpy as np
import pytest

from oaplib import (CsrMatrix, DenseMatrix, DimensionMismatch,
                    NonFiniteVector, as_vector, backend_name, dot,
                    gen_tridiag_unsym, norm2)

from conftest import random_sparse


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

    def test_dimension_mismatch(self):
        A = CsrMatrix.identity(3)
        with pytest.raises(DimensionMismatch):
            A.apply(np.ones(4))


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

    def test_empty_rows_allowed(self):
        A = CsrMatrix(3, 3, [0, 1, 1, 2], [0, 2], [5.0, 7.0])
        np.testing.assert_array_equal(A.apply([1.0, 1.0, 1.0]), [5.0, 0.0, 7.0])


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
            np.testing.assert_array_equal(A.row(i), D[i])
        np.testing.assert_array_equal(A.rows_dense(2, 5), D[2:5])

    def test_rows_dense_matches_row_loop(self):
        # 6x4 with empty rows 0, 3 and 5
        A = CsrMatrix(6, 4, [0, 0, 2, 3, 3, 5, 5], [0, 3, 1, 2, 3],
                      [1.0, -2.0, 3.0, 4.0, 5.0])
        for start in range(6):
            for stop in range(start + 1, 7):
                want = np.stack([A.row(i) for i in range(start, stop)])
                np.testing.assert_array_equal(A.rows_dense(start, stop), want)


def test_implementation_name_is_python():
    assert backend_name() == "python"
