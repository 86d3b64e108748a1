import numpy as np
import pytest

from oaplib import (CsrMatrix, DenseMatrix, KrylovState, NumericalOverflow,
                    advance, bidiag_step, bidiagonalize, tridiag_step,
                    tridiagonalize)

from conftest import (gram_defect, oracle_golub_kahan, oracle_two_sided,
                      random_wellcond)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


class TestTridiagStep:
    def test_identity_breaks_down_immediately(self):
        A = CsrMatrix.identity(3)
        s = KrylovState.start("tridiagonal", e(0, 3), e(0, 3))
        out = tridiag_step(A, s)
        assert out.alpha == 1.0
        assert out.gamma == 0.0
        assert out.beta == 0.0
        assert out.u_broken and out.v_broken
        assert not out.next_u.any()

    def test_swap_matrix_against_oracle(self):
        A = DenseMatrix([[0.0, 1.0], [1.0, 0.0]])
        s = KrylovState.start("tridiagonal", e(0, 2), e(0, 2))
        out = tridiag_step(A, s)
        assert out.alpha == 0.0
        assert out.gamma == 1.0
        assert out.beta == 1.0
        np.testing.assert_array_equal(out.next_u, e(1, 2))
        np.testing.assert_array_equal(out.next_v, e(1, 2))
        alphas, betas, gammas, V, U = oracle_two_sided(
            A.to_dense(), e(0, 2), e(0, 2), 1)
        assert alphas[0] == out.alpha
        assert gammas[0] == pytest.approx(out.gamma, abs=1e-15)
        assert betas[0] == pytest.approx(out.beta, abs=1e-15)

    def test_symmetric_start_collapses_sides(self, rng):
        M = rng.standard_normal((10, 10))
        A = DenseMatrix(M + M.T)
        v1 = rng.standard_normal(10)
        v1 /= np.linalg.norm(v1)
        s = KrylovState.start("tridiagonal", v1, v1.copy())
        for _ in range(9):
            out = tridiag_step(A, s)
            if out.u_broken or out.v_broken:
                break
            assert np.linalg.norm(out.next_u - out.next_v) <= 1e-10
            assert out.gamma == pytest.approx(out.beta, rel=1e-12)
            s = advance(s, out)

    def test_overflow_raises_with_step_index(self, rng):
        A = DenseMatrix(rng.standard_normal((4, 4)) * 1e307)
        v1 = e(0, 4)
        s = KrylovState.start("tridiagonal", v1, v1.copy())
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalOverflow) as err:
                for _ in range(3):
                    out = tridiag_step(A, s)
                    if out.u_broken or out.v_broken:
                        break
                    s = advance(s, out)
        assert err.value.step is not None


class TestBidiagStep:
    def test_identity_v_side_breakdown(self):
        A = CsrMatrix.identity(2)
        s = KrylovState.start("bidiagonal", e(0, 2))
        out = bidiag_step(A, s)
        assert out.alpha == 1.0
        np.testing.assert_array_equal(out.next_u, e(0, 2))
        assert out.beta == 0.0
        assert out.v_broken and not out.u_broken

    def test_upper_triangular_example_against_oracle(self):
        A = DenseMatrix([[1.0, 1.0], [0.0, 1.0]])
        s = KrylovState.start("bidiagonal", e(0, 2))
        out = bidiag_step(A, s)
        assert out.alpha == 1.0
        np.testing.assert_array_equal(out.next_u, e(0, 2))
        assert out.beta == 1.0
        np.testing.assert_array_equal(out.next_v, e(1, 2))
        alphas, betas, V, U = oracle_golub_kahan(A.to_dense(), e(0, 2), 1)
        assert alphas[0] == out.alpha
        assert betas[0] == pytest.approx(out.beta, abs=1e-15)

    def test_reduced_block_is_upper_bidiagonal(self, rng):
        dense = random_wellcond(rng, 12, cond=10.0)
        A = DenseMatrix(dense)
        v1 = rng.standard_normal(12)
        v1 /= np.linalg.norm(v1)
        s = KrylovState.start("bidiagonal", v1)
        U, V = [], [v1]
        for _ in range(6):
            out = bidiag_step(A, s)
            assert not (out.u_broken or out.v_broken)
            U.append(out.next_u)
            V.append(out.next_v)
            s = advance(s, out)
        Um = np.column_stack(U)          # u_1..u_6
        Vm = np.column_stack(V[:6])      # v_1..v_6
        T = Um.T @ dense @ Vm
        off = T - np.triu(np.tril(T, 1))  # outside diagonal+superdiagonal
        assert np.max(np.abs(off)) <= 1e-10


class TestTridiagonalizeDriver:
    def test_orthonormal_bases_with_reorthogonalization(self, rng):
        A = DenseMatrix(random_wellcond(rng, 20))
        v1, u1 = e(0, 20), e(0, 20)
        coeffs, V, U, broke = tridiagonalize(A, v1, u1, 19, reorthogonalize=True)
        assert broke is None
        assert gram_defect(V) <= 1e-12
        assert gram_defect(U) <= 1e-12

    def test_reduction_is_tridiagonal(self, rng):
        dense = random_wellcond(rng, 20)
        A = DenseMatrix(dense)
        v1, u1 = e(0, 20), e(0, 20)
        coeffs, V, U, _ = tridiagonalize(A, v1, u1, 19, reorthogonalize=True)
        T = U.T @ dense @ V
        off_band = T - np.triu(np.tril(T, 1), -1)
        assert np.max(np.abs(off_band)) <= 1e-10
        # band entries match the recurrence scalars
        steps = len(coeffs.alphas)
        np.testing.assert_allclose(np.diag(T)[:steps], coeffs.alphas, atol=1e-10)
        np.testing.assert_allclose(np.diag(T, 1)[:len(coeffs.betas)],
                                   coeffs.betas, atol=1e-10)
        np.testing.assert_allclose(np.diag(T, -1)[:len(coeffs.gammas)],
                                   coeffs.gammas, atol=1e-10)

    def test_identity_breakdown_at_first_step(self):
        A = CsrMatrix.identity(5)
        coeffs, V, U, broke = tridiagonalize(A, e(0, 5), e(0, 5), 4)
        assert broke == 1

    def test_driver_matches_stepwise_engine(self, rng):
        A = DenseMatrix(random_wellcond(rng, 12))
        v1 = rng.standard_normal(12)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(12)
        u1 /= np.linalg.norm(u1)
        coeffs, V, U, _ = tridiagonalize(A, v1, u1, 8)
        s = KrylovState.start("tridiagonal", v1, u1)
        for k in range(8):
            out = tridiag_step(A, s)
            assert out.alpha == coeffs.alphas[k]
            assert out.beta == coeffs.betas[k]
            assert out.gamma == coeffs.gammas[k]
            np.testing.assert_array_equal(out.next_v, V[:, k + 1])
            np.testing.assert_array_equal(out.next_u, U[:, k + 1])
            s = advance(s, out)

    def test_agrees_with_full_gram_schmidt_oracle(self, rng):
        dense = random_wellcond(rng, 15)
        v1 = rng.standard_normal(15)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(15)
        u1 /= np.linalg.norm(u1)
        coeffs, V, U, _ = tridiagonalize(DenseMatrix(dense), v1, u1, 10,
                                         reorthogonalize=True)
        o_alphas, o_betas, o_gammas, oV, oU = oracle_two_sided(dense, v1, u1, 10)
        np.testing.assert_allclose(coeffs.alphas, o_alphas, atol=1e-10)
        np.testing.assert_allclose(coeffs.betas, o_betas, atol=1e-10)
        np.testing.assert_allclose(coeffs.gammas, o_gammas, atol=1e-10)
        np.testing.assert_allclose(V, oV, atol=1e-9)
        np.testing.assert_allclose(U, oU, atol=1e-9)


class TestBidiagonalizeDriver:
    def test_orthonormal_bases_with_reorthogonalization(self, rng):
        A = DenseMatrix(random_wellcond(rng, 20))
        coeffs, V, U, broke = bidiagonalize(A, e(0, 20), 19, reorthogonalize=True)
        assert broke is None
        assert gram_defect(V) <= 1e-12
        assert gram_defect(U) <= 1e-12

    def test_reduction_is_upper_bidiagonal(self, rng):
        dense = random_wellcond(rng, 20)
        coeffs, V, U, _ = bidiagonalize(DenseMatrix(dense), e(0, 20), 19,
                                        reorthogonalize=True)
        T = U.T @ dense @ V
        off = T - np.triu(np.tril(T, 1))
        assert np.max(np.abs(off)) <= 1e-10

    def test_rotation_matrix_unit_alphas(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        v1 = rng.standard_normal(9)
        v1 /= np.linalg.norm(v1)
        coeffs, V, U, broke = bidiagonalize(DenseMatrix(q), v1, 8)
        assert len(coeffs.alphas) >= 1
        np.testing.assert_allclose(coeffs.alphas, 1.0, atol=1e-12)

    def test_agrees_with_golub_kahan_oracle(self, rng):
        dense = random_wellcond(rng, 15)
        v1 = rng.standard_normal(15)
        v1 /= np.linalg.norm(v1)
        coeffs, V, U, _ = bidiagonalize(DenseMatrix(dense), v1, 10,
                                        reorthogonalize=True)
        o_alphas, o_betas, oV, oU = oracle_golub_kahan(dense, v1, 10)
        np.testing.assert_allclose(coeffs.alphas, o_alphas, atol=1e-10)
        np.testing.assert_allclose(coeffs.betas, o_betas, atol=1e-10)


class TestRecurrenceInvariants:
    def test_tridiagonal_step_residual(self, rng):
        dense = random_wellcond(rng, 25)
        A = DenseMatrix(dense)
        bound = 1e-12 * A.frobenius_norm()
        v1 = rng.standard_normal(25)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(25)
        u1 /= np.linalg.norm(u1)
        s = KrylovState.start("tridiagonal", v1, u1)
        for _ in range(20):
            out = tridiag_step(A, s)
            if out.u_broken or out.v_broken:
                break
            resid = (A.apply(s.v_curr) - out.gamma * out.next_u
                     - out.alpha * s.u_curr - s.beta_prev * s.u_prev)
            assert np.linalg.norm(resid) <= bound
            s = advance(s, out)

    def test_bidiagonal_step_residual(self, rng):
        dense = random_wellcond(rng, 25)
        A = DenseMatrix(dense)
        bound = 1e-12 * A.frobenius_norm()
        v1 = rng.standard_normal(25)
        v1 /= np.linalg.norm(v1)
        s = KrylovState.start("bidiagonal", v1)
        for _ in range(20):
            out = bidiag_step(A, s)
            if out.u_broken or out.v_broken:
                break
            resid = (A.apply(s.v_curr) - out.alpha * out.next_u
                     - s.beta_prev * s.u_curr)
            assert np.linalg.norm(resid) <= bound
            s = advance(s, out)

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_reorthogonalized_gram_bound_small_sizes(self, rng, n):
        A = DenseMatrix(random_wellcond(rng, n))
        v1 = rng.standard_normal(n)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(n)
        u1 /= np.linalg.norm(u1)
        _, V, U, _ = tridiagonalize(A, v1, u1, n - 1, reorthogonalize=True)
        assert gram_defect(V) <= 1e-10
        assert gram_defect(U) <= 1e-10
        _, V2, U2, _ = bidiagonalize(A, v1, n - 1, reorthogonalize=True)
        assert gram_defect(V2) <= 1e-10
        assert gram_defect(U2) <= 1e-10

    def test_short_runs_stay_orthogonal_without_reorthogonalization(self, rng):
        A = DenseMatrix(random_wellcond(rng, 50))
        v1 = rng.standard_normal(50)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(50)
        u1 /= np.linalg.norm(u1)
        _, V, U, _ = tridiagonalize(A, v1, u1, 5)
        assert gram_defect(V) <= 1e-8
        assert gram_defect(U) <= 1e-8

    def test_symmetric_collapse_across_full_run(self, rng):
        M = rng.standard_normal((14, 14))
        A = DenseMatrix(M + M.T)
        v1 = rng.standard_normal(14)
        v1 /= np.linalg.norm(v1)
        _, V, U, _ = tridiagonalize(A, v1, v1.copy(), 13)
        assert np.max(np.abs(V - U)) <= 1e-10


class TestStateValidation:
    def test_non_unit_start_rejected(self):
        with pytest.raises(ValueError):
            KrylovState.start("tridiagonal", np.array([1.0, 1.0]),
                              np.array([1.0, 0.0]))

    def test_tridiagonal_needs_u1(self):
        with pytest.raises(ValueError):
            KrylovState.start("tridiagonal", np.array([1.0, 0.0]))

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            KrylovState.start("diagonal", np.array([1.0, 0.0]))
