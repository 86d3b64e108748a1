import numpy as np
import pytest

import oaplib.reductions as reductions
from oaplib import (CsrMatrix, DenseMatrix, NumericalOverflow, bidiag_step,
                    gen_convdiff2d, tridiag_step)
from oaplib.reductions import breakdown_floor

from conftest import (full_reduction, gram_defect, numpy_bidiag_step,
                      numpy_tridiag_step, oracle_golub_kahan, oracle_two_sided,
                      random_wellcond, reduction_steps, step_on_rows,
                      window_step)


def e(i, n):
    v = np.zeros(n)
    v[i] = 1.0
    return v


def first_step(A, v1, u1=None):
    """Step 1 of the two-sided reduction from (v1, u1), or of the
    bidiagonal one when u1 is None, as ``window_step`` runs it."""
    return window_step(A, 1, breakdown_floor(A), (None, v1, None, u1, 0.0, 0.0),
                       u1 is not None)


def test_breakdown_floor_is_1e_13_times_the_frobenius_norm():
    assert breakdown_floor(CsrMatrix.from_dense(np.diag([3.0, 4.0]))) == 5e-13


class TestTridiagStep:
    def test_identity_breaks_down_immediately(self):
        A = CsrMatrix.identity(3)
        av, alpha, beta, gamma, next_v, next_u = first_step(A, e(0, 3),
                                                            e(0, 3))
        assert alpha == 1.0
        assert gamma == 0.0
        assert beta == 0.0
        assert next_u is None and next_v is None
        np.testing.assert_array_equal(av, e(0, 3))

    def test_swap_matrix_against_oracle(self):
        A = DenseMatrix([[0.0, 1.0], [1.0, 0.0]])
        _, alpha, beta, gamma, next_v, next_u = first_step(A, e(0, 2),
                                                           e(0, 2))
        assert alpha == 0.0
        assert gamma == 1.0
        assert beta == 1.0
        np.testing.assert_array_equal(next_u, e(1, 2))
        np.testing.assert_array_equal(next_v, e(1, 2))
        alphas, betas, gammas, V, U = oracle_two_sided(
            A.to_dense(), e(0, 2), e(0, 2), 1)
        assert alphas[0] == alpha
        assert gammas[0] == pytest.approx(gamma, abs=1e-15)
        assert betas[0] == pytest.approx(beta, abs=1e-15)

    def test_symmetric_start_collapses_sides(self, rng):
        M = rng.standard_normal((10, 10))
        A = DenseMatrix(M + M.T)
        v1 = rng.standard_normal(10)
        v1 /= np.linalg.norm(v1)
        for _, _, (_, _, beta, gamma, next_v, next_u) in reduction_steps(
                A, v1, v1.copy(), 9):
            if next_u is None or next_v is None:
                break
            assert np.linalg.norm(next_u - next_v) <= 1e-10
            assert gamma == pytest.approx(beta, rel=1e-12)

    def test_overflow_raises_with_step_index(self, rng):
        A = DenseMatrix(rng.standard_normal((4, 4)) * 1e307)
        v1 = e(0, 4)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalOverflow) as err:
                for _ in reduction_steps(A, v1, v1.copy(), 3):
                    pass
        assert err.value.step is not None


class TestBidiagStep:
    def test_identity_v_side_breakdown(self):
        A = CsrMatrix.identity(2)
        _, alpha, beta, _, next_v, next_u = first_step(A, e(0, 2))
        assert alpha == 1.0
        np.testing.assert_array_equal(next_u, e(0, 2))
        assert beta == 0.0
        assert next_v is None

    def test_upper_triangular_example_against_oracle(self):
        A = DenseMatrix([[1.0, 1.0], [0.0, 1.0]])
        _, alpha, beta, _, next_v, next_u = first_step(A, e(0, 2))
        assert alpha == 1.0
        np.testing.assert_array_equal(next_u, e(0, 2))
        assert beta == 1.0
        np.testing.assert_array_equal(next_v, e(1, 2))
        alphas, betas, V, U = oracle_golub_kahan(A.to_dense(), e(0, 2), 1)
        assert alphas[0] == alpha
        assert betas[0] == pytest.approx(beta, abs=1e-15)

    def test_reduced_block_is_upper_bidiagonal(self, rng):
        dense = random_wellcond(rng, 12, cond=10.0)
        A = DenseMatrix(dense)
        v1 = rng.standard_normal(12)
        v1 /= np.linalg.norm(v1)
        *_, V, U, broke = full_reduction(A, v1, None, 6)
        assert broke is None
        Um = U                  # u_1..u_6
        Vm = V[:, :6]           # v_1..v_6
        T = Um.T @ dense @ Vm
        off = T - np.triu(np.tril(T, 1))  # outside diagonal+superdiagonal
        assert np.max(np.abs(off)) <= 1e-10


def two_sided(A, v1, u1, steps, reorthogonalize=False):
    return full_reduction(A, v1, u1, steps, reorthogonalize)


def bidiagonal(A, v1, steps, reorthogonalize=False):
    return full_reduction(A, v1, None, steps, reorthogonalize)


class TestFullBasis:
    """Many steps, their bases kept by ``full_reduction``."""

    @pytest.mark.parametrize("two_sided", [True, False],
                             ids=["tridiagonal", "bidiagonal"])
    def test_orthonormal_bases_and_banded_reduction(self, rng, two_sided):
        # with re-projection both bases are orthonormal, and U'AV is
        # tridiagonal (two-sided) or upper bidiagonal, its bands the
        # recurrence's scalars
        dense = random_wellcond(rng, 20)
        alphas, betas, gammas, V, U, broke = full_reduction(
            DenseMatrix(dense), e(0, 20), e(0, 20) if two_sided else None,
            19, reorthogonalize=True)
        assert broke is None
        assert gram_defect(V) <= 1e-12
        assert gram_defect(U) <= 1e-12
        T = U.T @ dense @ V
        off_band = T - np.triu(np.tril(T, 1), -1 if two_sided else 0)
        assert np.max(np.abs(off_band)) <= 1e-10
        for band, scalars in ((0, alphas), (1, betas), (-1, gammas)):
            np.testing.assert_allclose(np.diag(T, band)[:len(scalars)],
                                       scalars, atol=1e-10)


class TestTwoSidedFullBasis:
    """Many two-sided steps, their bases kept by ``full_reduction``."""

    def test_agrees_with_full_gram_schmidt_oracle(self, rng):
        dense = random_wellcond(rng, 15)
        v1 = rng.standard_normal(15)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(15)
        u1 /= np.linalg.norm(u1)
        alphas, betas, gammas, V, U, _ = two_sided(
            DenseMatrix(dense), v1, u1, 10, reorthogonalize=True)
        o_alphas, o_betas, o_gammas, oV, oU = oracle_two_sided(dense, v1, u1, 10)
        np.testing.assert_allclose(alphas, o_alphas, atol=1e-10)
        np.testing.assert_allclose(betas, o_betas, atol=1e-10)
        np.testing.assert_allclose(gammas, o_gammas, atol=1e-10)
        np.testing.assert_allclose(V, oV, atol=1e-9)
        np.testing.assert_allclose(U, oU, atol=1e-9)


class TestBidiagonalFullBasis:
    """Many bidiagonal steps, their bases kept by ``full_reduction``."""

    def test_rotation_matrix_unit_alphas(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((9, 9)))
        v1 = rng.standard_normal(9)
        v1 /= np.linalg.norm(v1)
        alphas, *_ = bidiagonal(DenseMatrix(q), v1, 8)
        assert len(alphas) >= 1
        np.testing.assert_allclose(alphas, 1.0, atol=1e-12)

    def test_agrees_with_golub_kahan_oracle(self, rng):
        dense = random_wellcond(rng, 15)
        v1 = rng.standard_normal(15)
        v1 /= np.linalg.norm(v1)
        alphas, betas, *_ = bidiagonal(DenseMatrix(dense), v1, 10,
                                       reorthogonalize=True)
        o_alphas, o_betas, oV, oU = oracle_golub_kahan(dense, v1, 10)
        np.testing.assert_allclose(alphas, o_alphas, atol=1e-10)
        np.testing.assert_allclose(betas, o_betas, atol=1e-10)


class TestFullBasisBreakdown:
    """A run stops at the step whose new directions would leave the
    Krylov space, with and without reorthogonalization."""

    @pytest.mark.parametrize("reorthogonalize", [False, True])
    def test_three_eigenvalues_break_at_step_three(self, reorthogonalize):
        A = DenseMatrix(np.diag([1.0, 2.0, 3.0] * 3))
        v1 = np.ones(9) / 3.0
        tri = two_sided(A, v1, v1.copy(), 8, reorthogonalize)
        bi = bidiagonal(A, v1, 8, reorthogonalize)
        assert tri[-1] == bi[-1] == 3

    # at cond 1e6 the bidiagonal step's own beta_20 is above the floor;
    # only the re-projected one is not
    @pytest.mark.parametrize("cond", [1e2, 1e6])
    def test_full_space_breaks_at_step_n(self, rng, cond):
        A = DenseMatrix(random_wellcond(rng, 20, cond))
        v1 = rng.standard_normal(20)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(20)
        u1 /= np.linalg.norm(u1)
        for *_, V, U, broke in (
                two_sided(A, v1, u1, 20, reorthogonalize=True),
                bidiagonal(A, v1, 20, reorthogonalize=True)):
            assert broke == 20
            assert V.shape == U.shape == (20, 20)


class TestRecurrenceInvariants:
    def test_tridiagonal_step_residual(self, rng):
        dense = random_wellcond(rng, 25)
        A = DenseMatrix(dense)
        bound = 1e-12 * A.frobenius_norm()
        v1 = rng.standard_normal(25)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(25)
        u1 /= np.linalg.norm(u1)
        for k, window, out in reduction_steps(A, v1, u1, 20):
            _, v, u_prev, u, beta_prev, _ = window
            _, alpha, _, gamma, next_v, next_u = out
            if next_u is None or next_v is None:
                break
            resid = A.apply(v) - gamma * next_u - alpha * u
            if k > 1:
                resid -= beta_prev * u_prev
            assert np.linalg.norm(resid) <= bound

    def test_bidiagonal_step_residual(self, rng):
        dense = random_wellcond(rng, 25)
        A = DenseMatrix(dense)
        bound = 1e-12 * A.frobenius_norm()
        v1 = rng.standard_normal(25)
        v1 /= np.linalg.norm(v1)
        for k, window, out in reduction_steps(A, v1, None, 20):
            _, v, _, u_prev, beta_prev, _ = window
            _, alpha, _, _, next_v, u = out
            if u is None or next_v is None:
                break
            resid = A.apply(v) - alpha * u
            if k > 1:
                resid -= beta_prev * u_prev
            assert np.linalg.norm(resid) <= bound

    @pytest.mark.parametrize("n", [10, 20, 30])
    def test_reorthogonalized_gram_bound_small_sizes(self, rng, n):
        A = DenseMatrix(random_wellcond(rng, n))
        v1 = rng.standard_normal(n)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(n)
        u1 /= np.linalg.norm(u1)
        *_, V, U, _ = two_sided(A, v1, u1, n - 1, reorthogonalize=True)
        assert gram_defect(V) <= 1e-10
        assert gram_defect(U) <= 1e-10
        *_, V2, U2, _ = bidiagonal(A, v1, n - 1, reorthogonalize=True)
        assert gram_defect(V2) <= 1e-10
        assert gram_defect(U2) <= 1e-10

    def test_short_runs_stay_orthogonal_without_reorthogonalization(self, rng):
        A = DenseMatrix(random_wellcond(rng, 50))
        v1 = rng.standard_normal(50)
        v1 /= np.linalg.norm(v1)
        u1 = rng.standard_normal(50)
        u1 /= np.linalg.norm(u1)
        *_, V, U, _ = two_sided(A, v1, u1, 5)
        assert gram_defect(V) <= 1e-8
        assert gram_defect(U) <= 1e-8

    def test_symmetric_collapse_across_full_run(self, rng):
        M = rng.standard_normal((14, 14))
        A = DenseMatrix(M + M.T)
        v1 = rng.standard_normal(14)
        v1 /= np.linalg.norm(v1)
        *_, V, U, _ = two_sided(A, v1, v1.copy(), 13)
        assert np.max(np.abs(V - U)) <= 1e-10


ENGINES = pytest.mark.parametrize("two_sided", [True, False],
                                  ids=["tridiagonal", "bidiagonal"])


class TestInPlaceSteps:
    """The steps write their results into the three output rows they are
    handed (next v, next u, A v) and into no other row, and round like
    conftest's NumPy steps, which allocate every intermediate."""

    @staticmethod
    def operators(rng):
        return [gen_convdiff2d(9, 10).A, DenseMatrix(random_wellcond(rng, 12))]

    @staticmethod
    def unit(rng, n):
        v = rng.standard_normal(n)
        return v / np.linalg.norm(v)

    @ENGINES
    def test_step_writes_only_its_output_rows_and_rounds_as_fresh(
            self, rng, two_sided):
        step, oracle = ((tridiag_step, numpy_tridiag_step) if two_sided
                        else (bidiag_step, numpy_bidiag_step))
        outputs = (2, 6, 7)  # next_v, next_u, av in step_on_rows' rows
        for A in self.operators(rng):
            floor = breakdown_floor(A)
            v1 = self.unit(rng, A.ncols)
            # step 1 has no beta_prev or gamma_prev
            window = (None, v1, None, v1 if two_sided else None, 0.0, 0.0)
            for k in range(1, 6):
                got, before, after = step_on_rows(A, k, floor, window,
                                                  two_sided, step)
                ref, _, ref_after = step_on_rows(A, k, floor, window,
                                                 two_sided, oracle)
                assert got == ref
                for i, (b, a, r) in enumerate(zip(before, after, ref_after)):
                    assert a == (r if i in outputs else b), i
                assert after[7] == A.apply(window[1]).tobytes()
                alpha, beta, gamma = got
                u_norm = gamma if two_sided else alpha
                assert beta > floor and u_norm > floor, k
                next_v, next_u = (np.frombuffer(after[i]) for i in (2, 6))
                if two_sided:
                    window = (window[1], next_v, window[3], next_u, beta,
                              gamma)
                else:  # u holds u_k, which step k + 1 reads as u_prev
                    window = (None, next_v, None, next_u, beta, 0.0)

    @pytest.mark.parametrize("reorthogonalize", [False, True])
    def test_driver_bases_match_fresh_array_run(self, rng, monkeypatch,
                                                reorthogonalize):
        A = gen_convdiff2d(9, 10).A
        v1, u1 = self.unit(rng, A.ncols), self.unit(rng, A.nrows)

        def run():
            return (two_sided(A, v1, u1, 40, reorthogonalize),
                    bidiagonal(A, v1, 40, reorthogonalize))

        got = run()
        calls = {}
        for step, oracle in ((tridiag_step, numpy_tridiag_step),
                             (bidiag_step, numpy_bidiag_step)):
            def counted(*args, oracle=oracle, name=step.__name__):
                calls[name] = calls.get(name, 0) + 1
                return oracle(*args)

            monkeypatch.setattr(reductions, step.__name__, counted)
        ref = run()
        assert calls == {"tridiag_step": 40, "bidiag_step": 40}
        for *_, V, U, broke in (*got, *ref):
            assert broke is None
            assert V.shape == (A.ncols, 41)
        for (*bands, V, U, _), (*r_bands, r_V, r_U, _) in zip(got, ref):
            for band, r_band in zip(bands, r_bands):
                assert band.tobytes() == r_band.tobytes()
            # column by column: an aliased step would overwrite stored ones
            for M, r_M in ((V, r_V), (U, r_U)):
                for j in range(M.shape[1]):
                    assert M[:, j].tobytes() == r_M[:, j].tobytes()
