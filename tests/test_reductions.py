import numpy as np
import pytest

import oaplib.reductions as reductions
from oaplib import (CsrMatrix, DenseMatrix, KrylovState, NumericalOverflow,
                    advance, bidiag_step, gen_convdiff2d, tridiag_step)
from oaplib.reductions import (BIDIAGONAL, TRIDIAGONAL, StepOutcome,
                               breakdown_floor)

from conftest import (full_reduction, gram_defect, oracle_golub_kahan,
                      oracle_two_sided, random_wellcond)


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


def two_sided(A, v1, u1, steps, reorthogonalize=False):
    return full_reduction(A, KrylovState.start(TRIDIAGONAL, v1, u1), steps,
                          reorthogonalize)


def bidiagonal(A, v1, steps, reorthogonalize=False):
    return full_reduction(A, KrylovState.start(BIDIAGONAL, v1), steps,
                          reorthogonalize)


class TestTwoSidedFullBasis:
    """Many two-sided steps, their bases kept by ``full_reduction``."""

    def test_orthonormal_bases_with_reorthogonalization(self, rng):
        A = DenseMatrix(random_wellcond(rng, 20))
        v1, u1 = e(0, 20), e(0, 20)
        *_, V, U, broke = two_sided(A, v1, u1, 19, reorthogonalize=True)
        assert broke is None
        assert gram_defect(V) <= 1e-12
        assert gram_defect(U) <= 1e-12

    def test_reduction_is_tridiagonal(self, rng):
        dense = random_wellcond(rng, 20)
        A = DenseMatrix(dense)
        v1, u1 = e(0, 20), e(0, 20)
        alphas, betas, gammas, V, U, _ = two_sided(A, v1, u1, 19,
                                                   reorthogonalize=True)
        T = U.T @ dense @ V
        off_band = T - np.triu(np.tril(T, 1), -1)
        assert np.max(np.abs(off_band)) <= 1e-10
        # band entries match the recurrence scalars
        np.testing.assert_allclose(np.diag(T)[:len(alphas)], alphas,
                                   atol=1e-10)
        np.testing.assert_allclose(np.diag(T, 1)[:len(betas)], betas,
                                   atol=1e-10)
        np.testing.assert_allclose(np.diag(T, -1)[:len(gammas)], gammas,
                                   atol=1e-10)

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

    def test_orthonormal_bases_with_reorthogonalization(self, rng):
        A = DenseMatrix(random_wellcond(rng, 20))
        *_, V, U, broke = bidiagonal(A, e(0, 20), 19, reorthogonalize=True)
        assert broke is None
        assert gram_defect(V) <= 1e-12
        assert gram_defect(U) <= 1e-12

    def test_reduction_is_upper_bidiagonal(self, rng):
        dense = random_wellcond(rng, 20)
        *_, V, U, _ = bidiagonal(DenseMatrix(dense), e(0, 20), 19,
                                 reorthogonalize=True)
        T = U.T @ dense @ V
        off = T - np.triu(np.tril(T, 1))
        assert np.max(np.abs(off)) <= 1e-10

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


def fresh_tridiag_step(A, s):
    """``tridiag_step`` with a new array for every intermediate result
    (overflow checks left out)."""
    floor = breakdown_floor(A)
    av = A.apply(s.v_curr)
    alpha = float(np.dot(s.u_curr, av))
    w = av - alpha * s.u_curr
    if s.beta_prev != 0.0:
        w = w - s.beta_prev * s.u_prev
    gamma = float(np.linalg.norm(w))
    next_u = np.zeros_like(w) if gamma <= floor else w / gamma
    q = A.apply_transpose(s.u_curr) - alpha * s.v_curr
    if s.gamma_prev != 0.0:
        q = q - s.gamma_prev * s.v_prev
    beta = float(np.linalg.norm(q))
    next_v = np.zeros_like(q) if beta <= floor else q / beta
    return StepOutcome(next_v, next_u, alpha, beta, gamma, gamma <= floor,
                       beta <= floor, av)


def fresh_bidiag_step(A, s):
    """``bidiag_step`` with a new array for every intermediate result."""
    floor = breakdown_floor(A)
    av = A.apply(s.v_curr)
    w = av if s.beta_prev == 0.0 else av - s.beta_prev * s.u_curr
    alpha = float(np.linalg.norm(w))
    u_k = np.zeros_like(w) if alpha <= floor else w / alpha
    q = A.apply_transpose(u_k) - alpha * s.v_curr
    beta = float(np.linalg.norm(q))
    next_v = np.zeros_like(q) if beta <= floor else q / beta
    return StepOutcome(next_v, u_k, alpha, beta, 0.0, alpha <= floor,
                       beta <= floor, av)


STEPS = {TRIDIAGONAL: (tridiag_step, fresh_tridiag_step),
         BIDIAGONAL: (bidiag_step, fresh_bidiag_step)}
WINDOW = ("v_prev", "v_curr", "u_prev", "u_curr")


class TestInPlaceSteps:
    """The steps build their results in place inside new arrays; they
    must write into none of their inputs and round like a step that
    allocates every intermediate."""

    @staticmethod
    def operators(rng):
        return [gen_convdiff2d(9, 10).A, DenseMatrix(random_wellcond(rng, 12))]

    @staticmethod
    def unit(rng, n):
        v = rng.standard_normal(n)
        return v / np.linalg.norm(v)

    @pytest.mark.parametrize("mode", [TRIDIAGONAL, BIDIAGONAL])
    def test_step_writes_into_no_input_and_rounds_as_fresh(self, rng, mode):
        step, fresh = STEPS[mode]
        for A in self.operators(rng):
            v1 = self.unit(rng, A.ncols)
            s = KrylovState.start(mode, v1, v1)
            for k in range(1, 6):  # step 1 has no beta_prev or gamma_prev
                saved = {name: getattr(s, name).copy() for name in WINDOW}
                av = A.apply(s.v_curr)
                out = step(A, s)
                ref = fresh(A, s)
                for name in WINDOW:
                    assert getattr(s, name).tobytes() == saved[name].tobytes()
                assert out.av.tobytes() == av.tobytes()
                inputs = [getattr(s, name) for name in WINDOW] + [out.av]
                for new in (out.next_u, out.next_v):
                    assert not any(np.shares_memory(new, old) for old in inputs)
                assert not np.shares_memory(out.next_u, out.next_v)
                assert out.next_u.tobytes() == ref.next_u.tobytes()
                assert out.next_v.tobytes() == ref.next_v.tobytes()
                assert ((out.alpha, out.beta, out.gamma)
                        == (ref.alpha, ref.beta, ref.gamma))
                assert not (out.u_broken or out.v_broken), k
                s = advance(s, out)

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
        for mode, (_, fresh) in STEPS.items():
            name = "tridiag_step" if mode == TRIDIAGONAL else "bidiag_step"

            def counted(A, s, fresh=fresh, mode=mode):
                calls[mode] = calls.get(mode, 0) + 1
                return fresh(A, s)

            monkeypatch.setattr(reductions, name, counted)
        ref = run()
        assert calls == {TRIDIAGONAL: 40, BIDIAGONAL: 40}
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

    @pytest.mark.parametrize("mode", [TRIDIAGONAL, BIDIAGONAL])
    def test_read_only_transpose_product_is_refused(self, rng, monkeypatch,
                                                    mode):
        # apply_transpose must return a writable array; a read-only one
        # is an error, not a result computed from a stale vector
        A = gen_convdiff2d(9, 10).A
        plain = A.apply_transpose

        def read_only(u):
            q = plain(u)
            q.flags.writeable = False
            return q

        monkeypatch.setattr(A, "apply_transpose", read_only)
        v1 = self.unit(rng, A.ncols)
        with pytest.raises(ValueError, match="read-only"):
            STEPS[mode][0](A, KrylovState.start(mode, v1, v1))
