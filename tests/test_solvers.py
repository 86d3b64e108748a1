import numpy as np
import pytest

import oaplib.solvers as solvers_mod
from oaplib import (CsrMatrix, DegenerateSeed, DenseMatrix,
                    NumericalOverflow, SolveOptions,
                    c_update_bidiag, c_update_tridiag, gen_convdiff2d,
                    gen_poisson_lshape, gen_random_dense, gen_tridiag_unsym,
                    init_from_row, init_from_vector, norm2, oap_cycle_bidiag,
                    oap_cycle_tridiag, orthogonality_lost, roap_solve)

from conftest import constructed_problem, exact_cycle, random_wellcond


def diag23():
    return CsrMatrix.from_dense(np.diag([2.0, 3.0]))


class TestInitFromVector:
    def test_diagonal_hand_arithmetic(self):
        A = diag23()
        rhs = np.array([2.0, 3.0])  # solution (1, 1)
        v1, c1 = init_from_vector(A, rhs, rhs)
        np.testing.assert_allclose(v1, np.array([4.0, 9.0]) / np.sqrt(97.0),
                                   rtol=1e-15)
        assert c1 == pytest.approx(13.0 / np.sqrt(97.0), rel=1e-15)
        assert c1 == pytest.approx(np.dot([1.0, 1.0], v1), rel=1e-14)

    def test_identity(self, rng):
        A = CsrMatrix.identity(6)
        b = rng.standard_normal(6)
        v1, c1 = init_from_vector(A, b, b)
        np.testing.assert_allclose(v1, b / norm2(b), rtol=1e-15)
        assert c1 == pytest.approx(norm2(b), rel=1e-15)

    def test_constructed_solution_consistency(self, rng):
        A, b, x_true = constructed_problem(rng, 10)
        w = rng.standard_normal(10)
        v1, c1 = init_from_vector(A, b, w)
        assert abs(c1 - np.dot(x_true, v1)) <= 1e-12 * norm2(x_true)

    def test_degenerate_seed(self):
        A = CsrMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateSeed):
            init_from_vector(A, np.ones(2), np.array([0.0, 1.0]))

    def test_overflowing_seed_raises_numerical_overflow(self):
        # ||A'w|| overflows; dividing by it would give v1 = 0, c1 = nan
        A = gen_convdiff2d(4, 4).A
        b = np.full(16, 1e160)
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalOverflow):
                init_from_vector(A, b, b)


class TestInitFromRow:
    def test_diagonal(self):
        v1, c1 = init_from_row(diag23(), np.array([2.0, 3.0]), 0)
        np.testing.assert_array_equal(v1, [1.0, 0.0])
        assert c1 == 1.0

    def test_hand_arithmetic(self):
        A = DenseMatrix([[3.0, 4.0], [0.0, 1.0]])
        v1, c1 = init_from_row(A, np.array([10.0, 1.0]), 0)
        np.testing.assert_allclose(v1, [0.6, 0.8], rtol=1e-15)
        assert c1 == pytest.approx(2.0, rel=1e-15)
        assert c1 == pytest.approx(np.dot([2.0, 1.0], v1), rel=1e-14)

    def test_zero_row_rejected(self):
        A = CsrMatrix.from_dense(np.array([[1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateSeed):
            init_from_row(A, np.ones(2), 1)

    def test_overflowing_row_raises_numerical_overflow(self):
        # finite entries, infinite norm: not a numerically zero row
        A = DenseMatrix([[1e160, 1e160]])
        with pytest.warns(RuntimeWarning, match="overflow"):
            with pytest.raises(NumericalOverflow):
                init_from_row(A, np.ones(1), 0)

    def test_seed_consistency_random(self, rng):
        A, b, x_true = constructed_problem(rng, 9)
        for i in (0, 4, 8):
            v1, c1 = init_from_row(A, b, i)
            assert abs(c1 - np.dot(x_true, v1)) <= 1e-12 * norm2(x_true)


class TestCoefficientUpdates:
    def test_tridiag_formula_collapse(self):
        assert c_update_tridiag(5.0, 0.0, 1.0, 0.0, 123.0, -7.0) == 5.0

    def test_tridiag_direct(self):
        assert c_update_tridiag(7.0, 2.0, 2.0, 1.0, 1.0, 1.0) == 2.0

    def test_bidiag_collapse(self):
        assert c_update_bidiag(3.0, 0.0, 1.0, 9.0) == 3.0

    def test_bidiag_direct(self):
        assert c_update_bidiag(10.0, 2.0, 4.0, 3.0) == 1.0

    def test_tridiag_tracks_true_coefficients(self, rng):
        dense = random_wellcond(rng, 15)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(15)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        cs, V, _ = exact_cycle(A, b, v1, c1, 10, "tridiagonal")
        assert len(cs) == 11
        for k, c in enumerate(cs):
            want = float(np.dot(x_true, V[:, k]))
            assert abs(c - want) <= 1e-10 * norm2(x_true)

    def test_bidiag_tracks_true_coefficients(self, rng):
        dense = random_wellcond(rng, 15)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(15)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        cs, V, _ = exact_cycle(A, b, v1, c1, 10, "bidiagonal")
        assert len(cs) == 11
        for k, c in enumerate(cs):
            want = float(np.dot(x_true, V[:, k]))
            assert abs(c - want) <= 1e-10 * norm2(x_true)


class TestOrthogonalityDetector:
    def test_exactly_orthogonal(self):
        assert not orthogonality_lost(np.array([1.0, 0.0]),
                                      np.array([0.0, 1.0]), 0.5)

    def test_parallel(self):
        assert orthogonality_lost(np.array([1.0, 0.0]),
                                  np.array([1.0, 0.0]), 1e-8)

    def test_zero_approximation_never_triggers(self):
        assert not orthogonality_lost(np.zeros(2), np.array([1.0, 0.0]), 1e-8)


class TestCycleTridiag:
    def test_identity_solved_by_seed_projection(self, rng):
        A = CsrMatrix.identity(5)
        b = rng.standard_normal(5)
        v1, c1 = init_from_vector(A, b, b)
        res = oap_cycle_tridiag(A, b, v1, v1.copy(), c1)
        np.testing.assert_allclose(res.x_partial, b, rtol=1e-14)
        assert res.inner_steps == 1
        assert res.stop_cause == "breakdown"
        assert norm2(b - A.apply(res.x_partial)) <= 1e-14 * norm2(b)

    def test_diagonal_exact_after_two_steps(self):
        A = diag23()
        rhs = np.array([2.0, 3.0])
        v1, c1 = init_from_vector(A, rhs, rhs)
        res = oap_cycle_tridiag(A, rhs, v1, v1.copy(), c1,
                                SolveOptions(max_inner=2))
        np.testing.assert_allclose(res.x_partial, [1.0, 1.0], atol=1e-12)
        assert res.inner_steps == 2
        assert res.stop_cause == "breakdown"

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_exact_solve_with_reorthogonalized_kernel(self, rng, n):
        dense = random_wellcond(rng, n)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(n)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        cs, V, coeffs = exact_cycle(A, b, v1, c1, n - 1, "tridiagonal")
        x = V @ cs
        assert len(coeffs.betas) <= n - 1
        assert norm2(x - x_true) <= 1e-9 * norm2(x_true)
        assert norm2(b - A.apply(x)) <= 1e-10 * norm2(b)


class TestCycleBidiag:
    def test_identity(self, rng):
        A = CsrMatrix.identity(5)
        b = rng.standard_normal(5)
        v1, c1 = init_from_vector(A, b, b)
        res = oap_cycle_bidiag(A, b, v1, c1)
        np.testing.assert_allclose(res.x_partial, b, rtol=1e-14)
        assert res.inner_steps == 1
        assert res.stop_cause == "breakdown"

    def test_diagonal_exact_after_two_steps(self):
        A = diag23()
        rhs = np.array([2.0, 3.0])
        v1, c1 = init_from_vector(A, rhs, rhs)
        res = oap_cycle_bidiag(A, rhs, v1, c1, SolveOptions(max_inner=2))
        np.testing.assert_allclose(res.x_partial, [1.0, 1.0], atol=1e-12)
        assert res.inner_steps == 2

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_exact_solve_with_reorthogonalized_kernel(self, rng, n):
        dense = random_wellcond(rng, n)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(n)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        cs, V, coeffs = exact_cycle(A, b, v1, c1, n - 1, "bidiagonal")
        x = V @ cs
        assert len(coeffs.betas) <= n - 1
        assert norm2(x - x_true) <= 1e-9 * norm2(x_true)
        assert norm2(b - A.apply(x)) <= 1e-10 * norm2(b)

    def test_detector_contract_at_acceptance_time(self, rng, monkeypatch):
        calls = []
        real = solvers_mod.orthogonality_lost

        def spy(x, v_next, tol):
            lost = real(x, v_next, tol)
            calls.append((norm2(x), abs(float(np.dot(x, v_next))), tol, lost))
            return lost

        monkeypatch.setattr(solvers_mod, "orthogonality_lost", spy)
        problem = gen_convdiff2d(9, 10)
        x, report = roap_solve(problem.A, problem.b, "roap2")
        accepted = [c for c in calls if not c[3]]
        assert accepted
        for xn, d, tol, _ in accepted:
            assert xn == 0.0 or d <= tol * xn


class TestRoap:
    def test_identity(self, rng):
        A = CsrMatrix.identity(7)
        b = rng.standard_normal(7)
        for variant in ("roap2", "roap3"):
            x, report = roap_solve(A, b, variant)
            assert report.termination == "converged"
            assert report.restarts == 1
            assert report.final_relres <= 1e-15
            assert report.residual_history[-1] == report.final_relres
            np.testing.assert_allclose(x, b, rtol=1e-14)

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_convection_diffusion_small(self, variant):
        problem = gen_convdiff2d(9, 10)  # n = 90
        x, report = roap_solve(problem.A, problem.b, variant)
        assert report.termination == "converged"
        assert report.final_relres <= 1e-6
        # recomputed from scratch, not trusted from the report
        assert norm2(problem.b - problem.A.apply(x)) <= 1e-6 * norm2(problem.b)

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_ill_conditioned_tridiagonal(self, variant):
        problem = gen_tridiag_unsym(600)
        opts = SolveOptions(max_restarts=30)
        x, report = roap_solve(problem.A, problem.b, variant, opts)
        assert report.termination == "converged"
        assert report.restarts <= 30
        relerr = norm2(x - problem.x_true) / norm2(problem.x_true)
        assert relerr <= 1e-2

    def test_zero_rhs_trivial(self):
        A = CsrMatrix.identity(4)
        x, report = roap_solve(A, np.zeros(4), "roap2")
        assert report.termination == "converged"
        assert report.restarts == 0
        np.testing.assert_array_equal(x, np.zeros(4))

    def test_singular_operator_stagnates(self):
        A = CsrMatrix.from_dense(np.diag([1.0, 0.0]))
        x, report = roap_solve(A, np.array([1.0, 1.0]), "roap2",
                               SolveOptions(max_restarts=50))
        assert report.termination == "stagnation"
        assert report.restarts < 50

    def test_restart_budget(self):
        problem = gen_random_dense(60, seed=5)
        opts = SolveOptions(max_restarts=2, tol=1e-14)
        x, report = roap_solve(problem.A, problem.b, "roap2", opts)
        assert report.termination in ("max-restarts", "converged")
        assert report.restarts <= 2

    def test_inner_step_budget(self):
        problem = gen_convdiff2d(9, 10)
        opts = SolveOptions(max_inner=5)
        x, report = roap_solve(problem.A, problem.b, "roap2", opts)
        assert report.inner_iterations
        assert max(report.inner_iterations) <= 5

    def test_history_bookkeeping(self):
        problem = gen_convdiff2d(9, 10)
        x, report = roap_solve(problem.A, problem.b, "roap2")
        assert report.residual_history[0] == 1.0
        assert len(report.residual_history) == report.restarts + 1
        assert len(report.inner_iterations) == report.restarts
        assert report.final_relres == report.residual_history[-1]

    def test_first_cycle_identical_across_rhs_modes(self):
        problem = gen_convdiff2d(9, 10)
        opts_a = SolveOptions(max_restarts=1)
        opts_b = SolveOptions(max_restarts=1, rhs_mode="original-b")
        xa, _ = roap_solve(problem.A, problem.b, "roap2", opts_a)
        xb, _ = roap_solve(problem.A, problem.b, "roap2", opts_b)
        np.testing.assert_array_equal(xa, xb)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            roap_solve(CsrMatrix.identity(2), np.ones(2), "roap9")

    def test_guard_trip_reports_divergence(self, monkeypatch):
        # poisson-lshape m9 under roap3: the second cycle's tracked
        # residual runs away, and the cycle must say so rather than
        # blame orthogonality
        trips, cycles = [], []
        diverged = solvers_mod._DivergenceGuard.diverged
        cycle = solvers_mod.oap_cycle_tridiag

        def spy_guard(guard, x, av):
            trips.append(diverged(guard, x, av))
            return trips[-1]

        def spy_cycle(*args, **kwargs):
            start = len(trips)
            result = cycle(*args, **kwargs)
            cycles.append((any(trips[start:]), result.stop_cause))
            return result

        monkeypatch.setattr(solvers_mod._DivergenceGuard, "diverged", spy_guard)
        monkeypatch.setattr(solvers_mod, "oap_cycle_tridiag", spy_cycle)
        problem = gen_poisson_lshape(9)
        _, report = roap_solve(problem.A, problem.b, "roap3")
        assert report.termination == "converged"
        assert cycles == [(False, "orthogonality"), (True, "divergence")]

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_error_norms_decrease_at_restart_boundaries(self, variant):
        # the restart scheme contracts the error (not the residual);
        # deterministic replay with growing budgets exposes the
        # boundary errors without instrumenting the solver
        problem = gen_random_dense(60, seed=3)
        full_x, full_report = roap_solve(problem.A, problem.b, variant)
        assert full_report.termination == "converged"
        errs = [norm2(problem.x_true)]
        for k in range(1, full_report.restarts + 1):
            x, _ = roap_solve(problem.A, problem.b, variant,
                              SolveOptions(max_restarts=k))
            errs.append(norm2(x - problem.x_true))
        for before, after in zip(errs, errs[1:]):
            assert after <= before * (1 + 1e-8)


class TestSolveOptionsValidation:
    def test_bad_tol(self):
        with pytest.raises(ValueError):
            SolveOptions(tol=0.0)

    def test_bad_orth_tol(self):
        with pytest.raises(ValueError):
            SolveOptions(orth_tol=1.5)

    def test_bad_max_inner(self):
        with pytest.raises(ValueError):
            SolveOptions(max_inner=0)

    def test_bad_rhs_mode(self):
        with pytest.raises(ValueError):
            SolveOptions(rhs_mode="verbatim")
