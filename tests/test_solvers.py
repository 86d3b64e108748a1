import functools
import math
import sys
import threading
import warnings

import numpy as np
import pytest

import oaplib.solvers as solvers_mod
from oaplib import (BlockPartition, CsrMatrix, CycleResult, DegenerateSeed,
                    DenseMatrix, DimensionMismatch, NumericalOverflow, ap_solve,
                    gen_convdiff2d, gen_poisson_lshape, gen_random_dense,
                    gen_tridiag_unsym, init_from_vector, norm2,
                    oap_cycle_bidiag, oap_cycle_tridiag, roap_solve)
from oaplib._kernels import get_blas_threads, set_blas_threads

from conftest import (SQRT_EPS, c_update_bidiag, c_update_tridiag,
                      constructed_problem, exact_cycle,
                      orthogonality_threshold, random_wellcond, traced_peak)


def diag23():
    return CsrMatrix.from_dense(np.diag([2.0, 3.0]))


class TestInitFromVector:
    # case -> (A, rhs, w, solution, v1, c1, rtol): w = rhs seeds from A'b,
    # w = e_i from row i (v1 = A_i'/||A_i||, c1 = rhs_i/||A_i||)
    BY_HAND = {
        "diag(2, 3)": (diag23, [2.0, 3.0], [2.0, 3.0], [1.0, 1.0],
                       np.array([4.0, 9.0]) / np.sqrt(97.0),
                       13.0 / np.sqrt(97.0), 1e-15),
        "identity": (lambda: CsrMatrix.identity(6), np.arange(1.0, 7.0),
                     np.arange(1.0, 7.0), np.arange(1.0, 7.0),
                     np.arange(1.0, 7.0) / np.sqrt(91.0), np.sqrt(91.0),
                     1e-15),
        "row seed, diag(2, 3)": (diag23, [2.0, 3.0], [1.0, 0.0], [1.0, 1.0],
                                 [1.0, 0.0], 1.0, 0.0),
        "row seed": (lambda: DenseMatrix([[3.0, 4.0], [0.0, 1.0]]),
                     [10.0, 1.0], [1.0, 0.0], [2.0, 1.0], [0.6, 0.8], 2.0,
                     1e-15),
    }

    @pytest.mark.parametrize("case", BY_HAND)
    def test_by_hand(self, case):
        make, rhs, w, x, want_v1, want_c1, rtol = self.BY_HAND[case]
        v1, c1 = init_from_vector(make(), np.array(rhs), w)
        np.testing.assert_allclose(v1, want_v1, rtol=rtol, atol=0.0)
        assert c1 == pytest.approx(want_c1, rel=rtol, abs=0.0)
        assert c1 == pytest.approx(np.dot(x, v1), rel=1e-14)

    def test_constructed_solution_consistency(self, rng):
        A, b, x_true = constructed_problem(rng, 10)
        w = rng.standard_normal(10)
        v1, c1 = init_from_vector(A, b, w)
        assert abs(c1 - np.dot(x_true, v1)) <= 1e-12 * norm2(x_true)

    @pytest.mark.parametrize("floor", [None, 0.0],
                             ids=["breakdown floor", "floor 0"])
    def test_degenerate_seed(self, monkeypatch, floor):
        # A'w = 0: at or below the floor, so degenerate at a floor of 0.0
        if floor is not None:
            monkeypatch.setattr(solvers_mod, "breakdown_floor",
                                lambda A: floor)
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


class TestCoefficientUpdates:
    @pytest.mark.parametrize("update, args, want", [
        (c_update_tridiag, (5.0, 0.0, 1.0, 0.0, 123.0, -7.0), 5.0),
        (c_update_tridiag, (7.0, 2.0, 2.0, 1.0, 1.0, 1.0), 2.0),
        (c_update_bidiag, (3.0, 0.0, 1.0, 9.0), 3.0),
        (c_update_bidiag, (10.0, 2.0, 4.0, 3.0), 1.0)],
        ids=["tridiag collapse", "tridiag", "bidiag collapse", "bidiag"])
    def test_by_hand(self, update, args, want):
        assert update(*args) == want

    @pytest.mark.parametrize("engine", ["tridiagonal", "bidiagonal"])
    def test_tracks_true_coefficients(self, rng, engine):
        dense = random_wellcond(rng, 15)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(15)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        cs, V, *_ = exact_cycle(A, b, v1, c1, 10, engine)
        assert len(cs) == 11
        for k, c in enumerate(cs):
            want = float(np.dot(x_true, V[:, k]))
            assert abs(c - want) <= 1e-10 * norm2(x_true)


class TestOrthogonalityDetector:
    @pytest.mark.parametrize("cycle", [oap_cycle_bidiag, oap_cycle_tridiag])
    def test_zero_approximation_never_triggers(self, cycle):
        # c1 = 0 makes x_1 the zero vector, whose |cos| with v_2 is 0/0:
        # the first angle test passes rather than divide by zero
        problem = gen_convdiff2d(9, 10)
        v1, _ = init_from_vector(problem.A, problem.b, problem.b)
        result = cycle(problem.A, problem.b, v1, 0.0)
        assert result.inner_steps > 1


class TestOrthogonalityThreshold:
    @staticmethod
    def threshold(coeffs):
        coeffs = np.asarray(coeffs, dtype=float)
        return orthogonality_threshold(float(np.abs(coeffs).sum()),
                                       float((coeffs * coeffs).sum()))

    def test_sqrt_eps(self):
        assert SQRT_EPS == np.sqrt(np.finfo(float).eps)

    @pytest.mark.parametrize("c", [1.0, -2.5, 3e-150, 7e140])
    def test_one_coefficient_gives_sqrt_eps(self, c):
        assert self.threshold([c]) == pytest.approx(SQRT_EPS, rel=1e-15)

    @pytest.mark.parametrize("k", [2, 10, 1000])
    @pytest.mark.parametrize("c", [1.0, -0.3])
    def test_equal_coefficients_give_sqrt_k_eps(self, k, c):
        assert self.threshold([c] * k) == pytest.approx(np.sqrt(k) * SQRT_EPS,
                                                        rel=1e-12)

    def test_bounded_by_sqrt_k_eps(self, rng):
        # ||c||_1 / ||c||_2 lies in [1, sqrt(k)]: no cap is needed
        for k in (1, 3, 50, 2000):
            for coeffs in (rng.standard_normal(k),
                           np.geomspace(1.0, 1e-12, k),
                           np.r_[1.0, np.zeros(k - 1)]):
                t = self.threshold(coeffs)
                assert SQRT_EPS * (1 - 1e-15) <= t
                assert t <= np.sqrt(k) * SQRT_EPS * (1 + 1e-12)

    def test_no_coefficient_gives_sqrt_eps(self):
        assert orthogonality_threshold(0.0, 0.0) == SQRT_EPS


CYCLES = pytest.mark.parametrize("cycle", [oap_cycle_bidiag,
                                           oap_cycle_tridiag])


class TestCycleByHand:
    @CYCLES
    def test_identity_solved_by_seed_projection(self, rng, cycle):
        A = CsrMatrix.identity(5)
        b = rng.standard_normal(5)
        v1, c1 = init_from_vector(A, b, b)
        res = cycle(A, b, v1, c1)
        np.testing.assert_allclose(res.x_partial, b, rtol=1e-14)
        assert res.inner_steps == 1
        assert res.stop_cause == "breakdown"
        assert norm2(b - A.apply(res.x_partial)) <= 1e-14 * norm2(b)

    @pytest.mark.parametrize("rhs", [np.array([2.0, 3.0]), [2.0, 3.0],
                                     np.array([2, 3])],
                             ids=["float64", "list", "int64"])
    @CYCLES
    def test_diagonal_exact_after_one_step(self, cycle, rhs):
        # n - 1 = 1 step: v1 and v2 span the whole space; a list or an
        # integer array runs as its float64 values
        A = diag23()
        v1, c1 = init_from_vector(A, rhs, rhs)
        res = cycle(A, rhs, v1, c1)
        np.testing.assert_allclose(res.x_partial, [1.0, 1.0], atol=1e-12)
        assert res.inner_steps == 1
        assert res.stop_cause == "exhausted"

    @CYCLES
    def test_the_sign_of_the_seed_changes_no_bit(self, cycle):
        # from (-v1, -c1) every v_k and c_k changes sign and x does not;
        # the angle test reads |c_k|, so the cycle stops where it did
        problem = gen_convdiff2d(9, 10)
        A, b = problem.A, problem.b
        v1, c1 = init_from_vector(A, b, b)
        want = cycle(A, b, v1, c1)
        got = cycle(A, b, -v1, -c1)
        assert want.stop_cause == "orthogonality"
        assert got.x_partial.tobytes() == want.x_partial.tobytes()
        assert (got.inner_steps, got.stop_cause) == (want.inner_steps,
                                                     want.stop_cause)


class TestCycleTridiag:

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_exact_solve_with_reorthogonalized_kernel(self, rng, n):
        dense = random_wellcond(rng, n)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(n)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        cs, V, _, betas, _ = exact_cycle(A, b, v1, c1, n - 1, "tridiagonal")
        x = V @ cs
        assert len(betas) <= n - 1
        assert norm2(x - x_true) <= 1e-9 * norm2(x_true)
        assert norm2(b - A.apply(x)) <= 1e-10 * norm2(b)

    @pytest.mark.parametrize("floor", [None, 0.0],
                             ids=["breakdown floor", "floor 0"])
    @pytest.mark.parametrize("make", [DenseMatrix, CsrMatrix.from_dense],
                             ids=["dense", "csr"])
    def test_u_side_breakdown_keeps_the_last_update(self, monkeypatch, make,
                                                    floor):
        # v1 = u1 = -e2 and A v1 = 2 e2 lies along u1, so gamma_1 is 0.0
        # while beta_1 is 2.0: the cycle takes c_2 v_2, which completes
        # the exact solution, before it stops, also at a floor of 0.0
        if floor is not None:
            monkeypatch.setattr(solvers_mod, "breakdown_floor",
                                lambda A: floor)
        A = make(np.array([[-2.0, 0.0], [2.0, -2.0]]))
        b = np.array([1.0, 1.0])
        v1, c1 = init_from_vector(A, b, b)
        res = oap_cycle_tridiag(A, b, v1, c1)
        assert res.inner_steps == 1 and res.stop_cause == "breakdown"
        np.testing.assert_array_equal(res.x_partial, [-0.5, -1.0])
        _, report = roap_solve(A, b, "roap3")
        assert report.termination == "converged"
        assert report.stop_causes == ["breakdown"]


class TestCycleOverflow:
    @pytest.mark.parametrize("cycle", [oap_cycle_bidiag, oap_cycle_tridiag])
    @pytest.mark.parametrize("make", [DenseMatrix, CsrMatrix.from_dense],
                             ids=["dense", "csr"])
    def test_non_finite_coefficient_raises_at_its_step(self, make, cycle):
        # every scalar of step 1 is finite, and beta_1 = 1e-160 is above
        # the floor, but b'u_1 = 1e150 over it overflows c_2
        A = make(1e-150 * np.array([[1.0, 1e-10], [0.0, 1.0]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow) as err:
                cycle(A, np.array([1e150, 0.0]), np.array([1.0, 0.0]), 1.0)
        assert str(err.value) == "non-finite coefficient at step 1"
        assert err.value.step == 1


class TestCycleBidiag:
    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_exact_solve_with_reorthogonalized_kernel(self, rng, n):
        dense = random_wellcond(rng, n)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(n)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        cs, V, _, betas, _ = exact_cycle(A, b, v1, c1, n - 1, "bidiagonal")
        x = V @ cs
        assert len(betas) <= n - 1
        assert norm2(x - x_true) <= 1e-9 * norm2(x_true)
        assert norm2(b - A.apply(x)) <= 1e-10 * norm2(b)

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_detector_contract_at_acceptance_time(self, monkeypatch, variant):
        """Every accepted step passed |cos(x, v_{k+1})| <= sqrt(eps)
        ||c||_1 / ||c||_2 over the coefficients already in x, and a cycle
        that stops on "orthogonality" failed that test at its last step.
        x is replayed from each cycle's seed and, per step, the step's
        scalars, its new direction and the b'u row, with conftest's
        coefficient updates and the cycle's own x + v c rounding, and
        must end as the cycle's x_partial."""
        cycles = []
        two_sided = variant == "roap3"

        def step_spy(real):
            # next_v is 3rd from last; b'u reads u_k, which the two-sided
            # step reads as u and the bidiagonal one writes into next_u
            def run(*args):
                out = real(*args)
                cycles[-1]["steps"].append(dict(
                    floor=args[2], next_v=args[-3][0].copy(),
                    u=(args[6] if two_sided else args[-2])[0].copy(),
                    gamma_prev=args[8] if two_sided else 0.0, out=out))
                return out
            return run

        def cycle_spy(real):
            def run(A, rhs, v1, c1):
                cycles.append({"seed": (rhs, v1, c1), "steps": []})
                cycles[-1]["result"] = real(A, rhs, v1, c1)
                return cycles[-1]["result"]
            return run

        for name in ("bidiag_step", "tridiag_step"):
            monkeypatch.setattr(solvers_mod, name,
                                step_spy(getattr(solvers_mod, name)))
        for name in ("oap_cycle_bidiag", "oap_cycle_tridiag"):
            monkeypatch.setattr(solvers_mod, name,
                                cycle_spy(getattr(solvers_mod, name)))
        problem = gen_convdiff2d(9, 10)
        roap_solve(problem.A, problem.b, variant)
        causes = [cycle["result"].stop_cause for cycle in cycles]
        assert "orthogonality" in causes and "divergence" not in causes
        accepted = 0
        for cycle in cycles:
            rhs, v1, c1 = cycle["seed"]
            cause = cycle["result"].stop_cause
            x = np.multiply(v1, c1)
            abs_sum, sq_sum = abs(c1), c1 * c1
            c_prev, c_curr = 0.0, c1
            steps = cycle["steps"]
            for i, step in enumerate(steps):
                last = i == len(steps) - 1
                alpha, beta, gamma = step["out"]
                if beta <= step["floor"]:  # no v_{k+1}: no coefficient
                    assert last and cause == "breakdown"
                    break
                b_u = float(rhs.dot(step["u"]))
                if two_sided:
                    c = c_update_tridiag(b_u, alpha, beta, step["gamma_prev"],
                                         c_curr, c_prev)
                else:
                    c = c_update_bidiag(b_u, alpha, beta, c_curr)
                v = step["next_v"]
                threshold = SQRT_EPS * abs_sum / np.sqrt(sq_sum)
                x_norm = np.sqrt(x.dot(x))
                lost = x_norm != 0.0 and abs(x.dot(v)) / x_norm > threshold
                if last and cause == "orthogonality":
                    assert lost
                    break
                assert not lost
                x = np.add(x, np.multiply(v, c))
                abs_sum, sq_sum = abs_sum + abs(c), sq_sum + c * c
                c_prev, c_curr = c_curr, c
                accepted += 1
                if two_sided and gamma <= step["floor"]:  # update stands
                    assert last and cause == "breakdown"
            assert x.tobytes() == cycle["result"].x_partial.tobytes()
        assert accepted > 10 * len(cycles)


class TestMinimalErrorIterate:
    """The first cycle's k-step iterate is the orthogonal projection of
    x onto the cycle's Krylov space: K_k(A'A, A'b) for ``roap2``
    (Craig's method), K_k(A, Ab) for ``roap3`` on a symmetric A
    (SYMMLQ's iterate).  The oracle is a dense QR of the Krylov matrix,
    which loses accuracy as k grows: over these 20 systems the largest
    error, at k = 8, was 5.0e-12 (``roap2``) and 4.2e-12 (``roap3``)
    relative to ||x||."""

    @staticmethod
    def systems(symmetric):
        rng = np.random.default_rng(8)
        for _ in range(20):
            M = rng.standard_normal((40, 40))
            if symmetric:
                M = (M + M.T) / 2.0
            yield M + 6.0 * np.eye(40), rng.standard_normal(40)

    @pytest.mark.parametrize("k", range(1, 9))
    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_first_cycle_iterate_is_the_projection(self, monkeypatch,
                                                   variant, k):
        name = "tridiag_step" if variant == "roap3" else "bidiag_step"
        step = getattr(solvers_mod, name)

        def stop_at_k(A, k_step, *rest):  # no v_{k+1}: keeps v_1 .. v_k
            alpha, beta, gamma = step(A, k_step, *rest)
            return alpha, 0.0 if k_step == k else beta, gamma

        monkeypatch.setattr(solvers_mod, name, stop_at_k)
        for A, x_true in self.systems(symmetric=variant == "roap3"):
            b = A @ x_true
            x, report = roap_solve(DenseMatrix(A), b, variant, max_restarts=1)
            assert report.inner_iterations == [k]
            assert report.stop_causes == ["breakdown"]
            G = A.T @ A if variant == "roap2" else A
            w, cols = A.T @ b, []
            for _ in range(k):
                w = w / np.linalg.norm(w)
                cols.append(w)
                w = G @ w
            Q, _ = np.linalg.qr(np.column_stack(cols))
            assert norm2(x - Q @ (Q.T @ x_true)) <= 1e-10 * norm2(x_true)


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
            # one step spans the range: the next direction is zero
            assert report.stop_causes == ["breakdown"]
            assert report.breakdown_events == 1
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
    def test_tol_is_met_at_equality(self, variant):
        # a solve whose tol is the relres it reached stops there
        problem = gen_convdiff2d(9, 10)
        _, want = roap_solve(problem.A, problem.b, variant)
        _, report = roap_solve(problem.A, problem.b, variant,
                               tol=want.final_relres)
        assert report.termination == "converged"
        assert report.restarts == want.restarts

    def test_convdiff_45_restarts_only_on_lost_semiorthogonality(self):
        # a fixed |cos| cut at 1e-8 restarts this solve on a basis that is
        # still semiorthogonal, and it ends in stagnation near relres 1e-3
        problem = gen_convdiff2d(45, 45)  # n = 2025
        x, report = roap_solve(problem.A, problem.b, "roap2")
        assert report.termination == "converged"
        assert report.restarts <= 10
        assert norm2(problem.b - problem.A.apply(x)) <= 1e-6 * norm2(problem.b)

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_ill_conditioned_tridiagonal(self, variant):
        problem = gen_tridiag_unsym(600)
        x, report = roap_solve(problem.A, problem.b, variant, max_restarts=30)
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
                               max_restarts=50)
        assert report.termination == "stagnation"
        assert report.restarts < 50

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_one_cycle_of_n_minus_1_steps(self, rng, variant, n):
        # n - 1 steps give n orthonormal directions, the whole space: a
        # well-conditioned system is solved by one exhausted cycle
        A = DenseMatrix(rng.standard_normal((n, n)) + n * np.eye(n))
        x_true = rng.standard_normal(n)
        b = A.apply(x_true)
        x, report = roap_solve(A, b, variant)
        assert report.termination == "converged"
        assert report.inner_iterations == [n - 1]
        assert report.stop_causes == ["exhausted"]
        assert norm2(x - x_true) <= 1e-10 * norm2(x_true)

    def test_history_bookkeeping(self):
        problem = gen_convdiff2d(9, 10)
        x, report = roap_solve(problem.A, problem.b, "roap2")
        assert report.residual_history[0] == 1.0
        assert len(report.residual_history) == report.restarts + 1
        assert len(report.inner_iterations) == report.restarts
        assert len(report.stop_causes) == report.restarts
        assert report.final_relres == report.residual_history[-1]

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            roap_solve(CsrMatrix.identity(2), np.ones(2), "roap9")

    def test_guard_trip_reports_divergence(self, monkeypatch):
        # poisson-lshape m9 under roap3: the second cycle's tracked
        # residual runs away, and the cycle must say so rather than
        # blame orthogonality; it returns its best evaluated prefix,
        # which is never worse than the zero vector
        cycles = []
        cycle = solvers_mod.oap_cycle_tridiag

        def spy_cycle(A, rhs, v1, c1):
            result = cycle(A, rhs, v1, c1)
            cycles.append((A, rhs, result))
            return result

        monkeypatch.setattr(solvers_mod, "oap_cycle_tridiag", spy_cycle)
        problem = gen_poisson_lshape(9)
        _, report = roap_solve(problem.A, problem.b, "roap3")
        assert report.termination == "converged"
        assert report.stop_causes == ["orthogonality", "divergence"]
        A, rhs, result = cycles[-1]
        assert result.stop_cause == "divergence"
        assert norm2(rhs - A.apply(result.x_partial)) <= norm2(rhs)

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
            x, _ = roap_solve(problem.A, problem.b, variant, max_restarts=k)
            errs.append(norm2(x - problem.x_true))
        for before, after in zip(errs, errs[1:]):
            assert after <= before * (1 + 1e-8)


class TestZeroCycle:
    """A cycle whose x_partial is exactly zero leaves x and r, and so
    every later cycle, unchanged: the solve ends there."""

    @staticmethod
    def spy_cycle(monkeypatch, x_partial):
        calls = []

        def spy(A, rhs, v1, c1):
            calls.append(rhs)
            return CycleResult(np.full(A.ncols, x_partial), 5, "divergence")

        monkeypatch.setattr(solvers_mod, "oap_cycle_bidiag", spy)
        return calls

    def test_zero_cycle_ends_in_stagnation(self, monkeypatch):
        calls = self.spy_cycle(monkeypatch, 0.0)
        problem = gen_convdiff2d(9, 10)
        x, report = roap_solve(problem.A, problem.b, "roap2")
        assert len(calls) == 1
        assert report.termination == "stagnation"
        assert report.inner_iterations == [5]
        assert report.stop_causes == ["divergence"]
        assert report.residual_history == [1.0, 1.0]
        np.testing.assert_array_equal(x, np.zeros(problem.A.ncols))

    def test_budget_is_checked_before_stagnation(self, monkeypatch):
        calls = self.spy_cycle(monkeypatch, 0.0)
        problem = gen_convdiff2d(9, 10)
        _, report = roap_solve(problem.A, problem.b, "roap2", max_restarts=1)
        assert len(calls) == 1
        assert report.termination == "max-restarts"
        assert report.restarts == 1

    def test_tiny_nonzero_cycle_is_not_zero(self, monkeypatch):
        # 1e-170 squares to 0, so sqrt(x'x) would call this cycle zero;
        # it changed x, so the solve runs on to the three-restart rule
        calls = self.spy_cycle(monkeypatch, 1e-170)
        problem = gen_convdiff2d(9, 10)
        x, report = roap_solve(problem.A, problem.b, "roap2")
        assert x.dot(x) == 0.0 and x.any()
        assert len(calls) == 3
        assert report.termination == "stagnation"
        assert report.residual_history == [1.0] * 4

    def test_a_decrease_below_one_part_in_1e12_is_none(self, monkeypatch):
        # each cycle takes 1e-14 of the residual off: relres falls, by
        # less than the restart rule counts, so three cycles stagnate
        calls = []

        def spy(A, rhs, v1, c1):
            calls.append(rhs)
            return CycleResult(1e-14 * rhs, 5, "divergence")

        monkeypatch.setattr(solvers_mod, "oap_cycle_bidiag", spy)
        _, report = roap_solve(CsrMatrix.identity(6), np.ones(6), "roap2")
        assert len(calls) == 3
        assert report.termination == "stagnation"
        history = report.residual_history
        assert all(a > b for a, b in zip(history, history[1:]))

    def test_zero_cycle_replays_itself(self):
        # the state the default solve reaches after 61 restarts: its next
        # cycle returns the zero vector, and so does the one after it
        problem = gen_random_dense(300, seed=1235)
        A, b = problem.A, problem.b
        x, report = roap_solve(A, b, "roap2", max_restarts=61)
        assert report.termination == "max-restarts"
        r = b - A.apply(x)
        v1, c1 = init_from_vector(A, r, r)
        first = oap_cycle_bidiag(A, r, v1, c1)
        second = oap_cycle_bidiag(A, r, v1, c1)
        assert not first.x_partial.any()
        assert first.x_partial.tobytes() == second.x_partial.tobytes()
        assert first.inner_steps == second.inner_steps
        assert first.stop_cause == second.stop_cause

    def test_stops_at_the_first_zero_cycle(self):
        # the three-restart rule alone would replay this solve's zero
        # cycle twice and, at a budget of 64, run out of restarts
        problem = gen_random_dense(300, seed=1235)
        x_default, default = roap_solve(problem.A, problem.b, "roap2")
        x, report = roap_solve(problem.A, problem.b, "roap2", max_restarts=64)
        assert report.termination == default.termination == "stagnation"
        assert report.restarts == default.restarts == 62
        assert x.tobytes() == x_default.tobytes()
        assert len(report.residual_history) == report.restarts + 1


class TestRectangularBidiag:
    """The bidiagonal engine needs no square operator: b has A's row
    count and x its column count."""

    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)], ids=["tall", "wide"])
    @pytest.mark.parametrize("kind", [DenseMatrix, CsrMatrix.from_dense])
    def test_consistent_system(self, rng, shape, kind):
        A = kind(rng.standard_normal(shape))
        b = A.apply(rng.standard_normal(shape[1]))
        v1, c1 = init_from_vector(A, b, b)
        res = oap_cycle_bidiag(A, b, v1, c1)
        # an accepted step moves x off the seed's c1 v1 and cuts the residual
        assert res.inner_steps >= 2
        assert res.x_partial.shape == (shape[1],)
        seed_res = norm2(b - A.apply(c1 * v1))
        assert norm2(b - A.apply(res.x_partial)) < 1e-3 * seed_res
        x, report = roap_solve(A, b, "roap2")
        assert report.termination == "converged"
        assert norm2(b - A.apply(x)) <= 1e-10 * norm2(b)

    @pytest.mark.parametrize("draw", [0, 1], ids=["5x8", "8x5"])
    def test_guard_trip_before_any_better_prefix(self, draw):
        # badly scaled columns: the last cycle's guard trips before any
        # prefix beats the zero vector, and the zero vector it returns
        # has x's length (A's columns), not b's
        rng = np.random.default_rng(1)
        for m, n in ((5, 8), (8, 5))[:draw + 1]:
            M = rng.standard_normal((m, n)) * np.logspace(
                0, rng.uniform(2, 8), n)
            b = rng.standard_normal(m)
        x, report = roap_solve(DenseMatrix(M), b, "roap2")
        assert x.shape == (n,)
        assert report.termination == "stagnation"
        assert report.stop_causes[-1] == "divergence"
        assert report.final_relres < 1.0


class TestRectangularTwoSided:
    """The two-sided engine starts with u1 = v1, so it needs a square A:
    a non-square one is refused, naming its shape, before any step."""

    @pytest.mark.parametrize("entry", ["roap_solve", "oap_cycle_tridiag"])
    @pytest.mark.parametrize("shape", [(6, 4), (4, 6)], ids=["tall", "wide"])
    @pytest.mark.parametrize("kind", [DenseMatrix, CsrMatrix.from_dense])
    def test_refused_before_the_first_step(self, rng, monkeypatch, entry,
                                           shape, kind):
        A = kind(rng.standard_normal(shape))
        b = A.apply(rng.standard_normal(shape[1]))
        steps = []
        monkeypatch.setattr(solvers_mod, "tridiag_step",
                            lambda *a: steps.append(a))
        with pytest.raises(DimensionMismatch, match=f"{shape[0]}x{shape[1]}"):
            if entry == "roap_solve":
                roap_solve(A, b, "roap3")
            else:
                v1, c1 = init_from_vector(A, b, b)
                oap_cycle_tridiag(A, b, v1, c1)
        assert steps == []


class TestRhsLength:
    """Every solver entry rejects a right-hand side whose length is not
    A's row count (the cycles': ``tests/test_kernels.py``, in
    ``TestGuards::test_cycle_runs_on_checked_copies``)."""

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    @pytest.mark.parametrize("b", [np.zeros(5), np.ones(5)], ids=["zero", "one"])
    def test_roap_solve(self, variant, b):
        with pytest.raises(DimensionMismatch):
            roap_solve(CsrMatrix.identity(3), b, variant)

    @pytest.mark.parametrize("b", [np.zeros(5), np.ones(5)], ids=["zero", "one"])
    def test_ap_solve(self, b):
        with pytest.raises(DimensionMismatch):
            ap_solve(CsrMatrix.identity(3), b)

    def test_init_from_vector(self):
        with pytest.raises(DimensionMismatch):
            init_from_vector(diag23(), np.ones(3), np.ones(2))


class TestCycleSeed:
    """Both cycle entries take a unit v1 of A's column count (the count:
    ``tests/test_kernels.py``, ``TestGuards``), checked before any step,
    and the cycle reads the breakdown floor once."""

    @pytest.mark.parametrize("v1", [[1.0, 1.0], [1.0 + 1e-9, 0.0]],
                             ids=["norm sqrt 2", "norm 1 + 1e-9"])
    @pytest.mark.parametrize("cycle", [oap_cycle_bidiag, oap_cycle_tridiag])
    def test_non_unit_v1_refused(self, monkeypatch, cycle, v1):
        steps = []
        for name in ("bidiag_step", "tridiag_step"):
            monkeypatch.setattr(solvers_mod, name, lambda *a: steps.append(a))
        with pytest.raises(ValueError, match="unit Euclidean norm"):
            cycle(diag23(), np.ones(2), np.array(v1), 1.0)
        assert steps == []

    @pytest.mark.parametrize("cycle", [oap_cycle_bidiag, oap_cycle_tridiag])
    @pytest.mark.parametrize("c1", [math.nan, math.inf, -math.inf])
    def test_non_finite_c1_refused_before_any_step(self, monkeypatch, cycle,
                                                   c1):
        # an infinite c1 times v1's zero entry is a NaN, with NumPy's
        # RuntimeWarning; a NaN c1 ran a step, its two products included,
        # before its first coefficient overflowed
        steps = []
        for name in ("bidiag_step", "tridiag_step"):
            monkeypatch.setattr(solvers_mod, name, lambda *a: steps.append(a))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericalOverflow, match="c1"):
                cycle(diag23(), np.ones(2), np.array([0.0, 1.0]), c1)
        assert steps == []

    def test_bidiagonal_u_breakdown_ends_the_cycle(self, monkeypatch):
        # v1 in the null space of A: the first step has no u_1, returns
        # None for both next vectors, and the cycle keeps x_1 = c1 v1
        A = DenseMatrix(np.diag([1.0, 0.0]))
        outs = []
        step = solvers_mod.bidiag_step

        def spy(*args):
            outs.append(step(*args))
            return outs[-1]

        monkeypatch.setattr(solvers_mod, "bidiag_step", spy)
        res = oap_cycle_bidiag(A, np.array([1.0, 2.0]), np.array([0.0, 1.0]),
                               0.5)
        # alpha and beta at the floor: no u_1 and no v_2
        assert outs == [(0.0, 0.0, 0.0)]
        assert res.stop_cause == "breakdown"
        assert res.inner_steps == 1
        np.testing.assert_array_equal(res.x_partial, [0.0, 0.5])

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_floor_read_per_cycle_not_per_step(self, monkeypatch, variant):
        # one Frobenius norm for the seed's check and one for the cycle's
        # floor: the reads grow with cycles, not with steps
        problem = gen_convdiff2d(9, 10)
        A = problem.A
        reads = []
        norm = A.frobenius_norm

        def spy():
            reads.append(1)
            return norm()

        monkeypatch.setattr(A, "frobenius_norm", spy)
        _, report = roap_solve(A, problem.b, variant)
        assert report.restarts > 1
        assert sum(report.inner_iterations) > 10 * report.restarts
        assert len(reads) <= 2 * report.restarts


class TestCycleMemory:
    """A cycle's vectors are the rows of blocks it makes once, so what
    it holds does not grow with its steps."""

    @pytest.mark.parametrize("two_sided", [False, True],
                             ids=["bidiag", "tridiag"])
    def test_peak_does_not_grow_with_steps(self, monkeypatch, two_sided):
        problem = gen_convdiff2d(60, 60)
        A, b = problem.A, problem.b
        v1, c1 = init_from_vector(A, b, b)  # builds the product layout
        name = "tridiag_step" if two_sided else "bidiag_step"
        cycle = oap_cycle_tridiag if two_sided else oap_cycle_bidiag
        step = getattr(solvers_mod, name)
        peaks, results = {}, []
        for steps in (5, 500):
            def stop_at(A, k, *rest, steps=steps):  # no v_{k+1} at step k
                alpha, beta, gamma = step(A, k, *rest)
                return alpha, 0.0 if k == steps else beta, gamma

            monkeypatch.setattr(solvers_mod, name, stop_at)
            peaks[steps] = traced_peak(
                lambda: results.append(cycle(A, b, v1, c1)))
        assert [r.inner_steps for r in results] == [5, 500]
        assert [r.stop_cause for r in results] == ["breakdown"] * 2
        assert abs(peaks[500] - peaks[5]) < 8 * A.ncols


class TestBudget:
    # (keyword, value, message); "budget" is max_restarts or max_sweeps.
    # A fractional budget would run as its ceiling (2.5: three cycles)
    BAD = [*(("tol", tol, "tol must be positive")
             for tol in (0.0, -1.0, math.nan)),
           ("budget", -1, "{} must be >= 0"),
           *(("budget", budget, "{} must be a whole number")
             for budget in (2.5, np.float64(1.5), 2.0, 3.0, "2"))]

    @pytest.mark.parametrize("solver", ["roap2", "roap3", "ap"])
    @pytest.mark.parametrize("keyword, value, message", BAD, ids=[
        "tol 0", "tol -1", "tol nan", "-1", "2.5", "float64 1.5", "2.0",
        "3.0", "str"])
    def test_refused(self, solver, keyword, value, message):
        budget = "max_sweeps" if solver == "ap" else "max_restarts"
        keyword = budget if keyword == "budget" else keyword
        with pytest.raises(ValueError, match=f"^{message.format(budget)}$"):
            solve_with(solver, CsrMatrix.identity(3), np.ones(3),
                       **{keyword: value})

    @pytest.mark.parametrize("budget", [2, np.int64(2), np.int32(2),
                                        np.uint8(2)])
    def test_budget_of_two_runs_two_cycles(self, budget):
        # a NumPy integer runs as the int
        problem = gen_random_dense(60, seed=5)
        want = roap_solve(problem.A, problem.b, "roap2", tol=1e-14,
                          max_restarts=2)
        x, report = roap_solve(problem.A, problem.b, "roap2", tol=1e-14,
                               max_restarts=budget)
        assert report.termination == "max-restarts"
        assert report.restarts == 2 and report == want[1]
        assert x.tobytes() == want[0].tobytes()

    @pytest.mark.parametrize("variant", ["roap2", "roap3"])
    def test_zero_restarts_runs_no_cycle(self, variant):
        b = np.ones(3)
        x, report = roap_solve(CsrMatrix.identity(3), b, variant,
                               max_restarts=0)
        assert report.termination == "max-restarts"
        assert report.restarts == 0
        assert report.residual_history == [1.0]
        np.testing.assert_array_equal(x, np.zeros(3))


@pytest.fixture
def blas():
    """numpy's OpenBLAS thread count as ``(get, set)``; the process's
    count is restored afterwards."""
    saved = get_blas_threads()
    yield get_blas_threads, set_blas_threads
    set_blas_threads(saved)


def count_products(monkeypatch, A, seen, first=None):
    """Record the OpenBLAS thread count on each product of ``A`` and in
    each reduction step on ``A``, which makes its products in its one
    compiled call (``solvers.bidiag_step`` and ``tridiag_step``, patched
    where the cycle looks them up); the first record calls ``first()``
    before it reads the count."""
    def record():
        if first is not None and not seen:
            first()
        seen.append(get_blas_threads())

    for name in ("apply", "apply_transpose"):
        product = getattr(A, name)

        def spy(v, product=product):
            record()
            return product(v)

        monkeypatch.setattr(A, name, spy)
    for name in ("bidiag_step", "tridiag_step"):
        step = getattr(solvers_mod, name)

        def step_spy(B, *args, step=step):
            if B is A:
                record()
            return step(B, *args)

        monkeypatch.setattr(solvers_mod, name, step_spy)


def solve_with(solver, A, b, **kwargs):
    if solver == "ap":
        return ap_solve(A, b, BlockPartition.equal_blocks(A.nrows, 2),
                        **kwargs)
    return roap_solve(A, b, solver, **kwargs)


class TestOneBlasThread:
    """A solve holds numpy's OpenBLAS to the calling thread for its whole
    body and gives the caller's count back, on return and on raise."""

    def test_handle_binds_numpys_openblas(self, blas):
        get, put = blas
        for count in (1, 2):
            put(count)
            assert get() == count

    @pytest.mark.parametrize("solver", ["roap2", "roap3", "ap"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_products_run_on_one_thread_and_the_count_comes_back(
            self, blas, monkeypatch, solver, count):
        get, put = blas
        problem = gen_convdiff2d(9, 10)
        seen = []
        count_products(monkeypatch, problem.A, seen)
        put(count)
        _, report = solve_with(solver, problem.A, problem.b)
        assert report.termination == "converged"
        assert get() == count
        assert len(seen) > 10 and set(seen) == {1}

    @pytest.mark.parametrize("solver", ["roap3", "ap"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_count_comes_back_after_a_raise(self, blas, monkeypatch, rng,
                                            solver, count):
        # each raises after its one product: roap3 refuses the rectangular
        # operator after the seed's A'r, and ap's seed A'b is zero
        get, put = blas
        if solver == "roap3":
            A = CsrMatrix.from_dense(rng.standard_normal((6, 4)))
            b, error = A.apply(np.ones(4)), DimensionMismatch
        else:
            A = CsrMatrix.from_dense(np.diag([1.0, 0.0]))
            b, error = np.array([0.0, 1.0]), DegenerateSeed
        seen = []
        count_products(monkeypatch, A, seen)
        put(count)
        with pytest.raises(error):
            if solver == "roap3":
                roap_solve(A, b, "roap3")
            else:
                ap_solve(A, b)
        assert get() == count
        assert seen == [1]

    def test_concurrent_solves_keep_the_callers_count(self, blas,
                                                      monkeypatch):
        # both solves are inside at once; the first one out must leave
        # the other on one thread, and the last one out restores 2
        get, put = blas
        put(2)
        barrier = threading.Barrier(2, timeout=30)
        first_out = threading.Event()
        problems = [gen_convdiff2d(9, 10), gen_convdiff2d(9, 10)]
        seen = [[], []]
        count_products(monkeypatch, problems[0].A, seen[0], barrier.wait)
        count_products(monkeypatch, problems[1].A, seen[1],
                       lambda: (barrier.wait(), first_out.wait(30)))
        errors = []

        def run(i):
            try:
                solve_with("roap2", problems[i].A, problems[i].b)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)
            finally:
                if i == 0:
                    first_out.set()

        threads = [threading.Thread(target=run, args=(i,)) for i in (0, 1)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(seen[0]) > 10 and len(seen[1]) > 10
        assert set(seen[0]) == set(seen[1]) == {1}
        assert get() == 2

    def test_stress_many_threads_short_switch_interval(self, blas,
                                                        monkeypatch):
        # more threads than cores, each entering and leaving solves while
        # the others run: a lost update of the shared depth would leave a
        # product on two threads or the caller's count unrestored
        get, put = blas
        put(2)
        problems = [gen_convdiff2d(5, 6) for _ in range(4)]
        seen = [[] for _ in problems]
        for problem, counts in zip(problems, seen):
            count_products(monkeypatch, problem.A, counts)
        errors = []

        def run(problem):
            try:
                for variant in ("roap2", "roap3") * 3:
                    solve_with(variant, problem.A, problem.b)
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=run, args=(p,))
                       for p in problems]
            for t in threads:
                t.start()
            for t in threads:
                t.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(len(counts) > 60 and set(counts) == {1}
                   for counts in seen)
        assert get() == 2

    @pytest.mark.parametrize("case", ["tridiag-unsym-20000-roap2",
                                      "poisson-lshape-m14-ap"])
    def test_outcome_does_not_depend_on_the_callers_count(self, blas, case):
        # at n = 20,000 OpenBLAS splits a ddot across its threads, and
        # LAPACK's QR threads too: each solve here changed with the count
        _, put = blas
        if case.endswith("roap2"):
            problem, solver = gen_tridiag_unsym(20_000), "roap2"
            kwargs = {"max_restarts": 1}
        else:
            problem, solver = gen_poisson_lshape(14), "ap"
            kwargs = {"max_sweeps": 5000}
        outcomes = []
        for count in (1, 2):
            put(count)
            x, report = solve_with(solver, problem.A, problem.b, **kwargs)
            outcomes.append((x.tobytes(), report.termination,
                             report.restarts, report.inner_iterations))
        assert outcomes[0] == outcomes[1]


SCALED_PROBLEMS = {"convdiff 19x19": lambda: gen_convdiff2d(19, 19),
                   "tridiag-unsym 600": lambda: gen_tridiag_unsym(600)}


@functools.lru_cache(maxsize=None)
def unscaled_solve(name, solver):
    """The problem ``name``, and its solve under ``solver`` with the
    solver's defaults (``ap``: one block; ``ap 2 blocks``: two, the split
    that ``oap bench`` runs)."""
    problem = SCALED_PROBLEMS[name]()
    if solver == "ap 2 blocks":
        solve = functools.partial(ap_solve, partition=BlockPartition
                                  .equal_blocks(problem.A.nrows, 2))
    elif solver == "ap":
        solve = ap_solve
    else:
        solve = functools.partial(roap_solve, variant=solver)
    return problem, solve, solve(problem.A, problem.b)


class TestPowerOfTwoScaling:
    """Scaling b by 2^e scales every vector of a solve by 2^e exactly and
    leaves every ratio as it was, so the solve of 2^e b returns 2^e x bit
    for bit, with the same report.  The seed tests compare ||A'r|| with
    the breakdown floor times ||r||, not with the floor alone, which
    stopped these solves from a b of ~1e-6 (e = -24 on convdiff 19x19);
    ``ap`` drops a block step's p_perp relative to ||p||, not to ||A_B||,
    which ended its two-block solves in max-restarts from e = -40."""

    @pytest.mark.parametrize("e", [-20, -40, -60, -100, -300, 20, 100, 300])
    @pytest.mark.parametrize("solver", ["roap2", "roap3", "ap",
                                        "ap 2 blocks"])
    @pytest.mark.parametrize("name", SCALED_PROBLEMS)
    def test_solve_of_scaled_b_is_the_scaled_solve(self, name, solver, e):
        problem, solve, (x, report) = unscaled_solve(name, solver)
        assert report.termination == "converged"
        x_scaled, report_scaled = solve(problem.A, np.ldexp(problem.b, e))
        assert x_scaled.tobytes() == np.ldexp(x, e).tobytes()
        assert report_scaled == report

    @pytest.mark.parametrize("solver", ["roap2", "roap3", "ap"])
    def test_b_whose_norm_underflows_is_solved_scaled(self, solver):
        # every |b_i| below ~1e-162: b'b underflows to 0.0, which read as
        # a zero b and returned x = 0 labelled converged; b = 2^-664 b'
        # with max |b'| in [1/2, 1), solved as b' and scaled back
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        b = np.array([1e-200, 1e-200])
        assert np.dot(b, b) == 0.0
        solve = ap_solve if solver == "ap" else functools.partial(
            roap_solve, variant=solver)
        x, report = solve(A, b)
        x_unit, report_unit = solve(A, np.ldexp(b, 664))
        assert report_unit.termination == "converged"
        assert x.tobytes() == np.ldexp(x_unit, -664).tobytes()
        assert report == report_unit
        assert np.all(x > 0.0)
