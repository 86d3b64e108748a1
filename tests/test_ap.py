import numpy as np
import pytest

from oaplib import (BlockPartition, CsrMatrix, DegenerateSeed, DenseMatrix,
                    DimensionMismatch, EmptySubspace, NonFiniteVector,
                    ap_factor, ap_init, ap_solve, ap_sweep, gen_convdiff2d,
                    norm2, project_onto)

from conftest import constructed_problem, oracle_projection


class TestApInit:
    def test_identity(self):
        A = CsrMatrix.identity(2)
        p, c = ap_init(A, np.array([3.0, 4.0]))
        np.testing.assert_allclose(p, [3.0, 4.0], rtol=1e-15)
        assert c == pytest.approx(25.0, rel=1e-15)

    def test_diagonal_hand_arithmetic(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        p, c = ap_init(A, np.array([2.0, 3.0]))  # solution (1, 1)
        np.testing.assert_allclose(p, [52.0 / 97.0, 117.0 / 97.0],
                                   rtol=1e-14)
        assert c == pytest.approx(169.0 / 97.0, rel=1e-14)
        assert c == pytest.approx(np.dot([1.0, 1.0], p), rel=1e-13)

    def test_constructed_consistency(self, rng):
        A, b, x_true = constructed_problem(rng, 8)
        p, c = ap_init(A, b)
        slack = 1e-12 * norm2(x_true) * norm2(p)
        assert abs(c - np.dot(x_true, p)) <= slack

    def test_degenerate(self):
        A = CsrMatrix.from_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateSeed):
            ap_init(A, np.array([0.0, 1.0]))  # A'b = 0


class TestProjectOnto:
    def test_single_unit_column(self, rng):
        v = rng.standard_normal(6)
        v /= norm2(v)
        p, c = project_onto(v, [5.0])
        np.testing.assert_allclose(p, 5.0 * v, rtol=1e-13)
        assert c == pytest.approx(25.0, rel=1e-13)

    def test_full_space_recovers_solution(self, rng):
        A, b, x_true = constructed_problem(rng, 7)
        p0, c0 = ap_init(A, b)
        W = np.column_stack([p0, A.to_dense().T])
        l = np.concatenate(([c0], b))
        p, c = project_onto(W, l)
        assert norm2(p - x_true) <= 1e-10 * norm2(x_true)

    def test_matches_normal_equations_oracle(self, rng):
        x_true = rng.standard_normal(10)
        W = rng.standard_normal((10, 4))
        l = W.T @ x_true
        p, c = project_onto(W, l)
        p_ref, c_ref = oracle_projection(W, l)
        assert norm2(p - p_ref) <= 1e-10 * max(norm2(p_ref), 1.0)
        assert c == pytest.approx(c_ref, rel=1e-10)

    def test_rank_deficient_columns_dropped(self, rng):
        x_true = rng.standard_normal(8)
        base = rng.standard_normal((8, 3))
        W = np.column_stack([base, base[:, 0]])  # exact dependency
        l = W.T @ x_true
        p, c = project_onto(W, l)
        p_ref, _ = oracle_projection(base, base.T @ x_true)
        assert norm2(p - p_ref) <= 1e-10 * max(norm2(p_ref), 1.0)

    def test_all_columns_dropped(self):
        with pytest.raises(EmptySubspace):
            project_onto(np.zeros((5, 2)), np.zeros(2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            project_onto(np.ones((4, 2)), np.ones(3))


class TestApSweep:
    def test_single_block_solves_exactly(self, rng):
        A, b, x_true = constructed_problem(rng, 6)
        blocks = ap_factor(A, b, BlockPartition.equal_blocks(6, 1))
        p, c = ap_sweep(blocks, *ap_init(A, b))
        assert norm2(p - x_true) <= 1e-10 * norm2(x_true)

    def test_identity_exact_after_first_sweep(self, rng):
        A = CsrMatrix.identity(6)
        x_true = rng.standard_normal(6)
        for k in (1, 2, 3):
            blocks = ap_factor(A, x_true, BlockPartition.equal_blocks(6, k))
            p, c = ap_sweep(blocks, *ap_init(A, x_true))
            assert norm2(p - x_true) <= 1e-12 * norm2(x_true)

    def test_two_blocks_strictly_reduce_error(self, rng):
        A, b, x_true = constructed_problem(rng, 4)
        p, c = ap_init(A, b)
        before = norm2(x_true - p)
        p, c = ap_sweep(ap_factor(A, b, BlockPartition.equal_blocks(4, 2)),
                        p, c)
        assert norm2(x_true - p) < before

    def test_projection_growth_and_consistency_within_sweep(self, rng):
        # replay the sweep block by block to observe intermediate states
        A, b, x_true = constructed_problem(rng, 10)
        partition = BlockPartition.equal_blocks(10, 3)
        p0, c0 = ap_init(A, b)
        p, c = p0, c0
        for start, stop in partition.blocks():
            W = np.column_stack([p, A.rows_dense(start, stop).T])
            l = np.concatenate(([c], b[start:stop]))
            p_new, c_new = project_onto(W, l)
            assert norm2(p_new) >= norm2(p) * (1 - 1e-12)
            assert (norm2(x_true - p_new)
                    <= norm2(x_true - p) * (1 + 1e-12))
            slack = 1e-10 * norm2(x_true) * max(norm2(p_new), 1.0)
            assert abs(c_new - np.dot(x_true, p_new)) <= slack
            p, c = p_new, c_new
        final_p, _ = ap_sweep(ap_factor(A, b, partition), p0, c0)
        np.testing.assert_allclose(final_p, p, rtol=1e-13, atol=1e-13)

    def test_rank_deficient_block_matches_project_onto_replay(self, rng):
        M = rng.standard_normal((8, 8))
        M[2] = M[0]  # repeated row inside block [0, 4); b stays consistent
        A = DenseMatrix(M)
        b = A.apply(rng.standard_normal(8))
        partition = BlockPartition.equal_blocks(8, 2)
        blocks = ap_factor(A, b, partition)
        assert [Q.shape[1] for Q, *_ in blocks] == [3, 4]
        p0, c0 = ap_init(A, b)
        p, c = p0, c0
        for start, stop in partition.blocks():
            W = np.column_stack([p, A.rows_dense(start, stop).T])
            p, c = project_onto(W, np.concatenate(([c], b[start:stop])))
        swept_p, swept_c = ap_sweep(blocks, p0, c0)
        assert norm2(swept_p - p) <= 1e-12 * norm2(p)
        assert swept_c == pytest.approx(c, rel=1e-12)

    def test_perp_dropped_when_p_lies_in_block_row_space(self, rng):
        # one block of an underdetermined system: the seed alpha A'b is
        # already in ran(A'), so the step keeps only the block projection
        A = DenseMatrix(rng.standard_normal((4, 7)))
        b = rng.standard_normal(4)
        (blk,) = ap_factor(A, b, BlockPartition.equal_blocks(4, 1))
        _, _, u, zz, _ = blk
        p, c = ap_sweep([blk], *ap_init(A, b))
        np.testing.assert_array_equal(p, u)
        assert c == zz
        x_min = np.linalg.pinv(A.to_dense()) @ b
        assert norm2(p - x_min) <= 1e-12 * norm2(x_min)

    def test_dropped_perp_returns_a_copy_of_the_block_projection(self, rng):
        # the drop branch hands back u, which later sweeps reuse: writing
        # into the returned p must not change the next sweep's result
        A = DenseMatrix(rng.standard_normal((4, 7)))
        b = rng.standard_normal(4)
        blocks = ap_factor(A, b, BlockPartition.equal_blocks(4, 1))
        p0, c0 = ap_init(A, b)
        first, c_first = ap_sweep(blocks, p0.copy(), c0)
        expected = first.tobytes()
        first[:] = 7.0
        again, c_again = ap_sweep(blocks, p0.copy(), c0)
        assert again.tobytes() == expected
        assert c_again == c_first

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_factor_refuses_a_non_finite_rhs(self, bad):
        # as ap_init and ap_solve do: the entry would reach its block's z
        A = gen_convdiff2d(3, 3).A
        b = np.ones(9)
        b[2] = bad
        partition = BlockPartition.equal_blocks(9, 2)
        with pytest.raises(NonFiniteVector, match="b contains"):
            ap_factor(A, b, partition)
        with pytest.raises(NonFiniteVector, match="b contains"):
            ap_init(A, b)
        with pytest.raises(NonFiniteVector, match="b contains"):
            ap_solve(A, b, partition)


class TestApSolve:
    def test_identity_single_sweep(self, rng):
        A = CsrMatrix.identity(5)
        b = rng.standard_normal(5)
        x, report = ap_solve(A, b, BlockPartition.equal_blocks(5, 2))
        assert report.termination == "converged"
        assert report.restarts == 1
        assert report.stop_causes == []  # sweeps are not cycles
        np.testing.assert_allclose(x, b, rtol=1e-12)

    def test_diagonal_two_blocks(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        x, report = ap_solve(A, np.array([2.0, 3.0]),
                             BlockPartition.equal_blocks(2, 2), tol=1e-12)
        assert report.termination == "converged"
        assert report.final_relres <= 1e-12

    @pytest.mark.parametrize("kwargs,match", [
        ({"tol": float("nan")}, "tol must be positive"),
        ({"tol": 0.0}, "tol must be positive"),
        ({"max_sweeps": -1}, "max_sweeps must be >= 0"),
        ({"max_sweeps": 2.5}, "max_sweeps must be a whole number"),
        ({"max_sweeps": np.float64(1.5)}, "max_sweeps must be a whole number"),
        ({"max_sweeps": 3.0}, "max_sweeps must be a whole number"),
    ])
    def test_rejects_bad_budget(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            ap_solve(CsrMatrix.identity(3), np.ones(3), **kwargs)

    def test_zero_max_sweeps_runs_no_sweep(self):
        x, report = ap_solve(CsrMatrix.identity(3), np.ones(3), max_sweeps=0)
        assert report.restarts == 0 and report.termination == "max-restarts"

    def test_numpy_integer_max_sweeps_runs_as_the_int(self):
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((6, 6)) + 6.0 * np.eye(6))
        b = rng.standard_normal(6)
        partition = BlockPartition.equal_blocks(6, 2)
        want, _ = ap_solve(A, b, partition, tol=1e-300, max_sweeps=7)
        x, report = ap_solve(A, b, partition, tol=1e-300,
                             max_sweeps=np.int64(7))
        assert report.restarts == 7 and x.tobytes() == want.tobytes()

    def test_none_max_sweeps_is_the_default_of_5000(self):
        # check_budget documents None as the solver's default, the budget
        # the CLI and the benchmark run; a tol no rounded residual meets
        # spends the whole budget
        rng = np.random.default_rng(5)
        A = DenseMatrix(rng.standard_normal((6, 6)) + 6.0 * np.eye(6))
        b = rng.standard_normal(6)
        partition = BlockPartition.equal_blocks(6, 2)
        x, report = ap_solve(A, b, partition, tol=1e-300, max_sweeps=None)
        assert report.restarts == 5000
        assert report.termination == "max-restarts"
        x_5000, _ = ap_solve(A, b, partition, tol=1e-300, max_sweeps=5000)
        assert x.tobytes() == x_5000.tobytes()

    def test_zero_rhs(self):
        A = CsrMatrix.identity(3)
        x, report = ap_solve(A, np.zeros(3))
        assert report.termination == "converged"
        np.testing.assert_array_equal(x, np.zeros(3))

    def test_convection_diffusion_baseline(self):
        problem = gen_convdiff2d(9, 10)
        x, report = ap_solve(problem.A, problem.b,
                             BlockPartition.equal_blocks(90, 4),
                             tol=1e-6, max_sweeps=5000)
        assert report.termination == "converged"
        assert norm2(problem.b - problem.A.apply(x)) <= 1e-6 * norm2(problem.b)

    @staticmethod
    def _spy_rows_dense(monkeypatch):
        calls = []
        rows_dense = CsrMatrix.rows_dense

        def spy(self, start, stop):
            calls.append((start, stop))
            return rows_dense(self, start, stop)

        monkeypatch.setattr(CsrMatrix, "rows_dense", spy)
        return calls

    def test_factors_each_block_once(self, monkeypatch):
        problem = gen_convdiff2d(9, 10)
        calls = self._spy_rows_dense(monkeypatch)
        partition = BlockPartition.equal_blocks(90, 4)
        x, report = ap_solve(problem.A, problem.b, partition)
        assert report.restarts > 1
        assert calls == list(partition.blocks())

    def test_zero_rhs_factors_no_block(self, monkeypatch):
        problem = gen_convdiff2d(9, 10)
        calls = self._spy_rows_dense(monkeypatch)
        x, report = ap_solve(problem.A, np.zeros(90),
                             BlockPartition.equal_blocks(90, 4))
        assert report.termination == "converged"
        np.testing.assert_array_equal(x, np.zeros(90))
        assert calls == []

    @pytest.mark.parametrize("bounds", [[0, 30, 60], [0, 60, 100]],
                             ids=["short", "long"])
    @pytest.mark.parametrize("zero_b", [False, True], ids=["b", "zero-b"])
    def test_partition_must_cover_rows(self, bounds, zero_b):
        problem = gen_convdiff2d(9, 10)
        b = np.zeros(90) if zero_b else problem.b
        with pytest.raises(DimensionMismatch):
            ap_solve(problem.A, b, BlockPartition(bounds))


class TestBlockPartition:
    def test_equal_blocks_remainder_in_last(self):
        part = BlockPartition.equal_blocks(10, 3)
        assert list(part.blocks()) == [(0, 3), (3, 6), (6, 10)]

    def test_single_block(self):
        part = BlockPartition.equal_blocks(4, 1)
        assert list(part.blocks()) == [(0, 4)]

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            BlockPartition(np.array([1, 4]))
        with pytest.raises(ValueError):
            BlockPartition(np.array([0, 3, 3, 5]))
        with pytest.raises(ValueError):
            BlockPartition.equal_blocks(3, 9)
        # a bound that is not a whole number is refused, not truncated
        for bounds in ([0, 2.5, 5], np.array([0.0, 2.7, 5.0]),
                       [0, float("nan"), 5], [0, float("inf")]):
            with pytest.raises(ValueError, match="whole numbers"):
                BlockPartition(bounds)
        for bounds in (5, [[0, 2, 5]]):
            with pytest.raises(ValueError, match="1-D"):
                BlockPartition(bounds)

    def test_integral_float_bounds_accepted(self):
        part = BlockPartition(np.array([0.0, 2.0, 5.0]))
        assert part.bounds.dtype == np.int64
        assert list(part.blocks()) == [(0, 2), (2, 5)]

    def test_bounds_cannot_change_after_the_checks(self):
        # the checks run once, at construction: neither an entry nor the
        # field can be replaced afterwards
        part = BlockPartition([0, 2, 4])
        with pytest.raises(ValueError, match="read-only"):
            part.bounds[1] = 7
        with pytest.raises(AttributeError, match="bounds"):
            part.bounds = [0, 2.5, 4]
        assert list(part.blocks()) == [(0, 2), (2, 4)]

    def test_bounds_are_a_copy_of_the_callers_array(self):
        given = np.array([0, 2, 4], dtype=np.int64)
        part = BlockPartition(given)
        given[1] = 7
        assert given.flags.writeable
        assert list(part.blocks()) == [(0, 2), (2, 4)]
