import numpy as np
import pytest

from oaplib import (BlockPartition, CsrMatrix, DegenerateSeed, DenseMatrix,
                    DimensionMismatch, EmptySubspace, ap_factor, ap_init,
                    ap_solve, ap_sweep, gen_convdiff2d, norm2, project_onto)

from conftest import constructed_problem, oracle_projection


class TestApInit:
    def test_identity(self):
        A = CsrMatrix.identity(2)
        state = ap_init(A, np.array([3.0, 4.0]))
        np.testing.assert_allclose(state.p, [3.0, 4.0], rtol=1e-15)
        assert state.c == pytest.approx(25.0, rel=1e-15)

    def test_diagonal_hand_arithmetic(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        state = ap_init(A, np.array([2.0, 3.0]))  # solution (1, 1)
        np.testing.assert_allclose(state.p, [52.0 / 97.0, 117.0 / 97.0],
                                   rtol=1e-14)
        assert state.c == pytest.approx(169.0 / 97.0, rel=1e-14)
        assert state.c == pytest.approx(np.dot([1.0, 1.0], state.p), rel=1e-13)

    def test_constructed_consistency(self, rng):
        A, b, x_true = constructed_problem(rng, 8)
        state = ap_init(A, b)
        slack = 1e-12 * norm2(x_true) * norm2(state.p)
        assert abs(state.c - np.dot(x_true, state.p)) <= slack

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
        state = ap_init(A, b)
        W = np.column_stack([state.p, A.to_dense().T])
        l = np.concatenate(([state.c], b))
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
        state = ap_sweep(blocks, ap_init(A, b))
        assert norm2(state.p - x_true) <= 1e-10 * norm2(x_true)

    def test_identity_exact_after_first_sweep(self, rng):
        A = CsrMatrix.identity(6)
        x_true = rng.standard_normal(6)
        for k in (1, 2, 3):
            blocks = ap_factor(A, x_true, BlockPartition.equal_blocks(6, k))
            state = ap_sweep(blocks, ap_init(A, x_true))
            assert norm2(state.p - x_true) <= 1e-12 * norm2(x_true)

    def test_two_blocks_strictly_reduce_error(self, rng):
        A, b, x_true = constructed_problem(rng, 4)
        state = ap_init(A, b)
        before = norm2(x_true - state.p)
        state = ap_sweep(ap_factor(A, b, BlockPartition.equal_blocks(4, 2)),
                         state)
        assert norm2(x_true - state.p) < before

    def test_projection_growth_and_consistency_within_sweep(self, rng):
        # replay the sweep block by block to observe intermediate states
        A, b, x_true = constructed_problem(rng, 10)
        partition = BlockPartition.equal_blocks(10, 3)
        state = ap_init(A, b)
        p, c = state.p, state.c
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
        final = ap_sweep(ap_factor(A, b, partition), state)
        np.testing.assert_allclose(final.p, p, rtol=1e-13, atol=1e-13)

    def test_rank_deficient_block_matches_project_onto_replay(self, rng):
        M = rng.standard_normal((8, 8))
        M[2] = M[0]  # repeated row inside block [0, 4); b stays consistent
        A = DenseMatrix(M)
        b = A.apply(rng.standard_normal(8))
        partition = BlockPartition.equal_blocks(8, 2)
        blocks = ap_factor(A, b, partition)
        assert [blk.Q.shape[1] for blk in blocks] == [3, 4]
        state = ap_init(A, b)
        p, c = state.p, state.c
        for start, stop in partition.blocks():
            W = np.column_stack([p, A.rows_dense(start, stop).T])
            p, c = project_onto(W, np.concatenate(([c], b[start:stop])))
        swept = ap_sweep(blocks, state)
        assert norm2(swept.p - p) <= 1e-12 * norm2(p)
        assert swept.c == pytest.approx(c, rel=1e-12)

    def test_perp_dropped_when_p_lies_in_block_row_space(self, rng):
        # one block of an underdetermined system: the seed alpha A'b is
        # already in ran(A'), so the step keeps only the block projection
        A = DenseMatrix(rng.standard_normal((4, 7)))
        b = rng.standard_normal(4)
        (blk,) = ap_factor(A, b, BlockPartition.equal_blocks(4, 1))
        state = ap_sweep([blk], ap_init(A, b))
        np.testing.assert_array_equal(state.p, blk.u)
        assert state.c == blk.zz
        x_min = np.linalg.pinv(A.to_dense()) @ b
        assert norm2(state.p - x_min) <= 1e-12 * norm2(x_min)


class TestApSolve:
    def test_identity_single_sweep(self, rng):
        A = CsrMatrix.identity(5)
        b = rng.standard_normal(5)
        x, report = ap_solve(A, b, BlockPartition.equal_blocks(5, 2))
        assert report.termination == "converged"
        assert report.restarts == 1
        np.testing.assert_allclose(x, b, rtol=1e-12)

    def test_diagonal_two_blocks(self):
        A = CsrMatrix.from_dense(np.diag([2.0, 3.0]))
        x, report = ap_solve(A, np.array([2.0, 3.0]),
                             BlockPartition.equal_blocks(2, 2), tol=1e-12)
        assert report.termination == "converged"
        assert report.final_relres <= 1e-12

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

    def test_factors_each_block_once(self, monkeypatch):
        problem = gen_convdiff2d(9, 10)
        calls = []
        rows_dense = CsrMatrix.rows_dense

        def spy(self, start, stop):
            calls.append((start, stop))
            return rows_dense(self, start, stop)

        monkeypatch.setattr(CsrMatrix, "rows_dense", spy)
        partition = BlockPartition.equal_blocks(90, 4)
        x, report = ap_solve(problem.A, problem.b, partition)
        assert report.restarts > 1
        assert calls == list(partition.blocks())

    @pytest.mark.parametrize("bounds", [[0, 30, 60], [0, 60, 100]],
                             ids=["short", "long"])
    def test_partition_must_cover_rows(self, bounds):
        problem = gen_convdiff2d(9, 10)
        with pytest.raises(DimensionMismatch):
            ap_solve(problem.A, problem.b, BlockPartition(bounds))


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
