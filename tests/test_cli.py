import numpy as np
import pytest

from oaplib import (CsrMatrix, gen_convdiff2d, init_from_vector,
                    oap_cycle_bidiag, oap_cycle_tridiag, read_matrix_market)
from oaplib.cli import main, run_case
from oaplib.reporting import read_records_csv
from oaplib.solvers import SolveOptions


class TestRunCase:
    def test_identity_roap2(self):
        from oaplib.problems import GeneratedProblem
        A = CsrMatrix.identity(6)
        b = np.arange(1.0, 7.0)
        rec = run_case(GeneratedProblem(A, b, None, "eye"), "roap2",
                       SolveOptions())
        assert rec.converged
        assert rec.relres <= 1e-15
        assert rec.restarts == 1

    @pytest.mark.parametrize("solver", ["oap2", "oap3", "ap"])
    def test_other_solvers_on_identity(self, solver):
        from oaplib.problems import GeneratedProblem
        A = CsrMatrix.identity(6)
        b = np.arange(1.0, 7.0)
        rec = run_case(GeneratedProblem(A, b, None, "eye"), solver,
                       SolveOptions())
        assert rec.converged
        assert rec.relres <= 1e-12

    def test_relres_recomputed_from_scratch(self):
        problem = gen_convdiff2d(9, 10)
        rec = run_case(problem, "roap2", SolveOptions())
        x, report = __import__("oaplib").roap_solve(problem.A, problem.b, "roap2")
        assert abs(rec.relres - report.final_relres) <= 1e-12

    def test_relerr_reported_when_truth_known(self):
        problem = gen_convdiff2d(4, 4, constructed=True)
        rec = run_case(problem, "roap2", SolveOptions())
        assert rec.relerr is not None and rec.relerr < 1e-5

    def test_solver_failure_recorded_not_raised(self):
        from oaplib.problems import GeneratedProblem
        A = CsrMatrix.identity(3)
        b = np.array([1.0, np.nan, 1.0])
        problem = GeneratedProblem(A, b, None, "bad-rhs")
        rec = run_case(problem, "roap3", SolveOptions())
        assert rec.termination == "error: NonFiniteVector"
        assert not rec.converged
        assert rec.relres == float("inf")

    def test_seed_overflow_recorded(self):
        from oaplib.problems import GeneratedProblem
        A = gen_convdiff2d(4, 4).A
        problem = GeneratedProblem(A, np.full(16, 1e160), None, "huge-rhs")
        with pytest.warns(RuntimeWarning, match="overflow"):
            rec = run_case(problem, "roap2", SolveOptions())
        assert rec.termination == "error: NumericalOverflow"


class TestGen:
    def test_writes_matrix_market_files(self, tmp_path, capsys):
        prefix = tmp_path / "ex3"
        code = main(["gen", "--family", "tridiag-unsym", "--n", "12",
                     str(prefix)])
        assert code == 0
        A = read_matrix_market(f"{prefix}.mtx")
        b = read_matrix_market(f"{prefix}_b.mtx")
        x = read_matrix_market(f"{prefix}_x.mtx")
        assert A.shape == (12, 12)
        assert np.linalg.norm(A.apply(x) - b) <= 1e-12 * np.linalg.norm(b)

    def test_gen_without_known_solution_writes_two_files(self, tmp_path,
                                                         capsys):
        prefix = tmp_path / "ls"
        code = main(["gen", "--family", "poisson-lshape", "--m", "3",
                     str(prefix)])
        assert code == 0
        assert (tmp_path / "ls.mtx").exists()
        assert (tmp_path / "ls_b.mtx").exists()
        assert not (tmp_path / "ls_x.mtx").exists()

    def test_gen_needs_family(self, tmp_path):
        assert main(["gen", str(tmp_path / "p")]) == 1


class TestSolve:
    def test_solve_from_files(self, tmp_path, capsys):
        prefix = tmp_path / "cd"
        main(["gen", "--family", "convdiff2d", "--nx", "9", "--ny", "10",
              str(prefix)])
        capsys.readouterr()
        code = main(["solve", "--matrix", f"{prefix}.mtx",
                     "--rhs", f"{prefix}_b.mtx", "--solver", "roap2"])
        out = capsys.readouterr().out
        assert code == 0
        records = read_records_csv(out)
        assert len(records) == 1
        assert records[0].relres <= 1e-6
        assert records[0].n == 90

    def test_solve_from_family(self, capsys):
        code = main(["solve", "--family", "tridiag-unsym", "--n", "200",
                     "--solver", "roap3"])
        assert code == 0
        rec = read_records_csv(capsys.readouterr().out)[0]
        assert rec.relerr is not None

    def test_nonconvergence_exit_code(self, capsys):
        code = main(["solve", "--family", "random-dense", "--n", "60",
                     "--seed", "3", "--solver", "roap2",
                     "--max-restarts", "1", "--tol", "1e-12"])
        capsys.readouterr()
        assert code == 2

    @pytest.mark.parametrize("solver", ["oap2", "oap3"])
    def test_single_cycle_miss_reports_stop_cause(self, capsys, solver):
        # one cycle, no restarts: a miss is labelled by why the cycle
        # stopped, never "max-restarts"
        problem = gen_convdiff2d(9, 10)
        v1, c1 = init_from_vector(problem.A, problem.b, problem.b)
        if solver == "oap3":
            cycle = oap_cycle_tridiag(problem.A, problem.b, v1, v1.copy(), c1)
        else:
            cycle = oap_cycle_bidiag(problem.A, problem.b, v1, c1)
        code = main(["solve", "--family", "convdiff2d", "--nx", "9",
                     "--ny", "10", "--solver", solver])
        rec = read_records_csv(capsys.readouterr().out)[0]
        assert code == 2
        assert rec.relres > 1e-6
        assert rec.termination == cycle.stop_cause == "orthogonality"
        assert (rec.restarts, rec.inner_iters) == (1, cycle.inner_steps)

    def test_missing_inputs_exit_code(self, capsys):
        assert main(["solve"]) == 1
        assert main(["solve", "--matrix", "/no/such/file.mtx",
                     "--rhs", "/no/such/b.mtx"]) == 1

    def test_usage_error_exit_code(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["solve", "--solver", "gmres"])
        assert err.value.code == 1

    def test_ap_solver_with_blocks(self, capsys):
        code = main(["solve", "--family", "convdiff2d", "--nx", "4",
                     "--ny", "4", "--solver", "ap", "--blocks", "3"])
        assert code == 0
        rec = read_records_csv(capsys.readouterr().out)[0]
        assert rec.solver == "ap"
        assert rec.relres <= 1e-6

    def test_ap_solver_honours_max_restarts(self, capsys):
        # unbounded, this case takes 53 sweeps
        code = main(["solve", "--family", "convdiff2d", "--nx", "9",
                     "--ny", "10", "--solver", "ap", "--max-restarts", "3"])
        rec = read_records_csv(capsys.readouterr().out)[0]
        assert code == 2
        assert rec.restarts == 3
        assert rec.termination == "max-restarts"


class TestBench:
    def test_example_one_subset_csv(self, tmp_path):
        out = tmp_path / "bench.csv"
        code = main(["bench", "--examples", "1", "--solvers", "roap2",
                     "--out", str(out)])
        assert code == 0
        records = read_records_csv(out.read_text())
        assert [r.n for r in records] == [90, 171, 361]
        assert all(r.relres <= 1e-6 for r in records)

    def test_markdown_output(self, tmp_path):
        out = tmp_path / "bench.md"
        code = main(["bench", "--examples", "1", "--solvers", "roap2",
                     "roap3", "--format", "markdown", "--out", str(out)])
        assert code == 0
        text = out.read_text()
        assert "| n | roap2 | roap3 |" in text
        assert "| 90 |" in text

    def test_deterministic_apart_from_timing(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["bench", "--examples", "3", "--out", str(path)]) == 0

        def strip_time(text):
            return [",".join(line.split(",")[:-1])
                    for line in text.splitlines()]

        assert strip_time(a.read_text()) == strip_time(b.read_text())
