import numpy as np
import pytest

from oaplib import (CsrMatrix, gen_convdiff2d, init_from_vector, norm2,
                    oap_cycle_bidiag, oap_cycle_tridiag, read_matrix_market,
                    roap_solve, write_matrix_market)
from oaplib.cli import SOLVERS, main, run_case
from oaplib.problems import ProblemSpec

from conftest import read_records_csv


# solve and bench up to their solver flag
BUDGET_COMMANDS = [
    ["solve", "--family", "convdiff2d", "--nx", "4", "--ny", "4", "--solver"],
    ["bench", "--examples", "1", "--solvers"],
]


class TestRunCase:
    @pytest.mark.parametrize("solver, bound", [
        ("roap2", 1e-15), ("oap2", 1e-12), ("oap3", 1e-12), ("ap", 1e-12)])
    def test_identity(self, solver, bound):
        from oaplib.problems import GeneratedProblem
        A = CsrMatrix.identity(6)
        b = np.arange(1.0, 7.0)
        rec = run_case(GeneratedProblem(A, b, None, "eye"), solver)
        assert rec.converged
        assert rec.relres <= bound
        assert rec.restarts == 1

    def test_relres_recomputed_from_scratch(self):
        problem = gen_convdiff2d(9, 10)
        rec = run_case(problem, "roap2")
        x, report = roap_solve(problem.A, problem.b, "roap2")
        assert abs(rec.relres - report.final_relres) <= 1e-12

    def test_relerr_reported_when_truth_known(self):
        problem = gen_convdiff2d(4, 4, constructed=True)
        rec = run_case(problem, "roap2")
        assert rec.relerr is not None and rec.relerr < 1e-5

    def test_solver_failure_recorded_not_raised(self):
        from oaplib.problems import GeneratedProblem
        A = CsrMatrix.identity(3)
        b = np.array([1.0, np.nan, 1.0])
        problem = GeneratedProblem(A, b, None, "bad-rhs")
        rec = run_case(problem, "roap3")
        assert rec.termination == "error: NonFiniteVector"
        assert not rec.converged
        assert rec.relres == float("inf")

    @pytest.mark.parametrize("solver", ["oap2", "oap3", "roap2"])
    def test_degenerate_seed_stagnates(self, solver):
        # A'b = 0: no seed exists, so no cycle runs, for one cycle or many
        from oaplib.problems import GeneratedProblem
        A = CsrMatrix.from_dense(np.diag([1.0, 0.0]))
        problem = GeneratedProblem(A, np.array([0.0, 1.0]), None, "null-rhs")
        rec = run_case(problem, solver)
        assert rec.termination == "stagnation"
        assert (rec.restarts, rec.inner_iters) == (0, 0)
        assert rec.relres == 1.0

    def test_seed_overflow_recorded(self):
        from oaplib.problems import GeneratedProblem
        A = gen_convdiff2d(4, 4).A
        problem = GeneratedProblem(A, np.full(16, 1e160), None, "huge-rhs")
        with pytest.warns(RuntimeWarning, match="overflow"):
            rec = run_case(problem, "roap2")
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

    def test_solve_rectangular_from_files(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        A = CsrMatrix.from_dense(rng.standard_normal((6, 4)))
        x_true = rng.standard_normal(4)
        write_matrix_market(tmp_path / "A.mtx", A)
        write_matrix_market(tmp_path / "b.mtx", A.apply(x_true))
        write_matrix_market(tmp_path / "x.mtx", x_true)
        code = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                     "--rhs", str(tmp_path / "b.mtx"),
                     "--truth", str(tmp_path / "x.mtx"), "--solver", "roap2"])
        rec = read_records_csv(capsys.readouterr().out)[0]
        assert code == 0
        assert rec.termination == "converged"
        assert rec.relerr <= 1e-9

    @pytest.mark.parametrize("solver", ["roap3", "oap3"])
    def test_solve_rectangular_two_sided_is_refused(self, tmp_path, capsys,
                                                    solver):
        # the 6x4 system of test_solve_rectangular_from_files
        rng = np.random.default_rng(5)
        A = CsrMatrix.from_dense(rng.standard_normal((6, 4)))
        write_matrix_market(tmp_path / "A.mtx", A)
        write_matrix_market(tmp_path / "b.mtx", A.apply(rng.standard_normal(4)))
        code = main(["solve", "--matrix", str(tmp_path / "A.mtx"),
                     "--rhs", str(tmp_path / "b.mtx"), "--solver", solver])
        rec = read_records_csv(capsys.readouterr().out)[0]
        assert code == 2
        assert rec.termination == "error: DimensionMismatch"

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
            cycle = oap_cycle_tridiag(problem.A, problem.b, v1, c1)
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

    def test_matrix_without_rhs_is_usage_error(self, tmp_path, capsys):
        prefix = tmp_path / "cd"
        main(["gen", "--family", "convdiff2d", "--nx", "3", "--ny", "3",
              str(prefix)])
        capsys.readouterr()
        assert main(["solve", "--matrix", f"{prefix}.mtx"]) == 1
        assert capsys.readouterr().err == "oap: error: solve --matrix needs --rhs\n"

    @pytest.mark.parametrize("rhs, truth, bad", [
        ("cd_b.mtx", "cd.mtx", "cd.mtx"),            # a matrix as the solution
        ("cd_b.mtx", "short_b.mtx", "short_b.mtx"),  # 4 entries, 9 unknowns
        ("short_b.mtx", "cd_b.mtx", "short_b.mtx"),  # 4 entries, 9 equations
    ])
    def test_bad_vector_file_is_usage_error(self, tmp_path, capsys, rhs, truth,
                                            bad):
        main(["gen", "--family", "convdiff2d", "--nx", "3", "--ny", "3",
              str(tmp_path / "cd")])
        main(["gen", "--family", "convdiff2d", "--nx", "2", "--ny", "2",
              str(tmp_path / "short")])
        capsys.readouterr()
        code = main(["solve", "--matrix", str(tmp_path / "cd.mtx"),
                     "--rhs", str(tmp_path / rhs), "--truth", str(tmp_path / truth)])
        assert code == 1
        assert capsys.readouterr().err == (
            f"oap: error: {tmp_path / bad} does not hold a vector of length 9\n")

    @staticmethod
    def _usage_error(monkeypatch, capsys, argv):
        # the budget is checked once, before any problem is built, with
        # the same message for every solver (oap2/oap3 never pass
        # max_restarts on)
        def no_problem(spec):
            raise AssertionError("problem built before the budget check")

        monkeypatch.setattr(ProblemSpec, "generate", no_problem)
        assert main(argv) == 1
        return capsys.readouterr().err

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("command", BUDGET_COMMANDS, ids=["solve", "bench"])
    def test_negative_max_restarts_is_usage_error(self, capsys, monkeypatch,
                                                  command, solver):
        err = self._usage_error(monkeypatch, capsys,
                                [*command, solver, "--max-restarts", "-1"])
        assert err == "oap: error: max_restarts must be >= 0\n"

    @pytest.mark.parametrize("solver", SOLVERS)
    @pytest.mark.parametrize("command", BUDGET_COMMANDS, ids=["solve", "bench"])
    @pytest.mark.parametrize("tol", ["nan", "0"])
    def test_nan_tol_is_usage_error(self, capsys, monkeypatch, command, solver,
                                    tol):
        err = self._usage_error(monkeypatch, capsys,
                                [*command, solver, "--tol", tol])
        assert err == "oap: error: tol must be positive\n"

    @pytest.mark.parametrize("solver", ["roap2", "ap"])
    @pytest.mark.parametrize("command", BUDGET_COMMANDS, ids=["solve", "bench"])
    @pytest.mark.parametrize("blocks", ["0", "-1"])
    def test_blocks_below_one_is_usage_error(self, capsys, monkeypatch,
                                             command, solver, blocks):
        # checked for every solver, though only ap reads it
        err = self._usage_error(monkeypatch, capsys,
                                [*command, solver, "--blocks", blocks])
        assert err == "oap: error: blocks must be >= 1\n"

    @pytest.mark.parametrize("argv", [
        ["--solver", "gmres"],
        # the orthogonality threshold follows from the coefficients
        ["--family", "convdiff2d", "--nx", "4", "--ny", "4",
         "--orth-tol", "1e-8"],
        # every restart cycles on the residual
        ["--family", "convdiff2d", "--nx", "4", "--ny", "4",
         "--rhs-mode", "original-b"],
        # a cycle takes at most n - 1 steps, the whole space
        ["--family", "convdiff2d", "--nx", "4", "--ny", "4",
         "--max-inner", "3"],
    ])
    def test_usage_error_exit_code(self, capsys, argv):
        with pytest.raises(SystemExit) as err:
            main(["solve", *argv])
        assert err.value.code == 1

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_zero_rhs_converges(self, tmp_path, capsys, solver):
        # a zero b and x_true make relres and relerr absolute: 0 for x = 0
        main(["gen", "--family", "convdiff2d", "--nx", "3", "--ny", "3",
              str(tmp_path / "cd")])
        write_matrix_market(tmp_path / "zero.mtx", np.zeros(9))
        capsys.readouterr()
        code = main(["solve", "--matrix", str(tmp_path / "cd.mtx"),
                     "--rhs", str(tmp_path / "zero.mtx"),
                     "--truth", str(tmp_path / "zero.mtx"), "--solver", solver])
        rec = read_records_csv(capsys.readouterr().out)[0]
        assert code == 0
        assert rec.termination == "converged"
        assert (rec.restarts, rec.relres, rec.relerr) == (0, 0.0, 0.0)

    def test_zero_truth_gives_absolute_error(self, tmp_path, capsys):
        prefix = tmp_path / "cd"
        main(["gen", "--family", "convdiff2d", "--nx", "3", "--ny", "3",
              str(prefix)])
        write_matrix_market(tmp_path / "zero.mtx", np.zeros(9))
        capsys.readouterr()
        code = main(["solve", "--matrix", f"{prefix}.mtx",
                     "--rhs", f"{prefix}_b.mtx",
                     "--truth", str(tmp_path / "zero.mtx")])
        rec = read_records_csv(capsys.readouterr().out)[0]
        x, _ = roap_solve(read_matrix_market(f"{prefix}.mtx"),
                          read_matrix_market(f"{prefix}_b.mtx"), "roap2")
        assert code == 0
        assert rec.relerr == pytest.approx(norm2(x), rel=1e-12)

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

    @pytest.mark.parametrize("flag", [
        ["--family", "random-dense"], ["--nx", "50"], ["--ny", "50"],
        ["--m", "5"], ["--n", "40"], ["--constructed"], ["--max-inner", "3"],
    ], ids=lambda flag: flag[0])
    def test_flags_bench_never_reads_are_usage_errors(self, capsys, flag):
        # the suite fixes its own sizes; only --p1/--p2/--p3 and --seed
        # reach its problems
        with pytest.raises(SystemExit) as err:
            main(["bench", "--examples", "3", *flag])
        assert err.value.code == 1
