"""Benchmark command line.

Subcommands: ``gen`` writes a problem as Matrix Market files, ``solve``
runs one solver on one system, ``bench`` reproduces the pinned example
suite.  Exit codes: 0 all converged, 2 some case failed to converge,
1 usage or I/O error.
"""

import argparse
import sys
import time

import numpy as np

from . import mmio
from .ap import BlockPartition, ap_solve
from .errors import OapError
from .linalg import LinearOperator, norm2
from .problems import GeneratedProblem, ProblemSpec, lshape_m_for
from .reporting import RunRecord, emit_report
from .solvers import (CYCLE_RESIDUAL, ORIGINAL_B, SolveOptions,
                      oap_cycle_bidiag, oap_cycle_tridiag, init_from_vector,
                      roap_solve)

SOLVERS = ("roap2", "roap3", "oap2", "oap3", "ap")

# pinned reproduction suite: example family -> default sizes
EXAMPLE1_GRIDS = ((9, 10), (9, 19), (19, 19))      # n = 90, 171, 361
EXAMPLE2_TARGETS = (200, 500)
EXAMPLE3_N = 600
EXAMPLE4_N = 300
EXAMPLE4_SEED = 1234


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors; the CLI contract reserves 2 for
    # non-convergence, so remap
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def run_case(problem, solver, opts, blocks=2):
    """Execute ``solver`` on ``problem`` and measure it from scratch.

    The reported residual is recomputed from the returned solution,
    never taken from solver-internal state.  Solver failures are
    recorded in the termination field instead of raised.
    """
    A, b = problem.A, problem.b
    t0 = time.perf_counter()
    termination = "converged"
    try:
        if solver in ("roap2", "roap3"):
            x, report = roap_solve(A, b, solver, opts)
            restarts, inner = report.restarts, sum(report.inner_iterations)
            termination = report.termination
        elif solver in ("oap2", "oap3"):
            # single projection cycle seeded from b
            v1, c1 = init_from_vector(A, b, b)
            if solver == "oap3":
                result = oap_cycle_tridiag(A, b, v1, v1.copy(), c1, opts)
            else:
                result = oap_cycle_bidiag(A, b, v1, c1, opts)
            x, restarts, inner = result.x_partial, 1, result.inner_steps
            if norm2(b - A.apply(x)) / norm2(b) > opts.tol:
                termination = result.stop_cause  # no restarts to run out of
        elif solver == "ap":
            partition = BlockPartition.equal_blocks(A.nrows, blocks)
            sweeps = 5000 if opts.max_restarts is None else opts.max_restarts
            x, report = ap_solve(A, b, partition, tol=opts.tol, max_sweeps=sweeps)
            restarts, inner = report.restarts, sum(report.inner_iterations)
            termination = report.termination
        else:
            raise ValueError(f"unknown solver {solver!r}")
    except OapError as exc:
        elapsed_ms = (time.perf_counter() - t0) * 1e3
        return RunRecord(problem.family, problem.n, solver, 0, 0,
                         float("inf"), None, elapsed_ms,
                         f"error: {type(exc).__name__}")
    elapsed_ms = (time.perf_counter() - t0) * 1e3

    relres = norm2(b - A.apply(x)) / norm2(b)
    relerr = None
    if problem.x_true is not None:
        relerr = norm2(x - problem.x_true) / norm2(problem.x_true)
    return RunRecord(problem.family, problem.n, solver, restarts, inner,
                     relres, relerr, elapsed_ms, termination)


def _add_problem_flags(p):
    p.add_argument("--family", choices=("convdiff2d", "poisson-lshape",
                                        "tridiag-unsym", "random-dense"))
    p.add_argument("--nx", type=int, default=9)
    p.add_argument("--ny", type=int, default=10)
    p.add_argument("--m", type=int, default=9, help="L-shape grid parameter")
    p.add_argument("--n", type=int, default=300)
    p.add_argument("--p1", type=float, default=1.0)
    p.add_argument("--p2", type=float, default=1.0)
    p.add_argument("--p3", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=EXAMPLE4_SEED)
    p.add_argument("--constructed", action="store_true",
                   help="build b from a known solution where supported")


def _spec_from_args(args):
    return ProblemSpec(family=args.family, nx=args.nx, ny=args.ny, m=args.m,
                       n=args.n, p1=args.p1, p2=args.p2, p3=args.p3,
                       seed=args.seed, constructed=args.constructed)


def _solve_options(args):
    return SolveOptions(tol=args.tol, orth_tol=args.orth_tol,
                        max_restarts=args.max_restarts,
                        max_inner=args.max_inner, rhs_mode=args.rhs_mode)


def _add_solver_flags(p):
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--orth-tol", type=float, default=1e-8)
    p.add_argument("--max-restarts", type=int, default=None)
    p.add_argument("--max-inner", type=int, default=None)
    p.add_argument("--rhs-mode", choices=(CYCLE_RESIDUAL, ORIGINAL_B),
                   default=CYCLE_RESIDUAL)
    p.add_argument("--blocks", type=int, default=2,
                   help="row blocks for the ap solver")


def _add_output_flags(p):
    p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    p.add_argument("--out", default="-", help="output path, '-' for stdout")


def _emit(records, args):
    if args.out == "-":
        sys.stdout.write(emit_report(records, args.format))
    else:
        emit_report(records, args.format, args.out)


def _cmd_gen(args):
    spec = _spec_from_args(args)
    if spec.family is None:
        raise OapError("gen requires --family")
    problem = spec.generate()
    prefix = args.out_prefix
    mmio.write_matrix_market(f"{prefix}.mtx", problem.A)
    mmio.write_matrix_market(f"{prefix}_b.mtx", problem.b)
    written = [f"{prefix}.mtx", f"{prefix}_b.mtx"]
    if problem.x_true is not None:
        mmio.write_matrix_market(f"{prefix}_x.mtx", problem.x_true)
        written.append(f"{prefix}_x.mtx")
    print(f"{problem.label}: n={problem.n}, wrote {', '.join(written)}")
    return 0


def _cmd_solve(args):
    if args.matrix is not None:
        A = mmio.read_matrix_market(args.matrix)
        if not isinstance(A, LinearOperator):
            raise OapError(f"{args.matrix} does not hold a matrix")
        b = mmio.read_matrix_market(args.rhs)
        if isinstance(b, LinearOperator):
            raise OapError(f"{args.rhs} does not hold a vector")
        x_true = None
        if args.truth is not None:
            x_true = mmio.read_matrix_market(args.truth)
        label = args.matrix.rsplit("/", 1)[-1].removesuffix(".mtx")
        problem = GeneratedProblem(A, b, x_true, label)
    elif args.family is not None:
        problem = _spec_from_args(args).generate()
    else:
        raise OapError("solve needs either --matrix/--rhs or --family")
    record = run_case(problem, args.solver, _solve_options(args), args.blocks)
    _emit([record], args)
    return 0 if record.converged else 2


def _bench_problems(args):
    specs = []
    if 1 in args.examples:
        for nx, ny in EXAMPLE1_GRIDS:
            specs.append(ProblemSpec("convdiff2d", nx=nx, ny=ny,
                                     p1=args.p1, p2=args.p2, p3=args.p3))
    if 2 in args.examples:
        for target in EXAMPLE2_TARGETS:
            specs.append(ProblemSpec("poisson-lshape", m=lshape_m_for(target)))
    if 3 in args.examples:
        specs.append(ProblemSpec("tridiag-unsym", n=EXAMPLE3_N))
    if 4 in args.examples:
        specs.append(ProblemSpec("random-dense", n=EXAMPLE4_N, seed=args.seed))
    return specs


def _cmd_bench(args):
    opts = _solve_options(args)
    records = []
    for spec in _bench_problems(args):
        problem = spec.generate()
        for solver in args.solvers:
            records.append(run_case(problem, solver, opts, args.blocks))
    records.sort(key=lambda r: (r.problem, r.n, r.solver))
    _emit(records, args)
    return 0 if all(r.converged for r in records) else 2


def build_parser():
    parser = _Parser(prog="oap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="generate a problem as Matrix Market")
    _add_problem_flags(p_gen)
    p_gen.add_argument("out_prefix", help="output path prefix")
    p_gen.set_defaults(func=_cmd_gen)

    p_solve = sub.add_parser("solve", help="run one solver on one system")
    p_solve.add_argument("--matrix", help="Matrix Market matrix file")
    p_solve.add_argument("--rhs", help="Matrix Market right-hand side")
    p_solve.add_argument("--truth", help="Matrix Market known solution")
    p_solve.add_argument("--solver", choices=SOLVERS, default="roap2")
    _add_problem_flags(p_solve)
    _add_solver_flags(p_solve)
    _add_output_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser("bench", help="run the pinned example suite")
    p_bench.add_argument("--examples", type=int, nargs="+",
                         choices=(1, 2, 3, 4), default=[1, 2, 3, 4])
    p_bench.add_argument("--solvers", nargs="+", choices=SOLVERS,
                         default=["roap2", "roap3"])
    _add_problem_flags(p_bench)
    _add_solver_flags(p_bench)
    _add_output_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OapError, OSError, ValueError) as exc:
        print(f"oap: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
