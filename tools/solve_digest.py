"""Print SHA-256 digests of every solve in a fixed set, to show that a
refactor leaves the solvers' outputs bit-identical.

Cases: the pinned ``oap bench`` suite with random-dense 300 at seeds
1234..1241, plus convdiff 60x60, under ``roap2`` and ``roap3`` (default
options) and ``ap`` (two blocks, 5000 sweeps, as ``oap bench`` runs it);
then convdiff 200x200 under ``roap2`` alone (~1 s): its one cycle ends
where the divergence guard returns the zero vector, which ends the solve.
Every sparse operator there multiplies through DIA arrays, so two
non-banded cases follow under all three solvers: poisson-lshape m5 and
convdiff 30x30 with its unknowns renumbered by a seeded permutation;
their operators multiply through CSR (``csr_matvec`` and ``csc_matvec``).
Each line gives the termination, restarts, total inner steps and two
SHA-256 digests over little-endian bytes: the first over the final x,
the residual history and the inner step counts, the second over x and
the termination alone.  A change that moves only the report's counts
(say, a solve that stops earlier on the same x) changes the first and
keeps the second.  The last three lines are ``overall``, one digest
over the lines before the CSR cases; ``overall-x``, one over those
lines' second digests alone; and ``overall-csr``, one over the CSR
cases' lines.  The header line, which names the
``OPENBLAS_NUM_THREADS`` setting (its value or ``unset``), enters none
of them.  Compare them between two commits on one machine: ``norm2``
and the steps' dot products sum through BLAS ``ddot``, whose order may
differ between CPU kernels.  The thread count does not enter: each
solve runs OpenBLAS on one thread and gives the caller's count back.

    PYTHONPATH=src python tools/solve_digest.py
"""

import hashlib
import os

import numpy as np

from oaplib import (BlockPartition, CsrMatrix, GeneratedProblem, ap_solve,
                    roap_solve)
from oaplib.cli import bench_problems
from oaplib.problems import gen_convdiff2d, gen_poisson_lshape

SEEDS = range(1234, 1242)
RENUMBER_SEED = 30
AP_BLOCKS = 2
AP_MAX_SWEEPS = 5000


SOLVERS = ("roap2", "roap3", "ap")


def cases():
    """(problem, solvers) pairs in digest order."""
    for spec in bench_problems(examples=(1, 2, 3)):
        yield spec.generate(), SOLVERS
    for seed in SEEDS:
        for spec in bench_problems(examples=(4,), seed=seed):
            yield spec.generate(), SOLVERS
    yield gen_convdiff2d(60, 60), SOLVERS
    yield gen_convdiff2d(200, 200), ("roap2",)


def renumbered(problem, seed):
    """``problem`` with its unknowns renumbered by a seeded permutation
    P, built through ``CsrMatrix.from_coo``: P A P' x' = P b with
    x' = P x.  Its band is scattered, so no DIA layout is taken."""
    A = problem.A
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(A.nrows)
    new = np.argsort(perm)  # the new number of each unknown
    rows = np.repeat(np.arange(A.nrows), np.diff(A.row_offsets))
    B = CsrMatrix.from_coo(A.nrows, A.ncols, new[rows], new[A.col_indices],
                           A.values)
    return GeneratedProblem(B, problem.b[perm], None,
                            f"{problem.label}-renumbered-s{seed}",
                            problem.family)


def csr_cases():
    """(problem, solvers) pairs whose operators multiply through CSR."""
    yield gen_poisson_lshape(5), SOLVERS
    yield renumbered(gen_convdiff2d(30, 30), RENUMBER_SEED), SOLVERS


def solve(problem, solver):
    if solver == "ap":
        partition = BlockPartition.equal_blocks(problem.A.nrows, AP_BLOCKS)
        return ap_solve(problem.A, problem.b, partition,
                        max_sweeps=AP_MAX_SWEEPS)
    return roap_solve(problem.A, problem.b, solver)


def digest(x, report):
    h = hashlib.sha256()
    h.update(np.asarray(x, dtype="<f8").tobytes())
    h.update(np.asarray(report.residual_history, dtype="<f8").tobytes())
    h.update(np.asarray(report.inner_iterations, dtype="<i8").tobytes())
    return h.hexdigest()


def solution_digest(x, report):
    h = hashlib.sha256()
    h.update(np.asarray(x, dtype="<f8").tobytes())
    h.update(report.termination.encode())
    return h.hexdigest()


def lines(cases):
    """(line, second digest) of each solve of ``cases``, printed as it ends."""
    for problem, solvers in cases:
        for solver in solvers:
            x, report = solve(problem, solver)
            x_digest = solution_digest(x, report)
            line = (f"{problem.label} {solver} {report.termination} "
                    f"{report.restarts} {sum(report.inner_iterations)} "
                    f"{digest(x, report)} {x_digest}")
            print(line, flush=True)
            yield line, x_digest


def main():
    threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    print(f"OPENBLAS_NUM_THREADS {threads}", flush=True)
    overall = hashlib.sha256()
    overall_x = hashlib.sha256()
    for line, x_digest in lines(cases()):
        overall.update(line.encode() + b"\n")
        overall_x.update(x_digest.encode() + b"\n")
    overall_csr = hashlib.sha256()
    for line, _ in lines(csr_cases()):
        overall_csr.update(line.encode() + b"\n")
    print(f"overall {overall.hexdigest()}")
    print(f"overall-x {overall_x.hexdigest()}")
    print(f"overall-csr {overall_csr.hexdigest()}")


if __name__ == "__main__":
    main()
