"""The benchmark's three workloads, how a case is solved, and the
correctness gate every solve passes through.

Each workload is a closed loop with one caller: a pass builds fresh
operators (set-up) and then solves its cases one after another.  The
library is reached only through its public functions, looked up on
their modules at call time so that :mod:`spans` can trace them.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.sparse

from hostclock import csr_probe, python_probe, qr_probe
from oaplib import OapError, ap, mmio, problems, solvers
from oaplib.cli import (EXAMPLE1_GRIDS, EXAMPLE2_TARGETS, EXAMPLE3_N,
                        EXAMPLE4_N, EXAMPLE4_SEED)
from oaplib.linalg import CsrMatrix

TOL = solvers.TOL_DEFAULT
AP_BLOCKS = 2
AP_MAX_SWEEPS = 5000
CONVDIFF_LARGE_GRIDS = (60, 200)

# paper-suite's random-dense case cycles through the seeds
# EXAMPLE4_SEED .. EXAMPLE4_SEED + 7, one per pass; the run seed picks
# where the cycle starts.  Its restart count, and so its time, swings
# 4x from seed to seed, and 6 of the 16 solves over these seeds do not
# converge.  Since every run covers whole cycles, every run solves the
# same inputs: its time and failure share do not depend on which run
# seeds were drawn.
PAPER_SEED_CYCLE = 8


@dataclass
class Case:
    label: str
    solver: str
    A: object
    b: np.ndarray
    x_true: Optional[np.ndarray] = None

    @property
    def key(self):
        return f"{self.label}/{self.solver}"


@dataclass
class Setup:
    cases: list
    mm_bytes: int = 0
    # (generated A, generated b, read-back A, read-back b)
    round_trips: list = field(default_factory=list)


def _suite_cases(problem_list, solver_names):
    return [Case(p.label, s, p.A, p.b, p.x_true)
            for p in problem_list for s in solver_names]


def setup_paper_suite(seed, workdir):
    """The pinned ``oap bench`` suite under roap2 and roap3."""
    gens = [problems.gen_convdiff2d(nx, ny) for nx, ny in EXAMPLE1_GRIDS]
    gens += [problems.gen_poisson_lshape(problems.lshape_m_for(t))
             for t in EXAMPLE2_TARGETS]
    gens.append(problems.gen_tridiag_unsym(EXAMPLE3_N))
    gens.append(problems.gen_random_dense(EXAMPLE4_N, seed))
    return Setup(_suite_cases(gens, ("roap2", "roap3")))


def setup_convdiff_large(seed, workdir):
    """convdiff2d 60x60 and 200x200 under roap2, solved on operators
    read back from Matrix Market files."""
    setup = Setup([])
    for m in CONVDIFF_LARGE_GRIDS:
        p = problems.gen_convdiff2d(m, m)
        a_path = workdir / f"{p.label}.mtx"
        b_path = workdir / f"{p.label}_b.mtx"
        mmio.write_matrix_market(a_path, p.A)
        mmio.write_matrix_market(b_path, p.b)
        A = mmio.read_matrix_market(a_path)
        b = mmio.read_matrix_market(b_path)
        setup.mm_bytes += a_path.stat().st_size + b_path.stat().st_size
        setup.round_trips.append((p.A, p.b, A, b))
        setup.cases.append(Case(p.label, "roap2", A, b))
    return setup


def setup_ap_baseline(seed, workdir):
    """Example 1 (convdiff2d n = 90, 171, 361) under the ap baseline."""
    gens = [problems.gen_convdiff2d(nx, ny) for nx, ny in EXAMPLE1_GRIDS]
    return Setup(_suite_cases(gens, ("ap",)))


@dataclass
class Workload:
    name: str
    setup: object  # (pass seed, work directory) -> Setup
    # () -> Probe doing the kind of work that dominates the solves
    probe: object
    seed_cycle: int = 1  # distinct pass seeds
    base_seed: int = 0  # the first of them


WORKLOADS = {w.name: w for w in (
    Workload("paper-suite", setup_paper_suite, python_probe,
             PAPER_SEED_CYCLE, EXAMPLE4_SEED),
    Workload("convdiff-large", setup_convdiff_large, csr_probe),
    Workload("ap-baseline", setup_ap_baseline, qr_probe),
)}


def pass_seed(run_seed, pass_index, workload):
    """The seed of pass ``pass_index``: the workload's seeds in turn,
    starting from where ``run_seed`` falls in the cycle (run seed
    EXAMPLE4_SEED starts with exactly ``oap bench``)."""
    offset = (run_seed - workload.base_seed + pass_index) % workload.seed_cycle
    return workload.base_seed + offset


def solve(case):
    """Run one case through the public API; returns (x, report)."""
    if case.solver == "ap":
        partition = ap.BlockPartition.equal_blocks(case.A.nrows, AP_BLOCKS)
        return ap.ap_solve(case.A, case.b, partition, tol=TOL,
                           max_sweeps=AP_MAX_SWEEPS)
    return solvers.roap_solve(case.A, case.b, case.solver)


def solve_guarded(case):
    """:func:`solve`, with a library error returned in place of the report."""
    try:
        return solve(case)
    except OapError as exc:
        return None, exc


# --- correctness gate -------------------------------------------------

# slack for the independent recompute against the solver's own
# residual, which sums in a different order
RELRES_RTOL = 1e-3
RELRES_ATOL = 1e-12


def independent_matrix(A):
    """The operator as a scipy.sparse CSR matrix or a dense ndarray,
    so that products avoid oaplib's kernels."""
    if isinstance(A, CsrMatrix):
        return scipy.sparse.csr_matrix(
            (A.values, A.col_indices, A.row_offsets), shape=(A.nrows, A.ncols))
    return np.asarray(A.values)


def independent_relres(M, b, x):
    return float(np.linalg.norm(b - M @ x) / np.linalg.norm(b))


def condition_number(M):
    dense = M.toarray() if scipy.sparse.issparse(M) else M
    return float(np.linalg.cond(dense))


@dataclass
class Verdict:
    truthful: bool  # the reported outcome matches the recomputed one
    converged: bool
    relres: float
    relerr: Optional[float]
    reason: str = ""

    @property
    def failed(self):
        return not (self.truthful and self.converged)


def check(case, x, report, M, cond=None):
    """Judge one solve against an independent recompute.

    ``M`` is :func:`independent_matrix` of the case's operator, ``cond``
    its 2-norm condition number where ``case.x_true`` is known.  A solve
    that raised is an honest failure; a reported relres or termination
    that the recompute contradicts is untruthful.
    """
    if isinstance(report, OapError):
        return Verdict(True, False, float("nan"), None)
    converged = report.termination == "converged"
    if not np.all(np.isfinite(x)):
        return Verdict(False, converged, float("nan"), None, "non-finite x")
    relres = independent_relres(M, case.b, x)
    relerr = None
    if case.x_true is not None:
        relerr = float(np.linalg.norm(x - case.x_true)
                       / np.linalg.norm(case.x_true))
    reasons = []
    if abs(relres - report.final_relres) > RELRES_RTOL * relres + RELRES_ATOL:
        reasons.append(f"reported relres {report.final_relres:.3e} but "
                       f"recomputed {relres:.3e}")
    if converged and relres > TOL * (1 + RELRES_RTOL):
        reasons.append(f"converged at relres {relres:.3e} > tol {TOL:g}")
    if not converged and relres <= TOL:
        reasons.append(f"{report.termination} at relres {relres:.3e} <= tol")
    # ||x - x*|| / ||x*|| <= cond(A) ||b - A x|| / ||b|| for any x
    if relerr is not None and cond is not None:
        bound = cond * relres * (1 + RELRES_RTOL) + RELRES_ATOL
        if relerr > bound:
            reasons.append(f"relerr {relerr:.3e} > cond * relres = {bound:.3e}")
    return Verdict(not reasons, converged, relres, relerr, "; ".join(reasons))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def round_trip_exact(A0, b0, A1, b1):
    """Matrix Market round trip reproduced offsets, indices, values and b."""
    return (isinstance(A1, CsrMatrix) and A0.shape == A1.shape
            and same_bits(A0.row_offsets, A1.row_offsets)
            and same_bits(A0.col_indices, A1.col_indices)
            and same_bits(A0.values, A1.values) and same_bits(b0, b1))


def product_bytes(A):
    """Computed bytes one ``A v`` or ``A'u`` reads and writes: the
    operator's arrays plus the input and output vectors (int64 indices,
    float64 values; kernel temporaries and cache misses not counted)."""
    vectors = 8 * (A.nrows + A.ncols)
    if isinstance(A, CsrMatrix):
        return 16 * A.nnz + 8 * (A.nrows + 1) + vectors
    return 8 * A.nrows * A.ncols + vectors
