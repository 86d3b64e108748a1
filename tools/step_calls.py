"""Count the Python function calls per inner step of the pinned suite,
and time its inner steps.

Runs the pinned ``oap bench`` suite (convdiff 9x10, 9x19, 19x19,
Poisson L-shape near n = 200 and 500, tridiag-unsym 600, random-dense
300 at seed 1234) under ``roap2`` and ``roap3``, 14 solves, each under
cProfile, and prints the inner steps, the function calls cProfile saw
(Python and C) and the calls per step.  Problem generation is not
profiled, nor is one warm-up product each way per operator, so that
imports and per-operator set-up on first use stay out of the count.
The count is deterministic for one interpreter and one set of
libraries, so it compares two commits on one machine; it is not a test.
A call of a compiled kernel counts once, whatever it does: an inner
step is two compiled calls, the reduction step (its two products
included) and ``oap_cycle_advance`` (the cycle's work after it), so its
count is its Python bookkeeping.  Each ``ffi.from_buffer`` call that hands an
array to C counts once too (about 0.2 us each; a product outside the
steps, the seed's and the restart's, makes two): a lower count is not
always a faster step.

Then it times each case untraced, the minimum of 5 solves, and prints
microseconds per inner step in four groups: the six stencil problems
under both solvers (banded operators, whose steps the bookkeeping
bounds), random-dense 300 under ``roap2`` and under ``roap3`` apart
(its steps two dense products bound, and only the two-sided step runs
A'u on the kernels' worker thread beside A v), and convdiff 200x200
under ``roap2`` (one cycle of 803 steps, whose banded products split
across the calling thread and the worker).  Each group's figure is its
summed minimum times over its summed inner steps.  Last, the jobs the
run posted to the worker thread, and the share of them that the
posting kernel took back because the worker had not started them.
Times depend on the host; compare two commits by alternating runs on
one machine.

    PYTHONPATH=src python tools/step_calls.py
"""

import cProfile
import pstats
import time

import numpy as np

import oaplib._kernels as kernels
from oaplib import gen_convdiff2d, roap_solve
from oaplib.cli import bench_problems

SOLVERS = ("roap2", "roap3")
REPEATS = 5


def problems():
    for spec in bench_problems():
        yield spec.family, spec.generate()


def fastest(A, b, solver):
    """The least wall time of ``REPEATS`` solves, in seconds."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        roap_solve(A, b, solver)
        best = min(best, time.perf_counter() - start)
    return best


def warm(A):
    """One product each way, so that the descriptor exists."""
    A.apply(np.ones(A.ncols))
    A.apply_transpose(np.ones(A.nrows))


def main():
    steps = calls = 0
    timed = {name: [0.0, 0] for name in (
        "stencil", "random-dense 300 roap2", "random-dense 300 roap3",
        "convdiff 200x200 roap2")}
    for family, problem in problems():
        A = problem.A
        warm(A)
        for solver in SOLVERS:
            group = timed[f"random-dense 300 {solver}"
                          if family == "random-dense" else "stencil"]
            profile = cProfile.Profile()
            _, report = profile.runcall(roap_solve, A, problem.b, solver)
            case_steps = sum(report.inner_iterations)
            steps += case_steps
            calls += pstats.Stats(profile).total_calls
            group[0] += fastest(A, problem.b, solver)
            group[1] += case_steps
    print(f"inner steps     {steps}")
    print(f"function calls  {calls}")
    print(f"calls per step  {calls / steps:.1f}")
    large = gen_convdiff2d(200, 200)
    warm(large.A)
    _, report = roap_solve(large.A, large.b, "roap2")
    timed["convdiff 200x200 roap2"] = [fastest(large.A, large.b, "roap2"),
                                       sum(report.inner_iterations)]
    for name, (seconds, group_steps) in timed.items():
        print(f"us per step     {seconds / group_steps * 1e6:.2f}  {name} "
              f"({group_steps} steps, min of {REPEATS} solves each)")
    counts = kernels.lib.oap_worker_counts()
    share = counts.taken_back / counts.posted if counts.posted else 0.0
    print(f"worker jobs     {counts.posted} posted, {counts.taken_back} "
          f"taken back ({share:.1%})")


if __name__ == "__main__":
    main()
