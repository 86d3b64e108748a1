"""Count the Python function calls per inner step of the pinned suite.

Runs the pinned ``oap bench`` suite (convdiff 9x10, 9x19, 19x19,
Poisson L-shape near n = 200 and 500, tridiag-unsym 600, random-dense
300 at seed 1234) under ``roap2`` and ``roap3``, 14 solves, each under
cProfile, and prints the inner steps, the function calls cProfile saw
(Python and C) and the calls per step.  Problem generation is not
profiled, nor is one warm-up product each way per operator, so that
imports and per-operator set-up on first use stay out of the count.
The count is deterministic for one interpreter and one set of
libraries, so it compares two commits on one machine; it is not a test.

    PYTHONPATH=src python tools/step_calls.py
"""

import cProfile
import pstats

import numpy as np

from oaplib import roap_solve
from oaplib.cli import bench_problems

SOLVERS = ("roap2", "roap3")


def problems():
    for spec in bench_problems():
        yield spec.generate()


def main():
    steps = calls = 0
    for problem in problems():
        A = problem.A
        A.apply(np.ones(A.ncols))
        A.apply_transpose(np.ones(A.nrows))
        for solver in SOLVERS:
            profile = cProfile.Profile()
            _, report = profile.runcall(roap_solve, A, problem.b, solver)
            steps += sum(report.inner_iterations)
            calls += pstats.Stats(profile).total_calls
    print(f"inner steps     {steps}")
    print(f"function calls  {calls}")
    print(f"calls per step  {calls / steps:.1f}")


if __name__ == "__main__":
    main()
