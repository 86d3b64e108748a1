"""Print the memory each phase of one convdiff-large pass allocates.

For convdiff 60x60 and 200x200 in turn, as the benchmark's
``convdiff-large`` workload runs them, the phases are: generate the
problem, write A and b as Matrix Market files, read them back, and
solve the read-back system under ``roap2``.  Each line gives, in MB of
memory tracemalloc saw (Python objects and NumPy array data), what the
phase left allocated when it ended (``retained``, negative when it
freed more than it kept) and the most it held above its starting point
at any moment (``transient``).  The solve's retained memory includes
the product layout that the first ``A'u`` builds and keeps on the
operator: A's DIA arrays, which both products read, for these banded
operators.
scipy.sparse is imported before tracing starts, as the benchmark
imports it, so that its import is not charged to the first solve.
Everything but the solve is deterministic; tracemalloc slows every
allocation, so the times this prints are not the benchmark's.

    PYTHONPATH=src python tools/setup_memory.py
"""

import pathlib
import tempfile
import time
import tracemalloc

import scipy.sparse  # noqa: F401  (imported by the benchmark too)

from oaplib import read_matrix_market, roap_solve, write_matrix_market
from oaplib.problems import gen_convdiff2d

GRIDS = (60, 200)
MB = 1024 * 1024


def phase(name, label, fn, *args):
    """Run ``fn(*args)`` and print what it allocated; returns its result."""
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    t0 = time.perf_counter()
    result = fn(*args)
    dt = time.perf_counter() - t0
    current, peak = tracemalloc.get_traced_memory()
    print(f"{label:<20} {name:<10} retained {(current - before) / MB:7.2f} MB"
          f"  transient {(peak - before) / MB:7.2f} MB  ({dt * 1e3:.0f} ms)",
          flush=True)
    return result


def write_pair(problem, a_path, b_path):
    write_matrix_market(a_path, problem.A)
    write_matrix_market(b_path, problem.b)


def read_pair(a_path, b_path):
    return read_matrix_market(a_path), read_matrix_market(b_path)


def main():
    tracemalloc.start()
    with tempfile.TemporaryDirectory() as tmp:
        for m in GRIDS:
            label = f"convdiff2d-{m}x{m}"
            a_path = pathlib.Path(tmp) / f"{label}.mtx"
            b_path = pathlib.Path(tmp) / f"{label}_b.mtx"
            problem = phase("generate", label, gen_convdiff2d, m, m)
            phase("write A/b", label, write_pair, problem, a_path, b_path)
            A, b = phase("read A/b", label, read_pair, a_path, b_path)
            phase("solve", label, roap_solve, A, b, "roap2")
            del problem, A, b
    tracemalloc.stop()


if __name__ == "__main__":
    main()
