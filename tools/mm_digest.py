"""Print SHA-256 digests of the Matrix Market files the writer makes, to
show that a change to ``write_matrix_market`` leaves its bytes as they
were.

Files: A and b of every pinned ``oap bench`` problem (convdiff 9x10,
9x19 and 19x19, the two Poisson L-shapes, tridiag-unsym 600 and the
dense random-300 at seed 1234) and of convdiff 60x60 and 200x200, as
the benchmark's ``convdiff-large`` workload writes them.  A is written
in the coordinate layout (sparse) or the array layout (dense), b in the
array layout.  Each line gives the file's name, its size in bytes and
the SHA-256 of its bytes; the last line is one digest over all lines.
Unlike ``tools/solve_digest.py`` nothing here sums in floating point,
so the output should match between machines as well as between commits.

    PYTHONPATH=src python tools/mm_digest.py
"""

import hashlib
import pathlib
import tempfile

from oaplib import write_matrix_market
from oaplib.cli import bench_problems
from oaplib.problems import gen_convdiff2d


def problems():
    """The problems whose files are digested, in digest order."""
    for spec in bench_problems():
        yield spec.generate()
    yield gen_convdiff2d(60, 60)
    yield gen_convdiff2d(200, 200)


def main():
    overall = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        for problem in problems():
            for part, payload in (("A", problem.A), ("b", problem.b)):
                name = f"{problem.label}_{part}.mtx"
                path = pathlib.Path(tmp) / name
                write_matrix_market(path, payload)
                data = path.read_bytes()
                line = (f"{name} {len(data)} "
                        f"{hashlib.sha256(data).hexdigest()}")
                print(line, flush=True)
                overall.update(line.encode() + b"\n")
    print(f"overall {overall.hexdigest()}")


if __name__ == "__main__":
    main()
