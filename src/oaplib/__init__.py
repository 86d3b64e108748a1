"""Orthogonally accumulated projection solvers for linear systems.

Library layout:

* :mod:`oaplib.linalg`     - CSR/dense operators and vector primitives
* :mod:`oaplib.mmio`       - Matrix Market interchange
* :mod:`oaplib.reductions` - tridiagonal / bidiagonal reduction steps,
                             plain functions of arrays and scalars
                             (no stored basis)
* :mod:`oaplib.solvers`    - projection cycles and restarted drivers
* :mod:`oaplib.ap`         - block accumulated-projection baseline
* :mod:`oaplib.problems`   - benchmark problem generators
* :mod:`oaplib.cli`        - ``oap`` command line

Every product of a ``CsrMatrix`` or ``DenseMatrix`` is one compiled
call over the operator's C descriptor (``oaplib._kernels``): A's DIA
arrays for a banded operator, else its own CSR arrays, or the dense
row-major block, with the bits of scipy's ``csr_matvec``,
``csc_matvec`` and ``dia_matvec`` and of ``np.matmul``.  Each reduction
step is one compiled call over the same descriptor, products included;
scipy is not imported at run time.  Every product returns a new
array.  :func:`backend_name` is the key under which benchmark records
compare.
"""

from .ap import (BlockPartition, ap_factor, ap_init, ap_solve, ap_sweep,
                 project_onto)
from .errors import (DegenerateSeed, DimensionMismatch, EmptySubspace,
                     MatrixMarketError, NonFiniteVector, NumericalOverflow,
                     OapError)
from .linalg import (CsrMatrix, DenseMatrix, LinearOperator, as_vector,
                     backend_name, dot, norm2)
from .mmio import read_matrix_market, write_matrix_market
from .problems import (GeneratedProblem, ProblemSpec, gen_convdiff2d,
                       gen_poisson_lshape, gen_random_dense,
                       gen_tridiag_unsym, sample_solution)
from .reductions import bidiag_step, tridiag_step
from .solvers import (CycleResult, SolveReport, c_update_bidiag,
                      c_update_tridiag, init_from_vector, oap_cycle_bidiag,
                      oap_cycle_tridiag, roap_solve)

__version__ = "0.1.0"

__all__ = [
    "BlockPartition", "CsrMatrix", "CycleResult",
    "DenseMatrix", "DegenerateSeed", "DimensionMismatch", "EmptySubspace",
    "GeneratedProblem", "LinearOperator",
    "MatrixMarketError", "NonFiniteVector", "NumericalOverflow", "OapError",
    "ProblemSpec", "SolveReport", "ap_factor",
    "ap_init", "ap_solve", "ap_sweep", "as_vector", "backend_name",
    "bidiag_step", "c_update_bidiag", "c_update_tridiag", "dot",
    "gen_convdiff2d", "gen_poisson_lshape", "gen_random_dense",
    "gen_tridiag_unsym", "init_from_vector", "norm2", "oap_cycle_bidiag",
    "oap_cycle_tridiag", "project_onto",
    "read_matrix_market", "roap_solve", "sample_solution", "tridiag_step",
    "write_matrix_market",
]
