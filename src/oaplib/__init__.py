"""Orthogonally accumulated projection solvers for linear systems.

Library layout:

* :mod:`oaplib.linalg`     - CSR/dense operators and vector primitives
* :mod:`oaplib.mmio`       - Matrix Market interchange
* :mod:`oaplib.reductions` - tridiagonal / bidiagonal reduction engines
* :mod:`oaplib.solvers`    - projection cycles and restarted drivers
* :mod:`oaplib.ap`         - block accumulated-projection baseline
* :mod:`oaplib.problems`   - benchmark problem generators
* :mod:`oaplib.cli`        - ``oap`` command line

``CsrMatrix`` computes ``A v`` and ``A' u`` with NumPy alone;
:func:`backend_name` names that implementation for benchmark records.
"""

from .ap import (ApBlock, ApState, BlockPartition, ap_factor, ap_init,
                 ap_solve, ap_sweep, project_onto)
from .errors import (DegenerateSeed, DimensionMismatch, EmptySubspace,
                     MatrixMarketError, NonFiniteVector, NumericalOverflow,
                     OapError)
from .linalg import (CsrMatrix, DenseMatrix, LinearOperator, as_vector,
                     backend_name, dot, norm2)
from .mmio import read_matrix_market, write_matrix_market
from .problems import (GeneratedProblem, ProblemSpec, gen_convdiff2d,
                       gen_poisson_lshape, gen_random_dense,
                       gen_tridiag_unsym, sample_solution)
from .reductions import (KrylovState, RecurrenceCoefficients, StepOutcome,
                         advance, bidiag_step, bidiagonalize, tridiag_step,
                         tridiagonalize)
from .solvers import (CycleResult, SolveOptions, SolveReport,
                      c_update_bidiag, c_update_tridiag, init_from_row,
                      init_from_vector, oap_cycle_bidiag, oap_cycle_tridiag,
                      orthogonality_lost, roap_solve)

__version__ = "0.1.0"

__all__ = [
    "ApBlock", "ApState", "BlockPartition", "CsrMatrix", "CycleResult",
    "DenseMatrix", "DegenerateSeed", "DimensionMismatch", "EmptySubspace",
    "GeneratedProblem", "KrylovState", "LinearOperator", "MatrixMarketError",
    "NonFiniteVector", "NumericalOverflow", "OapError", "ProblemSpec",
    "RecurrenceCoefficients", "SolveOptions", "SolveReport",
    "StepOutcome", "advance", "ap_factor", "ap_init", "ap_solve", "ap_sweep",
    "as_vector",
    "backend_name", "bidiag_step", "bidiagonalize", "c_update_bidiag",
    "c_update_tridiag", "dot", "gen_convdiff2d", "gen_poisson_lshape",
    "gen_random_dense", "gen_tridiag_unsym", "init_from_row",
    "init_from_vector", "norm2", "oap_cycle_bidiag", "oap_cycle_tridiag",
    "orthogonality_lost", "project_onto", "read_matrix_market", "roap_solve",
    "sample_solution", "tridiag_step", "tridiagonalize",
    "write_matrix_market",
]
