"""Short-recurrence reduction kernels.

Two engines, each one step of plain arrays and scalars in and one tuple
``(av, alpha, beta, gamma, next_v, next_u)`` out; the caller keeps the
rolling two-vector window as its own locals (``solvers._cycle``):

* ``tridiag_step`` - two-sided reduction U'AV = T with T tridiagonal;
  step k reads (v_{k-1}, v_k, u_{k-1}, u_k) and beta_{k-1}, gamma_{k-1}
  and produces alpha_k, gamma_k, u_{k+1}, beta_k, v_{k+1}.
* ``bidiag_step`` - Golub-Kahan-style reduction with T upper bidiagonal;
  note the index offset: step k reads (v_k, u_{k-1}) and beta_{k-1} and
  produces u_k (same index, returned as ``next_u``) and v_{k+1}; gamma
  is 0.0.

``av`` is A v_k, returned so the cycle can track residuals of
accumulated combinations without extra products.  A recurrence norm at
or below the floor the caller passes (:func:`breakdown_floor`, taken
once per cycle) is a breakdown: that side's next vector is None, the
norm is returned as computed, and nothing is raised.  A bidiagonal step
whose u side breaks down returns before A'u, with beta 0.0 and both
next vectors None.  At step 1 the previous vectors may be None: a zero
trailing norm means they are not read.  No code here keeps a basis; the
full-basis reference runs live with the tests in ``tests/conftest.py``.

Besides the two products, a step is one NumPy inner product (the
two-sided step's alpha) and two calls of the compiled ``half_step``
kernel (``oaplib._kernels``), each forming one next vector and its norm
in one pass with the bits of the NumPy formulas it replaced, which
``tests/test_kernels.py`` keeps as the reference.
"""

import math

import numpy as np

from ._kernels import half_step
from .errors import NumericalOverflow

TAU_BREAK = 1e-13


def breakdown_floor(A):
    """Norm at or below which a recurrence vector or seed is zero."""
    return TAU_BREAK * A.frobenius_norm()


def _overflow(what, step):
    return NumericalOverflow(f"non-finite {what} at step {step}", step=step)


# Each step evaluates the recurrences of the module docstring in the
# order written there, each half of it in one ``half_step`` kernel call
# (``oaplib._kernels``), with the bits of NumPy's ``av - alpha * u_k``
# and so on: w is built in one new array and divided in place into the
# next u, and the fresh A'u from the operator becomes the next v in
# place.  No step writes into the window's vectors or into ``av``, which
# callers read.  The kernel refuses a window vector that is not a
# contiguous float64 array of the right length, and a read-only A'u.

def tridiag_step(A, k, floor, v_prev, v, u_prev, u, beta_prev, gamma_prev):
    """Step k of the two-sided reduction on a square A (which
    ``oap_cycle_tridiag`` checks: u and v have one length)."""
    av = A.apply(v)
    alpha = float(u.dot(av))
    if not math.isfinite(alpha):
        raise _overflow("alpha", k)
    w = np.empty(len(av))
    gamma = half_step(av, u, alpha, None if beta_prev == 0.0 else u_prev,
                      beta_prev, floor, w)
    if not math.isfinite(gamma):
        raise _overflow("gamma", k)

    q = A.apply_transpose(u)
    beta = half_step(q, v, alpha, None if gamma_prev == 0.0 else v_prev,
                     gamma_prev, floor, q)
    if not math.isfinite(beta):
        raise _overflow("beta", k)
    return (av, alpha, beta, gamma, None if beta <= floor else q,
            None if gamma <= floor else w)


def bidiag_step(A, k, floor, v, u_prev, beta_prev):
    """Step k of the bidiagonal reduction (produces u_k, v_{k+1})."""
    av = A.apply(v)
    u = np.empty(len(av))  # step 1 (beta_prev 0): av itself, scaled
    alpha = half_step(av, None if beta_prev == 0.0 else u_prev, beta_prev,
                      None, 0.0, floor, u)
    if not math.isfinite(alpha):
        raise _overflow("alpha", k)
    if alpha <= floor:  # no u_k, so no v_{k+1}
        return av, alpha, 0.0, 0.0, None, None

    q = A.apply_transpose(u)
    beta = half_step(q, v, alpha, None, 0.0, floor, q)
    if not math.isfinite(beta):
        raise _overflow("beta", k)
    return av, alpha, beta, 0.0, None if beta <= floor else q, u
