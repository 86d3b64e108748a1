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
"""

import math

import numpy as np

from .errors import NumericalOverflow

TAU_BREAK = 1e-13


def breakdown_floor(A):
    """Norm at or below which a recurrence vector or seed is zero."""
    return TAU_BREAK * A.frobenius_norm()


def _overflow(what, step):
    return NumericalOverflow(f"non-finite {what} at step {step}", step=step)


# The steps below evaluate the recurrences of the module docstring in
# the order written there, each product and difference rounded once as
# ``av - alpha * u_k`` would round it, but into as few arrays as possible:
# w is built in one new array and divided in place into the next u, and
# the fresh A'u from the operator becomes the next v in place; the
# two-sided step forms its scaled vectors in one scratch array.  No step
# writes into the window's vectors or into ``av``, which callers read.

def tridiag_step(A, k, floor, v_prev, v, u_prev, u, beta_prev, gamma_prev):
    """Step k of the two-sided reduction on a square A (which
    ``oap_cycle_tridiag`` checks: u and v share one scratch array)."""
    av = A.apply(v)
    alpha = float(u.dot(av))
    if not math.isfinite(alpha):
        raise _overflow("alpha", k)
    w = np.multiply(u, alpha)
    np.subtract(av, w, out=w)
    # the step's one scratch array, for each scaled vector it subtracts
    if beta_prev != 0.0:
        t = np.multiply(u_prev, beta_prev)
        np.subtract(w, t, out=w)
    else:
        t = np.empty_like(w)
    gamma = math.sqrt(w.dot(w))
    if not math.isfinite(gamma):
        raise _overflow("gamma", k)
    next_u = None if gamma <= floor else np.divide(w, gamma, out=w)

    q = A.apply_transpose(u)
    np.subtract(q, np.multiply(v, alpha, out=t), out=q)
    if gamma_prev != 0.0:
        np.subtract(q, np.multiply(v_prev, gamma_prev, out=t), out=q)
    beta = math.sqrt(q.dot(q))
    if not math.isfinite(beta):
        raise _overflow("beta", k)
    next_v = None if beta <= floor else np.divide(q, beta, out=q)
    return av, alpha, beta, gamma, next_v, next_u


def bidiag_step(A, k, floor, v, u_prev, beta_prev):
    """Step k of the bidiagonal reduction (produces u_k, v_{k+1})."""
    av = A.apply(v)
    if beta_prev == 0.0:
        w = av  # step 1: av itself, so u_k is a new array
    else:
        w = np.multiply(u_prev, beta_prev)
        np.subtract(av, w, out=w)
    alpha = math.sqrt(w.dot(w))
    if not math.isfinite(alpha):
        raise _overflow("alpha", k)
    if alpha <= floor:  # no u_k, so no v_{k+1}
        return av, alpha, 0.0, 0.0, None, None
    u = np.divide(w, alpha, out=None if w is av else w)

    q = A.apply_transpose(u)
    np.subtract(q, np.multiply(v, alpha), out=q)
    beta = math.sqrt(q.dot(q))
    if not math.isfinite(beta):
        raise _overflow("beta", k)
    next_v = None if beta <= floor else np.divide(q, beta, out=q)
    return av, alpha, beta, 0.0, next_v, u
