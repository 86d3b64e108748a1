"""Short-recurrence reduction kernels.

Two engines, each one step that reads the rolling window and writes its
new vectors into rows the caller hands it, returning the scalars
``(alpha, beta, gamma)``; the caller owns every vector
(``solvers._cycle``):

* ``tridiag_step`` - two-sided reduction U'AV = T with T tridiagonal;
  step k reads (v_{k-1}, v_k, u_{k-1}, u_k) and beta_{k-1}, gamma_{k-1}
  and produces alpha_k, gamma_k, u_{k+1}, beta_k, v_{k+1}.
* ``bidiag_step`` - Golub-Kahan-style reduction with T upper bidiagonal;
  note the index offset: step k reads (v_k, u_{k-1}) and beta_{k-1} and
  produces u_k (same index, written into ``next_u``) and v_{k+1}; gamma
  is 0.0.

Every vector is a row pair ``(array, pointer)`` from
``oaplib._kernels.rows``: an ndarray row of a block and a C pointer to
it.  Before its first product a step compares each row's shape with A's
(u-side rows and ``av`` of A's row count, v-side rows of its column
count) and raises ``DimensionMismatch`` on any other, writing nothing;
a row's pointer is trusted to be its array's, as ``rows`` makes it.  A
step writes A v_k into ``av``, so the cycle
can track residuals of accumulated combinations without extra products,
and the next vectors into ``next_v`` and ``next_u``; it writes into no
other row.

A recurrence norm at or below the floor the caller passes
(:func:`breakdown_floor`, taken once per cycle) is a breakdown: that
side has no next vector (its row holds the undivided difference), the
norm is returned as computed, and nothing is raised.  So v_{k+1} exists
when beta > floor, and u_{k+1} (bidiagonal: u_k) when gamma (alpha) >
floor.  A bidiagonal step whose u side breaks down returns before A'u,
with beta 0.0.  At step 1 the previous rows are not read: a zero
trailing norm means they hold nothing.  No code here keeps a basis; the
full-basis reference runs live with the tests in ``tests/conftest.py``.

Besides the two products, a step is one NumPy inner product (the
two-sided step's alpha) and two calls of the compiled ``oap_half_step``
kernel (``oaplib._kernels``) on the rows' pointers, each forming one
next vector and its norm in one pass with the bits of the NumPy formulas
it replaced, which ``tests/test_kernels.py`` keeps as the reference.
"""

import math

from ._kernels import ffi, lib
from .errors import DimensionMismatch, NumericalOverflow

TAU_BREAK = 1e-13
_NULL = ffi.NULL


def breakdown_floor(A):
    """Norm at or below which a recurrence vector or seed is zero."""
    return TAU_BREAK * A.frobenius_norm()


def _overflow(what, step):
    return NumericalOverflow(f"non-finite {what} at step {step}", step=step)


def _mismatch(name, A, **rows):
    shapes = ", ".join(f"{key} {row[0].shape}" for key, row in rows.items())
    return DimensionMismatch(
        f"{name}: operator is {A.nrows}x{A.ncols}, rows are {shapes}")


# Each step evaluates the recurrences of the module docstring in the
# order written there, each half of it in one ``oap_half_step`` call
# over the rows' pointers, with the bits of NumPy's ``av - alpha * u_k``
# and so on: w is formed in the next-u row and divided there, and A'u,
# written into the next-v row by the operator, becomes the next v in
# place.  A step writes into its three output rows and no other.

def tridiag_step(A, k, floor, v_prev, v, u_prev, u, beta_prev, gamma_prev,
                 next_v, next_u, av):
    """Step k of the two-sided reduction on a square A (which
    ``oap_cycle_tridiag`` checks: u and v have one length)."""
    n, m = A.nrows, A.ncols
    if not (u_prev[0].shape == u[0].shape == next_u[0].shape
            == av[0].shape == (n,)
            and v_prev[0].shape == v[0].shape == next_v[0].shape == (m,)):
        raise _mismatch("tridiag_step", A, v_prev=v_prev, v=v,
                        u_prev=u_prev, u=u, next_v=next_v, next_u=next_u,
                        av=av)
    A.apply(v[0], av[0])
    alpha = float(u[0].dot(av[0]))
    if not math.isfinite(alpha):
        raise _overflow("alpha", k)
    gamma = lib.oap_half_step(n, av[1], u[1], alpha,
                              _NULL if beta_prev == 0.0 else u_prev[1],
                              beta_prev, floor, next_u[1])
    if not math.isfinite(gamma):
        raise _overflow("gamma", k)

    A.apply_transpose(u[0], next_v[0])
    beta = lib.oap_half_step(m, next_v[1], v[1], alpha,
                             _NULL if gamma_prev == 0.0 else v_prev[1],
                             gamma_prev, floor, next_v[1])
    if not math.isfinite(beta):
        raise _overflow("beta", k)
    return alpha, beta, gamma


def bidiag_step(A, k, floor, v, u_prev, beta_prev, next_v, next_u, av):
    """Step k of the bidiagonal reduction (produces u_k in ``next_u`` and
    v_{k+1} in ``next_v``)."""
    n, m = A.nrows, A.ncols
    if not (u_prev[0].shape == next_u[0].shape == av[0].shape == (n,)
            and v[0].shape == next_v[0].shape == (m,)):
        raise _mismatch("bidiag_step", A, v=v, u_prev=u_prev, next_v=next_v,
                        next_u=next_u, av=av)
    A.apply(v[0], av[0])
    # step 1 (beta_prev 0): av itself, scaled
    alpha = lib.oap_half_step(n, av[1],
                              _NULL if beta_prev == 0.0 else u_prev[1],
                              beta_prev, _NULL, 0.0, floor, next_u[1])
    if not math.isfinite(alpha):
        raise _overflow("alpha", k)
    if alpha <= floor:  # no u_k, so no v_{k+1}
        return alpha, 0.0, 0.0

    A.apply_transpose(next_u[0], next_v[0])
    beta = lib.oap_half_step(m, next_v[1], v[1], alpha, _NULL, 0.0,
                             floor, next_v[1])
    if not math.isfinite(beta):
        raise _overflow("beta", k)
    return alpha, beta, 0.0
