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
it.  Before it writes anything a step compares each row's shape with
A's (u-side rows and ``av`` of A's row count, v-side rows of its column
count) and raises ``DimensionMismatch`` on any other; it raises
ValueError, also writing nothing, for an output row (``next_v``,
``next_u``, ``av``) that is read-only or that overlaps another output
row or an input row.  A row's pointer is trusted to be its array's, as
``rows`` makes it.  A step writes A v_k into ``av``, so the cycle can
track residuals of accumulated combinations without extra products, and
the next vectors into ``next_v`` and ``next_u``; it writes into no
other row.

A recurrence norm at or below the floor the caller passes
(:func:`breakdown_floor`, taken once per cycle) is a breakdown: that
side has no next vector (its row holds the undivided difference), the
norm is returned as computed, and nothing is raised.  So v_{k+1} exists
when beta > floor, and u_{k+1} (bidiagonal: u_k) when gamma (alpha) >
floor.  A bidiagonal step whose u side breaks down returns before A'u,
with beta 0.0, leaving ``next_v`` as it was.  A non-finite alpha, gamma
or beta raises ``NumericalOverflow`` at once, with the rows before it
written.  The two-sided step forms A'u into ``next_v`` before A v, on
every operator and whichever thread forms it, so at a non-finite alpha
or gamma ``next_v`` holds A'u.  At step 1 the previous rows are not read: a zero trailing
norm means they hold nothing.  No code here keeps a basis; the
full-basis reference runs live with the tests in ``tests/conftest.py``.

Each step is one compiled call (``oaplib._kernels``) over A's C
descriptor and the rows' pointers: A v, the two-sided step's alpha, the
u-side half step, A'u and the v-side half step (on an operator of at
least ``OAP_WORKER_MIN_WORK`` stored entries the two-sided step's A'u
runs on the kernels' worker thread beside the rest, and a banded
bidiagonal step splits each product), each half step forming
one next vector and its norm in one pass, with the bits of the step
that called the operator's ``apply`` and ``apply_transpose`` and NumPy
for the rest, which ``tests/conftest.py`` keeps as the reference.
"""

from ._kernels import lib
from .errors import DimensionMismatch, NumericalOverflow

TAU_BREAK = 1e-13


def breakdown_floor(A):
    """Norm at or below which a recurrence vector or seed is zero."""
    return TAU_BREAK * A.frobenius_norm()


def _overflow(what, step):
    return NumericalOverflow(f"non-finite {what} at step {step}", step=step)


def _mismatch(name, A, **rows):
    shapes = ", ".join(f"{key} {row[0].shape}" for key, row in rows.items())
    return DimensionMismatch(
        f"{name}: operator is {A.nrows}x{A.ncols}, rows are {shapes}")


_STOPS = {lib.OAP_STOP_ALPHA: "alpha", lib.OAP_STOP_GAMMA: "gamma",
          lib.OAP_STOP_BETA: "beta"}


def _stopped(name, k, stop):
    """The error of a step that the kernel stopped with ``stop``."""
    if stop == lib.OAP_STOP_OVERLAP:
        return ValueError(f"{name}: an output row overlaps another row")
    return _overflow(_STOPS[stop], k)


def _read_only(name, **rows):
    shown = ", ".join(key for key, row in rows.items()
                      if not row[0].flags.writeable)
    return ValueError(f"{name}: row {shown} is read-only")


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
    if not (next_v[0].flags.writeable and next_u[0].flags.writeable
            and av[0].flags.writeable):
        raise _read_only("tridiag_step", next_v=next_v, next_u=next_u, av=av)
    s = lib.oap_tridiag_step(A._operator, floor, v_prev[1], v[1], u_prev[1],
                             u[1], beta_prev, gamma_prev, next_v[1],
                             next_u[1], av[1])
    if s.stop:
        raise _stopped("tridiag_step", k, s.stop)
    return s.alpha, s.beta, s.gamma


def bidiag_step(A, k, floor, v, u_prev, beta_prev, next_v, next_u, av):
    """Step k of the bidiagonal reduction (produces u_k in ``next_u`` and
    v_{k+1} in ``next_v``)."""
    n, m = A.nrows, A.ncols
    if not (u_prev[0].shape == next_u[0].shape == av[0].shape == (n,)
            and v[0].shape == next_v[0].shape == (m,)):
        raise _mismatch("bidiag_step", A, v=v, u_prev=u_prev, next_v=next_v,
                        next_u=next_u, av=av)
    if not (next_v[0].flags.writeable and next_u[0].flags.writeable
            and av[0].flags.writeable):
        raise _read_only("bidiag_step", next_v=next_v, next_u=next_u, av=av)
    s = lib.oap_bidiag_step(A._operator, floor, v[1], u_prev[1], beta_prev,
                            next_v[1], next_u[1], av[1])
    if s.stop:
        raise _stopped("bidiag_step", k, s.stop)
    return s.alpha, s.beta, s.gamma
