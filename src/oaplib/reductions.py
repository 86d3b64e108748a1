"""Short-recurrence reduction kernels.

Two engines, both driven one step at a time over a rolling two-vector
window:

* ``tridiag_step`` - two-sided reduction U'AV = T with T tridiagonal;
  step k consumes (v_k, u_k) and the previous-step norms and produces
  alpha_k, gamma_k, u_{k+1}, beta_k, v_{k+1}.
* ``bidiag_step`` - Golub-Kahan-style reduction with T upper bidiagonal;
  note the index offset: step k produces u_k (same index) and v_{k+1}.

A recurrence norm at or below :func:`breakdown_floor` is a breakdown,
flagged per side and never raised: callers restart or stop.  No code
here keeps a basis: the solvers hold only the window, and the full-basis
reference runs (with optional re-projection) live with the tests in
``tests/conftest.py``.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflow
from .linalg import as_vector, norm2

TAU_BREAK = 1e-13

TRIDIAGONAL = "tridiagonal"
BIDIAGONAL = "bidiagonal"


@dataclass
class KrylovState:
    """Rolling window of basis vectors plus the trailing norms.

    ``k`` is the index of the next step to run (1-based).  In
    bidiagonal mode ``u_curr`` holds u_{k-1} (the zero vector at k=1)
    because of the index offset noted in the module docstring.
    """

    k: int
    mode: str
    v_prev: np.ndarray
    v_curr: np.ndarray
    u_prev: np.ndarray
    u_curr: np.ndarray
    beta_prev: float = 0.0
    gamma_prev: float = 0.0

    @classmethod
    def start(cls, mode, v1, u1=None):
        v1 = _check_unit(v1, "v1")
        zero = np.zeros_like(v1)
        if mode == TRIDIAGONAL:
            if u1 is None:
                raise ValueError("tridiagonal mode needs a starting u1")
            u1 = _check_unit(u1, "u1")
            return cls(1, mode, zero, v1, zero.copy(), u1)
        if mode == BIDIAGONAL:
            return cls(1, mode, zero, v1, zero.copy(), zero.copy())
        raise ValueError(f"unknown mode {mode!r}")


@dataclass
class StepOutcome:
    """One step's products.  A side whose norm (u: gamma, or alpha when
    bidiagonal; v: beta) is at most :func:`breakdown_floor` sets its
    flag and reports the zero vector as its next basis vector; the
    scalar is the norm as computed.  ``av`` is A v_k, exposed so callers
    can track residuals of accumulated combinations without extra
    matvecs."""

    next_v: np.ndarray
    next_u: np.ndarray
    alpha: float
    beta: float
    gamma: float
    u_broken: bool
    v_broken: bool
    av: np.ndarray = None


def breakdown_floor(A):
    """Norm at or below which a recurrence vector or seed is zero."""
    return TAU_BREAK * A.frobenius_norm()


def _check_unit(v, name):
    v = as_vector(v, name)
    if abs(norm2(v) - 1.0) > 1e-12:
        raise ValueError(f"{name} must have unit Euclidean norm")
    return v


def _overflow(what, step):
    return NumericalOverflow(f"non-finite {what} at step {step}", step=step)


# The steps below evaluate the recurrences of the module docstring in
# the order written there, each product and difference rounded once as
# ``av - alpha * u_k`` would round it, but into as few arrays as possible:
# w is built in one new array and divided in place into the next u, and
# the fresh A'u from the operator becomes the next v in place; the
# two-sided step forms its scaled vectors in one scratch array.  No step
# writes into the state's vectors or into ``av``, which callers read.

def tridiag_step(A, s):
    """Advance the two-sided reduction by one step on a square A (which
    ``oap_cycle_tridiag`` checks: u and v share one scratch array).

    Returns the new directions and scalars; see the module docstring
    for the recurrences.
    """
    floor = breakdown_floor(A)

    av = A.apply(s.v_curr)
    alpha = float(s.u_curr.dot(av))
    if not math.isfinite(alpha):
        raise _overflow("alpha", s.k)
    w = np.multiply(s.u_curr, alpha)
    np.subtract(av, w, out=w)
    # the step's one scratch array, for each scaled vector it subtracts
    t = np.multiply(s.u_prev, s.beta_prev)
    if s.beta_prev != 0.0:
        np.subtract(w, t, out=w)
    gamma = math.sqrt(w.dot(w))
    if not math.isfinite(gamma):
        raise _overflow("gamma", s.k)
    u_broken = gamma <= floor
    next_u = np.zeros_like(w) if u_broken else np.divide(w, gamma, out=w)

    q = A.apply_transpose(s.u_curr)
    np.subtract(q, np.multiply(s.v_curr, alpha, out=t), out=q)
    if s.gamma_prev != 0.0:
        np.subtract(q, np.multiply(s.v_prev, s.gamma_prev, out=t), out=q)
    beta = math.sqrt(q.dot(q))
    if not math.isfinite(beta):
        raise _overflow("beta", s.k)
    v_broken = beta <= floor
    next_v = np.zeros_like(q) if v_broken else np.divide(q, beta, out=q)

    return StepOutcome(next_v, next_u, alpha, beta, gamma, u_broken,
                       v_broken, av)


def bidiag_step(A, s):
    """Advance the bidiagonal reduction by one step (produces u_k, v_{k+1})."""
    floor = breakdown_floor(A)

    av = A.apply(s.v_curr)
    if s.beta_prev == 0.0:
        w = av  # step 1: av itself, so u_k is a new array
    else:
        w = np.multiply(s.u_curr, s.beta_prev)
        np.subtract(av, w, out=w)
    alpha = math.sqrt(w.dot(w))
    if not math.isfinite(alpha):
        raise _overflow("alpha", s.k)
    u_broken = alpha <= floor
    if u_broken:
        u_k = np.zeros_like(w)
    else:
        u_k = np.divide(w, alpha, out=None if w is av else w)

    q = A.apply_transpose(u_k)
    np.subtract(q, np.multiply(s.v_curr, alpha), out=q)
    beta = math.sqrt(q.dot(q))
    if not math.isfinite(beta):
        raise _overflow("beta", s.k)
    v_broken = beta <= floor
    next_v = np.zeros_like(q) if v_broken else np.divide(q, beta, out=q)

    return StepOutcome(next_v, u_k, alpha, beta, 0.0, u_broken, v_broken, av)


def advance(s, outcome):
    """State after accepting a step's outcome (bidiagonal steps report
    gamma = 0, so one constructor serves both modes)."""
    return KrylovState(s.k + 1, s.mode, s.v_curr, outcome.next_v,
                       s.u_curr, outcome.next_u, outcome.beta, outcome.gamma)
