"""Accumulated-projection solvers over the reduction kernels.

A single cycle seeds a unit direction v1 whose inner product c1 with
the unknown solution is computable, then extends it with one of the
short-recurrence engines while updating the coefficients c_k = x'v_k
from right-hand-side inner products alone.  The cycle owns every vector
it works on: two blocks made once per cycle, one row per vector, each
row with a C pointer made once (``oaplib._kernels.rows``).  It keeps
the engine's window as rows, its trailing norms and the breakdown floor
as plain locals, and per step makes two compiled calls
(``oaplib._kernels``).  ``tridiag_step`` or ``bidiag_step`` makes the
step's two products over A's descriptor and writes into its rows, so a
step allocates no array.  ``oap_cycle_advance`` then does the cycle's
own work over a state struct the cycle makes once and holds: the
tracked residual's update and norm, the best-prefix test, the
divergence guard, the breakdown test, b'u and the coefficient update,
its finiteness, the angle test and the next x, in that order, with the
bits of the Python and NumPy formulas it replaced (``tests/conftest.py``
keeps them as its reference).  It returns one stop code, which the
cycle maps to a stop cause or to ``NumericalOverflow``; the cycle keeps
which row holds the best prefix and rolls the rows.  The angle between
the running approximation and each new direction detects loss of
orthogonality; ``roap_solve`` then restarts on the residual equation
(with a budget of one cycle it is the unrestarted OAP method).

A cycle takes at most n - 1 steps.  With v1 these are n orthonormal
directions, which span the whole space, so in exact arithmetic one
cycle recovers x; the cap follows from the method and is no option.
The solvers take only ``tol`` and a budget, as keywords, and check
both with ``check_budget``.

The angle test restarts on lost semiorthogonality (Simon 1984), not on
a fixed angle.  x = sum_j c_j v_j, so |cos(x, v)| is at most
max_j |v_j'v| * ||c||_1 / ||c||_2: a basis still orthogonal to
sqrt(eps) may show a cosine up to sqrt(k) times larger after k terms.
The cycle therefore allows sqrt(eps) * ||c||_1 / ||c||_2, from the
running sums of |c_j| and c_j^2 over the coefficients already in x:
with k of them the ratio lies in [1, sqrt(k)], so the threshold is
sqrt(eps) at k = 1 and never more than sqrt(k eps), and needs no cap.
With no nonzero coefficient it is sqrt(eps), and x is zero, which
never fails the test.

Each coefficient c_{k+1} = x'v_{k+1} is exact only in exact
arithmetic: every step commits a local error of order eps ||A|| ||x||,
which the recurrence carries forward through the inverse of the lower
banded (two-sided) or bidiagonal matrix with the betas on its diagonal,
so a small beta amplifies all earlier rounding in the coefficients that
follow it.

Restarting on the residual keeps every cycle's coefficients consistent:
the cycle solves A e = r, so its seed and inner products use r.

``roap_solve`` holds numpy's OpenBLAS to one thread, process-wide, for
the whole solve and restores the caller's count (``linalg``): a ``ddot``
of more than 10,000 entries otherwise adds its partial sums in an order
that depends on the thread count, and a restarted solve can turn that
rounding into another outcome.
"""

import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import DegenerateSeed, DimensionMismatch, NumericalOverflow
from ._kernels import ffi, lib, rows
from .linalg import _one_blas_thread, as_vector, dot, norm2
from .reductions import bidiag_step, breakdown_floor, tridiag_step

TOL_DEFAULT = 1e-6

# A cycle whose tracked residual exceeds this multiple of the seed
# scale has lost orthogonality in a way the angle test cannot see (the
# coefficient recurrence amplifies noise while the accumulated vector
# stays dominated by its newest terms); the cycle is cut and the best
# evaluated prefix returned.  Legitimate cycles wander below ~10x.
DIVERGENCE_FACTOR = 100.0

_CYCLE = ffi.typeof("oap_cycle_t *")
_advance = lib.oap_cycle_advance
_DIVERGENCE, _NONFINITE = lib.OAP_CYCLE_DIVERGENCE, lib.OAP_CYCLE_NONFINITE
_CAUSES = {lib.OAP_CYCLE_BREAKDOWN: "breakdown",
           lib.OAP_CYCLE_ORTHOGONALITY: "orthogonality"}


def check_budget(tol, budget, name):
    """The one rule of ``roap_solve``, ``ap_solve`` and the CLI: ``tol`` > 0,
    and the budget ``name`` None (the solver's default) or a whole number
    (one that ``operator.index`` takes, NumPy integers included) >= 0."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if budget is not None:
        try:
            whole = operator.index(budget)
        except TypeError:
            raise ValueError(f"{name} must be a whole number") from None
        if whole < 0:
            raise ValueError(f"{name} must be >= 0")


@dataclass
class SolveReport:
    """Outcome bookkeeping for one solve.

    Stored: ``termination``; ``inner_iterations``, the inner steps of
    each cycle (``ap``: blocks per sweep); ``residual_history``, the
    relative residual before any work and after each cycle or sweep;
    and ``stop_causes``, each cycle's ``CycleResult.stop_cause`` (empty
    for ``ap``).  Derived from them, read-only: ``restarts``,
    ``final_relres`` (the last history entry) and ``breakdown_events``.

    ``termination`` is the first of these to hold, checked in this order
    before each cycle or sweep: "converged" (relres <= ``tol``),
    "max-restarts" (the budget is spent) and, for ``roap``, "stagnation"
    (three restarts in a row without a residual decrease, a cycle that
    returned the zero vector, or no seed: A'r is numerically zero).
    """

    termination: str = ""  # "converged" | "max-restarts" | "stagnation"
    inner_iterations: list = field(default_factory=list)
    residual_history: list = field(default_factory=list)
    stop_causes: list = field(default_factory=list)

    @property
    def restarts(self):
        return len(self.inner_iterations)

    @property
    def final_relres(self):
        return self.residual_history[-1]

    @property
    def breakdown_events(self):
        return self.stop_causes.count("breakdown")


class CycleResult(NamedTuple):
    x_partial: np.ndarray
    inner_steps: int
    # "orthogonality" | "breakdown" | "exhausted" | "divergence" (the
    # residual guard tripped; x_partial is the best evaluated prefix)
    stop_cause: str


def _seed_norm(A, v, what, scale):
    """||v|| of a seed v = A'w; raises NumericalOverflow if it is not
    finite and DegenerateSeed if it is at most ``breakdown_floor(A)``
    times ``scale`` = ||w||: a floor relative to w, so that scaling w
    by a power of two scales the seed and leaves the test as it was."""
    nrm = norm2(v)
    if not np.isfinite(nrm):
        raise NumericalOverflow(f"norm of {what} overflowed")
    if nrm <= breakdown_floor(A) * scale:
        raise DegenerateSeed(f"{what} is numerically zero")
    return nrm


def _as_rhs(A, rhs, name):
    rhs = as_vector(rhs, name)
    if len(rhs) != A.nrows:
        raise DimensionMismatch(f"{name} has {len(rhs)} entries, not {A.nrows}")
    return rhs


def init_from_vector(A, rhs, w):
    """Seed from any direction w: v1 = A'w (normalized), c1 = t * rhs'w.

    If rhs = A x, then c1 equals x'v1 exactly in exact arithmetic.  The
    unit vector w = e_i seeds from row i of A.
    """
    w = as_vector(w, "w")
    atw = A.apply_transpose(w)
    t = 1.0 / _seed_norm(A, atw, "A'w", norm2(w))
    return t * atw, t * dot(as_vector(rhs, "rhs"), w)


def _check_seed(A, v1, c1):
    """v1 as a vector of A's column count and unit Euclidean norm;
    raises NumericalOverflow, before any product, if c1 is not finite."""
    v1 = as_vector(v1, "v1")
    if len(v1) != A.ncols:
        raise DimensionMismatch(f"v1 has {len(v1)} entries, not {A.ncols}")
    if abs(norm2(v1) - 1.0) > 1e-12:
        raise ValueError("v1 must have unit Euclidean norm")
    if not math.isfinite(c1):
        raise NumericalOverflow(f"non-finite seed coefficient c1 = {c1}")
    return v1


def _cycle(A, rhs, v1, c1, two_sided):
    """One projection cycle from the seed c1 v1, over the two-sided
    engine (u1 = v1) or the bidiagonal one.

    Starts from x_1 = c1 v1 and keeps extending while the new direction
    stays orthogonal to the running approximation and neither recurrence
    breaks down, for at most n - 1 steps: by then x has n orthonormal
    directions, the whole space, and the cycle is "exhausted".  The
    trailing norms ``beta, gamma`` are locals, and the breakdown floor
    is taken once.  After each step one compiled call,
    ``oap_cycle_advance``, does the rest of the step's work over a state
    made once per cycle (``oaplib._kernels``): the tracked residual, the
    divergence guard, the breakdown test (a step without v_{k+1}, a norm
    at or below the floor, stops the cycle before its update), the
    coefficient update, the angle test (|cos(x, v_{k+1})| within
    sqrt(eps) ||c||_1 / ||c||_2 of the coefficients already in x; the
    zero x never fails it) and the next x.  The two-sided coefficient
    update reads b'u_k from the window, the bidiagonal one b'u_k from
    the step (the index offset of ``oaplib.reductions``); a two-sided
    step without u_{k+1} stops the cycle after its update.  Returns the
    partial solution as a new array.

    The cycle's vectors are the rows of two blocks made once per cycle
    (``oaplib._kernels.rows``), each with its C pointer: of A's column
    count the v window (v_prev, v, next_v; the bidiagonal engine needs
    no v_prev) and three x rows (x, the next x and one more, since the
    best prefix may hold an old x); of A's row count the u window (u_prev,
    u, next_u; bidiagonal: u_{k-1} and u_k), A v_k, A x_k, the residual
    and a copy of rhs.  The window rolls by swapping rows.  The cycle
    holds the blocks and the state, which points into them, until it
    returns.

    The cycle also tracks the residual rhs - A x_k from the A v_k
    products the steps already computed (each one step late: A x_k
    completes when A v_k arrives).  Past ``DIVERGENCE_FACTOR`` times
    ||rhs|| it stops with "divergence" and returns the evaluated prefix
    with the smallest residual, the zero vector if none beat it.
    """
    rhs = _as_rhs(A, rhs, "rhs")
    floor = breakdown_floor(A)
    n, m = A.ncols, A.nrows
    v_rows = rows(6 if two_sided else 5, n)
    u_rows = rows(len(v_rows) + 1, m)
    x, x_spare, x_other, v, next_v = v_rows[:5]
    av, ax, res, u, next_u = u_rows[:5]
    v_prev, u_prev = (v_rows[5], u_rows[5]) if two_sided else (None, None)
    rhs_row = u_rows[-1]
    rhs_row[0][:] = rhs
    v[0][:] = v1
    if two_sided:
        u[0][:] = v1
    beta = gamma = 0.0

    np.multiply(v1, c1, out=x[0])
    scale = norm2(rhs)
    # 0 + c A v rounds to c A v but for the sign of a zero, which no
    # norm sees, so A x starts at zero
    ax[0].fill(0.0)
    state = ffi.new(_CYCLE, {
        "nrows": m, "ncols": n, "two_sided": two_sided, "floor": floor,
        "limit": DIVERGENCE_FACTOR * scale, "ax": ax[1], "av": av[1],
        "rhs": rhs_row[1], "res": res[1], "c_curr": c1, "c_abs": abs(c1),
        "c_sq": c1 * c1, "best_res": scale})
    best = None  # the zero vector
    cause = "exhausted"
    for k in range(1, max(n - 1, 1) + 1):  # >= 1 step, so k is bound
        if two_sided:
            alpha, beta_k, gamma_k = tridiag_step(
                A, k, floor, v_prev, v, u_prev, u, beta, gamma,
                next_v, next_u, av)
            b_u = u
        else:  # u holds u_{k-1}; the step writes u_k into next_u
            alpha, beta_k, gamma_k = bidiag_step(
                A, k, floor, v, u, beta, next_v, next_u, av)
            b_u = next_u
        # the next x goes into a row that holds neither x nor the best
        stop = _advance(state, alpha, beta_k, gamma, b_u[1], x[1],
                        next_v[1], x_spare[1])
        if state.improved:
            best = x
        if stop:
            if stop == _DIVERGENCE:
                return CycleResult(np.zeros(n) if best is None
                                   else best[0].copy(), k, "divergence")
            if stop == _NONFINITE:
                raise NumericalOverflow(
                    f"non-finite coefficient at step {k}", step=k)
            cause = _CAUSES[stop]
            break
        if best is x:
            x, x_spare, x_other = x_spare, x_other, x
        else:
            x, x_spare = x_spare, x
        if two_sided and gamma_k <= floor:  # u side exhausted; update stands
            cause = "breakdown"
            break
        if two_sided:
            v_prev, v, next_v = v, next_v, v_prev
            u_prev, u, next_u = u, next_u, u_prev
        else:
            v, next_v = next_v, v
            u, next_u = next_u, u
        beta, gamma = beta_k, gamma_k
    return CycleResult(x[0].copy(), k, cause)


def oap_cycle_tridiag(A, rhs, v1, c1):
    """One projection cycle over the two-sided engine (u1 = v1), from
    x_1 = c1 v1, for a unit v1 of A's column count;
    ``CycleResult.stop_cause`` says why it stopped.  u1 = v1 gives u and
    v one length, so A must be square."""
    if A.nrows != A.ncols:
        raise DimensionMismatch(f"the two-sided engine needs a square "
                                f"operator, A is {A.nrows}x{A.ncols}")
    return _cycle(A, rhs, _check_seed(A, v1, c1), c1, True)


def oap_cycle_bidiag(A, rhs, v1, c1):
    """One projection cycle over the bidiagonal engine (no u1 needed)."""
    return _cycle(A, rhs, _check_seed(A, v1, c1), c1, False)


@_one_blas_thread
def roap_solve(A, b, variant="roap2", tol=TOL_DEFAULT, max_restarts=None):
    """Restarted solver: run cycles on the residual equation until the
    relative residual meets ``tol``.

    ``variant`` selects the engine: ``roap2`` bidiagonal, ``roap3``
    two-sided (square A only).  Returns ``(x, SolveReport)``.
    The restart budget ``max_restarts`` (None: n) and stagnation bound
    the run on singular or hopeless systems; ``max_restarts=1`` is the
    unrestarted OAP method.  Stagnation is three consecutive restarts
    without meaningful decrease, or one cycle that returns exactly the
    zero vector: it leaves x and r as they were, so every later cycle
    would replay it.  Before each cycle the loop checks ``tol``, then
    the budget, then stagnation, so a zero cycle that used the last
    restart ends in ``max-restarts``.
    """
    if variant not in ("roap2", "roap3"):
        raise ValueError(f"unknown variant {variant!r}")
    check_budget(tol, max_restarts, "max_restarts")
    b = _as_rhs(A, b, "b")
    n = A.ncols
    if max_restarts is None:
        max_restarts = n

    report = SolveReport()
    bnorm = norm2(b)
    if bnorm == 0.0:
        report.termination = "converged"
        report.residual_history = [0.0]
        return np.zeros(n), report

    x = np.zeros(n)
    r = b.copy()
    relres = 1.0
    report.residual_history.append(relres)
    no_decrease = 0
    zero_cycle = False
    while True:
        if relres <= tol:
            report.termination = "converged"
            break
        if report.restarts >= max_restarts:
            report.termination = "max-restarts"
            break
        if no_decrease >= 3 or zero_cycle:
            report.termination = "stagnation"
            break
        try:
            v1, c1 = init_from_vector(A, r, r)
        except DegenerateSeed:
            report.termination = "stagnation"  # singular operator surfaces here
            break
        if variant == "roap3":
            result = oap_cycle_tridiag(A, r, v1, c1)
        else:
            result = oap_cycle_bidiag(A, r, v1, c1)
        x = x + result.x_partial
        r = b - A.apply(x)
        new_relres = norm2(r) / bnorm
        report.inner_iterations.append(result.inner_steps)
        report.residual_history.append(new_relres)
        report.stop_causes.append(result.stop_cause)
        no_decrease = no_decrease + 1 if new_relres > relres * (1 - 1e-12) else 0
        relres = new_relres
        # a zero x_partial leaves x and r, and so every later cycle, as
        # they were; tested exactly, since x'x underflows to 0 once every
        # entry is below ~1e-162
        zero_cycle = not result.x_partial.any()
    return x, report
