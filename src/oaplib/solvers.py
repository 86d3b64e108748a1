"""Accumulated-projection solvers over the reduction kernels.

A single cycle seeds a unit direction v1 whose inner product c1 with
the unknown solution is computable, then extends it with one of the
short-recurrence engines while updating the coefficients c_k = x'v_k
from right-hand-side inner products alone.  The angle between the
running approximation and each new direction detects loss of
orthogonality; the restarted drivers then restart on the residual
equation.

Restarting on the residual keeps every cycle's coefficients consistent
(the cycle solves A e = r, so inner products use r).  The
``original-b`` mode instead keeps the original right-hand side inside
every cycle; it reproduces a published formulation verbatim but is
inconsistent after the first restart and diverges on most problems,
so it exists for comparison only.
"""

from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .errors import DegenerateSeed, NumericalOverflow
from .linalg import as_vector, dot, norm2
from .reductions import (BIDIAGONAL, TRIDIAGONAL, KrylovState, advance,
                         bidiag_step, breakdown_floor, tridiag_step)

TOL_DEFAULT = 1e-6
ORTH_TOL_DEFAULT = 1e-8

# A cycle whose tracked residual exceeds this multiple of the seed
# scale has lost orthogonality in a way the angle test cannot see (the
# coefficient recurrence amplifies noise while the accumulated vector
# stays dominated by its newest terms); the cycle is cut and the best
# evaluated prefix returned.  Legitimate cycles wander below ~10x.
DIVERGENCE_FACTOR = 100.0

CYCLE_RESIDUAL = "cycle-residual"
ORIGINAL_B = "original-b"


@dataclass
class SolveOptions:
    """Knobs shared by all solvers.

    ``max_restarts`` and ``max_inner`` default to n and n-1 at solve
    time when left as None.  Breakdown is ``reductions.breakdown_floor``.
    """

    tol: float = TOL_DEFAULT
    orth_tol: float = ORTH_TOL_DEFAULT
    max_restarts: Optional[int] = None
    max_inner: Optional[int] = None
    rhs_mode: str = CYCLE_RESIDUAL

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if not 0 < self.orth_tol < 1:
            raise ValueError("orth_tol must lie in (0, 1)")
        if self.max_inner is not None and self.max_inner < 1:
            raise ValueError("max_inner must be >= 1")
        if self.rhs_mode not in (CYCLE_RESIDUAL, ORIGINAL_B):
            raise ValueError(f"unknown rhs_mode {self.rhs_mode!r}")


@dataclass
class SolveReport:
    """Outcome bookkeeping for one solve.

    ``residual_history`` holds the relative residual before any work
    and after each restart; the last entry equals ``final_relres``.
    """

    termination: str = ""  # "converged" | "max-restarts" | "stagnation"
    restarts: int = 0
    inner_iterations: list = field(default_factory=list)
    final_relres: float = 0.0
    residual_history: list = field(default_factory=list)
    breakdown_events: int = 0


class CycleResult(NamedTuple):
    x_partial: np.ndarray
    inner_steps: int
    # "orthogonality" | "breakdown" | "exhausted" | "divergence" (the
    # residual guard tripped; x_partial is the best evaluated prefix)
    stop_cause: str


def _seed_norm(A, v, what):
    """||v|| of a seed; raises NumericalOverflow if it is not finite and
    DegenerateSeed if it is at most ``breakdown_floor(A)``."""
    nrm = norm2(v)
    if not np.isfinite(nrm):
        raise NumericalOverflow(f"norm of {what} overflowed")
    if nrm <= breakdown_floor(A):
        raise DegenerateSeed(f"{what} is numerically zero")
    return nrm


def init_from_vector(A, rhs, w):
    """Seed from any direction w: v1 = A'w (normalized), c1 = t * rhs'w.

    If rhs = A x, then c1 equals x'v1 exactly in exact arithmetic.
    """
    w = as_vector(w, "w")
    atw = A.apply_transpose(w)
    t = 1.0 / _seed_norm(A, atw, "A'w")
    return t * atw, t * dot(as_vector(rhs, "rhs"), w)


def init_from_row(A, rhs, i):
    """Seed from row i of A: v1 = A_i'/||A_i||, c1 = rhs_i/||A_i||."""
    row = A.row(i)
    nrm = _seed_norm(A, row, f"row {i}")
    rhs = as_vector(rhs, "rhs")
    return row / nrm, float(rhs[i]) / nrm


def c_update_tridiag(b_dot_u, alpha, beta, gamma_prev, c_curr, c_prev):
    """Next coefficient for the tridiagonal recurrence.

    Solves beta_k c_{k+1} = b'u_k - alpha_k c_k - gamma_{k-1} c_{k-1}.
    The result equals x'v_{k+1} only in exact arithmetic.  In floating
    point every step commits a local error of order eps ||A|| ||x||, and
    the recurrence carries it forward through the inverse of the
    lower-banded matrix with the betas on its diagonal and the alphas
    and gammas below it.  A small beta therefore amplifies all earlier
    rounding in the coefficients that follow it.
    """
    return (b_dot_u - alpha * c_curr - gamma_prev * c_prev) / beta


def c_update_bidiag(b_dot_u, alpha, beta, c_curr):
    """Next coefficient for the bidiagonal recurrence.

    Solves beta_k c_{k+1} = b'u_k - alpha_k c_k.  As for
    ``c_update_tridiag``, the result is exact only in exact arithmetic:
    its forward error grows like eps ||A|| ||x|| times the inverse of
    the lower-bidiagonal matrix with the betas on its diagonal and the
    alphas below it, so a small beta amplifies earlier rounding.
    """
    return (b_dot_u - alpha * c_curr) / beta


def orthogonality_lost(x, v_next, orth_tol=ORTH_TOL_DEFAULT):
    """True when the new (unit) direction is no longer numerically
    orthogonal to the accumulated approximation.

    Works on |cos| of the angle rather than the angle itself; the zero
    vector never triggers, so the first step always passes.
    """
    xn = norm2(x)
    if xn == 0.0:
        return False
    return abs(dot(x, v_next)) / xn > orth_tol


def _resolved(opts, n):
    max_inner = opts.max_inner if opts.max_inner is not None else max(n - 1, 1)
    max_restarts = opts.max_restarts if opts.max_restarts is not None else n
    return max_inner, max_restarts


class _DivergenceGuard:
    """Tracks the residual of the accumulated combination using the
    A v_k products the steps already computed (each is one step late:
    A x_k completes when A v_k arrives).

    The angle detector is blind when one drifting coefficient dominates
    the accumulated vector, so runaway coefficient growth must be
    caught through the residual it produces.  When the tracked residual
    explodes past ``DIVERGENCE_FACTOR`` times the seed scale, the cycle
    is abandoned and the best evaluated prefix (possibly the zero
    vector) returned instead.
    """

    def __init__(self, rhs, c1):
        self.rhs = rhs
        self.scale = norm2(rhs)
        self.ax = None
        self.pending_c = c1
        self.best_x = np.zeros_like(rhs)
        self.best_res = self.scale

    def diverged(self, x_current, av):
        term = self.pending_c * av
        self.ax = term if self.ax is None else self.ax + term
        res = norm2(self.rhs - self.ax)
        if res < self.best_res:
            self.best_res = res
            self.best_x = x_current.copy()
        return res > DIVERGENCE_FACTOR * self.scale

    def accepted(self, c_next):
        self.pending_c = c_next


def _cycle(A, rhs, krylov, c1, opts):
    """One projection cycle from the window ``krylov`` and seed c1 v1.

    Starts from x_1 = c1 v1 and keeps extending while the new direction
    stays orthogonal to the running approximation and neither recurrence
    breaks down.  The engine (``krylov.mode``) picks the step, which u
    enters b'u, the coefficient update and which broken side stops the
    cycle before accepting the step.  Returns the partial solution.
    """
    opts = opts or SolveOptions()
    max_inner, _ = _resolved(opts, A.ncols)
    two_sided = krylov.mode == TRIDIAGONAL
    step = tridiag_step if two_sided else bidiag_step

    x = c1 * krylov.v_curr
    c_prev, c_curr = 0.0, c1
    guard = _DivergenceGuard(rhs, c1)
    steps = 0
    cause = "exhausted"
    for k in range(1, max_inner + 1):
        steps = k
        out = step(A, krylov)
        if guard.diverged(x, out.av):
            return CycleResult(guard.best_x, steps, "divergence")
        # no v_{k+1} (or, bidiagonal, no u_k): nothing left to accumulate
        if out.v_broken or (not two_sided and out.u_broken):
            cause = "breakdown"
            break
        if two_sided:
            c_next = c_update_tridiag(dot(rhs, krylov.u_curr), out.alpha,
                                      out.beta, krylov.gamma_prev,
                                      c_curr, c_prev)
        else:  # u_k carries the step's own index
            c_next = c_update_bidiag(dot(rhs, out.next_u), out.alpha,
                                     out.beta, c_curr)
        if not np.isfinite(c_next):
            raise NumericalOverflow(f"non-finite coefficient at step {k}", step=k)
        if orthogonality_lost(x, out.next_v, opts.orth_tol):
            cause = "orthogonality"
            break
        x = x + c_next * out.next_v
        c_prev, c_curr = c_curr, c_next
        guard.accepted(c_next)
        if out.u_broken:  # two-sided: u side exhausted; update stands
            cause = "breakdown"
            break
        krylov = advance(krylov, out)
    return CycleResult(x, steps, cause)


def oap_cycle_tridiag(A, rhs, v1, u1, c1, opts=None):
    """One projection cycle over the two-sided engine, from x_1 = c1 v1;
    ``CycleResult.stop_cause`` says why it stopped."""
    return _cycle(A, rhs, KrylovState.start(TRIDIAGONAL, v1, u1), c1, opts)


def oap_cycle_bidiag(A, rhs, v1, c1, opts=None):
    """One projection cycle over the bidiagonal engine (no u1 needed)."""
    return _cycle(A, rhs, KrylovState.start(BIDIAGONAL, v1), c1, opts)


def roap_solve(A, b, variant="roap2", opts=None):
    """Restarted solver: run cycles on the residual equation until the
    relative residual meets ``opts.tol``.

    ``variant`` selects the engine: ``roap2`` bidiagonal, ``roap3``
    two-sided.  Returns ``(x, SolveReport)``.  Stagnation (three
    consecutive restarts without meaningful decrease) and the restart
    budget bound the run on singular or hopeless systems.
    """
    if variant not in ("roap2", "roap3"):
        raise ValueError(f"unknown variant {variant!r}")
    opts = opts or SolveOptions()
    b = as_vector(b, "b")
    n = A.ncols
    _, max_restarts = _resolved(opts, n)

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
    while True:
        if relres <= opts.tol:
            report.termination = "converged"
            break
        if report.restarts >= max_restarts:
            report.termination = "max-restarts"
            break
        if no_decrease >= 3:
            report.termination = "stagnation"
            break
        try:
            rhs = r if opts.rhs_mode == CYCLE_RESIDUAL else b
            v1, c1 = init_from_vector(A, rhs, r)
        except DegenerateSeed:
            report.termination = "stagnation"  # singular operator surfaces here
            break
        if variant == "roap3":
            result = oap_cycle_tridiag(A, rhs, v1, v1.copy(), c1, opts)
        else:
            result = oap_cycle_bidiag(A, rhs, v1, c1, opts)
        x = x + result.x_partial
        r = b - A.apply(x)
        new_relres = norm2(r) / bnorm
        report.restarts += 1
        report.inner_iterations.append(result.inner_steps)
        report.residual_history.append(new_relres)
        if result.stop_cause == "breakdown":
            report.breakdown_events += 1
        no_decrease = no_decrease + 1 if new_relres > relres * (1 - 1e-12) else 0
        relres = new_relres

    report.final_relres = report.residual_history[-1]
    return x, report
