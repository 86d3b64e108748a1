"""Short-recurrence reduction kernels.

Two engines, both driven one step at a time over a rolling two-vector
window:

* ``tridiag_step`` - two-sided reduction U'AV = T with T tridiagonal;
  step k consumes (v_k, u_k) and the previous-step norms and produces
  alpha_k, gamma_k, u_{k+1}, beta_k, v_{k+1}.
* ``bidiag_step`` - Golub-Kahan-style reduction with T upper bidiagonal;
  note the index offset: step k produces u_k (same index) and v_{k+1}.

A recurrence norm at or below :func:`breakdown_floor` is a breakdown,
flagged per side and never raised: callers restart or stop.  The
full-reduction drivers keep complete bases and can re-project each step's
new vectors against them; they exist for testing and analysis, the
solvers use only the rolling window.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflow
from .linalg import as_vector, norm2

TAU_BREAK = 1e-13

TRIDIAGONAL = "tridiagonal"
BIDIAGONAL = "bidiagonal"


@dataclass
class RecurrenceCoefficients:
    """Scalar bands of the reduced matrix: diagonal ``alphas``,
    superdiagonal ``betas``, subdiagonal ``gammas`` (empty in
    bidiagonal mode, where the diagonal itself is a norm)."""

    alphas: np.ndarray
    betas: np.ndarray
    gammas: np.ndarray


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


def _require_finite(x, step, what):
    if not np.isfinite(x):
        raise NumericalOverflow(f"non-finite {what} at step {step}", step=step)
    return x


def tridiag_step(A, s):
    """Advance the two-sided reduction by one step.

    Returns the new directions and scalars; see the module docstring
    for the recurrences.
    """
    floor = breakdown_floor(A)

    av = A.apply(s.v_curr)
    alpha = _require_finite(float(np.dot(s.u_curr, av)), s.k, "alpha")
    w = av - alpha * s.u_curr
    if s.beta_prev != 0.0:
        w -= s.beta_prev * s.u_prev
    gamma = _require_finite(norm2(w), s.k, "gamma")
    u_broken = gamma <= floor
    next_u = np.zeros_like(w) if u_broken else w / gamma

    q = A.apply_transpose(s.u_curr) - alpha * s.v_curr
    if s.gamma_prev != 0.0:
        q -= s.gamma_prev * s.v_prev
    beta = _require_finite(norm2(q), s.k, "beta")
    v_broken = beta <= floor
    next_v = np.zeros_like(q) if v_broken else q / beta

    return StepOutcome(next_v, next_u, alpha, beta, gamma, u_broken,
                       v_broken, av)


def bidiag_step(A, s):
    """Advance the bidiagonal reduction by one step (produces u_k, v_{k+1})."""
    floor = breakdown_floor(A)

    av = A.apply(s.v_curr)
    w = av if s.beta_prev == 0.0 else av - s.beta_prev * s.u_curr
    alpha = _require_finite(norm2(w), s.k, "alpha")
    u_broken = alpha <= floor
    u_k = np.zeros_like(w) if u_broken else w / alpha

    q = A.apply_transpose(u_k) - alpha * s.v_curr
    beta = _require_finite(norm2(q), s.k, "beta")
    v_broken = beta <= floor
    next_v = np.zeros_like(q) if v_broken else q / beta

    return StepOutcome(next_v, u_k, alpha, beta, 0.0, u_broken, v_broken, av)


def advance(s, outcome):
    """State after accepting a step's outcome (bidiagonal steps report
    gamma = 0, so one constructor serves both modes)."""
    return KrylovState(s.k + 1, s.mode, s.v_curr, outcome.next_v,
                       s.u_curr, outcome.next_u, outcome.beta, outcome.gamma)


def _reproject(A, unit, norm, cols):
    """A step's new unit vector re-projected once against ``cols``
    (classical Gram-Schmidt), and the step's norm rescaled by the length
    it kept (0 for a broken side's zero vector); returns
    ``(vector, norm, broken)``.

    One pass suffices: the recurrence has already orthogonalized the new
    vector against its neighbours, so the projection removes only
    rounding-sized components, and a second pass leaves the Gram defect
    where one pass left it.
    """
    kept = 1.0
    if cols:
        basis = np.column_stack(cols)
        unit = unit - basis @ (basis.T @ unit)
        kept = norm2(unit)
    norm *= kept
    if norm <= breakdown_floor(A):
        return np.zeros_like(unit), norm, True
    return unit / kept, norm, False


def _run_reduction(A, state, steps, reorthogonalize):
    two_sided = state.mode == TRIDIAGONAL
    step = tridiag_step if two_sided else bidiag_step
    v_cols = [state.v_curr]
    u_cols = [state.u_curr] if two_sided else []  # bidiagonal: u_k at step k
    alphas, betas, gammas = [], [], []
    breakdown_step = None

    for _ in range(steps):
        out = step(A, state)
        if reorthogonalize:
            u_norm = out.gamma if two_sided else out.alpha
            next_u, u_norm, u_broken = _reproject(A, out.next_u, u_norm, u_cols)
            next_v, beta, v_broken = _reproject(A, out.next_v, out.beta, v_cols)
            alpha, gamma = (out.alpha, u_norm) if two_sided else (u_norm, 0.0)
            out = StepOutcome(next_v, next_u, alpha, beta, gamma, u_broken,
                              v_broken, out.av)
        alphas.append(out.alpha)
        gammas.append(out.gamma)
        betas.append(out.beta)
        # a breaking step still contributes the side it produced
        if not out.u_broken:
            u_cols.append(out.next_u)
        if not out.v_broken:
            v_cols.append(out.next_v)
        if out.u_broken or out.v_broken:
            breakdown_step = state.k
            break
        state = advance(state, out)

    coeffs = RecurrenceCoefficients(
        np.array(alphas), np.array(betas),
        np.array(gammas) if two_sided else np.array([]))
    V = np.column_stack(v_cols)
    U = np.column_stack(u_cols) if u_cols else np.zeros((len(state.v_curr), 0))
    return coeffs, V, U, breakdown_step


def tridiagonalize(A, v1, u1, steps, reorthogonalize=False):
    """Run up to ``steps`` two-sided reduction steps keeping full bases.

    Returns ``(coeffs, V, U, breakdown_step)``; ``breakdown_step`` is
    None if every step completed.  ``reorthogonalize`` re-projects each
    step's new directions against all previous ones (norms rescaled).
    """
    return _run_reduction(A, KrylovState.start(TRIDIAGONAL, v1, u1), steps,
                          reorthogonalize)


def bidiagonalize(A, v1, steps, reorthogonalize=False):
    """Bidiagonal counterpart of :func:`tridiagonalize` (no u1 needed)."""
    return _run_reduction(A, KrylovState.start(BIDIAGONAL, v1), steps,
                          reorthogonalize)
