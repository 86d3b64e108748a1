"""Short-recurrence reduction kernels.

Two engines, both driven one step at a time over a rolling two-vector
window:

* ``tridiag_step`` - two-sided reduction U'AV = T with T tridiagonal;
  step k consumes (v_k, u_k) and the previous-step norms and produces
  alpha_k, gamma_k, u_{k+1}, beta_k, v_{k+1}.
* ``bidiag_step`` - Golub-Kahan-style reduction with T upper bidiagonal;
  note the index offset: step k produces u_k (same index) and v_{k+1}.

Near-zero recurrence norms are reported as breakdown (relative to the
operator's Frobenius norm), never raised: callers restart or stop.  The
full-reduction drivers keep complete bases and support twice-repeated
classical reorthogonalization; they exist for testing and analysis, the
solvers use only the rolling window.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalOverflow
from .linalg import as_vector, norm2

TAU_BREAK_DEFAULT = 1e-13

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
    """One step's products.  A broken side reports the zero vector as
    its next basis vector; the scalar is the norm as computed, before
    thresholding.  ``av`` is A v_k, exposed so callers can track
    residuals of accumulated combinations without extra matvecs."""

    next_v: np.ndarray
    next_u: np.ndarray
    alpha: float
    beta: float
    gamma: float
    breakdown: str  # "none" | "u-side" | "v-side"
    av: np.ndarray = None


def _check_unit(v, name):
    v = as_vector(v, name)
    if abs(norm2(v) - 1.0) > 1e-12:
        raise ValueError(f"{name} must have unit Euclidean norm")
    return v


def _require_finite(x, step, what):
    if not np.isfinite(x):
        raise NumericalOverflow(f"non-finite {what} at step {step}", step=step)
    return x


def _reproject(w, basis):
    # twice-repeated classical projection against the stored basis
    for _ in range(2):
        w = w - basis @ (basis.T @ w)
    return w


def tridiag_step(A, s, tau_break=TAU_BREAK_DEFAULT, _u_basis=None, _v_basis=None):
    """Advance the two-sided reduction by one step.

    Returns the new directions and scalars; see the module docstring
    for the recurrences.  ``_u_basis``/``_v_basis`` enable the drivers'
    reorthogonalized mode and are not part of the public contract.
    """
    scale = A.frobenius_norm()
    thresh = tau_break * scale

    av = A.apply(s.v_curr)
    alpha = _require_finite(float(np.dot(s.u_curr, av)), s.k, "alpha")
    w = av - alpha * s.u_curr
    if s.beta_prev != 0.0:
        w -= s.beta_prev * s.u_prev
    if _u_basis is not None:
        w = _reproject(w, _u_basis)
    gamma = _require_finite(norm2(w), s.k, "gamma")
    u_broken = gamma <= thresh
    next_u = np.zeros_like(w) if u_broken else w / gamma

    q = A.apply_transpose(s.u_curr) - alpha * s.v_curr
    if s.gamma_prev != 0.0:
        q -= s.gamma_prev * s.v_prev
    if _v_basis is not None:
        q = _reproject(q, _v_basis)
    beta = _require_finite(norm2(q), s.k, "beta")
    v_broken = beta <= thresh
    next_v = np.zeros_like(q) if v_broken else q / beta

    breakdown = "u-side" if u_broken else ("v-side" if v_broken else "none")
    return StepOutcome(next_v, next_u, alpha, beta, gamma, breakdown, av)


def bidiag_step(A, s, tau_break=TAU_BREAK_DEFAULT, _u_basis=None, _v_basis=None):
    """Advance the bidiagonal reduction by one step (produces u_k, v_{k+1})."""
    scale = A.frobenius_norm()
    thresh = tau_break * scale

    av = A.apply(s.v_curr)
    w = av if s.beta_prev == 0.0 else av - s.beta_prev * s.u_curr
    if _u_basis is not None:
        w = _reproject(w, _u_basis)
    alpha = _require_finite(norm2(w), s.k, "alpha")
    u_broken = alpha <= thresh
    u_k = np.zeros_like(w) if u_broken else w / alpha

    q = A.apply_transpose(u_k) - alpha * s.v_curr
    if _v_basis is not None:
        q = _reproject(q, _v_basis)
    beta = _require_finite(norm2(q), s.k, "beta")
    v_broken = beta <= thresh
    next_v = np.zeros_like(q) if v_broken else q / beta

    breakdown = "u-side" if u_broken else ("v-side" if v_broken else "none")
    return StepOutcome(next_v, u_k, alpha, beta, 0.0, breakdown, av)


def advance(s, outcome):
    """State after accepting a step's outcome (bidiagonal steps report
    gamma = 0, so one constructor serves both modes)."""
    return KrylovState(s.k + 1, s.mode, s.v_curr, outcome.next_v,
                       s.u_curr, outcome.next_u, outcome.beta, outcome.gamma)


def _run_reduction(A, state, step_fn, steps, reorthogonalize, tau_break,
                   u_has_same_index):
    thresh = tau_break * A.frobenius_norm()
    v_cols = [state.v_curr]
    u_cols = [] if u_has_same_index else [state.u_curr]
    alphas, betas, gammas = [], [], []
    breakdown_step = None

    for _ in range(steps):
        u_basis = v_basis = None
        if reorthogonalize:
            if u_cols:
                u_basis = np.column_stack(u_cols)
            v_basis = np.column_stack(v_cols)
        out = step_fn(A, state, tau_break, _u_basis=u_basis, _v_basis=v_basis)
        alphas.append(out.alpha)
        gammas.append(out.gamma)
        betas.append(out.beta)
        if out.breakdown != "none":
            # keep whichever side the breaking step still produced
            breakdown_step = state.k
            u_norm = out.alpha if u_has_same_index else out.gamma
            if u_norm > thresh:
                u_cols.append(out.next_u)
            if out.beta > thresh:
                v_cols.append(out.next_v)
            break
        u_cols.append(out.next_u)
        v_cols.append(out.next_v)
        state = advance(state, out)

    coeffs = RecurrenceCoefficients(
        np.array(alphas), np.array(betas),
        np.array([]) if u_has_same_index else np.array(gammas))
    V = np.column_stack(v_cols)
    U = np.column_stack(u_cols) if u_cols else np.zeros((len(state.v_curr), 0))
    return coeffs, V, U, breakdown_step


def tridiagonalize(A, v1, u1, steps, reorthogonalize=False,
                   tau_break=TAU_BREAK_DEFAULT):
    """Run up to ``steps`` two-sided reduction steps keeping full bases.

    Returns ``(coeffs, V, U, breakdown_step)``; ``breakdown_step`` is
    None if every step completed.  With ``reorthogonalize`` each new
    direction is re-projected against all previous ones twice before
    normalization.
    """
    state = KrylovState.start(TRIDIAGONAL, v1, u1)
    return _run_reduction(A, state, tridiag_step, steps, reorthogonalize,
                          tau_break, u_has_same_index=False)


def bidiagonalize(A, v1, steps, reorthogonalize=False,
                  tau_break=TAU_BREAK_DEFAULT):
    """Bidiagonal counterpart of :func:`tridiagonalize` (no u1 needed)."""
    state = KrylovState.start(BIDIAGONAL, v1)
    return _run_reduction(A, state, bidiag_step, steps, reorthogonalize,
                          tau_break, u_has_same_index=True)
