"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own recurrence code:
reductions are re-derived with explicit full Gram-Schmidt on dense
arrays, projections with normal equations, so agreement is meaningful.
``numpy_tridiag_step`` and ``numpy_bidiag_step`` are the one reference
of the compiled reduction steps: the operator's ``apply`` and
``apply_transpose`` and NumPy arithmetic (``numpy_half_step``), with
the library steps' signatures.  ``step_on_rows`` runs either kind of
step on rows laid out as the cycle lays them; ``window_step`` and
``reduction_steps`` run the library's steps through it.
``numpy_cycle_advance`` is the one reference of the compiled
``oap_cycle_advance``, the cycle's work between two steps, from the
Python coefficient updates (``c_update_tridiag``, ``c_update_bidiag``),
the angle test's ``orthogonality_threshold`` and NumPy for the vectors.
``full_reduction`` and ``exact_cycle`` are the exceptions to the rule:
they run the package's steps, keeping the full bases the library never
stores, and ``exact_cycle`` the coefficient updates over re-projected
bases, so tests can check those updates with orthogonality taken out of
the picture.  ``read_records_csv`` parses the CLI's CSV back into
records, and ``run_python`` runs code in a fresh interpreter.
"""

import csv
import io
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import oaplib
import oaplib.reductions as reductions
from oaplib import CsrMatrix, DenseMatrix, NumericalOverflow, dot, norm2
from oaplib._kernels import lib, rows
from oaplib.reductions import breakdown_floor
from oaplib.reporting import CSV_COLUMNS, RunRecord


def random_wellcond(rng, n, cond=100.0):
    """Random dense matrix with exactly the given 2-norm condition."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    s = np.logspace(0.0, np.log10(cond), n)
    return (q1 * s) @ q2


def random_sparse(rng, n, density=0.3):
    """Random CSR with a guaranteed nonzero diagonal."""
    mask = rng.random((n, n)) < density
    np.fill_diagonal(mask, True)
    dense = np.where(mask, rng.standard_normal((n, n)), 0.0)
    return CsrMatrix.from_dense(dense)


def constructed_problem(rng, n, cond=100.0, sparse=False):
    """(A, b, x_true) with b = A x_true for a known random x_true."""
    if sparse:
        A = random_sparse(rng, n)
    else:
        A = DenseMatrix(random_wellcond(rng, n, cond))
    x_true = rng.standard_normal(n)
    return A, A.apply(x_true), x_true


def gram_defect(M):
    """max |M'M - I| over all entries."""
    k = M.shape[1]
    return float(np.max(np.abs(M.T @ M - np.eye(k)))) if k else 0.0


def _gs(w, basis):
    for _ in range(2):
        for q in basis:
            w = w - np.dot(q, w) * q
    return w


def oracle_two_sided(A, v1, u1, steps):
    """Two-sided reduction by explicit full Gram-Schmidt on dense data.

    Returns (alphas, betas, gammas, V, U) with V, U holding one more
    column than completed steps (like the library drivers).
    """
    A = np.asarray(A, dtype=float)
    V = [np.asarray(v1, dtype=float)]
    U = [np.asarray(u1, dtype=float)]
    alphas, betas, gammas = [], [], []
    for k in range(steps):
        av = A @ V[k]
        alphas.append(float(U[k] @ av))
        w = _gs(av, U)
        gamma = float(np.linalg.norm(w))
        gammas.append(gamma)
        if gamma <= 1e-12 * np.linalg.norm(A):
            break
        U.append(w / gamma)
        q = _gs(A.T @ U[k], V)
        beta = float(np.linalg.norm(q))
        betas.append(beta)
        if beta <= 1e-12 * np.linalg.norm(A):
            break
        V.append(q / beta)
    return alphas, betas, gammas, np.column_stack(V), np.column_stack(U)


def oracle_golub_kahan(A, v1, steps):
    """Bidiagonal reduction by explicit full Gram-Schmidt."""
    A = np.asarray(A, dtype=float)
    V = [np.asarray(v1, dtype=float)]
    U = []
    alphas, betas = [], []
    for k in range(steps):
        w = _gs(A @ V[k], U)
        alpha = float(np.linalg.norm(w))
        alphas.append(alpha)
        if alpha <= 1e-12 * np.linalg.norm(A):
            break
        U.append(w / alpha)
        q = _gs(A.T @ U[k], V)
        beta = float(np.linalg.norm(q))
        betas.append(beta)
        if beta <= 1e-12 * np.linalg.norm(A):
            break
        V.append(q / beta)
    return alphas, betas, np.column_stack(V), np.column_stack(U) if U else None


def _reproject(A, unit, norm, cols):
    """A step's new unit vector re-projected once against ``cols``
    (classical Gram-Schmidt), and the step's norm rescaled by the length
    it kept; returns ``(vector, norm)``, the vector None when the
    rescaled norm is at or below the floor.  A broken side (``unit``
    None) passes through.

    One pass suffices: the recurrence has already orthogonalized the new
    vector against its neighbours, so the projection removes only
    rounding-sized components, and a second pass leaves the Gram defect
    where one pass left it.
    """
    if unit is None:
        return None, norm
    kept = 1.0
    if cols:
        basis = np.column_stack(cols)
        unit = unit - basis @ (basis.T @ unit)
        kept = norm2(unit)
    norm *= kept
    return (None if norm <= breakdown_floor(A) else unit / kept), norm


def numpy_half_step(a, x, s, y, t, floor):
    """``(out, norm)`` as NumPy formed one half of a step: out = (a - x s)
    - y t as a new array, a term left out when its vector is None (both
    when x is); norm = ||out||, and out /= norm when norm is finite and
    above ``floor``."""
    out = a.copy() if x is None else np.subtract(a, np.multiply(x, s))
    if y is not None:
        np.subtract(out, np.multiply(y, t), out=out)
    norm = math.sqrt(out.dot(out))
    if math.isfinite(norm) and norm > floor:
        np.divide(out, norm, out=out)
    return out, norm


def _finite(value, what, k):
    """``value``, or NumericalOverflow as a step raises it."""
    if not math.isfinite(value):
        raise NumericalOverflow(f"non-finite {what} at step {k}", step=k)
    return value


def numpy_tridiag_step(A, k, floor, v_prev, v, u_prev, u, beta_prev,
                       gamma_prev, next_v, next_u, av):
    """``tridiag_step`` from the operator's products and NumPy: the
    reference of the compiled step.  It writes A v into ``av``, then
    u_{k+1} and v_{k+1} into their rows, each undivided at a breakdown,
    and raises NumericalOverflow at the first non-finite alpha, gamma or
    beta with the rows before it written."""
    with np.errstate(over="ignore", invalid="ignore"):
        av[0][:] = A.apply(v[0])
        alpha = _finite(float(u[0].dot(av[0])), "alpha", k)
        next_u[0][:], gamma = numpy_half_step(
            av[0], u[0], alpha, None if beta_prev == 0.0 else u_prev[0],
            beta_prev, floor)
        _finite(gamma, "gamma", k)
        next_v[0][:], beta = numpy_half_step(
            A.apply_transpose(u[0]), v[0], alpha,
            None if gamma_prev == 0.0 else v_prev[0], gamma_prev, floor)
        return alpha, _finite(beta, "beta", k), gamma


def numpy_bidiag_step(A, k, floor, v, u_prev, beta_prev, next_v, next_u,
                      av):
    """``bidiag_step`` as ``numpy_tridiag_step`` forms the two-sided one;
    without u_k (alpha at or below the floor) it forms no A'u and leaves
    ``next_v`` as it was."""
    with np.errstate(over="ignore", invalid="ignore"):
        av[0][:] = A.apply(v[0])
        next_u[0][:], alpha = numpy_half_step(
            av[0], None if beta_prev == 0.0 else u_prev[0], beta_prev, None,
            0.0, floor)
        if _finite(alpha, "alpha", k) <= floor:
            return alpha, 0.0, 0.0
        next_v[0][:], beta = numpy_half_step(
            A.apply_transpose(next_u[0]), v[0], alpha, None, 0.0, floor)
        return alpha, _finite(beta, "beta", k), 0.0


def step_on_rows(A, k, floor, window, two_sided, step):
    """``step`` k, a library step or its NumPy oracle, two-sided or
    bidiagonal, on ``window`` = ``(v_prev, v, u_prev, u, beta_prev,
    gamma_prev)``, arrays (None for none) and scalars: the two-sided step
    reads all of it, the bidiagonal step v, u (u_{k-1}) and beta_prev.

    The step runs as the cycle runs it, on rows of two new blocks
    (``oaplib._kernels.rows``): v_prev, v, next_v and a spare row of A's
    column count, u_prev, u, next_u, av and a spare row of its row count.
    The window's arrays are copied into their rows and every other row
    is NaN, so a step that reads a row it should not leaves a NaN in its
    results.  Returns ``(out, before, after)``: the step's scalars
    ``(alpha, beta, gamma)``, or ``(message, step)`` of the
    NumericalOverflow it raised, and the bytes of every row, in that
    order, before and after the step."""
    v_prev, v, u_prev, u, beta, gamma = window
    pairs = rows(4, A.ncols) + rows(5, A.nrows)
    for (row, _), a in zip(pairs, (v_prev, v, None, None, u_prev, u, None,
                                   None, None)):
        row[:] = np.nan if a is None else a
    before = [row.tobytes() for row, _ in pairs]
    v_prev, v, next_v, _, u_prev, u, next_u, av, _ = pairs
    try:
        if two_sided:
            out = step(A, k, floor, v_prev, v, u_prev, u, beta, gamma,
                       next_v, next_u, av)
        else:
            out = step(A, k, floor, v, u, beta, next_v, next_u, av)
    except NumericalOverflow as exc:
        out = (str(exc), exc.step)
    return out, before, [row.tobytes() for row, _ in pairs]


SQRT_EPS = math.sqrt(np.finfo(float).eps)


def c_update_tridiag(b_dot_u, alpha, beta, gamma_prev, c_curr, c_prev):
    """Next coefficient for the tridiagonal recurrence, as Python
    evaluates it: solves beta_k c_{k+1} = b'u_k - alpha_k c_k -
    gamma_{k-1} c_{k-1}."""
    return (b_dot_u - alpha * c_curr - gamma_prev * c_prev) / beta


def c_update_bidiag(b_dot_u, alpha, beta, c_curr):
    """Next coefficient for the bidiagonal recurrence: solves beta_k
    c_{k+1} = b'u_k - alpha_k c_k, with no gamma term (a "- 0.0 c" term
    could flip the sign of a zero)."""
    return (b_dot_u - alpha * c_curr) / beta


def orthogonality_threshold(abs_sum, sq_sum):
    """The |cos| a semiorthogonal basis can show against x = sum c_j v_j:
    sqrt(eps) * ||c||_1 / ||c||_2, from ``abs_sum`` = sum |c_j| and
    ``sq_sum`` = sum c_j^2; sqrt(eps) when ``sq_sum`` is 0.0."""
    return SQRT_EPS * abs_sum / math.sqrt(sq_sum) if sq_sum > 0.0 else SQRT_EPS


def numpy_cycle_advance(state, arrays, alpha, beta, gamma_prev):
    """``oap_cycle_advance`` in Python and NumPy, as ``solvers._cycle``
    formed each part before it was compiled: the reference of the
    kernel.  ``state`` is a dict of the kernel state's scalar fields
    (``two_sided``, ``floor``, ``limit``, ``c_prev``, ``c_curr``,
    ``c_abs``, ``c_sq``, ``best_res``, ``res_norm``, ``improved``),
    updated in place; ``arrays`` a dict of the rows (``ax``, ``av``,
    ``rhs``, ``res``, ``u``, ``x``, ``next_v``, ``x_next``), of which
    ``ax``, ``res`` and ``x_next`` are written.  Returns the stop code,
    ``lib.OAP_CYCLE_GO`` when the cycle goes on."""
    s = state
    ax, res, x, v = (arrays[name] for name in ("ax", "res", "x", "next_v"))
    with np.errstate(over="ignore", invalid="ignore"):
        np.add(ax, np.multiply(arrays["av"], s["c_curr"]), out=ax)
        np.subtract(arrays["rhs"], ax, out=res)
        s["res_norm"] = math.sqrt(res.dot(res))
        s["improved"] = s["res_norm"] < s["best_res"]
        if s["improved"]:
            s["best_res"] = s["res_norm"]
        if s["res_norm"] > s["limit"]:
            return lib.OAP_CYCLE_DIVERGENCE
        if beta <= s["floor"]:
            return lib.OAP_CYCLE_BREAKDOWN
        b_u = float(arrays["rhs"].dot(arrays["u"]))
        if s["two_sided"]:
            c_next = c_update_tridiag(b_u, alpha, beta, gamma_prev,
                                      s["c_curr"], s["c_prev"])
        else:
            c_next = c_update_bidiag(b_u, alpha, beta, s["c_curr"])
        if not math.isfinite(c_next):
            return lib.OAP_CYCLE_NONFINITE
        x_norm = math.sqrt(x.dot(x))
        if (x_norm != 0.0 and abs(x.dot(v)) / x_norm
                > orthogonality_threshold(s["c_abs"], s["c_sq"])):
            return lib.OAP_CYCLE_ORTHOGONALITY
        np.add(x, np.multiply(v, c_next), out=arrays["x_next"])
    s["c_prev"], s["c_curr"] = s["c_curr"], c_next
    s["c_abs"] += abs(c_next)
    s["c_sq"] += c_next * c_next
    return lib.OAP_CYCLE_GO


def window_step(A, k, floor, window, two_sided):
    """Step k of the library's two-sided or bidiagonal reduction on
    ``window``, as ``step_on_rows`` runs it, raising what it raised.  The
    library step is looked up on ``oaplib.reductions`` at each call, so a
    test that patches it there drives it.

    Returns what the step wrote as one tuple of new arrays and scalars,
    ``(av, alpha, beta, gamma, next_v, next_u)``, with None as the next
    vector of a side whose norm is at or below ``floor`` (the bidiagonal
    step's u_k is its next_u, and a bidiagonal step without u_k has
    neither)."""
    step = reductions.tridiag_step if two_sided else reductions.bidiag_step
    out, _, after = step_on_rows(A, k, floor, window, two_sided, step)
    if len(out) == 2:  # the message and step of a NumericalOverflow
        raise NumericalOverflow(*out)
    alpha, beta, gamma = out
    av, next_v, next_u = (np.frombuffer(after[i]).copy() for i in (7, 2, 6))
    return (av, alpha, beta, gamma, next_v if beta > floor else None,
            next_u if (gamma if two_sided else alpha) > floor else None)


def reduction_steps(A, v1, u1, steps, adjust=None):
    """Up to ``steps`` of the library's reduction from the unit v1, over
    the two-sided engine from u1 or, when u1 is None, the bidiagonal
    one, with the window rolled as the cycle rolls it.

    Yields ``(k, window, out)``: the window step k read and its tuple
    ``(av, alpha, beta, gamma, next_v, next_u)``, passed through
    ``adjust`` first when one is given.  Stops after the first step that
    returns None for a next vector.
    """
    two_sided = u1 is not None
    floor = breakdown_floor(A)
    window = (None, v1, None, u1, 0.0, 0.0)
    for k in range(1, steps + 1):
        out = window_step(A, k, floor, window, two_sided)
        if adjust is not None:
            out = adjust(out)
        yield k, window, out
        _, _, beta, gamma, next_v, next_u = out
        if next_v is None or next_u is None:
            return
        window = (window[1], next_v, window[3], next_u, beta, gamma)


def full_reduction(A, v1, u1, steps, reorthogonalize=False):
    """Up to ``steps`` of ``reduction_steps`` (two-sided from u1, or
    bidiagonal when u1 is None), keeping the full bases.
    ``reorthogonalize`` re-projects each step's new vectors once against
    the stored bases and rescales the step's norms; the breakdown rule
    applies to the rescaled norms.

    Returns ``(alphas, betas, gammas, V, U, breakdown_step)``: the bands
    of the reduced matrix (``gammas`` empty when bidiagonal), the bases
    as columns (V holds one more than the completed steps, as does U when
    two-sided; bidiagonal U holds u_k from step k), and the step that
    broke down, None if every step completed.  A breaking step still
    contributes the side it produced.
    """
    two_sided = u1 is not None
    v_cols = [v1]
    u_cols = [u1] if two_sided else []

    def reproject(out):
        av, alpha, beta, gamma, next_v, next_u = out
        u_norm = gamma if two_sided else alpha
        next_u, u_norm = _reproject(A, next_u, u_norm, u_cols)
        next_v, beta = _reproject(A, next_v, beta, v_cols)
        alpha, gamma = (alpha, u_norm) if two_sided else (u_norm, gamma)
        return av, alpha, beta, gamma, next_v, next_u

    alphas, betas, gammas = [], [], []
    breakdown_step = None
    for k, _, (_, alpha, beta, gamma, next_v, next_u) in reduction_steps(
            A, v1, u1, steps, reproject if reorthogonalize else None):
        alphas.append(alpha)
        betas.append(beta)
        gammas.append(gamma)
        if next_u is not None:
            u_cols.append(next_u)
        if next_v is not None:
            v_cols.append(next_v)
        if next_u is None or next_v is None:
            breakdown_step = k
    U = np.column_stack(u_cols) if u_cols else np.zeros((A.nrows, 0))
    return (np.array(alphas), np.array(betas),
            np.array(gammas if two_sided else []), np.column_stack(v_cols),
            U, breakdown_step)


def exact_cycle(A, rhs, v1, c1, steps, engine):
    """A projection cycle with exact orthogonality, for checking the
    coefficient recurrences: the re-projected ``full_reduction``
    (``engine`` "tridiagonal" with u1 = v1, or "bidiagonal") followed
    by ``c_update_tridiag``/``c_update_bidiag``.

    Returns ``(cs, V, alphas, betas, gammas)``: cs[k] is the coefficient
    of V[:, k], one per basis vector the reduction produced, and the
    bands are the reduction's.
    """
    two_sided = engine == "tridiagonal"
    alphas, betas, gammas, V, U, _ = full_reduction(
        A, v1, v1.copy() if two_sided else None, steps, reorthogonalize=True)
    cs, c_prev = [c1], 0.0
    for k in range(V.shape[1] - 1):
        if two_sided:
            g_prev = 0.0 if k == 0 else gammas[k - 1]
            cs.append(c_update_tridiag(dot(rhs, U[:, k]), alphas[k],
                                       betas[k], g_prev, cs[-1], c_prev))
        else:
            cs.append(c_update_bidiag(dot(rhs, U[:, k]), alphas[k],
                                      betas[k], cs[-1]))
        c_prev = cs[-2]
    return np.array(cs), V, alphas, betas, gammas


def run_python(code):
    """Run ``code`` in a fresh interpreter, with the directory that holds
    the ``oaplib`` under test as ``sys.argv[1]``, and return the
    finished process.  faulthandler is on, so a child that crashes
    prints the frame it crashed in; a child that exits other than 0
    fails the test with its stderr."""
    src = os.path.dirname(os.path.dirname(oaplib.__file__))
    run = subprocess.run([sys.executable, "-X", "faulthandler", "-c", code,
                          src], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, f"exit {run.returncode}:\n{run.stderr}"
    return run


def read_records_csv(text):
    """Parse records written by ``oaplib.reporting.records_to_csv``."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header!r}")
    out = []
    for row in reader:
        if not row:
            continue
        out.append(RunRecord(
            problem=row[0], n=int(row[1]), solver=row[2],
            restarts=int(row[3]), inner_iters=int(row[4]),
            relres=float(row[5]),
            relerr=None if row[6] == "" else float(row[6]),
            termination=row[7], time_ms=float(row[8])))
    return out


def bincount_apply(A, v):
    """A v for a CsrMatrix by NumPy gather and ``np.bincount``: each row
    sum accumulates its products left to right from zero, as a CSR
    kernel does, so the result is the reference bit for bit."""
    rows = np.repeat(np.arange(A.nrows, dtype=np.int64), np.diff(A.row_offsets))
    return np.bincount(rows, weights=A.values * v[A.col_indices],
                       minlength=A.nrows)


def bincount_apply_transpose(A, u):
    """A' u for a CsrMatrix by row scatter; entries reach each output in
    row-major order, as a column-by-column CSC kernel adds them."""
    scaled = A.values * np.repeat(u, np.diff(A.row_offsets))
    return np.bincount(A.col_indices, weights=scaled, minlength=A.ncols)


def oracle_projection(W, l):
    """Normal-equations projection: p = W (W'W)^-1 l, c = l'(W'W)^-1 l."""
    G = W.T @ W
    y = np.linalg.solve(G, l)
    return W @ y, float(l @ y)


def _traced(fn, args):
    """``fn(*args)``, and what tracemalloc saw allocated when it ended and
    at its most, each above what was allocated when it began.  Tracing
    that was already on stays on."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        now, peak = tracemalloc.get_traced_memory()
        return result, now - before, peak - before
    finally:
        if started:
            tracemalloc.stop()


def traced_peak(fn, *args):
    """The most memory tracemalloc saw allocated during ``fn(*args)``,
    above what was allocated when it began."""
    return _traced(fn, args)[2]


def traced_kept(fn, *args):
    """``fn(*args)`` and what it left allocated, its result included,
    above what was allocated when it began."""
    return _traced(fn, args)[:2]


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))
