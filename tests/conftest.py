"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's own recurrence code:
reductions are re-derived with explicit full Gram-Schmidt on dense
arrays, projections with normal equations, so agreement is meaningful.
``exact_cycle`` is the exception: it runs the package's coefficient
updates over its reorthogonalized reductions, so tests can check those
updates with orthogonality taken out of the picture.
"""

import numpy as np
import pytest

from oaplib import (CsrMatrix, DenseMatrix, bidiagonalize, c_update_bidiag,
                    c_update_tridiag, dot, tridiagonalize)


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


def exact_cycle(A, rhs, v1, c1, steps, engine):
    """A projection cycle with exact orthogonality, for checking the
    coefficient recurrences: the reorthogonalized full-basis reduction
    (``engine`` "tridiagonal" with u1 = v1, or "bidiagonal") followed
    by the library's ``c_update_tridiag``/``c_update_bidiag``.

    Returns ``(cs, V, coeffs)``: cs[k] is the coefficient of V[:, k],
    one per basis vector the reduction produced.
    """
    if engine == "tridiagonal":
        coeffs, V, U, _ = tridiagonalize(A, v1, v1.copy(), steps,
                                         reorthogonalize=True)
    else:
        coeffs, V, U, _ = bidiagonalize(A, v1, steps, reorthogonalize=True)
    cs, c_prev = [c1], 0.0
    for k in range(V.shape[1] - 1):
        if engine == "tridiagonal":
            g_prev = 0.0 if k == 0 else coeffs.gammas[k - 1]
            cs.append(c_update_tridiag(dot(rhs, U[:, k]), coeffs.alphas[k],
                                       coeffs.betas[k], g_prev, cs[-1], c_prev))
        else:
            cs.append(c_update_bidiag(dot(rhs, U[:, k]), coeffs.alphas[k],
                                      coeffs.betas[k], cs[-1]))
        c_prev = cs[-2]
    return np.array(cs), V, coeffs


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


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(20240817))
