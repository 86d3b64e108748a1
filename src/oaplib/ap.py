"""Accumulated-projection baseline solver.

Splits the rows of A into contiguous blocks and repeatedly projects
the unknown solution onto the subspace spanned by the previous
projection and one block of rows, using only inner products that are
computable from the right-hand side.  Each block is factored once per
solve: a rank-filtered thin QR Q_B R_B = A_B' fixes z_B = Q_B'x =
R_B^-T b_B.  A block step is then two GEMVs (q = Q_B'p and Q_B q) and a
rank-one update along p_perp = p - Q_B q, whose inner product with x is
c - q'z_B; p_perp is dropped when ||p_perp|| <= RANK_TOL ||p||, a rule
relative to p, so that the solve of 2^e b is 2^e times that of b.
Steps pass the pair (p, c), c = x'p, and blocks are (Q, z, u, zz).

``ap_solve`` holds numpy's OpenBLAS to one thread, process-wide, for the
whole solve, factors included, and restores the caller's count
(``linalg``), so its QR, GEMVs and dot products round the same way under
any ``OPENBLAS_NUM_THREADS``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeed, DimensionMismatch, EmptySubspace
from .linalg import _one_blas_thread, as_vector, norm2
from .reductions import breakdown_floor
from .solvers import (TOL_DEFAULT, SolveReport, check_budget,
                      underflow_exponent)

RANK_TOL = 1e-12


@dataclass(frozen=True)
class BlockPartition:
    """Contiguous row blocks given by offsets [0, b1, ..., nrows].

    Immutable once checked: the instance is frozen and ``bounds`` is the
    partition's own read-only int64 copy."""

    bounds: np.ndarray

    def __post_init__(self):
        bounds = np.asarray(self.bounds)
        whole = np.isfinite(bounds) & (np.floor(bounds) == bounds)
        if bounds.ndim != 1 or not whole.all():
            raise ValueError("partition bounds must be 1-D whole numbers")
        bounds = bounds.astype(np.int64)
        if len(bounds) < 2 or bounds[0] != 0:
            raise ValueError("partition must start at row 0")
        if np.any(np.diff(bounds) <= 0):
            raise ValueError("partition bounds must be strictly increasing")
        bounds.flags.writeable = False
        object.__setattr__(self, "bounds", bounds)

    @classmethod
    def equal_blocks(cls, nrows, k):
        """k equal-size blocks; remainder rows go to the last block."""
        if not 1 <= k <= nrows:
            raise ValueError(f"need 1 <= k <= {nrows}, got {k}")
        return cls([i * (nrows // k) for i in range(k)] + [nrows])

    def blocks(self):
        bounds = self.bounds.tolist()
        return zip(bounds[:-1], bounds[1:])


def ap_init(A, b):
    """Initial projection (p, c): p = alpha A'b, alpha = ||b||^2/||A'b||^2.

    Then c = x'p = alpha b'(Ax) = alpha ||b||^2 without knowing x.
    Raises DegenerateSeed when ||A'b|| is at most ``breakdown_floor(A)``
    times ||b||: a floor relative to b, like the roap seed's, so that
    scaling b by a power of two leaves the test as it was.
    """
    b = as_vector(b, "b")
    atb = A.apply_transpose(b)
    nrm2_atb = atb.dot(atb)
    bb = b.dot(b)
    if nrm2_atb <= breakdown_floor(A) ** 2 * bb:
        raise DegenerateSeed("A'b is numerically zero")
    alpha = bb / nrm2_atb
    return alpha * atb, alpha * bb


def _filtered_qr(W, l, drop_at, lstsq):
    """Thin QR of W and y = R^-T l, so that Q y projects x when l = W'x.

    With ``lstsq`` the subspace (generically) fills the whole space and
    R may be trapezoidal; l = W'x keeps the system consistent, so a
    least-squares solve recovers Q'x.  Otherwise, while some R diagonal
    is at or below ``drop_at``, the QR is redone without those columns
    and their l entries; Q may end with no columns.
    """
    if lstsq:
        Q, R = np.linalg.qr(W)
        return Q, np.linalg.lstsq(R.T, l, rcond=None)[0]
    while True:
        Q, R = np.linalg.qr(W)
        keep = np.abs(np.diag(R)) > drop_at
        if keep.all():
            return Q, np.linalg.solve(R.T, l)
        W = W[:, keep]
        l = l[keep]


def project_onto(w_columns, l):
    """Orthogonal projection of the unknown x onto ran(W) from l = W'x.

    Thin QR of W gives p = Q (R^-T l) and c = ||R^-T l||^2.  Columns
    whose R diagonal falls below ``RANK_TOL`` times the Frobenius norm
    of the original W are dropped together with their l entries.
    """
    W = np.asarray(w_columns, dtype=np.float64)
    if W.ndim == 1:
        W = W[:, None]
    if W.ndim != 2:
        raise ValueError("W must be a 2-D array of column vectors")
    l = np.asarray(l, dtype=np.float64).ravel()
    if W.shape[1] != len(l):
        raise ValueError(f"W has {W.shape[1]} columns but l has {len(l)} entries")
    Q, y = _filtered_qr(W, l, RANK_TOL * float(np.linalg.norm(W)),
                        lstsq=W.shape[1] > W.shape[0])
    if Q.shape[1] == 0:
        raise EmptySubspace("rank filtering removed every column")
    return Q @ y, float(np.dot(y, y))


def _check_cover(A, b, partition):
    """Raise DimensionMismatch unless partition and b cover A's rows."""
    if partition.bounds[-1] != A.nrows or len(b) != A.nrows:
        raise DimensionMismatch(
            f"partition covers {partition.bounds[-1]} rows and b has "
            f"{len(b)} entries, but A has {A.nrows} rows"
        )


def ap_factor(A, b, partition):
    """Factor each block of ``partition`` once, for every sweep of a solve.

    Returns one tuple (Q, z, u, zz) per block: Q is an orthonormal basis
    of ran(A_B') left by rank filtering, z = Q'x, u = Q z the projection
    of x onto ran(A_B') and zz = ||z||^2.
    Rows are dropped, or a least-squares solve taken, as
    :func:`project_onto` would for W = [p, A_B']: the latter when the
    block has at least as many rows as A has columns.  Raises
    NonFiniteVector for a b with NaN or inf, as :func:`ap_init` does,
    and DimensionMismatch as :func:`_check_cover` does.
    """
    b = as_vector(b, "b")
    _check_cover(A, b, partition)
    blocks = []
    for start, stop in partition.blocks():
        W = A.rows_dense(start, stop).T
        Q, z = _filtered_qr(W, b[start:stop],
                            RANK_TOL * float(np.linalg.norm(W)),
                            lstsq=stop - start >= A.ncols)
        blocks.append((Q, z, Q @ z, float(np.dot(z, z))))
    return blocks


def ap_sweep(blocks, p, c):
    """One pass over the factored blocks, threading (p, c) through.

    Each step projects x onto span{p} + ran(A_B') = ran(Q) + span{p_perp}.
    p_perp is dropped when its norm is at most RANK_TOL times that of p:
    a rule relative to p, so that scaling b by a power of two, which
    scales p, p_perp and every block's z by it, leaves each decision as
    it was.
    """
    for Q, z, u, zz in blocks:
        q = Q.T @ p
        perp = p - Q @ q
        perp2 = float(np.dot(perp, perp))
        if perp2 > RANK_TOL ** 2 * float(np.dot(p, p)):
            t = (c - float(np.dot(q, z))) / perp2
            p = u + t * perp
            c = zz + t * t * perp2
        else:
            p, c = u.copy(), zz  # later sweeps reuse u
    return p, c


@_one_blas_thread
def ap_solve(A, b, partition=None, tol=TOL_DEFAULT, max_sweeps=None):
    """Iterate sweeps until the relative residual meets ``tol``.

    ``partition`` defaults to a single block (direct projection), and
    the sweep budget ``max_sweeps`` (None) to 5000 sweeps.  Returns
    ``(x, SolveReport)`` with one history entry per sweep.  A zero b
    returns x = 0 before any block is factored; a nonzero b whose norm
    underflows is solved scaled by a power of two, as in ``roap_solve``.
    """
    check_budget(tol, max_sweeps, "max_sweeps")
    if max_sweeps is None:
        max_sweeps = 5000
    b = as_vector(b, "b")
    if partition is None:
        partition = BlockPartition.equal_blocks(A.nrows, 1)
    _check_cover(A, b, partition)
    bnorm = norm2(b)
    e = underflow_exponent(b, bnorm)
    if e is not None:
        x, report = ap_solve(A, np.ldexp(b, -e), partition, tol, max_sweeps)
        return np.ldexp(x, e), report
    if bnorm == 0.0:
        return np.zeros(A.ncols), SolveReport("converged",
                                              residual_history=[0.0])

    blocks = ap_factor(A, b, partition)
    p, c = ap_init(A, b)
    relres = 1.0
    report = SolveReport(residual_history=[relres])
    while relres > tol and report.restarts < max_sweeps:
        p, c = ap_sweep(blocks, p, c)
        relres = norm2(b - A.apply(p)) / bnorm
        report.inner_iterations.append(len(blocks))
        report.residual_history.append(relres)
    report.termination = "converged" if relres <= tol else "max-restarts"
    return p, report
