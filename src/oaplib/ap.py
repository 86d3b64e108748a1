"""Accumulated-projection baseline solver.

Splits the rows of A into contiguous blocks and repeatedly projects
the unknown solution onto the subspace spanned by the previous
projection and one block of rows, using only inner products that are
computable from the right-hand side.  Each block is factored once per
solve: a rank-filtered thin QR Q_B R_B = A_B' fixes z_B = Q_B'x =
R_B^-T b_B.  A block step is then two GEMVs (q = Q_B'p and Q_B q) and a
rank-one update along p_perp = p - Q_B q, whose inner product with x is
c - q'z_B.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSeed, DimensionMismatch, EmptySubspace
from .linalg import as_vector, dot, norm2
from .reductions import breakdown_floor
from .solvers import SolveReport

RANK_TOL = 1e-12


@dataclass
class BlockPartition:
    """Contiguous row blocks given by offsets [0, b1, ..., nrows]."""

    bounds: np.ndarray

    def __post_init__(self):
        self.bounds = np.asarray(self.bounds, dtype=np.int64)
        if len(self.bounds) < 2 or self.bounds[0] != 0:
            raise ValueError("partition must start at row 0")
        if np.any(np.diff(self.bounds) <= 0):
            raise ValueError("partition bounds must be strictly increasing")

    @classmethod
    def equal_blocks(cls, nrows, k):
        """k equal-size blocks; remainder rows go to the last block."""
        if not 1 <= k <= nrows:
            raise ValueError(f"need 1 <= k <= {nrows}, got {k}")
        size = nrows // k
        bounds = [i * size for i in range(k)] + [nrows]
        return cls(np.array(bounds))

    @property
    def nblocks(self):
        return len(self.bounds) - 1

    def blocks(self):
        for i in range(self.nblocks):
            yield int(self.bounds[i]), int(self.bounds[i + 1])


@dataclass
class ApState:
    """Current projection of the solution and its inner product with it."""

    p: np.ndarray
    c: float


def ap_init(A, b):
    """Initial projection p = alpha A'b with alpha = ||b||^2/||A'b||^2.

    Then c = x'p = alpha b'(Ax) = alpha ||b||^2 without knowing x.
    """
    b = as_vector(b, "b")
    atb = A.apply_transpose(b)
    nrm2_atb = dot(atb, atb)
    if nrm2_atb <= breakdown_floor(A) ** 2:
        raise DegenerateSeed("A'b is numerically zero")
    alpha = dot(b, b) / nrm2_atb
    return ApState(alpha * atb, alpha * dot(b, b))


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


def project_onto(w_columns, l, rank_tol=RANK_TOL):
    """Orthogonal projection of the unknown x onto ran(W) from l = W'x.

    Thin QR of W gives p = Q (R^-T l) and c = ||R^-T l||^2.  Columns
    whose R diagonal falls below ``rank_tol`` times the Frobenius norm
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
    Q, y = _filtered_qr(W, l, rank_tol * float(np.linalg.norm(W)),
                        lstsq=W.shape[1] > W.shape[0])
    if Q.shape[1] == 0:
        raise EmptySubspace("rank filtering removed every column")
    return Q @ y, float(np.dot(y, y))


@dataclass
class ApBlock:
    """One row block, factored for every sweep of a solve.

    ``Q`` is an orthonormal basis of ran(A_B') left by rank filtering,
    ``z = Q'x``, ``u = Q z`` the projection of x onto ran(A_B'),
    ``zz = ||z||^2`` and ``fro2 = ||A_B||_F^2``.
    """

    Q: np.ndarray
    z: np.ndarray
    u: np.ndarray
    zz: float
    fro2: float


def ap_factor(A, b, partition):
    """Factor each block of ``partition`` once.

    Rows are dropped, or a least-squares solve taken, as
    :func:`project_onto` would for W = [p, A_B']: the latter when the
    block has at least as many rows as A has columns.  Raises
    DimensionMismatch unless the partition ends at row ``A.nrows`` and
    b has ``A.nrows`` entries.
    """
    b = np.asarray(b, dtype=np.float64)
    if partition.bounds[-1] != A.nrows or len(b) != A.nrows:
        raise DimensionMismatch(
            f"partition covers {partition.bounds[-1]} rows and b has "
            f"{len(b)} entries, but A has {A.nrows} rows"
        )
    blocks = []
    for start, stop in partition.blocks():
        W = A.rows_dense(start, stop).T
        fro = float(np.linalg.norm(W))
        Q, z = _filtered_qr(W, b[start:stop], RANK_TOL * fro,
                            lstsq=stop - start >= A.ncols)
        blocks.append(ApBlock(Q, z, Q @ z, float(np.dot(z, z)), fro * fro))
    return blocks


def ap_sweep(blocks, state):
    """One pass over the factored blocks, threading the projection through.

    Each step projects x onto span{p} + ran(A_B') = ran(Q) + span{p_perp}.
    p_perp is dropped when its norm is at most RANK_TOL times the
    Frobenius norm of [p, A_B'], the drop rule of :func:`project_onto`.
    """
    p, c = state.p, state.c
    for blk in blocks:
        q = blk.Q.T @ p
        perp = p - blk.Q @ q
        perp2 = float(np.dot(perp, perp))
        if perp2 > RANK_TOL ** 2 * (float(np.dot(p, p)) + blk.fro2):
            t = (c - float(np.dot(q, blk.z))) / perp2
            p = blk.u + t * perp
            c = blk.zz + t * t * perp2
        else:
            p, c = blk.u.copy(), blk.zz  # later sweeps reuse blk.u
    return ApState(p, c)


def ap_solve(A, b, partition=None, tol=1e-6, max_sweeps=1000):
    """Iterate sweeps until the relative residual meets ``tol``.

    ``partition`` defaults to a single block (direct projection).
    Returns ``(x, SolveReport)`` with one history entry per sweep.
    """
    b = as_vector(b, "b")
    if partition is None:
        partition = BlockPartition.equal_blocks(A.nrows, 1)
    blocks = ap_factor(A, b, partition)
    report = SolveReport()
    bnorm = norm2(b)
    if bnorm == 0.0:
        report.termination = "converged"
        report.residual_history = [0.0]
        return np.zeros(A.ncols), report

    state = ap_init(A, b)
    relres = 1.0
    report.residual_history.append(relres)
    while relres > tol and report.restarts < max_sweeps:
        state = ap_sweep(blocks, state)
        relres = norm2(b - A.apply(state.p)) / bnorm
        report.restarts += 1
        report.inner_iterations.append(partition.nblocks)
        report.residual_history.append(relres)
    report.termination = "converged" if relres <= tol else "max-restarts"
    report.final_relres = report.residual_history[-1]
    return state.p, report
