"""Deterministic generators for the four benchmark problem families.

* ``convdiff2d``   - 5-point convection-diffusion stencil on the unit
  square, Dirichlet zero boundary, lexicographic interior ordering.
* ``poisson-lshape`` - 5-point Laplacian on an L-shaped domain, SPD.
* ``tridiag-unsym``  - tridiagonal (-1, 2, -1.1) bands; severely
  ill-conditioned as n grows; right-hand side built from a known
  smooth solution.
* ``random-dense``   - uniform(0,1) entries from a seeded PCG64 stream,
  right-hand side built from a known solution.

All generators are pure functions of their parameters.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import CsrMatrix, DenseMatrix, LinearOperator

PROFILE_EXP1 = "exp1"
PROFILE_EXP3 = "exp3"

FAMILIES = ("convdiff2d", "poisson-lshape", "tridiag-unsym", "random-dense")


@dataclass
class GeneratedProblem:
    A: LinearOperator
    b: np.ndarray
    x_true: Optional[np.ndarray]
    label: str
    family: str = ""

    def __post_init__(self):
        if not self.family:
            self.family = self.label

    @property
    def n(self):
        return self.A.nrows


def sample_solution(profile, n):
    """Known solution profiles sampled on a uniform grid.

    ``exp1``: t(1-t)e^t at t_i = i/(n+1) (interior points, none zero);
    ``exp3``: t(1-t)e^(3t) at t_i = i/n (the endpoint sample is zero).
    """
    if profile == PROFILE_EXP1:
        t = np.arange(1, n + 1) / (n + 1)
        return t * (1 - t) * np.exp(t)
    if profile == PROFILE_EXP3:
        t = np.arange(1, n + 1) / n
        return t * (1 - t) * np.exp(3 * t)
    raise ValueError(f"unknown profile {profile!r}")


def gen_convdiff2d(nx, ny, p1=1.0, p2=1.0, p3=0.0, constructed=False):
    """Convection-diffusion operator on an nx-by-ny interior grid.

    Diagonal 2/hx^2 + 2/hy^2 + p3; east/west -1/hx^2 +- p1/(2 hx);
    north/south -1/hy^2 +- p2/(2 hy).  The right-hand side samples
    f = 1 unless ``constructed``, in which case b = A x_true with
    x_true = 1 at every node.
    """
    if nx < 2 or ny < 2:
        raise ValueError("grid must be at least 2x2")
    hx, hy = 1.0 / (nx + 1), 1.0 / (ny + 1)
    diag = 2.0 / hx**2 + 2.0 / hy**2 + p3
    east = -1.0 / hx**2 + p1 / (2 * hx)
    west = -1.0 / hx**2 - p1 / (2 * hx)
    north = -1.0 / hy**2 + p2 / (2 * hy)
    south = -1.0 / hy**2 - p2 / (2 * hy)

    n = nx * ny
    offsets = [0]
    cols, vals = [], []
    for j in range(ny):
        for i in range(nx):
            k = j * nx + i
            if j > 0:
                cols.append(k - nx); vals.append(south)
            if i > 0:
                cols.append(k - 1); vals.append(west)
            cols.append(k); vals.append(diag)
            if i < nx - 1:
                cols.append(k + 1); vals.append(east)
            if j < ny - 1:
                cols.append(k + nx); vals.append(north)
            offsets.append(len(cols))
    A = CsrMatrix(n, n, np.array(offsets), np.array(cols), np.array(vals))
    label = f"convdiff2d-{nx}x{ny}"
    if constructed:
        x_true = np.ones(n)
        return GeneratedProblem(A, A.apply(x_true), x_true, label, "convdiff2d")
    return GeneratedProblem(A, np.ones(n), None, label, "convdiff2d")


def _lshape_nodes(m):
    # interior lattice points of [0,1]x[0,1/2] union [0,1/2]x[0,1]
    # at spacing h = 1/(2m), ordered lexicographically (rows of
    # constant y, x fastest)
    nodes = []
    for j in range(1, 2 * m):
        for i in range(1, 2 * m):
            if j < m or i < m:
                nodes.append((i, j))
    return nodes


def gen_poisson_lshape(m):
    """5-point Laplacian on the L-shaped domain with h = 1/(2m).

    Interior node count is (m-1)(3m-1); the right-hand side samples
    f = 1.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    h = 1.0 / (2 * m)
    nodes = _lshape_nodes(m)
    index = {p: k for k, p in enumerate(nodes)}
    n = len(nodes)
    offsets = [0]
    cols, vals = [], []
    for (i, j) in nodes:
        entries = [(index[(i, j)], 4.0 / h**2)]
        for di, dj in ((0, -1), (-1, 0), (1, 0), (0, 1)):
            q = (i + di, j + dj)
            if q in index:
                entries.append((index[q], -1.0 / h**2))
        entries.sort()
        for c, v in entries:
            cols.append(c); vals.append(v)
        offsets.append(len(cols))
    A = CsrMatrix(n, n, np.array(offsets), np.array(cols), np.array(vals))
    return GeneratedProblem(A, np.ones(n), None, f"poisson-lshape-m{m}",
                            "poisson-lshape")


def lshape_size(m):
    """Interior node count for grid parameter m."""
    return (m - 1) * (3 * m - 1)


def lshape_m_for(n_target):
    """Grid parameter whose interior count is nearest ``n_target``."""
    best_m, best_gap = 3, abs(lshape_size(3) - n_target)
    m = 4
    while True:
        gap = abs(lshape_size(m) - n_target)
        if gap < best_gap:
            best_m, best_gap = m, gap
        if lshape_size(m) > n_target and gap > best_gap:
            return best_m
        m += 1


def gen_tridiag_unsym(n):
    """Tridiagonal bands (sub, main, super) = (-1, 2, -1.1).

    The right-hand side is constructed from the ``exp1`` solution
    profile, so the true solution is known.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    offsets = [0]
    cols, vals = [], []
    for i in range(n):
        if i > 0:
            cols.append(i - 1); vals.append(-1.0)
        cols.append(i); vals.append(2.0)
        if i < n - 1:
            cols.append(i + 1); vals.append(-1.1)
        offsets.append(len(cols))
    A = CsrMatrix(n, n, np.array(offsets), np.array(cols), np.array(vals))
    x_true = sample_solution(PROFILE_EXP1, n)
    return GeneratedProblem(A, A.apply(x_true), x_true, f"tridiag-unsym-{n}",
                            "tridiag-unsym")


def gen_random_dense(n, seed):
    """Dense n x n with i.i.d. uniform(0,1) entries from PCG64(seed);
    the right-hand side is constructed from the ``exp3`` profile."""
    if n < 1:
        raise ValueError("need n >= 1")
    rng = np.random.Generator(np.random.PCG64(seed))
    A = DenseMatrix(rng.random((n, n)))
    x_true = sample_solution(PROFILE_EXP3, n)
    return GeneratedProblem(A, A.apply(x_true), x_true,
                            f"random-dense-{n}-s{seed}", "random-dense")


@dataclass
class ProblemSpec:
    """Declarative problem description used by the CLI."""

    family: str
    nx: int = 0
    ny: int = 0
    m: int = 0
    n: int = 0
    p1: float = 1.0
    p2: float = 1.0
    p3: float = 0.0
    seed: int = 0
    constructed: bool = False

    def generate(self):
        if self.family == "convdiff2d":
            return gen_convdiff2d(self.nx, self.ny, self.p1, self.p2, self.p3,
                                  constructed=self.constructed)
        if self.family == "poisson-lshape":
            return gen_poisson_lshape(self.m)
        if self.family == "tridiag-unsym":
            return gen_tridiag_unsym(self.n)
        if self.family == "random-dense":
            return gen_random_dense(self.n, self.seed)
        raise ValueError(f"unknown family {self.family!r}")
