"""Deterministic generators for the four benchmark problem families.

* ``convdiff2d``   - 5-point convection-diffusion stencil on the unit
  square, Dirichlet zero boundary, lexicographic interior ordering.
* ``poisson-lshape`` - 5-point Laplacian on an L-shaped domain, SPD.
* ``tridiag-unsym``  - tridiagonal (-1, 2, -1.1) bands; severely
  ill-conditioned as n grows; right-hand side built from a known
  smooth solution.
* ``random-dense``   - uniform(0,1) entries from a seeded PCG64 stream,
  right-hand side built from a known solution.

The three stencil families share one whole-array assembler,
``_stencil_matrix``.  All generators are pure functions of their
parameters.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .linalg import CsrMatrix, DenseMatrix, LinearOperator, aligned_empty

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


def _stencil_matrix(index, stencil):
    """CSR matrix of a constant stencil on a grid of node numbers.

    ``index[j, i]`` numbers node (i, j) row-major, -1 off the domain.
    ``stencil`` lists ``((di, dj), value)``, coupling node (i, j) to
    (i + di, j + dj), in increasing order of the neighbour's number (the
    CSR validation checks it); neighbours off the domain are dropped.
    """
    ny, nx = index.shape
    padded = np.pad(index, 1, constant_values=-1)
    nodes = index >= 0
    nbrs = np.stack([padded[1 + dj:1 + dj + ny, 1 + di:1 + di + nx][nodes]
                     for (di, dj), _ in stencil], axis=1)
    present = nbrs >= 0
    vals = np.broadcast_to([v for _, v in stencil], nbrs.shape)[present]
    offsets = np.concatenate(([0], np.cumsum(present.sum(axis=1))))
    return CsrMatrix._adopt(len(nbrs), len(nbrs), offsets, nbrs[present],
                            vals)


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
    A = _stencil_matrix(np.arange(n).reshape(ny, nx),
                        (((0, -1), south), ((-1, 0), west), ((0, 0), diag),
                         ((1, 0), east), ((0, 1), north)))
    label = f"convdiff2d-{nx}x{ny}"
    if constructed:
        x_true = np.ones(n)
        return GeneratedProblem(A, A.apply(x_true), x_true, label, "convdiff2d")
    return GeneratedProblem(A, np.ones(n), None, label, "convdiff2d")


def gen_poisson_lshape(m):
    """5-point Laplacian on the L-shaped domain with h = 1/(2m).

    Interior node count is (m-1)(3m-1); the right-hand side samples
    f = 1.
    """
    if m < 3:
        raise ValueError("need m >= 3")
    h = 1.0 / (2 * m)
    # interior lattice points of [0,1]x[0,1/2] union [0,1/2]x[0,1]:
    # the (2m-1)^2 square grid less its quadrant x, y >= 1/2
    n = lshape_size(m)
    index = np.zeros((2 * m - 1, 2 * m - 1), dtype=np.int64)
    index[m - 1:, m - 1:] = -1
    index[index == 0] = np.arange(n)
    off = -1.0 / h**2
    A = _stencil_matrix(index, (((0, -1), off), ((-1, 0), off),
                                ((0, 0), 4.0 / h**2), ((1, 0), off),
                                ((0, 1), off)))
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
    A = _stencil_matrix(np.arange(n).reshape(1, n),
                        (((-1, 0), -1.0), ((0, 0), 2.0), ((1, 0), -1.1)))
    x_true = sample_solution(PROFILE_EXP1, n)
    return GeneratedProblem(A, A.apply(x_true), x_true, f"tridiag-unsym-{n}",
                            "tridiag-unsym")


def gen_random_dense(n, seed):
    """Dense n x n with i.i.d. uniform(0,1) entries from PCG64(seed);
    the right-hand side is constructed from the ``exp3`` profile."""
    if n < 1:
        raise ValueError("need n >= 1")
    # drawn into a cache-aligned block, which the dense products read
    # faster, in the order rng.random((n, n)) draws them
    values = aligned_empty((n, n))
    np.random.Generator(np.random.PCG64(seed)).random(out=values)
    A = DenseMatrix._adopt(values)
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
