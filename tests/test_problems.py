import numpy as np
import pytest
import scipy.linalg

from oaplib import (ProblemSpec, gen_convdiff2d, gen_poisson_lshape,
                    gen_random_dense, gen_tridiag_unsym, norm2,
                    sample_solution)
from oaplib.problems import _stencil_matrix, lshape_m_for, lshape_size


def reachable_from_zero(A):
    """BFS over the sparsity pattern (structural irreducibility check)."""
    n = A.nrows
    seen = np.zeros(n, dtype=bool)
    stack = [0]
    seen[0] = True
    while stack:
        i = stack.pop()
        lo, hi = A.row_offsets[i], A.row_offsets[i + 1]
        for j in A.col_indices[lo:hi]:
            if not seen[j]:
                seen[j] = True
                stack.append(int(j))
    return bool(seen.all())


class TestConvDiff:
    def test_small_pure_laplacian_stencil(self):
        p = gen_convdiff2d(2, 2, p1=0.0, p2=0.0, p3=0.0)
        dense = p.A.to_dense()
        np.testing.assert_allclose(np.diag(dense), 36.0, rtol=1e-15)
        off = dense[dense != 0.0]
        assert set(np.round(off, 10)) == {36.0, -9.0}
        assert np.max(np.abs(dense - dense.T)) == 0.0

    def test_pure_laplacian_symmetric(self):
        p = gen_convdiff2d(9, 10, p1=0.0, p2=0.0, p3=0.0)
        dense = p.A.to_dense()
        assert np.max(np.abs(dense - dense.T)) == 0.0
        # weak diagonal dominance and structural irreducibility
        diag = np.abs(np.diag(dense))
        offsum = np.sum(np.abs(dense), axis=1) - diag
        assert np.all(diag >= offsum - 1e-12)
        assert reachable_from_zero(p.A)

    def test_convection_term_asymmetry(self):
        nx = ny = 4
        p = gen_convdiff2d(nx, ny, p1=1.0, p2=0.0, p3=0.0)
        dense = p.A.to_dense()
        hx = 1.0 / (nx + 1)
        # east coupling minus its mirror equals twice the upwind term
        assert dense[0, 1] - dense[1, 0] == pytest.approx(2.0 * (1.0 / (2 * hx)),
                                                          rel=1e-14)

    def test_rhs_modes(self):
        plain = gen_convdiff2d(3, 3)
        np.testing.assert_array_equal(plain.b, np.ones(9))
        assert plain.x_true is None
        built = gen_convdiff2d(3, 3, constructed=True)
        np.testing.assert_array_equal(built.x_true, np.ones(9))
        assert norm2(built.A.apply(built.x_true) - built.b) == 0.0


class TestPoissonLShape:
    def test_symmetric_uniform_diagonal(self):
        p = gen_poisson_lshape(5)
        dense = p.A.to_dense()
        h = 1.0 / 10.0
        assert np.max(np.abs(dense - dense.T)) == 0.0
        np.testing.assert_allclose(np.diag(dense), 4.0 / h**2, rtol=1e-15)

    def test_minimal_grid_stencil_bounds(self):
        p = gen_poisson_lshape(3)
        assert p.n == lshape_size(3) == 16
        h2 = (1.0 / 6.0) ** 2
        dense = p.A.to_dense()
        for i in range(p.n):
            off = dense[i, np.arange(p.n) != i]
            nz = off[off != 0.0]
            assert 1 <= len(nz) <= 4
            np.testing.assert_allclose(nz, -1.0 / h2, rtol=1e-15)

    def test_positive_definite_at_desk_scale(self):
        m = lshape_m_for(200)
        assert m == 9 and lshape_size(m) == 208
        p = gen_poisson_lshape(m)
        eigs = np.linalg.eigvalsh(p.A.to_dense())
        assert eigs.min() > 0.0

    def test_size_selection_near_targets(self):
        assert lshape_m_for(500) == 14
        assert lshape_size(14) == 533


class TestTridiagUnsym:
    def test_asymmetry_is_point_one(self):
        p = gen_tridiag_unsym(6)
        skew = p.A.to_dense() - p.A.to_dense().T
        nz = skew[skew != 0.0]
        np.testing.assert_allclose(np.abs(nz), 0.1, rtol=1e-12)

    def test_condition_blows_up(self):
        p = gen_tridiag_unsym(600)
        assert np.linalg.cond(p.A.to_dense()) > 1e12

    @pytest.mark.parametrize("make", [lambda: gen_tridiag_unsym(50),
                                      lambda: gen_random_dense(64, seed=2)],
                             ids=["tridiag-unsym 50", "random-dense 64"])
    def test_constructed_solution(self, make):
        p = make()
        assert norm2(p.A.apply(p.x_true) - p.b) <= 1e-12 * norm2(p.b)


class TestEntryByEntry:
    """Each stencil operator equals a dense matrix filled one entry at
    a time from its generator's docstring.  Non-square grids and unequal
    convection terms catch a swap of the x and y directions."""

    @pytest.mark.parametrize("nx, ny", [(3, 5), (5, 3)])
    def test_convdiff_nonsquare_with_convection(self, nx, ny):
        p1, p2, p3 = 0.7, -1.9, 2.3
        hx, hy = 1.0 / (nx + 1), 1.0 / (ny + 1)
        want = np.zeros((nx * ny, nx * ny))
        for j in range(ny):
            for i in range(nx):
                k = j * nx + i  # lexicographic, x fastest
                want[k, k] = 2 / hx**2 + 2 / hy**2 + p3
                if i + 1 < nx:
                    want[k, k + 1] = -1 / hx**2 + p1 / (2 * hx)   # east
                if i > 0:
                    want[k, k - 1] = -1 / hx**2 - p1 / (2 * hx)   # west
                if j + 1 < ny:
                    want[k, k + nx] = -1 / hy**2 + p2 / (2 * hy)  # north
                if j > 0:
                    want[k, k - nx] = -1 / hy**2 - p2 / (2 * hy)  # south
        got = gen_convdiff2d(nx, ny, p1, p2, p3).A.to_dense()
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("m", [3, 4])
    def test_lshape(self, m):
        h = 1.0 / (2 * m)
        # lattice points (i h, j h) inside the L, rows of constant y
        nodes = [(i, j) for j in range(1, 2 * m) for i in range(1, 2 * m)
                 if i < m or j < m]
        number = {node: k for k, node in enumerate(nodes)}
        want = np.zeros((len(nodes), len(nodes)))
        for (i, j), k in number.items():
            want[k, k] = 4 / h**2
            for q in ((i + 1, j), (i - 1, j), (i, j + 1), (i, j - 1)):
                if q in number:
                    want[k, number[q]] = -1 / h**2
        assert len(nodes) == lshape_size(m)
        np.testing.assert_array_equal(gen_poisson_lshape(m).A.to_dense(), want)

    @pytest.mark.parametrize("n", [3, 5])
    def test_tridiag(self, n):
        want = np.zeros((n, n))
        for i in range(n):
            want[i, i] = 2.0
            if i > 0:
                want[i, i - 1] = -1.0
            if i + 1 < n:
                want[i, i + 1] = -1.1
        np.testing.assert_array_equal(gen_tridiag_unsym(n).A.to_dense(), want)

    def test_misordered_stencil_is_rejected(self):
        # east listed before the node itself: columns decrease in a row
        with pytest.raises(ValueError, match="strictly increasing"):
            _stencil_matrix(np.arange(6).reshape(2, 3),
                            (((1, 0), -1.0), ((0, 0), 2.0)))


class TestRandomDense:
    def test_entries_in_unit_interval(self):
        p = gen_random_dense(300, seed=11)
        assert p.A.values.min() > 0.0
        assert p.A.values.max() < 1.0

    def test_nonsingular_via_lu_oracle(self):
        p = gen_random_dense(300, seed=11)
        lu, piv = scipy.linalg.lu_factor(p.A.values)
        assert np.min(np.abs(np.diag(lu))) > 0.0

    @pytest.mark.parametrize("n", [1, 7, 300])
    def test_block_is_cache_aligned_with_the_streams_entries(self, n):
        # the dense products run faster over a 32-byte aligned block; the
        # entries are PCG64's uniform stream in row-major order
        values = gen_random_dense(n, seed=5).A.values
        assert values.ctypes.data % 64 == 0 and values.flags.c_contiguous
        want = np.random.Generator(np.random.PCG64(5)).random((n, n))
        assert values.tobytes() == want.tobytes()


class TestSampleSolution:
    def test_exp1_grid_points(self):
        x = sample_solution("exp1", 3)
        t = np.array([0.25, 0.5, 0.75])
        np.testing.assert_allclose(x, t * (1 - t) * np.exp(t), rtol=1e-15)
        # the midpoint, 0.25 e^0.5
        assert x[1] == pytest.approx(0.41218031767503205, rel=1e-15)

    def test_exp3_endpoint_is_zero(self):
        x = sample_solution("exp3", 10)
        assert x[-1] == 0.0

    def test_unknown_profile(self):
        with pytest.raises(ValueError):
            sample_solution("exp2", 5)


class TestProblemSpec:
    def test_dispatch(self):
        spec = ProblemSpec("tridiag-unsym", n=12)
        assert spec.generate().label == "tridiag-unsym-12"
        spec = ProblemSpec("convdiff2d", nx=3, ny=4)
        assert spec.generate().n == 12
        spec = ProblemSpec("poisson-lshape", m=4)
        assert spec.generate().n == lshape_size(4)
        spec = ProblemSpec("random-dense", n=10, seed=1)
        assert spec.generate().n == 10

    def test_unknown_family(self):
        with pytest.raises(ValueError):
            ProblemSpec("hilbert").generate()

    @pytest.mark.parametrize("spec", [
        ProblemSpec("convdiff2d", nx=4, ny=5),
        ProblemSpec("random-dense", n=40, seed=7)])
    def test_generators_pure(self, spec):
        # bit for bit the same problem from the same spec
        a, b = spec.generate(), spec.generate()
        assert np.array_equal(a.A.values, b.A.values)
        assert np.array_equal(a.b, b.b)

    @pytest.mark.parametrize("bad", [
        ProblemSpec("convdiff2d", nx=1, ny=5),
        ProblemSpec("poisson-lshape", m=2),
        ProblemSpec("tridiag-unsym", n=1),
        ProblemSpec("random-dense", n=0),
    ])
    def test_size_preconditions(self, bad):
        with pytest.raises(ValueError):
            bad.generate()
