"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest -s`` to see them on success).

The reproduction runs behind criteria 5-9 execute once in a
module-scoped fixture with library defaults; criteria consume the
recorded reports and wall times.

Two criteria check what the method promises in floating point rather
than in exact arithmetic:

* 03 bounds each coefficient's error by the larger of 1e-9 ||x|| and
  10 eps ||A||_F ||x|| a_k, where a_k measures how much the coefficient
  recurrence amplifies local rounding (see ``recurrence_amplification``).
  A small beta legitimately amplifies it; the coefficients are exact
  only in exact arithmetic.
* 09 checks that the error norm ||x_k - x_ref|| does not increase
  across restarts, which is what each restart guarantees.  The
  residual norm may oscillate; its increases are only counted and
  reported.
"""

import time

import numpy as np
import pytest

import oaplib.solvers
from oaplib import (DenseMatrix, ap_factor, ap_init, ap_sweep, BlockPartition,
                    dot, gen_convdiff2d, gen_poisson_lshape,
                    gen_random_dense, gen_tridiag_unsym, init_from_vector,
                    norm2, project_onto, roap_solve)

from conftest import (constructed_problem, exact_cycle, full_reduction,
                      gram_defect, oracle_projection, random_sparse,
                      random_wellcond)

EXAMPLE4_SEED = 1234


def check(num, description, failures, detail=""):
    ok = not failures
    line = f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {description}"
    if detail:
        line += f" [{detail}]"
    print(line)
    assert ok, f"{description}: {failures[:5]}"


def unit(rng, n):
    v = rng.standard_normal(n)
    return v / norm2(v)


@pytest.fixture(scope="module")
def reduction_instances():
    """20 random well-conditioned 20x20 matrices with both reductions
    run in oracle (reorthogonalized) and raw mode."""
    rng = np.random.Generator(np.random.PCG64(7001))
    out = []
    t0 = time.perf_counter()
    for trial in range(20):
        cond = 10.0 ** rng.uniform(1.0, 3.0)  # condition <= 1e3
        dense = random_wellcond(rng, 20, cond)
        A = DenseMatrix(dense)
        v1, u1 = unit(rng, 20), unit(rng, 20)
        tri_orth = full_reduction(A, v1, u1, 19, reorthogonalize=True)
        bi_orth = full_reduction(A, v1, None, 19, reorthogonalize=True)
        tri_raw = full_reduction(A, v1, u1, 5)
        bi_raw = full_reduction(A, v1, None, 5)
        out.append((trial, dense, tri_orth, bi_orth, tri_raw, bi_raw))
    return out, time.perf_counter() - t0


def test_acceptance_01_orthonormality(reduction_instances):
    instances, elapsed = reduction_instances
    failures = []
    for trial, dense, tri_orth, bi_orth, tri_raw, bi_raw in instances:
        for name, (*_, V, U, _) in (("tri", tri_orth), ("bi", bi_orth)):
            dv, du = gram_defect(V), gram_defect(U)
            if dv > 1e-10 or du > 1e-10:
                failures.append((trial, name, "reorth", dv, du))
        for name, (*_, V, U, _) in (("tri", tri_raw), ("bi", bi_raw)):
            dv, du = gram_defect(V), gram_defect(U)
            if dv > 1e-8 or du > 1e-8:
                failures.append((trial, name, "raw5", dv, du))
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    check(1, "orthonormality of reduction bases", failures,
          f"20 instances in {elapsed:.2f}s")


def test_acceptance_02_reduction_form(reduction_instances):
    instances, _ = reduction_instances
    failures = []
    for trial, dense, tri_orth, bi_orth, _, _ in instances:
        *_, V, U, _ = tri_orth
        T = U.T @ dense @ V
        off = np.max(np.abs(T - np.triu(np.tril(T, 1), -1)))
        if off > 1e-10:
            failures.append((trial, "tridiagonal", off))
        *_, V, U, _ = bi_orth
        B = U.T @ dense @ V
        off = np.max(np.abs(B - np.triu(np.tril(B, 1))))
        if off > 1e-10:
            failures.append((trial, "bidiagonal", off))
    check(2, "reduced matrix has the band pattern", failures)


def recurrence_amplification(alphas, betas, gammas=None):
    """Error amplification a_k of each coefficient the recurrence
    computes (c_2 .. c_{K+1}, the seed c_1 excluded).

    The recurrence solves the lower-banded system
    beta_k c_{k+1} + alpha_k c_k + gamma_{k-1} c_{k-1} = b'u_k, with
    beta_k on the diagonal and alpha_k, gamma_{k-1} below it.  Rounding
    of order eps ||A||_F ||x|| committed in each row (the seed's own
    error included, through alpha_1 c_1) reaches c_{k+1} through the
    rows of L^-1, so a_k is the l1 norm of row k of |L^-1|.
    """
    k = len(betas)
    L = np.diag(np.asarray(betas, dtype=float))
    rows = np.arange(k)
    L[rows[1:], rows[:-1]] = alphas[1:k]
    if gammas is not None:
        L[rows[2:], rows[:-2]] = gammas[1:k - 1]
    return np.abs(np.linalg.inv(L)).sum(axis=1)


def test_acceptance_03_coefficient_fidelity():
    rng = np.random.Generator(np.random.PCG64(7003))
    eps = np.finfo(float).eps
    failures = []
    worst = 0.0
    for trial in range(10):
        dense = random_wellcond(rng, 15)
        A = DenseMatrix(dense)
        x_true = rng.standard_normal(15)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        floor = 1e-9 * norm2(x_true)
        rounding = eps * A.frobenius_norm() * norm2(x_true)
        branches = []
        for name in ("tridiagonal", "bidiagonal"):
            cs, V, alphas, betas, gammas = exact_cycle(A, b, v1, c1, 14, name)
            if name == "bidiagonal":
                gammas = None
            branches.append((name, cs, V, recurrence_amplification(
                alphas, betas, gammas)))

        for name, cs, V, amplification in branches:
            # the seed c_1 is a single division: only the floor applies
            bounds = np.maximum(floor, 10.0 * rounding * np.concatenate(
                ([0.0], amplification)))
            for k, c in enumerate(cs):
                err = abs(c - dot(x_true, V[:, k]))
                worst = max(worst, err / bounds[k])
                if err > bounds[k]:
                    failures.append((trial, name, k, err, bounds[k]))
    check(3, "coefficients track the true inner products", failures,
          f"worst err/bound {worst:.3g}")


def test_acceptance_04_exact_solve_at_desk_scale():
    rng = np.random.Generator(np.random.PCG64(7004))
    failures = []
    for trial in range(50):
        n = 20
        A = DenseMatrix(random_wellcond(rng, n))
        x_true = rng.standard_normal(n)
        b = A.apply(x_true)
        v1, c1 = init_from_vector(A, b, b)
        for name in ("tridiagonal", "bidiagonal"):
            # the cycle's default budget of n - 1 steps
            cs, V, _, betas, _ = exact_cycle(A, b, v1, c1, n - 1, name)
            relres = norm2(b - A.apply(V @ cs)) / norm2(b)
            if relres > 1e-9 or len(betas) > n:
                failures.append((trial, name, relres, len(betas)))
    check(4, "one reorthogonalized cycle solves exactly at small scale",
          failures)


# roap_solve keywords of the reproduction runs, keyed by example
# number; an empty dict keeps the library defaults.
REPRODUCTION_OPTIONS = {1: {}, 2: {},
                        3: {"max_restarts": 30},
                        4: {"max_restarts": 300}}


@pytest.fixture(scope="module")
def reproduction_runs():
    """Criteria 5-8 runs at library defaults; keyed by example number."""
    runs = {}
    timings = {}

    t0 = time.perf_counter()
    runs[1] = []
    for nx, ny in ((9, 10), (9, 19), (19, 19)):
        problem = gen_convdiff2d(nx, ny)
        for variant in ("roap2", "roap3"):
            x, report = roap_solve(problem.A, problem.b, variant,
                                   **REPRODUCTION_OPTIONS[1])
            relres = norm2(problem.b - problem.A.apply(x)) / norm2(problem.b)
            runs[1].append((problem, variant, x, report, relres))
    timings[1] = time.perf_counter() - t0

    t0 = time.perf_counter()
    runs[2] = []
    for m in (9, 14):  # interior sizes 208 and 533
        problem = gen_poisson_lshape(m)
        for variant in ("roap2", "roap3"):
            x, report = roap_solve(problem.A, problem.b, variant,
                                   **REPRODUCTION_OPTIONS[2])
            relres = norm2(problem.b - problem.A.apply(x)) / norm2(problem.b)
            runs[2].append((problem, variant, x, report, relres))
    timings[2] = time.perf_counter() - t0

    t0 = time.perf_counter()
    runs[3] = []
    problem = gen_tridiag_unsym(600)
    for variant in ("roap2", "roap3"):
        x, report = roap_solve(problem.A, problem.b, variant,
                               **REPRODUCTION_OPTIONS[3])
        relres = norm2(problem.b - problem.A.apply(x)) / norm2(problem.b)
        runs[3].append((problem, variant, x, report, relres))
    timings[3] = time.perf_counter() - t0

    t0 = time.perf_counter()
    runs[4] = []
    problem = gen_random_dense(300, EXAMPLE4_SEED)
    for variant in ("roap2", "roap3"):
        x, report = roap_solve(problem.A, problem.b, variant,
                               **REPRODUCTION_OPTIONS[4])
        relres = norm2(problem.b - problem.A.apply(x)) / norm2(problem.b)
        runs[4].append((problem, variant, x, report, relres))
    timings[4] = time.perf_counter() - t0

    return runs, timings


def test_acceptance_05_convection_diffusion(reproduction_runs):
    runs, timings = reproduction_runs
    failures = []
    for problem, variant, x, report, relres in runs[1]:
        if relres > 1e-6 or report.restarts > 20:
            failures.append((problem.label, variant, relres, report.restarts))
    if timings[1] >= 30.0:
        failures.append(("runtime", timings[1]))
    check(5, "convection-diffusion meshes solve to 1e-6", failures,
          f"{timings[1]:.2f}s")


def test_acceptance_06_lshape_poisson(reproduction_runs):
    runs, timings = reproduction_runs
    failures = []
    for problem, variant, x, report, relres in runs[2]:
        if relres > 1e-6:
            failures.append((problem.label, variant, relres))
    if timings[2] >= 60.0:
        failures.append(("runtime", timings[2]))
    check(6, "L-shaped Poisson solves to 1e-6", failures,
          f"{timings[2]:.2f}s")


def test_acceptance_07_ill_conditioned_tridiagonal(reproduction_runs):
    runs, timings = reproduction_runs
    failures = []
    for problem, variant, x, report, relres in runs[3]:
        relerr = norm2(x - problem.x_true) / norm2(problem.x_true)
        if relres > 1e-6 or report.restarts > 30 or relerr > 1e-2:
            failures.append((variant, relres, report.restarts, relerr))
    if timings[3] >= 60.0:
        failures.append(("runtime", timings[3]))
    check(7, "ill-conditioned tridiagonal solves with bounded error",
          failures, f"{timings[3]:.2f}s")


def test_acceptance_08_random_dense(reproduction_runs):
    runs, timings = reproduction_runs
    failures = []
    for problem, variant, x, report, relres in runs[4]:
        if relres > 1e-6 or report.restarts > 300:
            failures.append((variant, relres, report.restarts,
                             report.termination))
    if timings[4] >= 120.0:
        failures.append(("runtime", timings[4]))
    check(8, "random dense system solves within the restart budget",
          failures, f"{timings[4]:.2f}s")


def boundary_iterates(problem, variant, options):
    """Re-run one solve and return ``(x, report, iterates)``, where
    ``iterates`` holds the approximation before any work and after each
    restart.

    Every cycle's ``x_partial`` is captured by wrapping the cycle
    functions the driver calls, then summed in the driver's order, so
    the last iterate must equal the returned x bit for bit.
    """
    partials = []

    def capturing(cycle):
        def wrapped(*args, **kwargs):
            result = cycle(*args, **kwargs)
            partials.append(result.x_partial)
            return result
        return wrapped

    with pytest.MonkeyPatch.context() as mp:
        for name in ("oap_cycle_bidiag", "oap_cycle_tridiag"):
            mp.setattr(oaplib.solvers, name,
                       capturing(getattr(oaplib.solvers, name)))
        x, report = roap_solve(problem.A, problem.b, variant, **options)
    iterates = [np.zeros(problem.A.ncols)]
    for partial in partials:
        iterates.append(iterates[-1] + partial)
    return x, report, iterates


def test_acceptance_09_restart_monotonicity(reproduction_runs):
    # Each restart adds c_k v_k along orthonormal v_k with c_k = e'v_k
    # for the current error e, so the error norm cannot grow.  The
    # residual norm legitimately oscillates on the stiff and dense
    # families; its increases are counted for the record only.
    runs, _ = reproduction_runs
    failures = []
    residual_increases = 0
    for example in (1, 2, 3, 4):
        for problem, variant, x, report, relres in runs[example]:
            hist = report.residual_history
            residual_increases += sum(
                after > before * (1 + 1e-8)
                for before, after in zip(hist, hist[1:]))

            x_replay, replay, iterates = boundary_iterates(
                problem, variant, REPRODUCTION_OPTIONS[example])
            if not (np.array_equal(iterates[-1], x_replay)
                    and np.array_equal(x_replay, x)
                    and replay.residual_history == hist):
                failures.append((problem.label, variant, "replay-mismatch"))
                continue
            x_ref = (problem.x_true if problem.x_true is not None
                     else np.linalg.solve(problem.A.to_dense(), problem.b))
            errs = [norm2(it - x_ref) for it in iterates]
            for i, (before, after) in enumerate(zip(errs, errs[1:])):
                if after > before * (1 + 1e-8):
                    failures.append((problem.label, variant, i,
                                     before, after))
    check(9, "error norm non-increasing across restarts", failures,
          f"{len(failures)} error increases, "
          f"{residual_increases} residual increases")


def test_acceptance_10_accumulated_projection_baseline():
    rng = np.random.Generator(np.random.PCG64(7010))
    failures = []
    for trial in range(20):
        n = 10
        A, b, x_true = constructed_problem(rng, n)
        blocks = int(rng.integers(2, 5))
        p, c = ap_init(A, b)
        slack = 1e-12 * norm2(x_true) * norm2(p)
        if abs(c - dot(x_true, p)) > slack:
            failures.append((trial, "init-consistency"))
        partition = BlockPartition.equal_blocks(n, blocks)
        for start, stop in partition.blocks():
            W = np.column_stack([p, A.rows_dense(start, stop).T])
            l = np.concatenate(([c], b[start:stop]))
            p_new, c_new = project_onto(W, l)
            if norm2(p_new) < norm2(p) * (1 - 1e-12):
                failures.append((trial, "projection-shrank", start))
            if norm2(x_true - p_new) > norm2(x_true - p) * (1 + 1e-12):
                failures.append((trial, "error-grew", start))
            slack = 1e-10 * norm2(x_true) * max(norm2(p_new), 1.0)
            if abs(c_new - dot(x_true, p_new)) > slack:
                failures.append((trial, "consistency", start))
            p, c = p_new, c_new
        one_block, _ = ap_sweep(
            ap_factor(A, b, BlockPartition.equal_blocks(n, 1)),
            *ap_init(A, b))
        if norm2(one_block - x_true) > 1e-10 * norm2(x_true):
            failures.append((trial, "single-block-recovery"))
    check(10, "block projection baseline invariants", failures)


def test_acceptance_11_oracle_equivalence():
    rng = np.random.Generator(np.random.PCG64(7011))
    failures = []
    for trial in range(50):
        n = int(rng.integers(6, 15))
        m = int(rng.integers(1, n))
        W = rng.standard_normal((n, m))
        l = W.T @ rng.standard_normal(n)
        p, c = project_onto(W, l)
        p_ref, c_ref = oracle_projection(W, l)
        scale = max(norm2(p_ref), 1.0)
        if norm2(p - p_ref) > 1e-10 * scale or abs(c - c_ref) > 1e-10 * scale:
            failures.append((trial, "projection", norm2(p - p_ref)))
    for trial in range(100):
        n = int(rng.integers(5, 30))
        A = (random_sparse(rng, n) if trial % 2 == 0
             else DenseMatrix(rng.standard_normal((n, n))))
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        lhs = dot(u, A.apply(v))
        rhs = dot(A.apply_transpose(u), v)
        bound = 1e-12 * norm2(u) * norm2(v) * A.frobenius_norm()
        if abs(lhs - rhs) > bound:
            failures.append((trial, "adjoint", abs(lhs - rhs)))
    check(11, "projection and transpose agree with independent oracles",
          failures)
