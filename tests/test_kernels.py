"""The compiled kernels of ``oaplib._kernels`` against the NumPy formulas
they replaced, byte for byte, and their guards, build and import.

The library calls the vector kernels on C pointers into its cycle's
blocks; ``half_step``, ``dots`` and ``axpy`` below call them on arrays,
each checked by ``oaplib._kernels.vector``, for these tests."""

import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.sparse

import oaplib
import oaplib._kernels as kernels
from oaplib import (CsrMatrix, DenseMatrix, DimensionMismatch,
                    gen_convdiff2d, oap_cycle_bidiag, oap_cycle_tridiag,
                    roap_solve)
from oaplib.reductions import bidiag_step, breakdown_floor, tridiag_step

from conftest import random_wellcond, reduction_steps, window_step

# every length below 16 and 17 (the SIMD widths and their tails), paper
# scale (convdiff 19x19) and the large tier (convdiff 200x200)
LENGTHS = list(range(18)) + [361, 40_000]
REFUSED = (TypeError, ValueError, DimensionMismatch)


def same(got, want):
    """Byte equality of two arrays or two floats."""
    return (np.asarray(got, dtype=np.float64).tobytes()
            == np.asarray(want, dtype=np.float64).tobytes())


def vectors(n, count, seed):
    """``count`` random vectors of n entries with a few signed zeros."""
    rng = np.random.Generator(np.random.PCG64(seed))
    out = []
    for _ in range(count):
        v = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4, n)
        v[rng.random(n) < 0.1] = -0.0
        v[rng.random(n) < 0.1] = 0.0
        out.append(v)
    return out


def guarded(values, pad=8):
    """``values`` copied into the middle of a NaN-padded buffer: returns
    the contiguous view and the buffer, so that a kernel that reads past
    either end picks up a NaN and one that writes there changes a guard."""
    buf = np.full(len(values) + 2 * pad, np.nan)
    view = buf[pad:pad + len(values)]
    view[:] = values
    return view, buf


def guards_intact(buf, n, pad=8):
    return np.isnan(buf[:pad]).all() and np.isnan(buf[pad + n:]).all()


# --- the kernels on arrays ------------------------------------------------

def half_step(a, x, s, y, t, floor, out):
    """out = (a - x s) - y t, each term skipped when its vector is None
    (both when x is); then norm = ||out||, and out /= norm when norm is
    finite and above ``floor``.  Returns norm.  ``out`` may be ``a``
    itself; x and y share no memory with it."""
    n = len(a)
    out_c = kernels.vector(out, n, writable=True)
    return kernels.lib.oap_half_step(
        n, out_c if out is a else kernels.vector(a, n),
        kernels.ffi.NULL if x is None else kernels.vector(x, n), s,
        kernels.ffi.NULL if y is None else kernels.vector(y, n), t, floor,
        out_c)


def dots(x, v):
    """``(x'x, x'v)`` in one call."""
    n = len(x)
    d = kernels.lib.oap_dots(n, kernels.vector(x, n), kernels.vector(v, n))
    return d.xx, d.xv


def axpy(x, c, v):
    """x + v c as a new array."""
    n = len(x)
    out = np.empty(n)
    kernels.lib.oap_axpy(n, kernels.vector(x, n), c, kernels.vector(v, n),
                         kernels.vector(out, n, writable=True))
    return out


# --- the NumPy formulas the kernels replaced ------------------------------

def numpy_half_step(a, x, s, y, t, floor):
    """(out, norm) as NumPy formed one half of a step."""
    out = a.copy() if x is None else np.subtract(a, np.multiply(x, s))
    if y is not None:
        np.subtract(out, np.multiply(y, t), out=out)
    norm = math.sqrt(out.dot(out))
    if math.isfinite(norm) and norm > floor:
        np.divide(out, norm, out=out)
    return out, norm


def numpy_residual_update(ax, av, c, rhs):
    """(ax, res, res'res) as the cycle formed them."""
    ax, res = ax.copy(), np.empty_like(rhs)
    np.add(ax, np.multiply(av, c, out=res), out=ax)
    np.subtract(rhs, ax, out=res)
    return ax, res, res.dot(res)


def numpy_tridiag_step(A, k, floor, v_prev, v, u_prev, u, beta_prev,
                       gamma_prev):
    av = A.apply(v)
    alpha = float(u.dot(av))
    w = np.subtract(av, np.multiply(u, alpha))
    if beta_prev != 0.0:
        np.subtract(w, np.multiply(u_prev, beta_prev), out=w)
    gamma = math.sqrt(w.dot(w))
    next_u = None if gamma <= floor else np.divide(w, gamma, out=w)
    q = A.apply_transpose(u)
    np.subtract(q, np.multiply(v, alpha), out=q)
    if gamma_prev != 0.0:
        np.subtract(q, np.multiply(v_prev, gamma_prev), out=q)
    beta = math.sqrt(q.dot(q))
    next_v = None if beta <= floor else np.divide(q, beta, out=q)
    return av, alpha, beta, gamma, next_v, next_u


def numpy_bidiag_step(A, k, floor, v, u_prev, beta_prev):
    av = A.apply(v)
    w = av if beta_prev == 0.0 else np.subtract(
        av, np.multiply(u_prev, beta_prev))
    alpha = math.sqrt(w.dot(w))
    if alpha <= floor:
        return av, alpha, 0.0, 0.0, None, None
    u = np.divide(w, alpha)
    q = A.apply_transpose(u)
    np.subtract(q, np.multiply(v, alpha), out=q)
    beta = math.sqrt(q.dot(q))
    next_v = None if beta <= floor else np.divide(q, beta, out=q)
    return av, alpha, beta, 0.0, next_v, u


def dia_operator(n_row, n_col, seed):
    """Random DIA arrays (offsets ascending, zeros in the band) of an
    n_row x n_col operator, as ``CsrMatrix._diagonals`` lays them out."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = -max(n_row - 1, 0), max(n_col - 1, 0)
    count = min(5, hi - lo + 1)
    offsets = np.sort(rng.choice(np.arange(lo, hi + 1), count, replace=False))
    data = rng.standard_normal((count, n_col))
    data[rng.random(data.shape) < 0.1] = 0.0
    return offsets.astype(np.int32), data


def scipy_dia_matvec(n_row, n_col, offsets, data, x):
    y = np.zeros(n_row)
    scipy.sparse._sparsetools.dia_matvec(n_row, n_col, len(offsets), n_col,
                                         offsets, data, x, y)
    return y


def c_dia_matvec(n_row, n_col, offsets, data, x, y):
    kernels.dia_matvec(*kernels.dia_args(n_row, offsets, data), x, y)


# --- bits -----------------------------------------------------------------

class TestSameBits:
    @pytest.mark.parametrize("terms", ["a", "a - x s", "a - x s - y t"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_half_step(self, n, terms):
        a, x, y = vectors(n, 3, seed=n)
        x = None if terms == "a" else x
        y = y if terms == "a - x s - y t" else None
        for floor in (0.0, 1e-300):
            out = np.empty(n)
            norm = half_step(a, x, 0.7, y, -1.3, floor, out)
            want, want_norm = numpy_half_step(a, x, 0.7, y, -1.3, floor)
            assert same(norm, want_norm) and same(out, want)
            # in place, as a step turns A'u into its next v
            inplace = a.copy()
            norm = half_step(inplace, x, 0.7, y, -1.3, floor, inplace)
            assert same(norm, want_norm) and same(inplace, want)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_residual_update(self, n):
        ax, av, rhs = vectors(n, 3, seed=100 + n)
        want_ax, want_res, want_rr = numpy_residual_update(ax, av, -0.37, rhs)
        res = np.empty(n)
        rr = kernels.lib.oap_residual_update(
            n, kernels.vector(ax, n, writable=True), kernels.vector(av, n),
            -0.37, kernels.vector(rhs, n), kernels.vector(res, n, True))
        assert same(rr, want_rr) and same(ax, want_ax) and same(res, want_res)

    @pytest.mark.parametrize("n", LENGTHS)
    def test_dots_and_axpy(self, n):
        x, v = vectors(n, 2, seed=200 + n)
        xx, xv = dots(x, v)
        assert same(xx, x.dot(x)) and same(xv, x.dot(v))
        assert same(axpy(x, 1.7, v), x + np.multiply(v, 1.7))

    def test_dots_of_signed_zeros(self):
        # ndarray.dot returns the lone product for one entry and 0.0 plus
        # ddot for more, so a -0.0 product survives only in the first
        for n in (1, 2, 3, 17):
            x, v = np.full(n, -0.0), np.ones(n)
            assert same(dots(x, v), (x.dot(x), x.dot(v)))
            assert same(dots(v, x), (v.dot(v), v.dot(x)))

    @pytest.mark.parametrize("n", LENGTHS)
    def test_dia_matvec_matches_scipy(self, n):
        for n_row, n_col in ((n, n), (n, n + 3), (n + 3, n)):
            offsets, data = dia_operator(n_row, n_col, seed=300 + n)
            (x,) = vectors(n_col, 1, seed=400 + n)
            y = np.full(n_row, np.nan)  # every entry is written
            c_dia_matvec(n_row, n_col, offsets, data, x, y)
            assert same(y, scipy_dia_matvec(n_row, n_col, offsets, data, x))

    def test_dia_matvec_across_blocks(self):
        # diagonals far enough out to start and end inside other blocks
        # of 512 rows than their first and last entry's row
        n = 3000
        offsets = np.array([-1500, -513, -1, 0, 1, 511, 2999], dtype=np.int32)
        data = np.random.Generator(np.random.PCG64(5)).standard_normal(
            (len(offsets), n))
        (x,) = vectors(n, 1, seed=6)
        y = np.empty(n)
        c_dia_matvec(n, n, offsets, data, x, y)
        assert same(y, scipy_dia_matvec(n, n, offsets, data, x))

    OPERATORS = {
        "convdiff 9x10": lambda rng: gen_convdiff2d(9, 10).A,
        "convdiff 60x60": lambda rng: gen_convdiff2d(60, 60).A,
        "dense 30": lambda rng: DenseMatrix(random_wellcond(rng, 30)),
        "scattered 40": lambda rng: CsrMatrix.from_dense(
            np.where(rng.random((40, 40)) < 0.2,
                     rng.standard_normal((40, 40)), 0.0)),
    }

    @pytest.mark.parametrize("two_sided", [True, False],
                             ids=["tridiag", "bidiag"])
    @pytest.mark.parametrize("name", OPERATORS)
    def test_steps_match_the_numpy_steps(self, rng, name, two_sided):
        A = self.OPERATORS[name](rng)
        v1 = rng.standard_normal(A.ncols)
        v1 /= np.linalg.norm(v1)
        floor = breakdown_floor(A)
        steps = 0
        for k, (v_prev, v, u_prev, u, beta, gamma), out in reduction_steps(
                A, v1, v1 if two_sided else None, 60):
            if two_sided:
                want = numpy_tridiag_step(A, k, floor, v_prev, v, u_prev, u,
                                          beta, gamma)
            else:
                want = numpy_bidiag_step(A, k, floor, v, u, beta)
            for got, ref in zip(out, want):
                assert (got is None) == (ref is None)
                if ref is not None:
                    assert same(got, ref)
            steps += 1
        assert steps > 10


class TestBranches:
    def test_breakdown_leaves_out_undivided(self):
        a, x = vectors(9, 2, seed=7)
        want, norm = numpy_half_step(a, x, 0.5, None, 0.0, math.inf)
        out = np.empty(9)
        # at the floor: a breakdown, so no division
        got = half_step(a, x, 0.5, None, 0.0, norm, out)
        assert same(got, norm) and same(out, want)
        assert same(out, a - x * 0.5)

    @pytest.mark.parametrize("case", ["inf", "nan"])
    def test_non_finite_norm_leaves_out_undivided(self, case):
        a = np.array([1e308, 2.0, -1e308])
        x = np.array([1e308, 1.0, 0.0])
        # inf: 1e308 - 1e308 * -10 overflows; nan: inf - inf
        s, y = (-10.0, None) if case == "inf" else (-10.0, x)
        out = np.empty(3)
        norm = half_step(a, x, s, y, 10.0, 0.0, out)
        with np.errstate(over="ignore", invalid="ignore"):
            want, want_norm = numpy_half_step(a, x, s, y, 10.0, 0.0)
        assert math.isinf(norm) if case == "inf" else math.isnan(norm)
        assert same(norm, want_norm) and same(out, want)

    def test_no_x_skips_both_terms(self):
        # y is not read without x, so a stray y cannot reach NULL x
        a, y = vectors(9, 2, seed=10)
        out = np.empty(9)
        norm = half_step(a, None, 0.5, y, 0.25, 0.0, out)
        want, want_norm = numpy_half_step(a, None, 0.5, None, 0.0, 0.0)
        assert same(norm, want_norm) and same(out, want)

    def test_bidiag_u_breakdown_builds_no_v(self):
        # A v = 0: alpha is 0, at the floor, and no A'u is formed
        A = DenseMatrix(np.diag([1.0, 0.0]))
        av, alpha, beta, gamma, next_v, next_u = window_step(
            A, 1, breakdown_floor(A), (None, np.array([0.0, 1.0]), None, None,
                                       0.0, 0.0), False)
        assert alpha == beta == gamma == 0.0
        assert next_v is None and next_u is None


# --- guards ---------------------------------------------------------------

def bad_vectors(n):
    return {"float32": np.ones(n, dtype=np.float32),
            "int64": np.ones(n, dtype=np.int64),
            "strided": np.ones(2 * n)[::2],
            "short": np.ones(n - 1),
            "2-D": np.ones((n, 1))}


def same_values(vec, kind):
    """``vec``'s values as the malformed array ``kind`` of ``bad_vectors``
    (its values exact in float32 and int64), or cut short or made 2-D."""
    if kind == "float32":
        return vec.astype(np.float32)
    if kind == "int64":
        return vec.astype(np.int64)
    if kind == "strided":
        buf = np.zeros(2 * len(vec))
        buf[::2] = vec
        return buf[::2]
    return vec[:-1] if kind == "short" else vec[:, None]


STEP_ROWS = {"tridiag": ("v_prev", "v", "u_prev", "u", "next_v", "next_u",
                         "av"),
             "bidiag": ("v", "u_prev", "next_v", "next_u", "av")}


def run_step(A, engine, pairs):
    """Step 2 of ``engine`` on the row pairs named as in ``STEP_ROWS``,
    with nonzero trailing norms, so that it reads every row."""
    floor = breakdown_floor(A)
    if engine == "tridiag":
        return tridiag_step(A, 2, floor, *(pairs[name] for name in
                                           ("v_prev", "v", "u_prev", "u")),
                            0.5, 0.25, pairs["next_v"], pairs["next_u"],
                            pairs["av"])
    return bidiag_step(A, 2, floor, pairs["v"], pairs["u_prev"], 0.5,
                       pairs["next_v"], pairs["next_u"], pairs["av"])


class TestGuards:
    """The kernels read and write only rows of the blocks the cycle makes
    (``oaplib._kernels.rows``) and vectors ``oaplib._kernels.vector`` has
    checked: a vector that is not a C-contiguous float64 array of the
    expected length is refused, or copied into one, before any kernel
    runs, and the kernels stay within the vectors they are given."""

    @pytest.mark.parametrize("cycle", [oap_cycle_bidiag, oap_cycle_tridiag])
    @pytest.mark.parametrize("slot", ["v1", "rhs"])
    @pytest.mark.parametrize("bad", list(bad_vectors(4)))
    def test_cycle_runs_on_checked_copies(self, cycle, slot, bad):
        # a vector of another dtype or layout runs as its contiguous
        # float64 copy, with the same bits; another shape is refused
        A = gen_convdiff2d(4, 5).A
        v1 = np.zeros(A.ncols)
        v1[3] = 1.0
        rhs = np.ones(A.nrows)
        want = cycle(A, rhs, v1, 0.5)
        args = {"v1": v1, "rhs": rhs}
        args[slot] = same_values(args[slot], bad)
        if bad in ("short", "2-D"):
            with pytest.raises(DimensionMismatch):
                cycle(A, args["rhs"], args["v1"], 0.5)
            return
        got = cycle(A, args["rhs"], args["v1"], 0.5)
        assert got.x_partial.tobytes() == want.x_partial.tobytes()
        assert got[1:] == want[1:]

    @pytest.mark.parametrize("length", ["short", "long"])
    @pytest.mark.parametrize("engine, slot",
                             [(e, s) for e, names in STEP_ROWS.items()
                              for s in names])
    def test_step_refuses_a_row_of_another_length(self, engine, slot,
                                                  length):
        # the kernels would read or write past the end of a short row's
        # block: the step refuses it before it writes into any row
        A = gen_convdiff2d(4, 5).A
        n = A.nrows
        names = STEP_ROWS[engine]
        pairs = dict(zip(names, kernels.rows(len(names), n)))
        pairs[slot] = kernels.rows(1, n - 1 if length == "short" else n + 1)[0]
        for (row, _), values in zip(pairs.values(),
                                    vectors(n + 1, len(names), seed=11)):
            row[:] = values[:len(row)]
        before = [row.tobytes() for row, _ in pairs.values()]
        with pytest.raises(DimensionMismatch, match=f"{engine}_step"):
            run_step(A, engine, pairs)
        assert [row.tobytes() for row, _ in pairs.values()] == before

    def test_bidiag_step_rows_follow_the_sides(self, rng):
        # rectangular A: the u-side rows and av have A's row count, the
        # v-side rows its column count; the other way round is refused
        A = DenseMatrix(random_wellcond(rng, 6)[:, :4])
        names = STEP_ROWS["bidiag"]
        sides = {"v": 4, "u_prev": 6, "next_v": 4, "next_u": 6, "av": 6}
        pairs = {name: kernels.rows(1, sides[name])[0] for name in names}
        pairs["v"][0][:] = np.eye(4)[0]
        pairs["u_prev"][0][:] = 1.0 / math.sqrt(6)
        alpha, beta, _ = run_step(A, "bidiag", pairs)
        assert alpha > 0.0 and beta > 0.0
        swapped = {name: kernels.rows(1, 10 - sides[name])[0]
                   for name in names}
        with pytest.raises(DimensionMismatch):
            run_step(A, "bidiag", swapped)

    @pytest.mark.parametrize("bad", list(bad_vectors(4)) + ["read-only"])
    def test_vector_refuses(self, bad):
        n = 4
        a = np.ones(n)
        if bad == "read-only":
            a.flags.writeable = False
        else:
            a = bad_vectors(n)[bad]
        with pytest.raises(REFUSED):
            kernels.vector(a, n, writable=True)

    @pytest.mark.parametrize("count, n", [(1, 1), (3, 17), (6, 361), (5, 0)])
    def test_each_row_pointer_addresses_its_row(self, count, n):
        pairs = kernels.rows(count, n)
        block = pairs[0][0].base
        assert block.shape == (count, n)
        for i, (row, _) in enumerate(pairs):
            assert row.base is block and row.shape == (n,)
            assert row.__array_interface__["data"] == \
                block[i].__array_interface__["data"]
            row[:] = np.arange(n) + 100.0 * i
        for i, (row, ptr) in enumerate(pairs):
            xx = kernels.lib.oap_dots(n, ptr, ptr).xx
            assert same(xx, row.dot(row))
        # copy the last row into the first through their pointers (no
        # term, no division): only the first row changes
        want = block.copy()
        want[0] = want[-1]
        kernels.lib.oap_half_step(n, pairs[-1][1], kernels.ffi.NULL, 0.0,
                                  kernels.ffi.NULL, 0.0, math.inf,
                                  pairs[0][1])
        assert same(block, want)

    @pytest.mark.parametrize("bad", list(bad_vectors(4)) + ["read-only"])
    def test_half_step_refuses_before_writing(self, bad):
        n = 12
        a, x, y = vectors(n, 3, seed=8)
        out, buf = guarded(np.zeros(n))
        before = buf.tobytes()
        if bad == "read-only":
            out.flags.writeable = False
        else:
            x = bad_vectors(n)[bad]
        with pytest.raises(REFUSED):
            half_step(a, x, 0.5, y, 0.25, 0.0, out)
        assert buf.tobytes() == before

    def test_dia_arrays_of_another_type_are_refused(self):
        # C arrays over them would reinterpret their bytes
        offsets, data = dia_operator(6, 6, seed=9)
        for bad in ((offsets.astype(np.int64), data),
                    (offsets, data.astype(np.float32)),
                    (offsets[:-1], data)):
            with pytest.raises(TypeError):
                kernels.dia_args(6, *bad)
        with pytest.raises(ValueError, match="contiguous"):
            kernels.dia_args(6, offsets, np.asfortranarray(data))

    @pytest.mark.parametrize("n", list(range(18)) + [361])
    def test_kernels_stay_in_bounds(self, n):
        # every vector sits between NaN guards: a read past an end would
        # put a NaN into a result, a write past one would change a guard
        a, x, y, v = (guarded(w)[0] for w in vectors(n, 4, seed=500 + n))
        out, out_buf = guarded(np.zeros(n))
        norm = half_step(a, x, 0.5, y, 0.25, 0.0, out)
        want, want_norm = numpy_half_step(a, x, 0.5, y, 0.25, 0.0)
        assert same(norm, want_norm) and same(out, want)
        assert guards_intact(out_buf, n)
        assert same(dots(x, v), (x.dot(x), x.dot(v)))
        assert same(axpy(x, 0.5, v), x + np.multiply(v, 0.5))
        ax, ax_buf = guarded(a)
        res, res_buf = guarded(np.zeros(n))
        want_ax, want_res, want_rr = numpy_residual_update(ax, v, 0.5, y)
        rr = kernels.lib.oap_residual_update(
            n, kernels.vector(ax, n, True), kernels.vector(v, n), 0.5,
            kernels.vector(y, n), kernels.vector(res, n, True))
        assert same(rr, want_rr) and same(ax, want_ax) and same(res, want_res)
        assert guards_intact(ax_buf, n) and guards_intact(res_buf, n)
        offsets, data = dia_operator(n, n + 2, seed=600 + n)
        xd = guarded(vectors(n + 2, 1, seed=700 + n)[0])[0]
        yd, yd_buf = guarded(np.zeros(n))
        c_dia_matvec(n, n + 2, offsets, data, xd, yd)
        assert same(yd, scipy_dia_matvec(n, n + 2, offsets, data, xd))
        assert guards_intact(yd_buf, n)


# --- threads --------------------------------------------------------------

def test_threads_sharing_an_operator_match_sequential_solves():
    # cffi drops the interpreter lock around each kernel; threads that
    # share one operator (and its C arrays) must not disturb each other
    problem = gen_convdiff2d(19, 19)
    A, b = problem.A, problem.b
    variants = ("roap2", "roap3")
    want = {v: roap_solve(A, b, v) for v in variants}
    results, errors = [], []
    barrier = threading.Barrier(4)

    def run(variant):
        try:
            barrier.wait(timeout=30)
            for _ in range(2):
                results.append((variant, roap_solve(A, b, variant)))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(v,))
                   for v in variants * 2]
        for t in threads:
            t.start()
        for t in threads:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(results) == 8
    for variant, (x, report) in results:
        x_want, report_want = want[variant]
        assert x.tobytes() == x_want.tobytes()
        assert report == report_want


# --- build and import -----------------------------------------------------

def run_python(code):
    src = os.path.dirname(os.path.dirname(oaplib.__file__))
    return subprocess.run([sys.executable, "-c", code, src], check=True,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_builder():
    # the module is built (this process imported oaplib), so a fresh
    # interpreter only loads it: cffi's builder, setuptools and pycparser
    # stay out, and only cffi's runtime backend comes in
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import oaplib; "
            "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] "
            "in ('cffi', 'setuptools', 'distutils', 'pycparser'))), "
            "'_cffi_backend' in sys.modules)")
    assert run_python(code).stdout.split() == ["True"]


def test_module_name_tracks_source_flags_and_cpu(monkeypatch, tmp_path):
    name = kernels.module_name()
    assert name == kernels._module.__name__.rpartition(".")[2]
    source = tmp_path / "_kernels.c"
    with open(kernels._SOURCE) as f:
        source.write_text(f.read() + "\n/* edited */\n")
    monkeypatch.setattr(kernels, "_SOURCE", str(source))
    edited = kernels.module_name()
    monkeypatch.undo()
    monkeypatch.setattr(kernels, "_cpu_flags", lambda: "flags : sse2\n")
    other_cpu = kernels.module_name()
    monkeypatch.undo()
    monkeypatch.setattr(kernels, "FLAGS", kernels.FLAGS + ("-O1",))
    other_flags = kernels.module_name()
    assert len({name, edited, other_cpu, other_flags}) == 4


def test_build_writes_the_module_and_no_leftovers(tmp_path, monkeypatch):
    # the caller's CFLAGS stay out: the module's name hashes no flag of
    # theirs (a gcc given this one fails)
    monkeypatch.setenv("CFLAGS", "-fno-such-flag-here")
    path = kernels._build(kernels._SOURCE, "_kernels_test", str(tmp_path))
    assert os.path.dirname(path) == str(tmp_path)
    assert os.listdir(tmp_path) == [os.path.basename(path)]
    assert os.path.basename(path).startswith("_kernels_test.")


def test_broken_source_raises_import_error_with_the_compiler_message(
        tmp_path):
    source = tmp_path / "broken.c"
    source.write_text('#include "_kernels.h"\n'
                      'double oap_missing_semicolon(void) { return 1.0 }\n')
    with pytest.raises(ImportError) as err:
        kernels._build(str(source), "_kernels_broken", str(tmp_path))
    message = str(err.value)
    assert "error" in message and "oap_missing_semicolon" in message
    assert os.listdir(tmp_path) == ["broken.c"]  # no module, no temp dir
