"""The compiled kernels of ``oaplib._kernels`` against the NumPy and
scipy formulas they replaced, byte for byte, and their guards, build and
import.

The library calls the vector kernels on C pointers into its cycle's
blocks; ``half_step`` and ``cycle_advance`` call them the same way, on
rows of a block laid out by ``guarded_rows``, and check that they stay
within them.  ``oap_cycle_advance``, the cycle's work between two
steps, is checked against conftest's ``numpy_cycle_advance``.  The
products run over operator descriptors: scipy's ``dia_matvec``,
``csr_matvec`` and ``csc_matvec`` and ``np.matmul`` are their oracles.  The compiled steps are checked
against conftest's NumPy steps, which share nothing with them but the
operator's products, on rows laid out by conftest's ``step_on_rows``.
Products and steps above ``OAP_WORKER_MIN_WORK`` run on the kernels'
worker thread too; their tests check, through ``oap_worker_counts``,
that jobs were posted, and that the bits are the sequential ones, under
concurrent solves and in a forked child."""

import gc
import math
import os
import select
import signal
import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse

import oaplib._kernels as kernels
from oaplib import (BlockPartition, CsrMatrix, DenseMatrix, DimensionMismatch,
                    ap_solve, gen_convdiff2d, gen_tridiag_unsym,
                    oap_cycle_bidiag, oap_cycle_tridiag, roap_solve)
from oaplib.reductions import bidiag_step, breakdown_floor, tridiag_step

from conftest import (numpy_bidiag_step, numpy_cycle_advance, numpy_half_step,
                      numpy_tridiag_step, random_sparse, random_wellcond,
                      reduction_steps, run_python, step_on_rows, window_step)

# every length below 16 and 17 (the SIMD widths and their tails), paper
# scale (convdiff 19x19) and the large tier (convdiff 200x200)
LENGTHS = list(range(18)) + [361, 40_000]
# banded products of five diagonals above the worker's threshold: an odd
# length, and an even one that is no multiple of the 512-entry DIA
# block, so that neither the midpoint nor the end falls on a block edge
SPLIT_LENGTHS = [12_001, 12_290]


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


# --- the kernels on rows --------------------------------------------------

def guarded_rows(n, *arrays, pad=8):
    """Copies of ``arrays`` (each of n entries, or None) in rows of one
    new block (``oaplib._kernels.rows``), as the cycle hands its vectors
    to the kernels.  Each row has ``pad`` more entries than n, all NaN,
    and each array's row lies between two rows of NaN, so every array
    has at least ``pad`` NaN on each side, whatever n (0 included): a
    kernel that reads past an array's end picks up a NaN, and one that
    writes there changes a NaN, which ``rows_intact`` reports.  Returns
    the block and one pair ``(row, pointer)`` per array, the row its n
    entries, ``(None, NULL)`` for None."""
    pairs = kernels.rows(2 * len(arrays) + 1, n + pad)
    block = pairs[0][0].base
    block.fill(np.nan)
    out = []
    for (row, ptr), a in zip(pairs[1::2], arrays):
        if a is None:
            row, ptr = None, kernels.ffi.NULL
        else:
            row = row[:n]
            row[:] = a
        out.append((row, ptr))
    return block, out


def rows_intact(block, pad=8):
    """Whether every NaN of a ``guarded_rows`` block is still NaN: its
    NaN rows and the last ``pad`` entries of every row."""
    return bool(np.isnan(block[::2]).all()
                and np.isnan(block[:, block.shape[1] - pad:]).all())


def half_step(a, x, s, y, t, floor, out):
    """out = (a - x s) - y t, each term skipped when its vector is None
    (both when x is); then norm = ||out||, and out /= norm when norm is
    finite and above ``floor``.  Returns norm.  The compiled
    ``oap_half_step`` on ``guarded_rows`` copies of the arrays, which it
    must stay within; when ``out`` is ``a`` itself, it works in place on
    a's row, as a step turns A'u into its next v.  x and y share no
    memory with ``out``."""
    n = len(a)
    block, ((a_row, a_c), (_, x_c), (_, y_c), (out_row, out_c)) = \
        guarded_rows(n, a, x, y,
                     None if out is a else np.full(n, np.nan))
    if out is a:
        out_row, out_c = a_row, a_c
    norm = kernels.lib.oap_half_step(n, a_c, x_c, s, y_c, t, floor, out_c)
    assert rows_intact(block)
    out[:] = out_row
    return norm


# --- the cycle's work between two steps -----------------------------------

U_ROWS = ("ax", "av", "rhs", "res", "u")  # A's row count
X_ROWS = ("x", "next_v", "x_next")  # A's column count
CYCLE_FIELDS = ("two_sided", "floor", "limit", "c_prev", "c_curr", "c_abs",
                "c_sq", "best_res", "res_norm", "improved")


def cycle_advance(state, rows, alpha, beta, gamma_prev):
    """The compiled ``oap_cycle_advance`` over a state of ``state``'s
    fields (``CYCLE_FIELDS``) and ``guarded_rows`` copies of ``rows``
    (the arrays ``U_ROWS`` and ``X_ROWS``), which it must stay within.
    Returns the stop code, the state's fields as a dict and every row
    after the call, as a new array."""
    m, n = len(rows["ax"]), len(rows["x"])
    u_block, u_pairs = guarded_rows(m, *(rows[name] for name in U_ROWS))
    x_block, x_pairs = guarded_rows(n, *(rows[name] for name in X_ROWS))
    pairs = dict(zip(U_ROWS + X_ROWS, u_pairs + x_pairs))
    ptr = {name: p for name, (_, p) in pairs.items()}
    s = kernels.ffi.new("oap_cycle_t *", dict(
        state, nrows=m, ncols=n, ax=ptr["ax"], av=ptr["av"], rhs=ptr["rhs"],
        res=ptr["res"]))
    stop = kernels.lib.oap_cycle_advance(s, alpha, beta, gamma_prev, ptr["u"],
                                         ptr["x"], ptr["next_v"],
                                         ptr["x_next"])
    assert rows_intact(u_block) and rows_intact(x_block)
    return (stop, {name: getattr(s, name) for name in CYCLE_FIELDS},
            {name: row.copy() for name, (row, _) in pairs.items()})


def compare_advance(state, rows, alpha, beta, gamma_prev):
    """``cycle_advance`` against conftest's ``numpy_cycle_advance`` on
    copies of one state and one set of rows: the same stop code, and the
    same bits in every field and every row, so the kernel writes only
    the rows the reference writes (``ax``, ``res`` and ``x_next``).
    Returns the kernel's ``(stop, state, rows)``."""
    got = cycle_advance(state, rows, alpha, beta, gamma_prev)
    want_state = dict(state)
    want_rows = {name: a.copy() for name, a in rows.items()}
    stop = numpy_cycle_advance(want_state, want_rows, alpha, beta, gamma_prev)
    assert got[0] == stop
    for name in CYCLE_FIELDS:
        assert same(got[1][name], want_state[name]), name
    for name in rows:
        assert same(got[2][name], want_rows[name]), name
    return got


def cycle_state(two_sided, **fields):
    """The fields of a cycle state, ``fields`` over defaults under which
    no test but the angle test can stop the cycle."""
    return dict({"two_sided": two_sided, "floor": 1e-12, "limit": math.inf,
                 "c_prev": 0.3, "c_curr": -1.1, "c_abs": 2.0, "c_sq": 1.5,
                 "best_res": math.inf, "res_norm": 0.0, "improved": 0},
                **fields)


def cycle_rows(m, n, seed, orthogonal):
    """Random rows of a cycle of A's row count m and column count n,
    ``res`` and ``x_next`` NaN; next_v made orthogonal to x (twice, to
    rounding) when ``orthogonal``, so that the angle test passes."""
    ax, av, rhs, u = vectors(m, 4, seed)
    x, v = vectors(n, 2, seed + 1)
    if orthogonal and x.any():
        for _ in range(2):
            v = v - x * (x.dot(v) / x.dot(x))
    return {"ax": ax, "av": av, "rhs": rhs, "res": np.full(m, np.nan),
            "u": u, "x": x, "next_v": v, "x_next": np.full(n, np.nan)}


def compare_steps(A, k, window, two_sided, floor=None):
    """Step k of the library's engine and of its NumPy oracle on one
    window, each run by ``step_on_rows``: the same scalars, or the same
    stop, and the same bytes in every row before and after.  Returns
    the library step's ``(out, before, after)``."""
    if floor is None:
        floor = breakdown_floor(A)
    steps = ((tridiag_step, numpy_tridiag_step) if two_sided
             else (bidiag_step, numpy_bidiag_step))
    got, ref = (step_on_rows(A, k, floor, window, two_sided, step)
                for step in steps)
    assert got == ref
    return got


def compared_steps(A, v1, two_sided, steps):
    """Up to ``steps`` of the library's reduction from v1 (two-sided from
    u1 = v1), each step passed through ``compare_steps`` on the window
    it read; returns how many steps ran."""
    count = 0
    for k, window, _ in reduction_steps(A, v1, v1 if two_sided else None,
                                        steps):
        compare_steps(A, k, window, two_sided)
        count += 1
    return count


def decades(rng, shape):
    """Random entries over 13 decades, so that the order in which a sum
    adds them shows in its rounding."""
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)


def dia_operator(n_row, n_col, seed):
    """Random DIA arrays (offsets ascending, zeros in the band) of an
    n_row x n_col operator, as ``CsrMatrix._diagonals`` lays them out."""
    rng = np.random.Generator(np.random.PCG64(seed))
    lo, hi = -max(n_row - 1, 0), max(n_col - 1, 0)
    count = min(5, hi - lo + 1)
    offsets = np.sort(rng.choice(np.arange(lo, hi + 1), count, replace=False))
    data = decades(rng, (count, n_col))
    data[rng.random(data.shape) < 0.1] = 0.0
    return offsets.astype(np.int32), data


def transposed_dia(n_row, n_col, offsets, data):
    """The DIA arrays of M' for the n_row x n_col M of ``offsets`` and
    ``data``: diagonal -k of M' is M's k, shifted to M's row index, with
    n_row slots; offsets ascending."""
    d = len(offsets)
    data_t = np.zeros((d, n_row))
    for i, k in enumerate(offsets.tolist()):
        lo, hi = max(k, 0), min(n_row + k, n_col)  # M's columns on k
        data_t[d - 1 - i, lo - k:hi - k] = data[i, lo:hi]
    return -offsets[::-1], data_t


def scipy_dia_matvec(n_row, n_col, offsets, data, x, transpose=False):
    """M x, or M'x when ``transpose``, by scipy's ``dia_matvec``, over
    ``transposed_dia``'s arrays of M' for M'x."""
    if transpose:
        offsets, data = transposed_dia(n_row, n_col, offsets, data)
        n_row, n_col = n_col, n_row
    y = np.zeros(n_row)
    scipy.sparse._sparsetools.dia_matvec(n_row, n_col, len(offsets), n_col,
                                         offsets, data, x, y)
    return y


def c_dia_matvec(n_row, n_col, offsets, data, x, y, transpose=False):
    """y = M x, or M'x when ``transpose``, for the n_row x n_col M of the
    DIA arrays ``offsets`` and ``data``, through a banded descriptor of
    M."""
    op = kernels.banded(n_row, n_col, offsets, data)
    kernels.product(op, int(transpose), x, y)


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

    @pytest.mark.parametrize("two_sided", [True, False],
                             ids=["tridiag", "bidiag"])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_cycle_advance(self, n, two_sided):
        # a square cycle and a wide one (more columns than rows); next_v
        # orthogonal to x, so the cycle goes on and writes the next x,
        # then as drawn, which the angle test may stop
        for m, orthogonal in ((n, True), (max(n - 3, 0), True), (n, False)):
            state = cycle_state(two_sided)
            stop, _, _ = compare_advance(
                state, cycle_rows(m, n, 100 + n, orthogonal), 0.4, 0.9, 0.2)
            if orthogonal:
                assert stop == kernels.lib.OAP_CYCLE_GO

    @pytest.mark.parametrize("two_sided", [True, False],
                             ids=["tridiag", "bidiag"])
    def test_cycle_advance_keeps_the_signs_of_zeros(self, two_sided):
        # b'u is the lone product for one entry, -0.0 here, and 0.0 plus
        # ddot for more; the two-sided update subtracts gamma c_prev =
        # -0.0 once more, which turns a -0.0 into +0.0, and x_next = -0.0
        # + v c shows the sign
        lib = kernels.lib
        for n in (1, 2, 3, 17):
            rows = {"ax": np.zeros(n), "av": np.zeros(n),
                    "rhs": np.full(n, -0.0), "res": np.full(n, np.nan),
                    "u": np.ones(n), "x": np.full(n, -0.0),
                    "next_v": np.ones(n), "x_next": np.full(n, np.nan)}
            state = cycle_state(two_sided, c_prev=-0.0, c_curr=0.0)
            stop, got, after = compare_advance(state, rows, 0.5, 2.0, 1.0)
            assert stop == lib.OAP_CYCLE_GO
            negative = n == 1 and not two_sided
            assert same(got["c_curr"], -0.0 if negative else 0.0)
            assert same(after["x_next"], np.full(n, -0.0 if negative else 0.0))

    @pytest.mark.parametrize("transpose", [False, True], ids=["Av", "A'u"])
    @pytest.mark.parametrize("n", LENGTHS + SPLIT_LENGTHS)
    def test_dia_matvec_matches_scipy(self, n, transpose):
        # square, wide and tall; five diagonals of n_col slots, so from
        # SPLIT_LENGTHS on the worker thread forms half of y
        for n_row, n_col in ((n, n), (n, n + 3), (n + 3, n)):
            offsets, data = dia_operator(n_row, n_col, seed=300 + n)
            n_in, n_out = (n_row, n_col) if transpose else (n_col, n_row)
            (x,) = vectors(n_in, 1, seed=400 + n)
            y = np.full(n_out, np.nan)  # every entry is written
            posted = kernels.lib.oap_worker_counts().posted
            c_dia_matvec(n_row, n_col, offsets, data, x, y, transpose)
            split = data.size >= kernels.lib.OAP_WORKER_MIN_WORK
            assert (kernels.lib.oap_worker_counts().posted > posted) == split
            assert same(y, scipy_dia_matvec(n_row, n_col, offsets, data, x,
                                            transpose))

    @pytest.mark.parametrize("transpose", [False, True], ids=["Av", "A'u"])
    @pytest.mark.parametrize("n_row, n_col, offsets", [
        # an entry that no diagonal reaches is +0.0 from both products
        (7, 6, [1, 2]),      # no diagonal reaches rows 5, 6 or column 0
        (6, 7, [-2, -1]),    # nor row 0 or columns 5 and 6
        (5, 5, [-4, 4]),     # corners only: rows 1-3 and columns 1-3
        (4, 9, [0, 8]),      # columns 4-7
        # diagonals far enough out to start and end inside other blocks
        # of 512 entries than their first and last entry's; square, tall
        # and wide
        *((n_row, n_col, [-1500, -513, -1, 0, 1, 511, n_col - 1])
          for n_row, n_col in ((3000, 3000), (3000, 2200), (2200, 3000)))])
    def test_dia_matvec_of_chosen_diagonals(self, n_row, n_col, offsets,
                                            transpose):
        offsets = np.array(offsets, dtype=np.int32)
        data = decades(np.random.Generator(np.random.PCG64(n_row + n_col)),
                       (len(offsets), n_col))
        n_in, n_out = (n_row, n_col) if transpose else (n_col, n_row)
        (x,) = vectors(n_in, 1, seed=n_row)
        y = np.full(n_out, np.nan)
        c_dia_matvec(n_row, n_col, offsets, data, x, y, transpose)
        assert same(y, scipy_dia_matvec(n_row, n_col, offsets, data, x,
                                        transpose))


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

    # hand-built cycles of two rows and two columns: ax + av c_curr =
    # [2, 1] and rhs = [5, 5], so res = [3, 4] and res_norm is 5.0
    # exactly; b'u = 5, so with alpha = 1, gamma_prev = 0.5 and c_prev =
    # 2 the next coefficient is 2 / beta (two-sided) or 3 / beta
    # (bidiagonal); x = e0 and next_v = [t, 1], so |x'v| / ||x|| is t,
    # against the bound 2^-26 c_abs / sqrt(c_sq) = 2^-26
    ANGLE = 2.0 ** -26
    ADVANCES = {
        # case: (state fields, rows, beta, stop, improved)
        "residual at the guard limit": ({"limit": 5.0}, {}, 1.0, "GO", None),
        "residual past the guard limit": (
            {"limit": np.nextafter(5.0, 0.0)}, {}, 1.0, "DIVERGENCE", None),
        "residual at the best": ({"best_res": 5.0}, {}, 1.0, "GO", 0),
        "residual below the best": (
            {"best_res": np.nextafter(5.0, 6.0)}, {}, 1.0, "GO", 1),
        "divergence after an improvement": (
            {"best_res": 6.0, "limit": 4.0}, {}, 1.0, "DIVERGENCE", 1),
        "beta at the floor": ({"floor": 1.0}, {}, 1.0, "BREAKDOWN", None),
        "beta above the floor": (
            {"floor": 1.0}, {}, np.nextafter(1.0, 2.0), "GO", None),
        "coefficient overflows": ({"floor": 0.0}, {}, 1e-308, "NONFINITE",
                                  None),
        "angle at the bound": ({}, {"next_v": [ANGLE, 1.0]}, 1.0, "GO", None),
        "angle past the bound": (
            {}, {"next_v": [np.nextafter(ANGLE, 1.0), 1.0]}, 1.0,
            "ORTHOGONALITY", None),
        "zero x": ({}, {"x": [0.0, -0.0], "next_v": [1.0, 0.0]}, 1.0, "GO",
                   None),
        # x'x underflows to 0.0 while x'v does not: x counts as zero
        "x of zero norm": ({}, {"x": [1e-170, 0.0], "next_v": [1.0, 0.0]},
                           1.0, "GO", None),
        "no coefficient sums, angle at sqrt(eps)": (
            {"c_abs": 0.0, "c_sq": 0.0}, {"next_v": [ANGLE, 1.0]}, 1.0, "GO",
            None),
        "no coefficient sums, angle past sqrt(eps)": (
            {"c_abs": 0.0, "c_sq": 0.0},
            {"next_v": [np.nextafter(ANGLE, 1.0), 1.0]}, 1.0,
            "ORTHOGONALITY", None),
    }

    @pytest.mark.parametrize("two_sided", [True, False],
                             ids=["tridiag", "bidiag"])
    @pytest.mark.parametrize("case", ADVANCES)
    def test_cycle_advance_stops(self, case, two_sided):
        fields, arrays, beta, stop, improved = self.ADVANCES[case]
        state = cycle_state(two_sided, **{"c_prev": 2.0, "c_curr": 2.0,
                                          "c_abs": 2.0, "c_sq": 4.0, **fields})
        rows = {"ax": [1.0, 2.0], "av": [0.5, -0.5], "rhs": [5.0, 5.0],
                "res": [np.nan] * 2, "u": [1.0, 0.0], "x": [1.0, 0.0],
                "next_v": [0.0, 1.0], "x_next": [np.nan] * 2}
        rows = {name: np.array(a, dtype=float)
                for name, a in dict(rows, **arrays).items()}
        got, after_state, after = compare_advance(state, rows, 1.0, beta, 0.5)
        assert got == getattr(kernels.lib, "OAP_CYCLE_" + stop)
        assert same(after_state["res_norm"], 5.0)
        if improved is not None:
            assert after_state["improved"] == improved
        # a stop leaves the next x and the coefficients as they were
        if stop != "GO":
            assert np.isnan(after["x_next"]).all()
            assert (after_state["c_prev"], after_state["c_curr"]) == (2.0, 2.0)
        elif beta == 1.0:
            c = 2.0 if two_sided else 3.0
            assert after_state["c_curr"] == c
            assert same(after["x_next"], rows["x"] + rows["next_v"] * c)


# --- products -------------------------------------------------------------

def dense_block(n, m, seed):
    """An n x m array of entries over several decades, with a few signed
    zeros and, where it has more than one row, a row of -0.0: a product
    whose terms are all zeros shows the sign its sum starts from."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = rng.standard_normal((n, m)) * 10.0 ** rng.integers(-3, 4, (n, m))
    a[rng.random((n, m)) < 0.1] = -0.0
    if n > 1:
        a[n // 2] = -0.0
    return a


# one-entry shapes, empty ones, and sizes on both sides of OpenBLAS's
# dgemv blocks
DENSE_SHAPES = ([(1, 1), (0, 0), (0, 3), (3, 0)]
                + [(1, m) for m in (2, 3, 17, 300)]
                + [(n, 1) for n in (2, 3, 17, 300)]
                + [(n, m) for n in (2, 5, 63, 64, 65, 300)
                   for m in (2, 7, 128, 257, 601)])


class TestProducts:
    """``oap_product`` over each layout's descriptor, against scipy's
    kernels and ``np.matmul``, into a NaN-filled output: every entry is
    written, with the oracle's bytes."""

    @pytest.mark.parametrize("n, m", DENSE_SHAPES)
    def test_dense_matches_matmul(self, n, m):
        a = dense_block(n, m, seed=10 * n + m)
        op = kernels.dense(a)
        x, u = vectors(m, 1, seed=n)[0], vectors(n, 1, seed=m)[0]
        x[:1] = 0.0  # with the -0.0 row, a sum of -0.0 terms
        for transpose, vec, want in ((0, x, np.matmul(a, x)),
                                     (1, u, np.matmul(a.T, u))):
            into = np.full(len(want), np.nan)
            np.matmul(a if transpose == 0 else a.T, vec, out=into)
            assert same(into, want)  # matmul's out= changes no bit
            y = np.full(len(want), np.nan)
            kernels.product(op, transpose, vec, y)
            assert same(y, want), transpose

    def test_dense_one_entry_products_keep_matmuls_signed_zeros(self):
        # matmul forms a one-entry output as 0.0 plus ddot, and a
        # one-entry input as 0.0 plus the product: never -0.0
        for a in (np.array([[-0.0]]), np.full((1, 3), -0.0),
                  np.full((3, 1), -0.0)):
            op = kernels.dense(a)
            for transpose, vec in ((0, np.ones(a.shape[1])),
                                   (1, np.ones(a.shape[0]))):
                want = np.matmul(a.T if transpose else a, vec)
                y = np.full(len(want), np.nan)
                kernels.product(op, transpose, vec, y)
                assert same(y, want)
                assert not np.signbit(y).any()

    def test_csr_matches_scipy(self):
        # 200 scattered operators, entries over 10 decades, so that each
        # sum's order shows in its rounding
        tools = scipy.sparse._sparsetools
        rng = np.random.Generator(np.random.PCG64(17))
        for i in range(200):
            n, m = (int(k) for k in rng.integers(10, 60, 2))
            dense = np.where(rng.random((n, m)) < rng.uniform(0.05, 0.5),
                             rng.standard_normal((n, m))
                             * 10.0 ** rng.integers(-5, 5, (n, m)), 0.0)
            A = CsrMatrix.from_dense(dense)
            x = rng.standard_normal(m) * 10.0 ** rng.integers(-5, 5, m)
            u = rng.standard_normal(n) * 10.0 ** rng.integers(-5, 5, n)
            x[::7], u[::7] = -0.0, 0.0
            csr = (A.row_offsets, A.col_indices, A.values)
            op = kernels.csr(n, m, *csr)
            want_av, want_atu = np.zeros(n), np.zeros(m)
            tools.csr_matvec(n, m, *csr, x, want_av)
            tools.csc_matvec(m, n, *csr, u, want_atu)
            av, atu = np.full(n, np.nan), np.full(m, np.nan)
            kernels.product(op, 0, x, av)
            kernels.product(op, 1, u, atu)
            assert same(av, want_av) and same(atu, want_atu), i
            # the operator itself picks this layout and these bytes
            assert A._operator.layout == kernels.lib.OAP_CSR
            assert same(A.apply(x), want_av) and same(A.apply_transpose(u),
                                                      want_atu)

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 17, 65])
    def test_products_stay_in_bounds(self, n):
        # each vector between NaN guards, for the CSR and dense layouts
        # (the DIA kernel's are in test_kernels_stay_in_bounds)
        m = n + 2
        a = dense_block(n, m, seed=800 + n)
        A = CsrMatrix.from_dense(a)
        csr = (A.row_offsets, A.col_indices, A.values)
        tools = scipy.sparse._sparsetools
        for op in (kernels.csr(n, m, *csr), kernels.dense(a)):
            for transpose, (n_in, n_out) in ((0, (m, n)), (1, (n, m))):
                x = guarded(vectors(n_in, 1, seed=900 + n)[0])[0]
                y, buf = guarded(np.zeros(n_out))
                kernels.product(op, transpose, x, y)
                want = np.zeros(n_out)
                if op.layout == kernels.lib.OAP_DENSE:
                    want = np.matmul(a.T if transpose else a, x)
                elif transpose:
                    tools.csc_matvec(m, n, *csr, x, want)
                else:
                    tools.csr_matvec(n, m, *csr, x, want)
                assert same(y, want)
                assert guards_intact(buf, n_out)


# --- steps -----------------------------------------------------------------

def operator(a, layout, monkeypatch):
    """The array ``a`` as an operator of ``layout``: a banded or a CSR
    ``CsrMatrix`` (the DIA layout refused), or a ``DenseMatrix``."""
    if layout == "dense":
        return DenseMatrix(a)
    if layout == "csr":
        monkeypatch.setattr(CsrMatrix, "_diagonals", lambda self: None)
    A = CsrMatrix.from_dense(a)
    want = kernels.lib.OAP_CSR if layout == "csr" else kernels.lib.OAP_BANDED
    assert A._operator.layout == want
    return A


def banded_array(n, m, seed):
    """n x m with random entries on 5 diagonals (DIA within the rule)."""
    rng = np.random.Generator(np.random.PCG64(seed))
    a = np.zeros((n, m))
    for k in (-2, -1, 0, 1, 3):
        i = np.arange(max(0, -k), min(n, m - k))
        a[i, i + k] = rng.standard_normal(len(i))
    return a


def above_threshold(corner, v1, layout, monkeypatch):
    """A square operator of ``layout`` whose products read at least
    ``OAP_WORKER_MIN_WORK`` stored entries, so that its two-sided step
    runs A'u on the worker thread, and its v1: a band of three
    diagonals (banded) or a full array (CSR, dense), of ones with the 2x2
    ``corner`` and v1 = e0, or with every entry ``corner[0, 0]`` and v1
    of equal entries when ``corner`` holds one value."""
    work = kernels.lib.OAP_WORKER_MIN_WORK
    n = -(-work // 3) if layout == "banded" else math.isqrt(work - 1) + 1
    fill = corner[0, 0] if (corner == corner[0, 0]).all() else 1.0
    if fill == 1.0:
        v1 = np.zeros(n)
        v1[0] = 1.0
    else:
        v1 = np.full(n, 1.0 / math.sqrt(n))
    if layout != "banded":
        a = np.full((n, n), fill)
        a[:2, :2] = corner
        return operator(a, layout, monkeypatch), v1
    band = scipy.sparse.diags([fill, fill, fill], [-1, 0, 1], shape=(n, n),
                              format="lil")
    band[:2, :2] = corner
    band = band.tocsr()
    A = CsrMatrix(n, n, band.indptr, band.indices, band.data)
    assert A._operator.layout == kernels.lib.OAP_BANDED
    return A, v1


STEP_LAYOUTS = pytest.mark.parametrize("layout", ["banded", "csr", "dense"])


class TestCompiledSteps:
    """``tridiag_step`` and ``bidiag_step``, one compiled call each,
    against conftest's NumPy steps (the operator's ``apply`` and
    ``apply_transpose`` and NumPy arithmetic), byte for byte: the
    scalars, every row, and where a step stops."""

    # (operator, steps, least): the generators' and random operators in
    # the layout each picks, up to 60 steps and more than 10 before a
    # breakdown; and one banded array in each layout, square, tall and
    # wide, 12 steps without a breakdown
    OPERATORS = {
        "convdiff 9x10": (lambda rng, mp: gen_convdiff2d(9, 10).A, 60, 11),
        "convdiff 60x60": (lambda rng, mp: gen_convdiff2d(60, 60).A, 60, 11),
        "dense 30": (lambda rng, mp: DenseMatrix(random_wellcond(rng, 30)),
                     60, 11),
        "scattered 40": (lambda rng, mp: CsrMatrix.from_dense(
            np.where(rng.random((40, 40)) < 0.2,
                     rng.standard_normal((40, 40)), 0.0)), 60, 11),
        **{f"{layout} {n}x{m}": (
            lambda rng, mp, n=n, m=m, layout=layout: operator(
                banded_array(n, m, seed=n + m), layout, mp), 12, 12)
           for layout in ("banded", "csr", "dense")
           for n, m in ((30, 30), (30, 24), (24, 30))},
    }

    # the two-sided engine needs a square operator
    ENGINES = [(name, two_sided) for name in OPERATORS
               for two_sided in (True, False)
               if not (two_sided and name.endswith(("30x24", "24x30")))]

    @pytest.mark.parametrize("name, two_sided", ENGINES, ids=lambda p: (
        p if isinstance(p, str) else "tridiag" if p else "bidiag"))
    def test_steps_match_the_numpy_steps(self, rng, monkeypatch, name,
                                         two_sided):
        make, steps, least = self.OPERATORS[name]
        A = make(rng, monkeypatch)
        v1 = rng.standard_normal(A.ncols)
        v1 /= np.linalg.norm(v1)
        assert compared_steps(A, v1, two_sided, steps) >= least

    @pytest.mark.parametrize("zero", ["beta_prev", "gamma_prev"])
    def test_each_previous_row_is_read_by_its_own_norm(self, zero):
        # u_prev enters next_u with beta_prev and v_prev enters next_v
        # with gamma_prev: the row of the zero norm is not read (it is
        # NaN), the other one is
        A = gen_convdiff2d(9, 10).A
        v_prev, v, u_prev, u = vectors(A.nrows, 4, seed=61)
        if zero == "beta_prev":
            window = (v_prev, v, None, u, 0.0, 0.25)
        else:
            window = (None, v, u_prev, u, 0.5, 0.0)
        alpha, beta, gamma = compare_steps(A, 2, window, True)[0]
        assert np.isfinite([alpha, beta, gamma]).all()

    # (array, v1, step that stops, what): each stop of each engine
    STOPS = {
        # 1.5e308 + 1.5e308 overflows in A v: alpha is inf
        "tridiag alpha": (np.full((2, 2), 1.5e308), np.ones(2) / np.sqrt(2),
                          True, "alpha"),
        # av ~ 1e200 with u'av finite: gamma's sum of squares overflows
        "tridiag gamma": (np.array([[1e200, 3e200], [2e200, -1e200]]),
                          np.array([1.0, 0.0]), True, "gamma"),
        # A v = [1e150, 0] and u = e0, so gamma is 0.0; A'u - v alpha =
        # [0, 1e160] overflows in beta's sum of squares (the 1.0 makes
        # the operator banded)
        "tridiag beta": (np.array([[1e150, 1e160], [0.0, 1.0]]),
                         np.array([1.0, 0.0]), True, "beta"),
        "bidiag alpha": (np.array([[1e160, 0.0], [1e160, 1.0]]),
                         np.array([1.0, 0.0]), False, "alpha"),
        "bidiag beta": (np.array([[1e150, 1e160], [0.0, 1.0]]),
                        np.array([1.0, 0.0]), False, "beta"),
    }

    @pytest.mark.parametrize("stop", [*STOPS, "tridiag alpha, worker",
                                      "tridiag gamma, worker"])
    @STEP_LAYOUTS
    def test_a_non_finite_scalar_stops_where_the_numpy_step_does(
            self, monkeypatch, layout, stop):
        name, _, worker = stop.partition(", ")
        a, v1, two_sided, what = self.STOPS[name]
        if worker:
            A, v1 = above_threshold(a, v1, layout, monkeypatch)
        else:
            A = operator(a, layout, monkeypatch)
        window = (None, v1, None, v1 if two_sided else None, 0.0, 0.0)
        posted = kernels.lib.oap_worker_counts().posted
        # floor 0.0: the breakdown floor of the first operator overflows
        (message, step), _, after = compare_steps(A, 1, window, two_sided,
                                                  0.0)
        assert message == f"non-finite {what} at step 1" and step == 1
        assert (kernels.lib.oap_worker_counts().posted > posted) == bool(worker)
        # the two-sided step forms A'u first: at alpha and gamma next_v
        # holds it; the bidiagonal step's next_v is the NaN it was filled
        # with until beta
        next_v = np.frombuffer(after[2])
        if two_sided and what != "beta":
            assert same(next_v, A.apply_transpose(v1))
        else:
            assert np.isnan(next_v).all() == (what != "beta")

    # (array, k, window): A v_k = 0 at step 1, and at step 2
    # A v_2 = u_1 beta_1 exactly; diag(1, 0) has too few nonzeros for
    # the DIA layout
    U_BREAKDOWNS = {
        "diag(1, 0), step 1": (np.diag([1.0, 0.0]), 1, (
            None, np.array([0.0, 1.0]), None, None, 0.0, 0.0)),
        "diag(2, 0, 3), step 1": (np.diag([2.0, 0.0, 3.0]), 1, (
            None, np.array([0.0, 1.0, 0.0]), None, None, 0.0, 0.0)),
        "diag(2, 0, 3), step 2": (np.diag([2.0, 0.0, 3.0]), 2, (
            None, np.array([1.0, 0.0, 0.0]), None, np.array([1.0, 0.0, 0.0]),
            2.0, 0.0)),
    }

    @pytest.mark.parametrize("floor", [None, 0.0],
                             ids=["breakdown floor", "floor 0"])
    @pytest.mark.parametrize("layout, case", [
        (layout, case) for case in U_BREAKDOWNS
        for layout in ("banded", "csr", "dense")
        if layout != "banded" or case.startswith("diag(2")])
    def test_bidiag_u_side_breakdown_builds_no_v(self, monkeypatch, layout,
                                                 case, floor):
        # no u_k, so no A'u_k and no v_{k+1}: the step returns before the
        # transpose product, and the next-v row keeps its fill; alpha is
        # 0.0, below the breakdown floor and at a floor of 0.0
        a, k, window = self.U_BREAKDOWNS[case]
        A = operator(a, layout, monkeypatch)
        (alpha, beta, gamma), _, after = compare_steps(A, k, window, False,
                                                       floor)
        assert alpha == beta == gamma == 0.0
        next_v, next_u, av = (np.frombuffer(after[i]) for i in (2, 6, 7))
        assert np.isnan(next_v).all()
        assert same(av, A.apply(window[1]))
        np.testing.assert_array_equal(next_u, np.zeros(len(av)))
        assert window_step(A, k, breakdown_floor(A), window, False)[4:] == (
            None, None)


# --- guards ---------------------------------------------------------------

def bad_vectors(n):
    return {"float32": np.ones(n, dtype=np.float32),
            "int64": np.ones(n, dtype=np.int64),
            "strided": np.ones(2 * n)[::2],
            "short": np.ones(n - 1),
            "long": np.ones(n + 1),
            "2-D": np.ones((n, 1))}


def same_values(vec, kind):
    """``vec``'s values as the malformed array ``kind`` of ``bad_vectors``
    (its values exact in float32 and int64), or cut short, made longer or
    made 2-D."""
    if kind == "float32":
        return vec.astype(np.float32)
    if kind == "int64":
        return vec.astype(np.int64)
    if kind == "strided":
        buf = np.zeros(2 * len(vec))
        buf[::2] = vec
        return buf[::2]
    if kind == "long":
        return np.append(vec, 1.0)
    return vec[:-1] if kind == "short" else vec[:, None]


STEP_ROWS = {"tridiag": ("v_prev", "v", "u_prev", "u", "next_v", "next_u",
                         "av"),
             "bidiag": ("v", "u_prev", "next_v", "next_u", "av")}


# the rows of each side of a step: v-side rows have A's column count
V_SIDE = ("v_prev", "v", "next_v")
# (engine, output, other): an output row and another row of its side
OVERLAPS = [(engine, output, other) for engine, names in STEP_ROWS.items()
            for output in ("next_v", "next_u", "av") for other in names
            if other != output and (other in V_SIDE) == (output in V_SIDE)]


def step_rows(A, engine, seed):
    """The rows of ``engine``'s step on the square A, named as in
    ``STEP_ROWS``, each from its own ``rows`` block and filled with
    seeded values."""
    names = STEP_ROWS[engine]
    pairs = {name: kernels.rows(1, A.nrows)[0] for name in names}
    for (row, _), values in zip(pairs.values(),
                                vectors(A.nrows, len(names), seed)):
        row[:] = values
    return pairs


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
    """The vector kernels read and write only rows of the blocks the
    cycle makes (``oaplib._kernels.rows``) and the right-hand side the
    cycle has checked: a vector that is not a C-contiguous float64 array
    of the expected length is refused, or copied into one, before any
    kernel runs, and the kernels stay within the vectors they are
    given."""

    @pytest.mark.parametrize("cycle", [oap_cycle_bidiag, oap_cycle_tridiag])
    @pytest.mark.parametrize("slot", ["v1", "rhs"])
    @pytest.mark.parametrize("bad", list(bad_vectors(4)))
    @pytest.mark.parametrize("make", [
        lambda: gen_convdiff2d(4, 5).A,
        lambda: CsrMatrix.from_dense(np.diag([2.0, 3.0]))],
        ids=["convdiff 4x5", "diag(2, 3)"])
    def test_cycle_runs_on_checked_copies(self, make, cycle, slot, bad):
        # a vector of another dtype or layout runs as its contiguous
        # float64 copy, with the same bits; another shape is refused,
        # naming the vector
        A = make()
        v1 = np.zeros(A.ncols)
        v1[3 % A.ncols] = 1.0
        rhs = np.ones(A.nrows)
        want = cycle(A, rhs, v1, 0.5)
        args = {"v1": v1, "rhs": rhs}
        args[slot] = same_values(args[slot], bad)
        if bad in ("short", "long", "2-D"):
            with pytest.raises(DimensionMismatch, match=slot):
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
        pairs = step_rows(A, engine, seed=11)
        pairs[slot] = kernels.rows(1, n - 1 if length == "short" else n + 1)[0]
        pairs[slot][0][:] = vectors(n + 1, 1, seed=12)[0][:len(pairs[slot][0])]
        before = [row.tobytes() for row, _ in pairs.values()]
        with pytest.raises(DimensionMismatch, match=f"{engine}_step"):
            run_step(A, engine, pairs)
        assert [row.tobytes() for row, _ in pairs.values()] == before

    @pytest.mark.parametrize("output", ["next_v", "next_u", "av"])
    @pytest.mark.parametrize("engine", list(STEP_ROWS))
    def test_step_refuses_a_read_only_output_row(self, engine, output):
        # the step writes each output into the row it is handed; a row it
        # cannot write is an error before any write, not a step that
        # reads a stale row
        A = gen_convdiff2d(9, 10).A
        pairs = step_rows(A, engine, seed=13)
        pairs[output][0].flags.writeable = False
        before = [row.tobytes() for row, _ in pairs.values()]
        with pytest.raises(ValueError,
                           match=f"{engine}_step: row {output} is read-only"):
            run_step(A, engine, pairs)
        assert [row.tobytes() for row, _ in pairs.values()] == before

    @pytest.mark.parametrize("shared", ["row", "one entry"])
    @pytest.mark.parametrize("engine, output, other", OVERLAPS)
    def test_step_refuses_an_output_row_that_overlaps_another(
            self, engine, output, other, shared):
        # an output that shares memory with an input, or with another
        # output, would be read after the step has overwritten it:
        # refused before any write, whether the two are one row or the
        # other row starts at the output's last entry
        A = gen_convdiff2d(9, 10).A
        n = A.nrows
        pairs = step_rows(A, engine, seed=14)
        if shared == "row":
            pairs[output] = pairs[other]
        else:
            block, ptr = kernels.rows(1, 2 * n - 1)[0]
            block[:] = vectors(2 * n - 1, 1, seed=15)[0]
            pairs[output] = (block[:n], ptr)
            pairs[other] = (block[n - 1:], ptr + (n - 1))
        before = [row.tobytes() for row, _ in pairs.values()]
        with pytest.raises(ValueError,
                           match=f"{engine}_step: an output row overlaps"):
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
            # in place, without a term and dividing by nothing: the norm
            norm = kernels.lib.oap_half_step(n, ptr, kernels.ffi.NULL, 0.0,
                                             kernels.ffi.NULL, 0.0, math.inf,
                                             ptr)
            assert same(norm, math.sqrt(row.dot(row)))
        # copy the last row into the first through their pointers (no
        # term, no division): only the first row changes
        want = block.copy()
        want[0] = want[-1]
        kernels.lib.oap_half_step(n, pairs[-1][1], kernels.ffi.NULL, 0.0,
                                  kernels.ffi.NULL, 0.0, math.inf,
                                  pairs[0][1])
        assert same(block, want)

    def test_descriptor_arrays_of_another_type_are_refused(self):
        # C arrays over them would reinterpret their bytes or read past
        # their end
        offsets, data = dia_operator(6, 6, seed=9)
        for bad in ((6, offsets.astype(np.int64), data),
                    (6, offsets, data.astype(np.float32)),
                    (6, offsets[:-1], data),
                    (6, offsets, data[:, :-1]),
                    (7, offsets, data),  # 6 slots per diagonal, not 7
                    (6, offsets.tolist(), data)):
            with pytest.raises(TypeError):
                kernels.banded(6, *bad)
        with pytest.raises(ValueError, match="contiguous"):
            kernels.banded(6, 6, offsets, np.asfortranarray(data))
        A = gen_convdiff2d(3, 2).A
        csr = (A.row_offsets, A.col_indices, A.values)
        for i, bad in ((0, A.row_offsets.astype(np.int64)),
                       (0, A.row_offsets[:-1]),
                       (1, A.col_indices.astype(np.int64)),
                       (1, A.col_indices[:-1]),
                       (2, A.values.astype(np.float32))):
            with pytest.raises(TypeError):
                kernels.csr(6, 6, *csr[:i], bad, *csr[i + 1:])
        with pytest.raises(TypeError):
            kernels.dense(np.ones((3, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="contiguous"):
            kernels.dense(np.asfortranarray(np.ones((3, 2))))

    @pytest.mark.parametrize("n", list(range(18)) + [361])
    def test_kernels_stay_in_bounds(self, n):
        # every vector sits between NaN guards: a read past an end would
        # put a NaN into a result, a write past one would change a guard
        # (the vector kernels' helpers check their rows' guards)
        a, x, y = vectors(n, 3, seed=500 + n)
        out = np.empty(n)
        norm = half_step(a, x, 0.5, y, 0.25, 0.0, out)
        want, want_norm = numpy_half_step(a, x, 0.5, y, 0.25, 0.0)
        assert same(norm, want_norm) and same(out, want)
        for two_sided in (True, False):
            compare_advance(cycle_state(two_sided),
                            cycle_rows(n, n, 500 + n, True), 0.5, 0.25, 0.125)
        offsets, data = dia_operator(n, n + 2, seed=600 + n)
        for transpose, (n_in, n_out) in ((False, (n + 2, n)),
                                         (True, (n, n + 2))):
            xd = guarded(vectors(n_in, 1, seed=700 + n)[0])[0]
            yd, yd_buf = guarded(np.zeros(n_out))
            c_dia_matvec(n, n + 2, offsets, data, xd, yd, transpose)
            assert same(yd, scipy_dia_matvec(n, n + 2, offsets, data, xd,
                                             transpose))
            assert guards_intact(yd_buf, n_out)


# --- threads --------------------------------------------------------------

@pytest.mark.parametrize("make, worker", [
    (lambda: gen_convdiff2d(19, 19), False),
    # 60,000 stored entries: the steps' products use the worker thread,
    # which one solve at a time claims while the others run in sequence
    (lambda: gen_tridiag_unsym(20_000), True),
], ids=["convdiff 19x19", "tridiag-unsym 20000"])
def test_threads_sharing_an_operator_match_sequential_solves(make, worker):
    # cffi drops the interpreter lock around each kernel; threads that
    # share one operator (and its C arrays) must not disturb each other
    problem = make()
    A, b = problem.A, problem.b
    assert (3 * A.ncols >= kernels.lib.OAP_WORKER_MIN_WORK) == worker
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

    posted = kernels.lib.oap_worker_counts().posted
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
    assert (kernels.lib.oap_worker_counts().posted > posted) == worker
    for variant, (x, report) in results:
        x_want, report_want = want[variant]
        assert x.tobytes() == x_want.tobytes()
        assert report == report_want


def test_threads_making_an_operators_first_products_agree():
    # the descriptor is built on the first product: threads that all
    # start with a fresh operator's first product get one descriptor's
    # bytes, whichever thread built it
    rng = np.random.Generator(np.random.PCG64(21))
    scattered = np.where(rng.random((60, 60)) < 0.2,
                         rng.standard_normal((60, 60)), 0.0)
    makers = (lambda: gen_convdiff2d(30, 30).A,
              lambda: CsrMatrix.from_dense(scattered),
              lambda: DenseMatrix(scattered))
    x = rng.standard_normal(scattered.shape[1])
    x_conv = rng.standard_normal(900)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for make in makers:
            for _ in range(5):
                A = make()
                v = x_conv if A.ncols == 900 else x
                want = (make().apply(v).tobytes(),
                        make().apply_transpose(v).tobytes())
                results, errors = [], []
                barrier = threading.Barrier(4)

                def run(i):
                    try:
                        barrier.wait(timeout=30)
                        product = A.apply if i % 2 else A.apply_transpose
                        results.append((i % 2, product(v).tobytes()))
                    except Exception as exc:  # reported below
                        errors.append(exc)

                threads = [threading.Thread(target=run, args=(i,))
                           for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(30)
                assert not any(t.is_alive() for t in threads)
                assert errors == []
                assert sorted(results) == sorted(
                    [(0, want[1])] * 2 + [(1, want[0])] * 2)
    finally:
        sys.setswitchinterval(interval)


def test_a_forked_child_solves_with_the_parents_bits():
    # the child of a process whose worker thread has run has no worker:
    # its kernels start their own, which runs jobs, and its solve has the
    # parent's bits
    def run_by_worker():
        counts = kernels.lib.oap_worker_counts()
        return counts.posted - counts.taken_back

    problem = gen_tridiag_unsym(20_000)
    A, b = problem.A, problem.b
    before = run_by_worker()
    x, report = roap_solve(A, b, "roap3", max_restarts=1)
    assert run_by_worker() > before
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: report, and leave without pytest's exit
        status = 1
        try:
            before = run_by_worker()
            x_child, report_child = roap_solve(A, b, "roap3", max_restarts=1)
            ok = (x_child.tobytes() == x.tobytes() and report_child == report
                  and run_by_worker() > before)
            os.write(write, b"same" if ok else b"different")
            status = 0
        finally:
            os._exit(status)
    os.close(write)
    try:
        ready, _, _ = select.select([read], [], [], 60)
        answer = os.read(read, 16) if ready else b"timed out"
    finally:
        os.close(read)
        if not ready:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    assert answer == b"same"


def test_small_operators_never_post_to_the_worker():
    # the ap baseline's and the paper suite's operators are below the
    # threshold: their solves run every product on the calling thread
    posted = kernels.lib.oap_worker_counts().posted
    for nx, ny in ((9, 10), (9, 19), (19, 19)):
        problem = gen_convdiff2d(nx, ny)
        ap_solve(problem.A, problem.b,
                 partition=BlockPartition.equal_blocks(problem.A.nrows, 2))
        roap_solve(problem.A, problem.b, "roap3")
    assert kernels.lib.oap_worker_counts().posted == posted


def test_the_worker_blocks_between_solves():
    # after a spin of well under a millisecond the worker waits on a
    # condition variable, so an idle process burns no CPU time
    problem = gen_tridiag_unsym(20_000)
    roap_solve(problem.A, problem.b, "roap2", max_restarts=1)
    time.sleep(0.05)
    start = time.process_time()
    time.sleep(0.3)
    assert time.process_time() - start <= 0.01


# --- lifetime -------------------------------------------------------------

def churn(sizes):
    """Collect garbage, then allocate 20 NaN arrays of each byte size in
    ``sizes``, so that blocks of those sizes that were freed are handed
    out again; returns them, to be held while they count."""
    gc.collect()
    return [np.full(size // 8, np.nan) for size in sizes for _ in range(20)]


def descriptor_of_dropped_arrays(layout, x, u):
    """A descriptor of ``layout`` over new arrays that nothing else
    refers to once this returns; returns it, the bytes of its products
    A x and A'u taken here, and the arrays' byte sizes."""
    n, m = len(u), len(x)
    if layout == "banded":
        arrays = dia_operator(n, m, seed=31)
        op = kernels.banded(n, m, *arrays)
    elif layout == "csr":
        A = random_sparse(np.random.Generator(np.random.PCG64(31)), n)
        arrays = (A.row_offsets, A.col_indices, A.values)
        op = kernels.csr(n, m, *arrays)
    else:
        arrays = (dense_block(n, m, seed=31),)
        op = kernels.dense(*arrays)
    products = []
    for transpose, vec, out_len in ((0, x, n), (1, u, m)):
        y = np.empty(out_len)
        kernels.product(op, transpose, vec, y)
        products.append(y.tobytes())
    return op, products, [a.nbytes for a in arrays]


@STEP_LAYOUTS
def test_a_descriptor_holds_its_arrays(layout):
    # the arrays leave scope with the helper: only the descriptor still
    # refers to them, so blocks freed in their place would show in the
    # products' bytes
    n = 24
    x, u = vectors(n, 2, seed=32)
    op, want, sizes = descriptor_of_dropped_arrays(layout, x, u)
    held = churn(sizes)
    for transpose, vec, bytes_before in zip((0, 1), (x, u), want):
        y = np.empty(n)
        kernels.product(op, transpose, vec, y)
        assert y.tobytes() == bytes_before, (transpose, len(held))


def test_products_read_the_arrays_of_the_first_product():
    # pointing an operator's stored arrays (behind its read-only
    # attributes) at copies after its first product drops the operator's
    # reference to them; the descriptor still holds them, so the products
    # keep their bytes rather than read freed memory, which can crash the
    # child
    code = """
import gc, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from oaplib import CsrMatrix, DenseMatrix
from oaplib._kernels import lib
rng = np.random.Generator(np.random.PCG64(33))
n = 600
scattered = np.where(rng.random((n, n)) < 0.1, rng.standard_normal((n, n)),
                     0.0)
x = rng.standard_normal(n)
for A, names in ((DenseMatrix(scattered), ["values"]),
                 (CsrMatrix.from_dense(scattered),
                  ["values", "col_indices", "row_offsets"])):
    first = (A.apply(x).tobytes(), A.apply_transpose(x).tobytes())
    print(A._operator.layout, end=" ")
    for name in names:
        setattr(A, "_" + name, getattr(A, name).copy())
    gc.collect()
    held = [np.full(k, np.nan) for k in (n * n, A.values.size, n + 1)
            for _ in range(5)]
    print((A.apply(x).tobytes(), A.apply_transpose(x).tobytes()) == first)
"""
    lib = kernels.lib
    assert run_python(code).stdout.split() == [str(lib.OAP_DENSE), "True",
                                               str(lib.OAP_CSR), "True"]


# --- build and import -----------------------------------------------------

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


def test_build_removes_the_modules_of_older_sources(tmp_path):
    # modules of other hashes go once the new one is in place; other
    # files, and modules of no kernel name, stay
    suffix = kernels._SUFFIX
    for name in ("_kernels_0123456789abcdef", "_kernels_fedcba9876543210"):
        (tmp_path / (name + suffix)).write_bytes(b"stale")
    keep = ["_kernels.c", "_kernels_build.py", "other" + suffix]
    for name in keep:
        (tmp_path / name).write_text("kept")
    path = kernels._build(kernels._SOURCE, "_kernels_new", str(tmp_path))
    assert sorted(os.listdir(tmp_path)) == sorted(
        keep + [os.path.basename(path)])


@pytest.mark.parametrize("text, named", [
    ("this is not C\n", "this"),
    ('#include "_kernels.h"\n'
     'double oap_missing_semicolon(void) { return 1.0 }\n',
     "oap_missing_semicolon")], ids=["not C", "missing semicolon"])
def test_failed_build_raises_the_compiler_message_and_removes_nothing(
        tmp_path, text, named):
    stale = tmp_path / ("_kernels_0123456789abcdef" + kernels._SUFFIX)
    stale.write_bytes(b"stale")
    source = tmp_path / "broken.c"
    source.write_text(text)
    with pytest.raises(ImportError) as err:
        kernels._build(str(source), "_kernels_broken", str(tmp_path))
    message = str(err.value)
    assert "error" in message and named in message
    assert sorted(os.listdir(tmp_path)) == [stale.name, "broken.c"]
