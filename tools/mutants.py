"""Run Tier-1 against a fixed list of source mutations, one at a time, and
print which mutants it kills and by which tests.

Each mutant replaces one piece of text in one file of ``src/oaplib``
(``_kernels.c``, ``solvers.py``, ``reductions.py``, ``linalg.py``,
``ap.py`` or ``mmio.py``) with another: a flipped sign, ``<=`` for
``<``, a loop bound off by one, a dropped statement.  The run works on
one scratch copy of the working tree, made under the system's temporary
directory (``TMPDIR``) and removed at the end, never on the tree itself:

* First it runs Tier-1 on the unmutated copy, and stops, printing the
  failures, unless every test passes.  That run also builds the copy's
  compiled kernels.
* Then, one mutant after another (never two at once: Tier-1 holds a
  test that measures the process's CPU time), it writes the mutated
  file, runs Tier-1 on the copy and writes the file back.  A mutated
  ``_kernels.c`` hashes to a new module name, so its run builds its own
  ``_kernels_*`` module inside the copy; the copy's unmutated module is
  put back after that run.
* A test kills a mutant when it passed on the unmutated copy and does
  not pass on the mutated one (it fails, errors, or is never reached
  because its module no longer imports).  A run that ends without a
  report (a crash of the interpreter) kills with the cause ``crash``,
  and one that runs past ``TIME_LIMIT`` times the unmutated run, or
  past ``MIN_LIMIT_S`` seconds if that is longer, is stopped and kills
  with the cause ``timeout``.
* A mutant whose text is not found exactly once in its file is reported
  ``stale`` and not run.

For each mutant it prints one line, ``killed``, ``survived`` or
``stale``, with the killing tests grouped by test function (with the
count of their failing cases).  At the end it prints the counts, each
test function's kills, and every function whose kills another function
also makes, the candidates for folding one test into another.  Last it
checks that ``git status --porcelain`` of the tree reads as before the
run.  The exit status is 0 when no mutant survived and none is stale.

Tier-1 takes ~20 s on a 2-vCPU host; with the kernel builds and the
timeouts the whole list takes about an hour.  It uses only the standard
library:

    python tools/mutants.py
"""

import collections
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join("src", "oaplib")
TIER1 = ("-m", "pytest", "-q", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")
TIME_LIMIT = 5  # times the unmutated run
MIN_LIMIT_S = 120
# left out of the copy: version control, caches and build leftovers
IGNORED = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                 ".build-*", ".kernels.lock", ".bench_out",
                                 ".benchmarks", "build", "*.egg-info")

# (file in src/oaplib, text, replacement)
MUTANTS = [
    # --- _kernels.c: inner products and the half step
    ("_kernels.c", "sum += ddot(chunk, x, 1, y, 1);",
     "sum -= ddot(chunk, x, 1, y, 1);"),
    ("_kernels.c", "    if (n == 1)\n        return x[0] * y[0];",
     "    if (n == 1)\n        return -(x[0] * y[0]);"),
    ("_kernels.c", "    if (n == 1)\n        return x[0] * y[0];",
     "    if (n == 0)\n        return x[0] * y[0];"),
    ("_kernels.c", "if (out != a && n > 0)", "if (out != a && n > 1)"),
    ("_kernels.c", "            out[i] = a[i] - x[i] * s;",
     "            out[i] = a[i] + x[i] * s;"),
    ("_kernels.c", "        for (i = 0; i < n; i++)\n"
                   "            out[i] = a[i] - x[i] * s;",
     "        for (i = 0; i < n - 1; i++)\n"
     "            out[i] = a[i] - x[i] * s;"),
    ("_kernels.c", "out[i] = (a[i] - x[i] * s) - y[i] * t;",
     "out[i] = (a[i] + x[i] * s) - y[i] * t;"),
    ("_kernels.c", "out[i] = (a[i] - x[i] * s) - y[i] * t;",
     "out[i] = (a[i] - x[i] * s) + y[i] * t;"),
    ("_kernels.c", "out[i] = (a[i] - x[i] * s) - y[i] * t;",
     "out[i] = a[i] - (x[i] * s + y[i] * t);"),
    ("_kernels.c", "if (isfinite(norm) && norm > cutoff)",
     "if (isfinite(norm) && norm >= cutoff)"),
    ("_kernels.c", "if (isfinite(norm) && norm > cutoff)",
     "if (norm > cutoff)"),
    ("_kernels.c", "        for (i = 0; i < n; i++)\n"
                   "            out[i] /= norm;",
     "        for (i = 1; i < n; i++)\n"
     "            out[i] /= norm;"),
    # --- _kernels.c: products
    ("_kernels.c", "int64_t i = transpose ? n_diags - 1 - p : p;",
     "int64_t i = transpose ? p : p;"),
    ("_kernels.c", "xs = transpose ? -k : k;", "xs = transpose ? k : k;"),
    ("_kernels.c", "int64_t lo = xs < 0 ? -xs : 0;",
     "int64_t lo = xs < 0 ? -xs + 1 : 0;"),
    ("_kernels.c", "int64_t hi = n_in - xs < n_out ? n_in - xs : n_out;",
     "int64_t hi = n_in + xs < n_out ? n_in + xs : n_out;"),
    ("_kernels.c", "y[t] += diag[t + s] * x[t + xs];",
     "y[t] -= diag[t + s] * x[t + xs];"),
    ("_kernels.c", "        for (t = t0; t < t1; t++)\n            y[t] = 0.0;",
     "        for (t = t0 + 1; t < t1; t++)\n            y[t] = 0.0;"),
    ("_kernels.c", "for (t0 = lo_out; t0 < hi_out; t0 += DIA_BLOCK)",
     "for (t0 = lo_out; t0 < hi_out - 1; t0 += DIA_BLOCK)"),
    ("_kernels.c", "sum += values[jj] * x[col_indices[jj]];",
     "sum -= values[jj] * x[col_indices[jj]];"),
    ("_kernels.c", "    for (r = 0; r < n_row; r++) {\n        double sum = 0.0;",
     "    for (r = 0; r < n_row - 1; r++) {\n        double sum = 0.0;"),
    ("_kernels.c", "y[col_indices[jj]] += values[jj] * ur;",
     "y[col_indices[jj]] -= values[jj] * ur;"),
    ("_kernels.c", "    for (r = 0; r < n_col; r++)\n        y[r] = 0.0;",
     "    for (r = 0; r < n_col - 1; r++)\n        y[r] = 0.0;"),
    ("_kernels.c", "y[r] += a[transpose ? j * m + r : r * m + j] * x[j];",
     "y[r] -= a[transpose ? j * m + r : r * m + j] * x[j];"),
    ("_kernels.c", "y[r] += a[transpose ? j * m + r : r * m + j] * x[j];",
     "y[r] += a[transpose ? r * m + j : r * m + j] * x[j];"),
    ("_kernels.c", "if (n_in == 0 || (n_in == 1 && n_out > 1)) {",
     "if (n_in == 0) {"),
    ("_kernels.c", "dgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, n, m, 1.0,",
     "dgemv(CBLAS_ROW_MAJOR, CBLAS_TRANS, n, m, -1.0,"),
    ("_kernels.c", "dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, m, n, 1.0,",
     "dgemv(CBLAS_COL_MAJOR, CBLAS_TRANS, m, n, -1.0,"),
    ("_kernels.c", "job_t j = {op, transpose, x, y, 0, transpose ? op->ncols "
                   ": op->nrows};",
     "job_t j = {op, transpose, x, y, 0, transpose ? op->nrows "
     ": op->ncols};"),
    # --- _kernels.c: the worker
    ("_kernels.c", "    if (work < OAP_WORKER_MIN_WORK\n",
     "    if (work <= OAP_WORKER_MIN_WORK\n"),
    ("_kernels.c", "        work = op->n_diags * op->ncols;",
     "        work = 0;"),
    ("_kernels.c", "        work = op->row_offsets[op->nrows];",
     "        work = 0;"),
    ("_kernels.c", "        work = op->nrows * op->ncols;",
     "        work = 0;"),
    ("_kernels.c", "post(op, transpose, x, y, n_out / 2, n_out);",
     "post(op, transpose, x, y, n_out / 2 + 1, n_out);"),
    ("_kernels.c", "                   transpose, x, y, 0, n_out / 2);",
     "                   transpose, x, y, 0, n_out / 2 - 1);"),
    ("_kernels.c", "        post(op, 1, u, next_v, 0, m);",
     "        post(op, 1, u, next_v, 0, m - 1);"),
    ("_kernels.c", "        if (now_ns() > until)\n            return 0;",
     "        if (now_ns() > until)\n            return 1;"),
    # --- _kernels.c: the steps' overlap checks
    ("_kernels.c", "return n > 0 && m > 0 && pa < pb + (uintptr_t)m",
     "return n > 0 && m > 0 && pa <= pb + (uintptr_t)m"),
    ("_kernels.c", "&& pb < pa + (uintptr_t)n * sizeof(double);",
     "&& pb < pa + (uintptr_t)(n - 1) * sizeof(double);"),
    ("_kernels.c", "for (j = i + 1; j < 3; j++)", "for (j = i + 2; j < 3; j++)"),
    ("_kernels.c", "for (j = 0; j < count; j++)",
     "for (j = 0; j < count - 1; j++)"),
    ("_kernels.c", "int64_t out_lengths[3] = {m, n, n};",
     "int64_t out_lengths[3] = {m, n, 1};"),
    # --- _kernels.c: the two steps
    ("_kernels.c", "    s.alpha = dot(n, u, av);", "    s.alpha = dot(n, v, av);"),
    ("_kernels.c", "                                beta_prev == 0.0 ? NULL "
                   ": u_prev, beta_prev,",
     "                                gamma_prev == 0.0 ? NULL "
     ": u_prev, beta_prev,"),
    ("_kernels.c", "gamma_prev == 0.0 ? NULL : v_prev, gamma_prev,",
     "gamma_prev == 0.0 ? NULL : v_prev, beta_prev,"),
    ("_kernels.c", "    if (!isfinite(s.alpha)) {\n        s.stop = OAP_STOP_ALPHA;\n"
                   "    } else {",
     "    if (!isfinite(s.alpha)) {\n        s.stop = OAP_STOP_GAMMA;\n"
     "    } else {"),
    ("_kernels.c", "    if (beside)\n        join();\n    if (s.stop)\n"
                   "        return s;\n",
     "    if (beside)\n        join();\n"),
    ("_kernels.c", "    if (s.alpha <= floor)\n        return s;",
     "    if (s.alpha < floor)\n        return s;"),
    ("_kernels.c", "s.beta = oap_half_step(m, next_v, v, s.alpha, NULL, 0.0, "
                   "floor, next_v);",
     "s.beta = oap_half_step(m, next_v, v, -s.alpha, NULL, 0.0, "
     "floor, next_v);"),
    ("_kernels.c", "    s.alpha = oap_half_step(n, av, beta_prev == 0.0 ? NULL "
                   ": u_prev,",
     "    s.alpha = oap_half_step(n, av, beta_prev != 0.0 ? NULL "
     ": u_prev,"),
    # --- _kernels.c: the cycle's work (the 14 hand mutants of
    # oap_cycle_advance first)
    ("_kernels.c", "c_next = ((b_u - alpha * s->c_curr) - gamma_prev * "
                   "s->c_prev) / beta;",
     "c_next = (b_u - alpha * s->c_curr) / beta;"),
    ("_kernels.c", "        c_next = (b_u - alpha * s->c_curr) / beta;",
     "        c_next = ((b_u - alpha * s->c_curr) - gamma_prev * "
     "s->c_prev) / beta;"),
    ("_kernels.c", "if (beta <= s->floor)", "if (beta < s->floor)"),
    ("_kernels.c", "if (s->res_norm > s->limit)", "if (s->res_norm >= s->limit)"),
    ("_kernels.c", "fabs(dot(n, x, next_v)) / x_norm > bound)",
     "fabs(dot(n, x, next_v)) / x_norm >= bound)"),
    ("_kernels.c", "s->improved = s->res_norm < s->best_res;",
     "s->improved = s->res_norm <= s->best_res;"),
    ("_kernels.c", "sqrt(s->c_sq) : SQRT_EPS;", "sqrt(s->c_sq) : SQRT_EPS / 2;"),
    ("_kernels.c", "out[i] = x[i] + v[i] * c;", "out[i] = x[i] - v[i] * c;"),
    ("_kernels.c", "res[i] = rhs[i] - ax[i];", "res[i] = rhs[i] + ax[i];"),
    ("_kernels.c", "ax[i] = ax[i] + av[i] * c;", "ax[i] = ax[i] - av[i] * c;"),
    ("_kernels.c", "s->c_abs += fabs(c_next);", "s->c_abs += c_next;"),
    ("_kernels.c", "if (x_norm != 0.0 && fabs(", "if (fabs("),
    ("_kernels.c", "s->c_prev = s->c_curr;", "s->c_prev = c_next;"),
    ("_kernels.c", "b_u = dot(s->nrows, s->rhs, u);",
     "b_u = dot_sum(s->nrows, s->rhs, u);"),
    ("_kernels.c", "    if (s->improved)\n        s->best_res = s->res_norm;\n",
     ""),
    ("_kernels.c", "bound = s->c_sq > 0.0 ?", "bound = s->c_sq >= 0.0 ?"),
    ("_kernels.c", "s->c_sq += c_next * c_next;", "s->c_sq += fabs(c_next);"),
    ("_kernels.c", "    if (!isfinite(c_next))\n        return OAP_CYCLE_NONFINITE;\n",
     ""),
    ("_kernels.c", "    for (i0 = 0; i0 < n; i0 += RES_BLOCK) {",
     "    for (i0 = 0; i0 < n - 1; i0 += RES_BLOCK) {"),
    ("_kernels.c", "    for (i = 0; i < n; i++)\n        out[i] = x[i] + v[i] * c;",
     "    for (i = 1; i < n; i++)\n        out[i] = x[i] + v[i] * c;"),
    # --- solvers.py: the cycle
    ("solvers.py", "            u_prev, u, next_u = u, next_u, u_prev",
     "            u_prev, u, next_u = next_u, u, u_prev"),
    ("solvers.py", "            v_prev, v, next_v = v, next_v, v_prev",
     "            v_prev, v, next_v = next_v, v, v_prev"),
    ("solvers.py", "            v, next_v = next_v, v\n            u, next_u = next_u, u",
     "            u, next_u = next_u, u\n            v, next_v = next_v, v"
     "\n            v, next_v = next_v, v"),
    ("solvers.py", "            x, x_spare, x_other = x_spare, x_other, x",
     "            x, x_spare = x_spare, x"),
    ("solvers.py", "        else:\n            x, x_spare = x_spare, x",
     "        else:\n            x, x_spare, x_other = x_spare, x_other, x"),
    ("solvers.py", "        if state.improved:\n            best = x\n", ""),
    ("solvers.py", "for k in range(1, max(n - 1, 1) + 1):",
     "for k in range(1, max(n - 1, 1)):"),
    ("solvers.py", "for k in range(1, max(n - 1, 1) + 1):",
     "for k in range(1, max(n, 1) + 1):"),
    ("solvers.py", "if two_sided and gamma_k <= floor:",
     "if two_sided and gamma_k < floor:"),
    ("solvers.py", "        beta, gamma = beta_k, gamma_k",
     "        beta, gamma = gamma_k, beta_k"),
    ("solvers.py", "stop = _advance(state, alpha, beta_k, gamma, b_u[1]",
     "stop = _advance(state, alpha, beta_k, gamma_k, b_u[1]"),
    ("solvers.py", "            b_u = next_u", "            b_u = u"),
    ("solvers.py", '"c_sq": c1 * c1', '"c_sq": 0.0'),
    ("solvers.py", '"c_abs": abs(c1)', '"c_abs": c1'),
    ("solvers.py", "DIVERGENCE_FACTOR = 100.0", "DIVERGENCE_FACTOR = 1000.0"),
    ("solvers.py", "                                   else best[0].copy(), k,",
     "                                   else x[0].copy(), k,"),
    ("solvers.py", "    np.multiply(v1, c1, out=x[0])",
     "    np.multiply(v1, -c1, out=x[0])"),
    # --- solvers.py: seeds, budgets and the restart loop
    ("solvers.py", "if nrm <= breakdown_floor(A) * scale:",
     "if nrm < breakdown_floor(A) * scale:"),
    ("solvers.py", "if nrm <= breakdown_floor(A) * scale:",
     "if nrm <= breakdown_floor(A):"),
    ("solvers.py", 'return t * atw, t * dot(as_vector(rhs, "rhs"), w)',
     'return t * atw, -t * dot(as_vector(rhs, "rhs"), w)'),
    ("solvers.py", "if abs(norm2(v1) - 1.0) > 1e-12:",
     "if abs(norm2(v1) - 1.0) > 1e-6:"),
    ("solvers.py", "        if whole < 0:", "        if whole <= 0:"),
    ("solvers.py", "    if bnorm != 0.0 or not b.any():\n        return None",
     "    if True:\n        return None"),
    ("solvers.py", "if new_relres > relres * (1 - 1e-12) else 0",
     "if new_relres >= relres else 0"),
    ("solvers.py", "if no_decrease >= 3 or zero_cycle:",
     "if no_decrease >= 4 or zero_cycle:"),
    ("solvers.py", "        zero_cycle = not result.x_partial.any()",
     "        zero_cycle = False"),
    ("solvers.py", "        if relres <= tol:\n            report.termination",
     "        if relres < tol:\n            report.termination"),
    ("solvers.py", "        if report.restarts >= max_restarts:",
     "        if report.restarts > max_restarts:"),
    ("solvers.py", "        r = b - A.apply(x)", "        r = b - A.apply(x) * 0.5"),
    ("solvers.py", '        if variant == "roap3":', '        if variant == "roap2":'),
    # --- reductions.py
    ("reductions.py", "TAU_BREAK = 1e-13", "TAU_BREAK = 1e-12"),
    ("reductions.py", "            == av[0].shape == (n,)\n",
     "            == (n,)\n"),
    ("reductions.py", "    if not (u_prev[0].shape == next_u[0].shape == "
                      "av[0].shape == (n,)\n"
                      "            and v[0].shape == next_v[0].shape == (m,)):",
     "    if not (u_prev[0].shape == next_u[0].shape == "
     "av[0].shape == (n,)\n"
     "            and v[0].shape == next_v[0].shape == (n,)):"),
    ("reductions.py", "    if not (next_v[0].flags.writeable and "
                      "next_u[0].flags.writeable\n"
                      "            and av[0].flags.writeable):\n"
                      "        raise _read_only(\"tridiag_step\"",
     "    if not (next_v[0].flags.writeable\n"
     "            and av[0].flags.writeable):\n"
     "        raise _read_only(\"tridiag_step\""),
    ("reductions.py", 'lib.OAP_STOP_GAMMA: "gamma"', 'lib.OAP_STOP_GAMMA: "beta"'),
    ("reductions.py", '''        raise _stopped("tridiag_step", k, s.stop)
    return s.alpha, s.beta, s.gamma''',
     '''        raise _stopped("tridiag_step", k, s.stop)
    return s.alpha, s.gamma, s.beta'''),
    ("reductions.py", '    if stop == lib.OAP_STOP_OVERLAP:',
     '    if stop == lib.OAP_STOP_BETA:'),
    # --- linalg.py
    ("linalg.py", "        if width * d > 12 * nnz:", "        if width * d >= 12 * nnz:"),
    ("linalg.py", "limit = 12 * nnz // width", "limit = 12 * nnz // width - 1"),
    ("linalg.py", "head = min(nnz, 8 * (limit + 1))", "head = min(nnz, 8 * limit)"),
    ("linalg.py", "        diag += n\n", "        diag += n - 1\n"),
    ("linalg.py", "    if not np.isfinite(v).all():\n        raise NonFiniteVector",
     "    if np.isnan(v).any():\n        raise NonFiniteVector"),
    ("linalg.py", "if v.ndim != 1 or v.shape[0] != length:", "if v.ndim != 1:"),
    ("linalg.py", "if not 0 <= start <= stop <= self.nrows:",
     "if not 0 <= start <= stop <= self.nrows + 1:"),
    ("linalg.py", "if cols.min() < 0 or cols.max() >= self.ncols:",
     "if cols.min() < 0 or cols.max() > self.ncols:"),
    ("linalg.py", "if np.any(np.diff(off) < 0):", "if np.any(np.diff(off) <= 0):"),
    ("linalg.py", "if np.any(d[interior] <= 0):", "if np.any(d[interior] < 0):"),
    ("linalg.py", "interior[starts[(starts > 0) & (starts < len(cols))] - 1]",
     "interior[starts[(starts > 1) & (starts < len(cols))] - 1]"),
    ("linalg.py", "        if size > _INDEX_MAX:", "        if size > _INDEX_MAX + 1:"),
    ("linalg.py", "((dr == 0) & (np.diff(cols) > 0))",
     "((dr == 0) & (np.diff(cols) >= 0))"),
    ("linalg.py", "if len(rows) and (rows.min() < 0 or rows.max() >= nrows):",
     "if len(rows) and (rows.min() < 0 or rows.max() > nrows):"),
    ("linalg.py", "        vals = vals.copy()\n", "        pass\n"),
    ("linalg.py", "                _kernels.set_blas_threads(1)",
     "                _kernels.set_blas_threads(2)"),
    ("linalg.py", "            self._depth -= 1\n            if self._depth == 0:",
     "            self._depth -= 1\n            if self._depth == 1:"),
    ("linalg.py", "start = (-buf.ctypes.data % 64) // 8",
     "start = (-buf.ctypes.data % 32) // 8"),
    # --- ap.py
    ("ap.py", "if nrm2_atb <= breakdown_floor(A) ** 2 * bb:",
     "if nrm2_atb < breakdown_floor(A) ** 2 * bb:"),
    ("ap.py", "if nrm2_atb <= breakdown_floor(A) ** 2 * bb:",
     "if nrm2_atb <= breakdown_floor(A) ** 2:"),
    ("ap.py", "keep = np.abs(np.diag(R)) > drop_at",
     "keep = np.abs(np.diag(R)) >= drop_at"),
    ("ap.py", "lstsq=stop - start >= A.ncols)", "lstsq=stop - start > A.ncols)"),
    ("ap.py", "if perp2 > RANK_TOL ** 2 * float(np.dot(p, p)):",
     "if perp2 >= RANK_TOL ** 2 * float(np.dot(p, p)):"),
    ("ap.py", "if perp2 > RANK_TOL ** 2 * float(np.dot(p, p)):",
     "if perp2 > RANK_TOL * float(np.dot(p, p)):"),
    ("ap.py", "t = (c - float(np.dot(q, z))) / perp2",
     "t = (c + float(np.dot(q, z))) / perp2"),
    ("ap.py", "c = zz + t * t * perp2", "c = zz - t * t * perp2"),
    ("ap.py", "p, c = u.copy(), zz", "p, c = u, zz"),
    ("ap.py", "if not 1 <= k <= nrows:", "if not 1 <= k < nrows:"),
    ("ap.py", "if np.any(np.diff(bounds) <= 0):", "if np.any(np.diff(bounds) < 0):"),
    ("ap.py", "while relres > tol and report.restarts < max_sweeps:",
     "while relres > tol and report.restarts <= max_sweeps:"),
    ("ap.py", "if partition.bounds[-1] != A.nrows or len(b) != A.nrows:",
     "if partition.bounds[-1] != A.nrows:"),
    ("ap.py", "alpha = bb / nrm2_atb", "alpha = bb / nrm2_atb * 0.5"),
    # --- mmio.py
    ("mmio.py", "for col in range(width - 2, -1, -1):",
     "for col in range(width - 2, 0, -1):"),
    ("mmio.py", '(f"%-{_VALUE_WIDTH}.17g"', '(f"%-{_VALUE_WIDTH}.16g"'),
    ("mmio.py", "        rows -= 1  # to 0-based", "        rows -= 0  # to 0-based"),
    ("mmio.py", "if np.any((rows < 1) | (rows > nrows) | (cols < 1) | "
                "(cols > ncols)):",
     "if np.any((rows < 1) | (rows > nrows) | (cols < 1) | "
     "(cols > ncols + 1)):"),
    ("mmio.py", "    if len(entries) > room:", "    if len(entries) > room + 1:"),
    ("mmio.py", "if len(sizes) != want or min(sizes) < 0:",
     "if len(sizes) != want or min(sizes) < -1:"),
    ("mmio.py", "            size_lineno += 1\n", ""),
    ("mmio.py", 'np.arange(lo, hi), "right")', 'np.arange(lo, hi), "left")'),
    ("mmio.py", "    if ncols == 1:\n        return values[:, 0].copy()",
     "    if ncols == 0:\n        return values[:, 0].copy()"),
    ("mmio.py", "if _fault(entries, nrows, ncols, count) or len(entries) < count:",
     "if _fault(entries, nrows, ncols, count):"),
    ("mmio.py", 'table = np.where(table == ord(" "), 0, table)',
     'table = np.where(table == ord("0"), 0, table)'),
]


def git_status():
    return subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                          capture_output=True, text=True, check=True).stdout


def modules(package):
    """The compiled kernel modules in the copy's package directory."""
    return {name for name in os.listdir(package)
            if name.startswith("_kernels_") and name.endswith(".so")}


def outcomes(report):
    """{test id: passed} from a pytest JUnit XML report."""
    result = {}
    for case in ET.parse(report).getroot().iter("testcase"):
        test = f"{case.get('classname')}::{case.get('name')}"
        result[test] = not any(child.tag in ("failure", "error", "skipped")
                               for child in case)
    return result


def tier1(copy, report, limit):
    """Run Tier-1 in ``copy``; returns (outcomes or None, cause or None,
    seconds)."""
    if os.path.exists(report):
        os.remove(report)
    env = dict(os.environ)
    src = os.path.join(copy, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *TIER1, f"--junitxml={report}"],
                            cwd=copy, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, "timeout", time.monotonic() - start
    seconds = time.monotonic() - start
    if not os.path.exists(report):
        return None, f"crash (exit {proc.returncode})", seconds
    return outcomes(report), None, seconds


def function_of(test):
    """The test function of a case: its id without the parameters."""
    return test.split("[", 1)[0]


def grouped(tests, shown=4):
    """``tests`` as 'function (k)' entries, one per test function, the
    first ``shown`` of them and the count of the others."""
    counts = collections.Counter(function_of(t) for t in tests)
    names = [f"{name} ({k})" if k > 1 else name
             for name, k in sorted(counts.items())]
    more = len(names) - shown
    return ", ".join(names[:shown]) + (f" and {more} more functions"
                                       if more > 0 else "")


def line_of(text, needle):
    return text[:text.index(needle)].count("\n") + 1


def main():
    status = git_status()
    sources = {}
    for name, _, _ in MUTANTS:
        if name not in sources:
            with open(os.path.join(ROOT, PACKAGE, name)) as f:
                sources[name] = f.read()
    kills = {}  # mutant index -> set of killing tests
    results = []
    with tempfile.TemporaryDirectory(prefix="oap-mutants-") as tmp:
        copy = os.path.join(tmp, "tree")
        shutil.copytree(ROOT, copy, ignore=IGNORED)
        package = os.path.join(copy, PACKAGE)
        report = os.path.join(tmp, "report.xml")
        base, cause, seconds = tier1(copy, report, None)
        if base is None or not all(base.values()):
            failed = ([t for t, ok in base.items() if not ok] if base
                      else [cause])
            print(f"the unmutated copy fails Tier-1: {', '.join(failed)}")
            return 2
        passed = {t for t, ok in base.items() if ok}
        print(f"unmutated: {len(passed)} tests passed in {seconds:.0f} s",
              flush=True)
        built = modules(package)
        saved = os.path.join(tmp, "modules")
        os.mkdir(saved)
        for name in built:
            shutil.copy2(os.path.join(package, name), saved)
        limit = max(MIN_LIMIT_S, TIME_LIMIT * seconds)
        for i, (name, old, new) in enumerate(MUTANTS, 1):
            text = sources[name]
            where = f"m{i:03d} {name}"
            found = text.count(old)
            if found != 1:
                results.append("stale")
                print(f"{where}: stale, its text is found {found} times",
                      flush=True)
                continue
            where += f":{line_of(text, old)}"
            path = os.path.join(package, name)
            with open(path, "w") as f:
                f.write(text.replace(old, new))
            try:
                got, cause, seconds = tier1(copy, report, limit)
            finally:
                with open(path, "w") as f:
                    f.write(text)
                for module in modules(package) - built:
                    os.remove(os.path.join(package, module))
                for module in built - modules(package):
                    shutil.copy2(os.path.join(saved, module), package)
            killers = (passed if got is None else
                       {t for t in passed if not got.get(t, False)})
            if not killers:
                results.append("survived")
                print(f"{where}: survived ({seconds:.0f} s)", flush=True)
                continue
            results.append("killed")
            if got is not None:
                kills[i] = killers
            shown = cause or f"{len(killers)} tests: {grouped(killers)}"
            print(f"{where}: killed ({seconds:.0f} s) by {shown}", flush=True)
    counts = collections.Counter(results)
    print(f"\n{len(MUTANTS)} mutants: {counts['killed']} killed, "
          f"{counts['survived']} survived, {counts['stale']} stale")
    by_function = collections.defaultdict(set)
    for i, killers in kills.items():
        for test in killers:
            by_function[function_of(test)].add(i)
    print("\nkills per test function (mutants killed by a run that "
          "reported; timeouts and crashes left out):")
    for function, killed in sorted(by_function.items()):
        print(f"  {function}: {len(killed)}")
    idle = {function_of(t) for t in passed} - set(by_function)
    print(f"  and {len(idle)} functions that kill none")
    print("\nfunctions whose kills another function also makes:")
    for function, killed in sorted(by_function.items()):
        wider = [other for other, more in by_function.items()
                 if other != function and killed <= more
                 and (killed < more or other < function)]
        if wider:
            best = min(wider, key=lambda other: len(by_function[other]))
            print(f"  {function} ({len(killed)}) within {best} "
                  f"({len(by_function[best])})")
    if git_status() != status:
        print("\nthe tree's git status changed during the run")
        return 2
    return 0 if counts["killed"] == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
