"""Backend parity: the compiled extension and the NumPy fallback must
agree on the CSR kernels up to accumulation-order rounding."""

import os
import subprocess
import sys

import numpy as np
import pytest

import oaplib
import oaplib._kernels_py as py_kernels
from oaplib import backend_name

from conftest import random_sparse

try:
    import oaplib._kernels as c_kernels
except ImportError:
    c_kernels = None

needs_compiled = pytest.mark.skipif(c_kernels is None,
                                    reason="compiled extension not built")


def test_backend_reports_a_known_name():
    assert backend_name() in ("compiled", "python")


def _backend_in_subprocess(value):
    # the child imports the same oaplib as this process, installed or not
    src = os.path.dirname(os.path.dirname(oaplib.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    if value is None:
        env.pop("OAPLIB_BACKEND", None)
    else:
        env["OAPLIB_BACKEND"] = value
    return subprocess.run(
        [sys.executable, "-c", "import oaplib; print(oaplib.backend_name())"],
        env=env, capture_output=True, text=True)


def test_env_override_forces_python_backend():
    proc = _backend_in_subprocess("python")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "python"


@needs_compiled
def test_env_override_forces_compiled_backend():
    proc = _backend_in_subprocess("compiled")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "compiled"


def test_env_override_rejects_unknown_value():
    proc = _backend_in_subprocess("fortran")
    assert proc.returncode != 0
    assert "OAPLIB_BACKEND" in proc.stderr


@needs_compiled
@pytest.mark.parametrize("n,density", [(5, 0.5), (40, 0.1), (120, 0.05)])
def test_matvec_parity(rng, n, density):
    A = random_sparse(rng, n, density)
    x = rng.standard_normal(n)
    got = c_kernels.csr_matvec(A.row_offsets, A.col_indices, A.values, x)
    want = py_kernels.csr_matvec(A.row_offsets, A.col_indices, A.values, x)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


@needs_compiled
@pytest.mark.parametrize("n,density", [(5, 0.5), (40, 0.1), (120, 0.05)])
def test_matvec_transpose_parity(rng, n, density):
    A = random_sparse(rng, n, density)
    u = rng.standard_normal(n)
    got = c_kernels.csr_matvec_transpose(A.row_offsets, A.col_indices,
                                         A.values, u, n)
    want = py_kernels.csr_matvec_transpose(A.row_offsets, A.col_indices,
                                           A.values, u, n)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=1e-13)


def test_python_kernels_against_dense(rng):
    A = random_sparse(rng, 30, 0.2)
    D = A.to_dense()
    x = rng.standard_normal(30)
    np.testing.assert_allclose(
        py_kernels.csr_matvec(A.row_offsets, A.col_indices, A.values, x),
        D @ x, rtol=1e-13, atol=1e-13)
    np.testing.assert_allclose(
        py_kernels.csr_matvec_transpose(A.row_offsets, A.col_indices,
                                        A.values, x, 30),
        D.T @ x, rtol=1e-13, atol=1e-13)


def test_empty_rows_and_columns(rng):
    # row 1 empty; column 0 never referenced by transpose scatter
    from oaplib import CsrMatrix
    A = CsrMatrix(3, 3, [0, 1, 1, 2], [1, 2], [4.0, 9.0])
    x = np.array([1.0, 2.0, 3.0])
    for kernels in filter(None, (c_kernels, py_kernels)):
        np.testing.assert_array_equal(
            kernels.csr_matvec(A.row_offsets, A.col_indices, A.values, x),
            [8.0, 0.0, 27.0])
        np.testing.assert_array_equal(
            kernels.csr_matvec_transpose(A.row_offsets, A.col_indices,
                                         A.values, x, 3),
            [0.0, 4.0, 27.0])
