"""Compiled kernels under the operators' products, the reduction steps
and the cycle, with the bits of the NumPy, scipy and Python formulas
they replace.

Each operator has one C descriptor, ``oap_operator_t``, which its first
product builds (``banded``, ``csr`` or ``dense`` below) over arrays the
operator owns, and every product of it is one call of
``lib.oap_product`` over that descriptor:

* banded: A's DIA arrays, read by both products, cache-blocked: every
  diagonal adds into one block of 512 entries of y before the next
  block, and each entry still receives its terms in scipy
  ``dia_matvec``'s order (for A'u, its order over A', whose diagonal -k
  is A's k: A's diagonals in descending offset order);
* CSR: A's own arrays, each y[r] of A v from +0.0 over its row in
  ascending column order, A'u scattered row by row into a zeroed y, as
  scipy's ``csr_matvec`` and ``csc_matvec`` add them;
* dense: the row-major block, through the ``cblas_dgemv`` that
  ``np.matmul`` calls, with its arguments, and ``np.matmul``'s own loops
  for a one-entry input or output.

Over the descriptor, one call makes a whole reduction step
(``lib.oap_tridiag_step``, ``lib.oap_bidiag_step``): A v, alpha, the
u-side half step, A'u and the v-side half step, stopping where
``oaplib.reductions`` documents.  A half step, ``lib.oap_half_step``,
forms out = (a - x s) - y t, its norm, and out divided by the norm when
that is finite and above the breakdown floor.  After each step one more
call, ``lib.oap_cycle_advance``, does the rest of the cycle's work over
a per-cycle state, ``oap_cycle_t``: A x += c A v, res = rhs - A x and
its norm, the best-prefix test, the divergence guard, the breakdown
test, b'u, the coefficient update and its finiteness, the angle test
(x'x and x'v) and the next x, x + c v; it returns a stop code
(``OAP_CYCLE_*``).

The bits are NumPy's: each product and difference rounds once (the C
source is compiled with ``-ffp-contract=off`` and without
``-ffast-math``), every inner product calls the ``cblas_ddot`` that
``ndarray.dot`` calls, numpy's ``scipy_cblas_ddot64_``, and a dense
product the ``cblas_dgemv``, ``scipy_cblas_dgemv64_``, both looked up on
numpy's extension module, as are OpenBLAS's thread count symbols
(``get_blas_threads``, ``set_blas_threads``), which the solves use.  The
NumPy and scipy formulas are the reference in ``tests/test_kernels.py``,
and the cycle's Python and NumPy arithmetic, in ``tests/conftest.py``.

The C source (``_kernels.c``, declared in ``_kernels.h``) is built from
the checkout on the first import, by cffi in API mode, in a subprocess
of ``sys.executable`` (``_kernels_build.py``), so the importing process
loads neither setuptools nor pycparser.  The module is named
``_kernels_<hash>``, a hash of the source, the header, the compiler
flags, the host CPU's flags and cffi's version: a changed source or
another CPU builds a new module rather than loading a stale one.  The
build writes under a temporary name and moves the module into this
directory with ``os.replace``, under a lock file, so concurrent first
imports build once; then it removes the directory's other
``_kernels_*`` modules (a process that loaded one keeps its mapping).
A failed build, or a numpy without these BLAS symbols, raises
ImportError; there is no NumPy fallback.

cffi releases the interpreter lock around each kernel call.  The
lifetime rule: C reads and writes only the rows of a block that
``rows`` made (one ``ffi.from_buffer`` per block, so the block's shape
is the one length check of every row; the caller keeps each row's array
beside its pointer) and arrays held by the object that hands them over.
A descriptor holds the arrays its pointers address, through ``ffi.gc``,
as long as it lives.  A cycle state points into the rows of the cycle
that makes it with ``ffi.new``; the cycle holds the state and its
blocks together until it returns, and nothing else holds the state.
The only other arrays that reach C are ``product``'s x and y, which are
the operator's (``LinearOperator`` checks x and makes y), each through
an ``ffi.from_buffer`` that holds it for the call.
"""

import ctypes
import fcntl
import hashlib
import importlib
import os
import subprocess
import sys
import sysconfig
import tempfile

import _cffi_backend
import numpy as np

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernels.c")
_HEADER = os.path.join(_HERE, "_kernels.h")
_BUILDER = os.path.join(_HERE, "_kernels_build.py")
# the host's ISA, hashed into the module name; no contraction into
# fused multiply-adds, so every operation rounds as NumPy's loops do
FLAGS = ("-O3", "-march=native", "-ffp-contract=off")
DDOT = "scipy_cblas_ddot64_"
DGEMV = "scipy_cblas_dgemv64_"
_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX")


def _cpu_flags():
    """The host CPU's feature flags as the kernel sees them at import."""
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return line
    except OSError:
        pass
    return os.uname().machine


def module_name():
    """``_kernels_`` and 16 hex digits of the hash of everything the
    built module depends on."""
    digest = hashlib.sha256()
    for path in (_SOURCE, _HEADER):
        with open(path, "rb") as f:
            digest.update(f.read())
    for text in (*FLAGS, _cpu_flags(), _cffi_backend.__version__):
        digest.update(text.encode() + b"\0")
    return "_kernels_" + digest.hexdigest()[:16]


def _build(source, module, dest):
    """Compile ``source``, declared in this package's ``_kernels.h``,
    into the extension module ``oaplib.<module>`` in the directory
    ``dest``, in a subprocess, and remove the other ``_kernels_*``
    modules there; returns the module's path.  Raises ImportError
    carrying the compiler's stderr, having removed nothing."""
    target = os.path.join(dest, module + _SUFFIX)
    # the flags are the interpreter's own and FLAGS: a CFLAGS such as
    # -ffast-math would change the bits without changing the name
    env = {k: v for k, v in os.environ.items()
           if k not in ("CFLAGS", "CPPFLAGS")}
    with tempfile.TemporaryDirectory(prefix=".build-", dir=dest) as tmp:
        run = subprocess.run(
            [sys.executable, "-P", _BUILDER, source, _HEADER,
             f"oaplib.{module}", tmp, target, *FLAGS],
            cwd=tmp, env=env, capture_output=True, text=True)
    if run.returncode != 0:
        raise ImportError(f"building oaplib.{module} from {source} failed:\n"
                          f"{run.stderr}")
    # the modules of older sources; a process that loaded one keeps it
    for name in os.listdir(dest):
        if (name.startswith("_kernels_") and name.endswith(_SUFFIX)
                and name != os.path.basename(target)):
            os.remove(os.path.join(dest, name))
    return target


def _load():
    """The built module, built first if this checkout has none."""
    module = module_name()
    path = os.path.join(_HERE, module + _SUFFIX)
    if not os.path.exists(path):
        with open(os.path.join(_HERE, ".kernels.lock"), "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)  # released when lock closes
            if not os.path.exists(path):  # no other process built it
                _build(_SOURCE, module, _HERE)
        importlib.invalidate_caches()
    return importlib.import_module(f"oaplib.{module}")


# numpy's extension module; a lookup on it also searches the libraries
# it links, scipy_openblas among them
_NUMPY = ctypes.CDLL(np._core._multiarray_umath.__file__)


def _blas(symbol):
    """numpy's BLAS function ``symbol``, as a ctypes function."""
    try:
        return getattr(_NUMPY, symbol)
    except AttributeError:
        raise ImportError(f"numpy's BLAS exports no {symbol}: oaplib "
                          f"rounds as ndarray.dot and np.matmul do, and "
                          f"holds their OpenBLAS to one thread, only "
                          f"through numpy's own scipy_openblas") from None


def _address(symbol):
    """The address of ``_blas(symbol)``, as a C pointer."""
    return ffi.cast("void *",
                    ctypes.cast(_blas(symbol), ctypes.c_void_p).value)


_module = _load()
ffi, lib = _module.ffi, _module.lib
lib.oap_set_blas(_address(DDOT), _address(DGEMV))
# the thread count of numpy's OpenBLAS, process-wide
get_blas_threads = _blas("scipy_openblas_get_num_threads64_")
get_blas_threads.argtypes, get_blas_threads.restype = (), ctypes.c_int
set_blas_threads = _blas("scipy_openblas_set_num_threads64_")
set_blas_threads.argtypes, set_blas_threads.restype = (ctypes.c_int,), None

_F64 = np.dtype(np.float64)
_DOUBLES = ffi.typeof("double[]")
_INTS = ffi.typeof("int32_t[]")
_OPERATOR = ffi.typeof("oap_operator_t *")
_from_buffer = ffi.from_buffer


def rows(count, n):
    """A new block of ``count`` rows of n float64 entries, as one pair
    ``(array, pointer)`` per row: the row's ndarray view and a C
    ``double *`` to its first entry, all from one ``ffi.from_buffer`` of
    the block.  A pointer does not keep the block alive; the row's array
    does, so keep the pair while the pointer is in use."""
    block = np.empty((count, n))
    base = _from_buffer(_DOUBLES, block, True)
    return [(block[i], base + i * n) for i in range(count)]


def _descriptor(layout, nrows, ncols, *arrays):
    """A new ``oap_operator_t`` of ``layout``, its pointers NULL, that
    holds ``arrays``, the ones its pointers are to address, as long as it
    lives: ``ffi.gc`` keeps its destructor, which refers to them."""
    op = ffi.gc(ffi.new(_OPERATOR), lambda _, held=arrays: None)
    op.layout, op.nrows, op.ncols = layout, nrows, ncols
    return op


def _c_array(a, ctype, dtype, shape):
    """A C pointer into ``a``, refusing an array of another dtype or
    shape (a pointer into it would reinterpret its bytes) and, through
    ``ffi.from_buffer``, a non-contiguous one."""
    if not isinstance(a, np.ndarray) or a.dtype != dtype or a.shape != shape:
        raise TypeError(f"expected a {np.dtype(dtype)} array of shape "
                        f"{shape}, got {getattr(a, 'dtype', type(a))} "
                        f"{getattr(a, 'shape', '')}")
    return _from_buffer(ctype, a)


def banded(nrows, ncols, offsets, data):
    """The descriptor of an nrows x ncols operator over its DIA arrays:
    int32 ``offsets`` ascending and float64 ``data`` with one row of
    ncols slots per offset, as ``CsrMatrix._diagonals`` builds them; both
    products read them."""
    d = len(offsets)
    op = _descriptor(lib.OAP_BANDED, nrows, ncols, offsets, data)
    op.n_diags = d
    op.offsets = _c_array(offsets, _INTS, np.int32, (d,))
    op.data = _c_array(data, _DOUBLES, _F64, (d, ncols))
    return op


def csr(nrows, ncols, row_offsets, col_indices, values):
    """The descriptor of an nrows x ncols operator over its CSR arrays
    (int32 indices, float64 values), which the operator has checked."""
    nnz = len(values)
    op = _descriptor(lib.OAP_CSR, nrows, ncols, row_offsets, col_indices,
                     values)
    op.row_offsets = _c_array(row_offsets, _INTS, np.int32, (nrows + 1,))
    op.col_indices = _c_array(col_indices, _INTS, np.int32, (nnz,))
    op.values = _c_array(values, _DOUBLES, _F64, (nnz,))
    return op


def dense(values):
    """The descriptor of a dense operator over its row-major float64
    block ``values``."""
    nrows, ncols = values.shape
    op = _descriptor(lib.OAP_DENSE, nrows, ncols, values)
    op.values = _c_array(values, _DOUBLES, _F64, (nrows, ncols))
    return op


def product(op, transpose, x, y):
    """y = A x (``transpose`` 0) or A'x (1) over the descriptor ``op``.
    The caller checks that x and y are C-contiguous float64 arrays of the
    product's lengths, y writable and apart from x."""
    lib.oap_product(op, transpose, _from_buffer(_DOUBLES, x),
                    _from_buffer(_DOUBLES, y, True))
