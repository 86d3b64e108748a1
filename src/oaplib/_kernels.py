"""Compiled vector kernels under the reduction steps, the cycle and the
banded products, with the bits of the NumPy formulas they replace.

Each kernel does in one C pass what NumPy did in one call per
elementwise operation:

* ``half_step`` - one half of a reduction step: out = (a - x s) - y t,
  then its norm, and out divided by the norm when that is finite and
  above the breakdown floor;
* ``lib.oap_residual_update`` - the cycle's A x += c A v and
  res = rhs - A x, returning res'res;
* ``dots`` - x'x and x'v for the cycle's angle test;
* ``axpy`` - the cycle's x + c v, as a new array;
* ``dia_matvec`` - y = A x over DIA arrays, cache-blocked: every
  diagonal adds into one block of 512 rows before the next block, and
  each entry of y still receives its terms in scipy ``dia_matvec``'s
  order.

The bits are NumPy's: each product and difference rounds once (the C
source is compiled with ``-ffp-contract=off`` and without
``-ffast-math``), and every inner product calls the ``cblas_ddot`` that
``ndarray.dot`` calls, numpy's ``scipy_cblas_ddot64_``, looked up on
numpy's extension module as ``linalg._blas_threads`` looks up the
thread symbols.  The NumPy formulas are the reference in
``tests/test_kernels.py``.

The C source (``_kernels.c``, declared in ``_kernels.h``) is built from
the checkout on the first import, by cffi in API mode, in a subprocess
of ``sys.executable`` (``_kernels_build.py``), so the importing process
loads neither setuptools nor pycparser.  The module is named
``_kernels_<hash>``, a hash of the source, the header, the compiler
flags, the host CPU's flags and cffi's version: a changed source or
another CPU builds a new module rather than loading a stale one.  The
build writes under a temporary name and moves the module into this
directory with ``os.replace``, under a lock file, so concurrent first
imports build once.  A failed build, or a numpy without the ddot
symbol, raises ImportError; there is no NumPy fallback.

cffi releases the interpreter lock around each kernel call.  Every
vector a caller hands in goes through ``vector``, which checks that it
is a C-contiguous float64 ndarray of the expected length and, where the
kernel writes, writable.  Two kinds skip it: the arrays the wrappers
allocate themselves, and ``dia_matvec``'s x, which ``CsrMatrix``
checks (``_check_apply`` is the length guard of every product kernel).
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

from .errors import DimensionMismatch

_HERE = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_HERE, "_kernels.c")
_HEADER = os.path.join(_HERE, "_kernels.h")
_BUILDER = os.path.join(_HERE, "_kernels_build.py")
# the host's ISA, hashed into the module name; no contraction into
# fused multiply-adds, so every operation rounds as NumPy's loops do
FLAGS = ("-O3", "-march=native", "-ffp-contract=off")
DDOT = "scipy_cblas_ddot64_"
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
    ``dest``, in a subprocess; returns the module's path.  Raises
    ImportError carrying the compiler's stderr."""
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


def _ddot_address():
    """Address of numpy's ``cblas_ddot``; the lookup on numpy's extension
    module also searches the libraries it links, scipy_openblas among
    them."""
    try:
        ddot = getattr(ctypes.CDLL(np._core._multiarray_umath.__file__), DDOT)
    except AttributeError:
        raise ImportError(f"numpy's BLAS exports no {DDOT}: the kernels "
                          f"would not round as ndarray.dot does") from None
    return ctypes.cast(ddot, ctypes.c_void_p).value


_module = _load()
ffi, lib = _module.ffi, _module.lib
lib.oap_set_ddot(ffi.cast("void *", _ddot_address()))

_F64 = np.dtype(np.float64)
_DOUBLES = ffi.typeof("double[]")
_INTS = ffi.typeof("int32_t[]")
_from_buffer = ffi.from_buffer


def vector(a, n, writable=False):
    """``a`` as a C ``double[]`` of n entries, for a kernel to read (or,
    when ``writable``, write).  Refuses anything but a C-contiguous
    float64 ndarray of shape (n,), and a read-only one when
    ``writable``; the result keeps ``a`` alive."""
    try:
        ok = a.dtype == _F64 and a.shape == (n,)
    except AttributeError:
        ok = False
    if not ok:
        raise _refusal(a, n)
    return _from_buffer(_DOUBLES, a, writable)


def _refusal(a, n):
    if not isinstance(a, np.ndarray) or a.dtype != _F64:
        return TypeError(f"expected a float64 ndarray, got "
                         f"{getattr(a, 'dtype', type(a).__name__)}")
    return DimensionMismatch(f"expected {n} entries, got shape {a.shape}")


def half_step(a, x, s, y, t, floor, out):
    """out = (a - x s) - y t, each term skipped when its vector is None
    (both when x is); then norm = ||out||, and out /= norm when norm is
    finite and above ``floor``.  Returns norm.  ``out`` may be ``a``
    itself; x and y share no memory with it."""
    n = len(a)
    out_c = vector(out, n, writable=True)
    return lib.oap_half_step(
        n, out_c if out is a else vector(a, n),
        ffi.NULL if x is None else vector(x, n), s,
        ffi.NULL if y is None else vector(y, n), t, floor, out_c)


def dots(x, v):
    """``(x'x, x'v)`` in one call."""
    n = len(x)
    d = lib.oap_dots(n, vector(x, n), vector(v, n))
    return d.xx, d.xv


def axpy(x, c, v):
    """x + v c as a new array."""
    n = len(x)
    out = np.empty(n)
    lib.oap_axpy(n, vector(x, n), c, vector(v, n),
                 _from_buffer(_DOUBLES, out, True))
    return out


def dia_args(n_row, offsets, data):
    """scipy ``dia_matvec``'s arguments before x and y for an operator of
    n_row rows with DIA arrays ``offsets`` (int32) and ``data`` (float64,
    one row of n_col slots per offset), the arrays as C arrays: made once
    per operator, each keeps its array alive."""
    d, n_col = data.shape
    if offsets.dtype != np.int32 or data.dtype != _F64 or len(offsets) != d:
        raise TypeError("DIA arrays must be int32 offsets and a float64 "
                        "row of data per offset")
    return (n_row, n_col, d, n_col, _from_buffer(_INTS, offsets),
            _from_buffer(_DOUBLES, data))


def dia_matvec(n_row, n_col, n_diags, L, offsets, data, x, y):
    """y = A x over the DIA arrays of ``dia_args``, with scipy
    ``dia_matvec``'s arguments and sums.  Unlike scipy's, it writes every
    entry of y rather than adding into it.  The caller checks that x has
    n_col entries and y n_row."""
    lib.oap_dia_matvec(n_row, n_col, n_diags, L, offsets, data,
                       _from_buffer(_DOUBLES, x), _from_buffer(_DOUBLES, y, True))
