"""Compile the kernel source into one extension module with cffi in API
mode.  ``oaplib._kernels`` runs this file as a script in a subprocess,
so the importing process never loads cffi's builder, setuptools or
pycparser; it imports nothing from oaplib.

    python -P _kernels_build.py SOURCE HEADER MODULE TMPDIR TARGET FLAG...

compiles SOURCE, declared in HEADER, into the module MODULE under
TMPDIR, then moves it to TARGET with ``os.replace``.  A compiler error
goes to standard error, with a non-zero exit.
"""

import os
import sys

import cffi


def build(source, header, module, tmpdir, target, flags):
    ffi = cffi.FFI()
    with open(header) as f:
        ffi.cdef(f.read())
    with open(source) as f:
        ffi.set_source(module, f.read(),
                       include_dirs=[os.path.dirname(os.path.abspath(header))],
                       extra_compile_args=list(flags))
    os.replace(ffi.compile(tmpdir=tmpdir), target)


if __name__ == "__main__":
    build(*sys.argv[1:6], sys.argv[6:])
