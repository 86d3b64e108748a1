"""Matrix Market exchange (coordinate and array formats, real general).

Sparse matrices round-trip through ``coordinate real general``, dense
matrices and vectors through ``array real general`` (a vector is an
n x 1 array).  Files are 1-based per the format; indices are converted
at this boundary.  Values are written with 17 significant digits so a
write/read round trip is bit-exact for float64.  The writers render
blocks of ``_CHUNK`` entries, each as one NUL-padded uint8 matrix with a
row per line, and write a block with one call once its NULs are
dropped; the bytes are those of one line ``%d %d %.17g`` or ``%.17g``
per entry.  Each distinct value of a block, told apart by bit pattern
so that -0.0 keeps its sign, is formatted once.  Indices are looked up
in a table of the digits of 0..max(nrows, ncols), built once per file,
or converted directly when the file holds fewer entries than that
table would hold numbers.  Either layout's data go through one
``np.loadtxt`` call on the open file; only data with ``%`` comment lines
or a bad entry are parsed again from a filtered line generator, and a
bad line is reported by number.  Indices are parsed as int64, made
0-based in place, and reach ``CsrMatrix``'s int32 only through its
checks, so an index or size that int32 cannot hold is an error, never
a wrapped value.  The coordinate writer emits entries in row-major
order, which ``CsrMatrix.from_coo`` takes without sorting.
"""

import functools
import warnings

import numpy as np

from .errors import MatrixMarketError
from .linalg import CsrMatrix, DenseMatrix, as_vector

_BANNER = "%%MatrixMarket"
_CHUNK = 8192  # entries rendered per write
_VALUE_WIDTH = 24  # the longest %.17g of a float64: -2.2250738585072014e-308
# A data line is one entry; the dtype fixes its columns and their types.
_ENTRY = {"array": np.dtype([("value", np.float64)]),
          "coordinate": np.dtype([("row", np.int64), ("col", np.int64),
                                  ("value", np.float64)])}


def write_matrix_market(path, payload):
    """Write a CsrMatrix, DenseMatrix, or 1-D vector to ``path``."""
    if isinstance(payload, CsrMatrix):
        _write_coordinate(path, payload)
    elif isinstance(payload, DenseMatrix):
        _write_array(path, payload.values)
    else:
        vec = as_vector(payload, "payload")
        _write_array(path, vec.reshape(-1, 1))


def _write_coordinate(path, m):
    top = max(m.nrows, m.ncols)
    width = len(str(top))
    if top <= m.nnz:  # indices repeat: convert 0..top once, then look up
        table = _digits(np.arange(top + 1), width)
        digits = functools.partial(np.take, table, axis=0)
    else:  # a table would hold more numbers than the file
        digits = functools.partial(_digits, width=width)
    with open(path, "wb") as fh:
        fh.write(f"{_BANNER} matrix coordinate real general\n"
                 f"{m.nrows} {m.ncols} {m.nnz}\n".encode())
        for lo in range(0, m.nnz, _CHUNK):
            hi = min(lo + _CHUNK, m.nnz)
            # 1-based row of each entry: the number of row starts <= it
            rows = np.searchsorted(m.row_offsets, np.arange(lo, hi), "right")
            fh.write(_render([digits(rows), digits(m.col_indices[lo:hi] + 1),
                              _value_text(m.values[lo:hi])]))


def _write_array(path, values):
    with open(path, "wb") as fh:
        fh.write(f"{_BANNER} matrix array real general\n"
                 f"{values.shape[0]} {values.shape[1]}\n".encode())
        flat = values.ravel(order="F")  # array format is column-major
        for lo in range(0, len(flat), _CHUNK):
            fh.write(_render([_value_text(flat[lo:lo + _CHUNK])]))


def _digits(numbers, width):
    """Decimal digits of non-negative ``numbers`` as uint8 rows of
    ``width`` bytes, right-aligned and NUL-padded on the left."""
    out = np.zeros((len(numbers), width), np.uint8)
    q = np.array(numbers, dtype=np.int64)
    out[:, -1] = q % 10 + ord("0")
    for col in range(width - 2, -1, -1):  # one column at a time
        q //= 10
        out[:, col] = np.where(q, q % 10 + ord("0"), 0)
    return out


def _value_text(values):
    """``%.17g`` of each of ``values`` as uint8 rows, NUL-padded on the
    right.  Each distinct value is formatted once; distinct by bit
    pattern, so that -0.0 and 0.0 keep their own text."""
    bits, inverse = np.unique(values.view(np.uint64), return_inverse=True)
    text = (f"%-{_VALUE_WIDTH}.17g" * len(bits)  # space-padded
            % tuple(bits.view(np.float64).tolist())).encode()
    table = np.frombuffer(text, np.uint8).reshape(len(bits), _VALUE_WIDTH)
    table = np.where(table == ord(" "), 0, table)
    table = table[:, :np.count_nonzero(table.any(axis=0))]  # longest text
    return np.take(table, inverse, axis=0)


def _render(fields):
    """The lines whose fields are the rows of the uint8 matrices
    ``fields``, as bytes: fields joined by a space, NULs dropped."""
    line = np.empty((len(fields[0]), sum(f.shape[1] + 1 for f in fields)),
                    np.uint8)
    at = 0
    for f in fields:
        line[:, at:at + f.shape[1]] = f
        at += f.shape[1] + 1
        line[:, at - 1] = ord(" ")
    line[:, -1] = ord("\n")
    return line.tobytes().translate(None, b"\0")


def read_matrix_market(path):
    """Read ``path``; returns CsrMatrix, DenseMatrix, or a 1-D vector.

    An array file with one column is returned as a vector.
    """
    with open(path) as fh:
        header = fh.readline()
        if not header:
            raise MatrixMarketError("empty file", lineno=1)
        tokens = header.split()
        if len(tokens) != 5 or tokens[0] != _BANNER:
            raise MatrixMarketError(
                f"malformed header {header.strip()!r}", lineno=1)
        _, obj, layout, field, symmetry = (t.lower() for t in tokens)
        if ((obj, field, symmetry) != ("matrix", "real", "general")
                or layout not in _ENTRY):
            raise MatrixMarketError(
                f"unsupported {header.strip()!r}: only real general "
                "matrices, coordinate or array", lineno=1)

        # skip comments / blank lines up to the size line; readline, not
        # iteration, so that tell() still works
        size_lineno, line = 1, ""
        while not line.strip() or line.startswith("%"):
            line = fh.readline()
            if not line:
                raise MatrixMarketError("missing size line",
                                        lineno=size_lineno)
            size_lineno += 1
        nrows, ncols, *nnz = _split_size(
            line, size_lineno, 3 if layout == "coordinate" else 2)
        count = nnz[0] if nnz else nrows * ncols
        data_start = fh.tell()
        entries = _parse(fh, layout)  # the open file: no Python per line
        if entries is None:  # a % line or a bad entry: parse the lines
            fh.seek(data_start)  # again with the % lines filtered out
            entries = _parse(
                (line for line in fh if not line.startswith("%")), layout)
    if _fault(entries, nrows, ncols, count) or len(entries) < count:
        _locate(path, size_lineno, layout, nrows, ncols, count)

    if layout == "coordinate":
        rows, cols = entries["row"], entries["col"]
        rows -= 1  # to 0-based in place, not as two int64 copies
        cols -= 1
        try:
            return CsrMatrix._from_coo(nrows, ncols, rows, cols,
                                       entries["value"], adopt=True)
        except ValueError as exc:
            raise MatrixMarketError(str(exc)) from exc
    values = entries["value"].reshape((ncols, nrows)).T  # stored column-major
    if ncols == 1:
        return values[:, 0].copy()
    return DenseMatrix._adopt(values)


def _split_size(line, lineno, want):
    try:  # the data lines' int64 rule: no "1_0", no non-ASCII digits
        sizes = np.loadtxt([line], np.int64, comments=None, ndmin=1).tolist()
    except ValueError:
        sizes = []
    if len(sizes) != want or min(sizes) < 0:
        raise MatrixMarketError(
            f"size line needs {want} integers >= 0, got {line.strip()!r}",
            lineno=lineno)
    return sizes


def _parse(lines, layout):
    """Parse data lines (an open file or an iterable of lines; blank ones
    are skipped), or None; a ``%`` line is data here, so it fails."""
    with warnings.catch_warnings():
        # nnz = 0 and a 0 x n array are valid files with no data
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        try:
            return np.loadtxt(lines, dtype=_ENTRY[layout], comments=None,
                              ndmin=1)
        except ValueError:
            return None


def _fault(entries, nrows, ncols, room):
    """Why parsed ``entries`` do not fit ``room`` more slots, or None."""
    if entries is None:
        return "unparsable entry"
    if len(entries) > room:
        return "more entries than announced"
    if "row" in entries.dtype.names:
        rows, cols = entries["row"], entries["col"]
        if np.any((rows < 1) | (rows > nrows) | (cols < 1) | (cols > ncols)):
            return f"index outside {nrows}x{ncols}"
    if not np.all(np.isfinite(entries["value"])):
        return "non-finite value"
    return None


def _locate(path, size_lineno, layout, nrows, ncols, count):
    """Raise at the first data line that fails ``_parse`` or ``_fault``.

    Runs only after a whole-array check failed.  If no line fails, an
    entry is missing, and the error names the file's last line.
    """
    found, lineno = 0, size_lineno
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            if lineno <= size_lineno or line.startswith("%"):
                continue
            entry = _parse([line], layout)
            fault = _fault(entry, nrows, ncols, count - found)
            if fault:
                raise MatrixMarketError(f"{fault}: {line.strip()!r}",
                                        lineno=lineno)
            found += len(entry)
    raise MatrixMarketError(f"announced {count} entries, found {found}",
                            lineno=lineno)
