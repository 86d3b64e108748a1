"""Matrix Market exchange (coordinate and array formats, real general).

Sparse matrices round-trip through ``coordinate real general``, dense
matrices and vectors through ``array real general`` (a vector is an
n x 1 array).  Files are 1-based per the format; indices are converted
at this boundary.  Values are written with 17 significant digits so a
write/read round trip is bit-exact for float64.
"""

import numpy as np

from .errors import MatrixMarketError, NonFiniteVector
from .linalg import CsrMatrix, DenseMatrix, as_vector

_BANNER = "%%MatrixMarket"


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
    with open(path, "w") as fh:
        fh.write(f"{_BANNER} matrix coordinate real general\n")
        fh.write(f"{m.nrows} {m.ncols} {m.nnz}\n")
        rows = np.repeat(np.arange(1, m.nrows + 1), np.diff(m.row_offsets))
        fh.writelines(f"{i} {j} {v:.17g}\n" for i, j, v in zip(
            rows.tolist(), (m.col_indices + 1).tolist(), m.values.tolist()))


def _write_array(path, values):
    if not np.all(np.isfinite(values)):
        raise NonFiniteVector("refusing to write non-finite values")
    with open(path, "w") as fh:
        fh.write(f"{_BANNER} matrix array real general\n")
        fh.write(f"{values.shape[0]} {values.shape[1]}\n")
        # array format is column-major
        fh.writelines(f"{v:.17g}\n" for v in values.T.ravel().tolist())


def read_matrix_market(path):
    """Read ``path``; returns CsrMatrix, DenseMatrix, or a 1-D vector.

    An array file with one column is returned as a vector.
    """
    with open(path) as fh:
        lines = fh.readlines()
    if not lines:
        raise MatrixMarketError("empty file", lineno=1)

    header = lines[0].split()
    if len(header) != 5 or header[0] != _BANNER:
        raise MatrixMarketError(
            f"malformed header {lines[0].strip()!r}", lineno=1)
    _, obj, layout, field, symmetry = (t.lower() for t in header)
    if obj != "matrix":
        raise MatrixMarketError(f"unsupported object {obj!r}", lineno=1)
    if layout not in ("coordinate", "array"):
        raise MatrixMarketError(f"unsupported format {layout!r}", lineno=1)
    if field != "real":
        raise MatrixMarketError(f"non-real field {field!r}", lineno=1)
    if symmetry != "general":
        raise MatrixMarketError(f"unsupported symmetry {symmetry!r}", lineno=1)

    # skip comments / blank lines up to the size line
    k = 1
    while k < len(lines) and (lines[k].startswith("%") or not lines[k].strip()):
        k += 1
    if k == len(lines):
        raise MatrixMarketError("missing size line", lineno=len(lines))

    if layout == "coordinate":
        return _read_coordinate(lines, k)
    return _read_array(lines, k)


def _split_size(line, lineno, want):
    parts = line.split()
    if len(parts) != want:
        raise MatrixMarketError(
            f"size line needs {want} integers, got {line.strip()!r}",
            lineno=lineno)
    try:
        return [int(p) for p in parts]
    except ValueError:
        raise MatrixMarketError(
            f"size line not integral: {line.strip()!r}", lineno=lineno) from None


def _data_lines(lines, start):
    for offset, raw in enumerate(lines[start:]):
        if raw.startswith("%") or not raw.strip():
            continue
        yield start + offset + 1, raw  # 1-based line number


def _read_coordinate(lines, k):
    nrows, ncols, nnz = _split_size(lines[k], k + 1, 3)
    rows = np.empty(nnz, dtype=np.int64)
    cols = np.empty(nnz, dtype=np.int64)
    vals = np.empty(nnz, dtype=np.float64)
    count = 0
    for lineno, raw in _data_lines(lines, k + 1):
        if count >= nnz:
            raise MatrixMarketError("more entries than announced", lineno=lineno)
        parts = raw.split()
        if len(parts) != 3:
            raise MatrixMarketError(
                f"expected 'row col value', got {raw.strip()!r}", lineno=lineno)
        try:
            i, j, v = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise MatrixMarketError(
                f"unparsable entry {raw.strip()!r}", lineno=lineno) from None
        if not (1 <= i <= nrows and 1 <= j <= ncols):
            raise MatrixMarketError(
                f"index ({i}, {j}) outside {nrows}x{ncols}", lineno=lineno)
        if not np.isfinite(v):
            raise MatrixMarketError(f"non-finite value {parts[2]!r}", lineno=lineno)
        rows[count], cols[count], vals[count] = i - 1, j - 1, v
        count += 1
    if count != nnz:
        raise MatrixMarketError(
            f"announced {nnz} entries, found {count}", lineno=len(lines))
    try:
        return CsrMatrix.from_coo(nrows, ncols, rows, cols, vals)
    except ValueError as exc:
        raise MatrixMarketError(str(exc)) from exc


def _read_array(lines, k):
    nrows, ncols = _split_size(lines[k], k + 1, 2)
    total = nrows * ncols
    flat = np.empty(total, dtype=np.float64)
    count = 0
    for lineno, raw in _data_lines(lines, k + 1):
        if count >= total:
            raise MatrixMarketError("more entries than announced", lineno=lineno)
        try:
            v = float(raw)
        except ValueError:
            raise MatrixMarketError(
                f"unparsable value {raw.strip()!r}", lineno=lineno) from None
        if not np.isfinite(v):
            raise MatrixMarketError(f"non-finite value {raw.strip()!r}", lineno=lineno)
        flat[count] = v
        count += 1
    if count != total:
        raise MatrixMarketError(
            f"announced {total} values, found {count}", lineno=len(lines))
    values = flat.reshape((ncols, nrows)).T  # stored column-major
    if ncols == 1:
        return values[:, 0].copy()
    return DenseMatrix(values)
