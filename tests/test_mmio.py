import numpy as np
import pytest

from oaplib import (CsrMatrix, DenseMatrix, MatrixMarketError, NonFiniteVector,
                    gen_convdiff2d, read_matrix_market, write_matrix_market)
from oaplib import mmio

from conftest import random_sparse, traced_peak


# name -> payload; the vectors' 17 significant digits keep every bit
ROUNDTRIPS = {
    "identity 2": lambda rng: CsrMatrix.identity(2),
    "sparse 50": lambda rng: random_sparse(rng, 50, density=0.1),
    "empty 2x3": lambda rng: CsrMatrix(2, 3, [0, 0, 0], [], []),
    "dense 7x4": lambda rng: DenseMatrix(rng.standard_normal((7, 4))),
    "vector 11": lambda rng: rng.standard_normal(11),
    "vector pi, 1/3, 6.0659e-12": lambda rng: np.array(
        [np.pi, 1.0 / 3.0, 6.0659e-12]),
}


@pytest.mark.parametrize("name", ROUNDTRIPS)
def test_roundtrip_is_bit_exact(tmp_path, rng, name):
    payload = ROUNDTRIPS[name](rng)
    path = tmp_path / "a.mtx"
    write_matrix_market(path, payload)
    back = read_matrix_market(path)
    assert type(back) is type(payload) and back.shape == payload.shape
    for array in ("values", "row_offsets", "col_indices"):
        if hasattr(payload, array):
            assert (getattr(back, array).tobytes()
                    == getattr(payload, array).tobytes())
    if isinstance(payload, np.ndarray):
        assert back.tobytes() == payload.tobytes()
    # write -> read -> write reproduces the bytes
    again = tmp_path / "b.mtx"
    write_matrix_market(again, back)
    assert again.read_bytes() == path.read_bytes()


def test_non_finite_vector_is_refused_before_the_file_is_made(tmp_path):
    path = tmp_path / "bad.mtx"
    with pytest.raises(NonFiniteVector):
        write_matrix_market(path, np.array([1.0, np.inf]))
    assert not path.exists()


_COO = "%%MatrixMarket matrix coordinate real general\n"
_ARRAY = "%%MatrixMarket matrix array real general\n"


@pytest.mark.parametrize("content,lineno", [
    ("%%MatrixMarket tensor coordinate real general\n1 1 0\n", 1),
    ("%%MatrixMarket matrix coordinate complex general\n1 1 0\n", 1),
    ("%%MatrixMarket matrix coordinate real symmetric\n1 1 0\n", 1),
    ("not a header\n", 1),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n", 3),
    ("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 x 1.0\n", 3),
    ("%%MatrixMarket matrix array real general\n2 1\n1.0\nbogus\n", 4),
    # negative counts on the size line
    ("%%MatrixMarket matrix array real general\n-2 3\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n2 2 -1\n", 2),
    ("%%MatrixMarket matrix coordinate real general\n-2 2 0\n", 2),
    # size-line integers follow the data lines' rule
    (_COO + "1_0 2 0\n", 2),
    (_COO + "\u0661 2 0\n", 2),
    # an empty file; no size line
    ("", 1),
    (_COO + "% only comments\n\n", 3),
    # a bad entry after comment and blank lines inside the data section
    (_COO + "3 3 3\n1 1 1\n% mid\n\n   \n2 2 x\n3 3 1\n", 7),
    # '%' starts a comment only in the first column
    (_COO + "1 1 1\n1 1 1.0 % c\n", 3),
    (_COO + "2 2 1\n  % c\n1 1 1\n", 3),
    # integer indices within the size line's bounds, finite values
    (_COO + "2 2 1\n1.0 1 1\n", 3),
    (_COO + "2 2 1\n1 1e0 1\n", 3),
    (_COO + "2 2 1\n1 1\n", 3),
    (_COO + "2 2 2\n1 1 1\n1 0 1\n", 4),
    (_COO + "2 2 2\n1 1 1\n1 3 1\n", 4),
    (_COO + "2 2 2\n1 1 1\n2 2 nan\n", 4),
    (_COO + "2 2 1\n1 1 1e400\n", 3),
    (_ARRAY + "2 1\n1\ninf\n", 4),
    # one entry too many: the first extra entry, even if it is garbage
    (_COO + "2 2 1\n1 1 1\n% c\n2 2 1\n", 5),
    (_COO + "2 2 1\n1 1 1\nfoo\n", 4),
    (_COO + "2 3 0\n1 1 1\n", 3),
    (_ARRAY + "1 1\n1\n2\n", 4),
    # one entry too few: the file's last line
    (_COO + "2 2 3\n1 1 1\n2 2 1\n% end\n\n", 6),
    (_ARRAY + "2 2\n1\n2\n3", 5),
    (_COO + "2 2 2\n1 1 1.0\n", 3),
    # an array line holds one value
    (_ARRAY + "2 1\n1 2\n3\n", 3),
    (_ARRAY + "2 1\n1\n2 3\n", 4),
])
def test_parse_errors_carry_line_numbers(tmp_path, content, lineno):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError) as err:
        read_matrix_market(path)
    assert err.value.lineno == lineno


@pytest.mark.parametrize("content, message", [
    (_COO + "2 3000000000 1\n1 1 1.0\n", "ncols"),
    (_COO + "2 2 2\n1 1 1\n1 1 2\n", "duplicate"),
    (_COO + "2 -1 0\n", "integers >= 0"),
    (_ARRAY + "-1 1\n", "integers >= 0")],
    ids=["size past int32", "duplicate entry", "negative coordinate size",
         "negative array size"])
def test_refused_with_the_reason(tmp_path, content, message):
    path = tmp_path / "bad.mtx"
    path.write_text(content)
    with pytest.raises(MatrixMarketError, match=message):
        read_matrix_market(path)


@pytest.mark.parametrize("content, want", [
    # 1-based indices, entries in any order, a comment line
    (_COO + "% a comment\n2 3 3\n1 1 5.0\n2 3 -1.5\n1 2 2.0\n",
     [[5.0, 2.0, 0.0], [0.0, 0.0, -1.5]]),
    (_ARRAY + "2 2\n1\n2\n3\n4\n", [[1.0, 3.0], [2.0, 4.0]]),  # by column
    # mixed-case header, CRLF, tabs, +1, .5, 1E1, blank and comment lines
    # and no final newline
    ("%%MatrixMarket MATRIX Coordinate REAL General\r\n"
     "% c\r\n\r\n3\t2 3\r\n\r\n +1\t1  -2.5  \r\n"
     "% c\r\n3 2 .5\r\n2 1 1E1", [[-2.5, 0.0], [10.0, 0.0], [0.0, 0.5]]),
    (_COO + "+2 2 0\n", [[0.0, 0.0], [0.0, 0.0]]),  # a plus sign in the size
    (_ARRAY + "0 1\n", np.zeros(0)),  # 0 x 1: the empty vector
], ids=["one-based coordinate", "array", "layout variants", "plus sign",
        "0x1 array"])
def test_reader_reads_the_entries(tmp_path, content, want):
    path = tmp_path / "ok.mtx"
    path.write_text(content)
    got = read_matrix_market(path)
    want = np.asarray(want)
    if want.ndim == 1:
        assert isinstance(got, np.ndarray) and got.shape == want.shape
    else:
        np.testing.assert_array_equal(got.to_dense(), want)


class TestWriterGoldenText:
    """The writer's exact bytes: 1-based indices, 17 significant digits,
    array data column-major."""

    @pytest.mark.parametrize("payload, text", [
        # rows 0, 2 and 4 (leading, middle, trailing) hold no entry
        (CsrMatrix(5, 3, [0, 0, 2, 2, 3, 3], [0, 2, 1], [1.5, 0.1, -2.0]),
         b"%%MatrixMarket matrix coordinate real general\n"
         b"5 3 3\n"
         b"2 1 1.5\n"
         b"2 3 0.10000000000000001\n"
         b"4 2 -2\n"),
        (DenseMatrix([[1.0, 2.0, 1.0 / 3.0], [4.0, -5.5, 1e22]]),
         b"%%MatrixMarket matrix array real general\n"
         b"2 3\n"
         b"1\n4\n2\n-5.5\n0.33333333333333331\n1e+22\n"),
        (np.array([0.1, -3.0, 1e-300]),
         b"%%MatrixMarket matrix array real general\n"
         b"3 1\n"
         b"0.10000000000000001\n-3\n1e-300\n")],
        ids=["coordinate with empty rows", "dense is column-major",
             "vector is one column"])
    def test_bytes(self, tmp_path, payload, text):
        path = tmp_path / "a.mtx"
        write_matrix_market(path, payload)
        assert path.read_bytes() == text


class TestChunkedWriters:
    """The writers format ``_CHUNK`` entries at a time; the bytes must be
    those of one line per entry written in a single pass."""

    @staticmethod
    def reference_coordinate(A):
        lines = ["%%MatrixMarket matrix coordinate real general",
                 f"{A.nrows} {A.ncols} {A.nnz}"]
        for i in range(A.nrows):
            for k in range(A.row_offsets[i], A.row_offsets[i + 1]):
                lines.append(f"{i + 1} {A.col_indices[k] + 1} "
                             f"{float(A.values[k]):.17g}")
        return ("\n".join(lines) + "\n").encode()

    @staticmethod
    def reference_array(D):
        lines = ["%%MatrixMarket matrix array real general",
                 f"{D.shape[0]} {D.shape[1]}"]
        for j in range(D.shape[1]):
            lines += [f"{float(v):.17g}" for v in D[:, j]]
        return ("\n".join(lines) + "\n").encode()

    @classmethod
    def assert_coordinate_bytes(cls, tmp_path, A):
        write_matrix_market(tmp_path / "a.mtx", A)
        assert (tmp_path / "a.mtx").read_bytes() == cls.reference_coordinate(A)

    @classmethod
    def assert_array_bytes(cls, tmp_path, D):
        """``D`` as written: a vector if it has one column, else dense."""
        write_matrix_market(tmp_path / "d.mtx",
                            D[:, 0] if D.shape[1] == 1 else DenseMatrix(D))
        assert (tmp_path / "d.mtx").read_bytes() == cls.reference_array(D)

    @staticmethod
    def coordinate_cases(rng):
        exact = CsrMatrix.from_dense(
            rng.standard_normal((2 * mmio._CHUNK // 128, 128)))
        assert exact.nnz == 2 * mmio._CHUNK
        several = gen_convdiff2d(60, 60).A
        assert several.nnz == 17760
        return [CsrMatrix(3, 4, [0, 0, 0, 0], [], []), exact, several,
                CsrMatrix(0, 0, [0], [], []), CsrMatrix(0, 5, [0], [], []),
                CsrMatrix(4, 0, [0, 0, 0, 0, 0], [], [])]

    def test_coordinate_bytes_match_reference(self, tmp_path, rng):
        for A in self.coordinate_cases(rng):
            self.assert_coordinate_bytes(tmp_path, A)

    def test_array_bytes_match_reference(self, tmp_path, rng):
        chunk = mmio._CHUNK
        for D in (np.zeros((0, 1)), rng.standard_normal((chunk, 1)),
                  rng.standard_normal((2 * chunk + 5, 1)),
                  rng.standard_normal((chunk // 2 + 3, 5)),
                  np.zeros((0, 3)), np.zeros((3, 0))):
            self.assert_array_bytes(tmp_path, D)

    # -0.0 beside 0.0, the smallest subnormal, the longest %.17g text,
    # the largest integer %.17g prints without an exponent, and 1e308
    EDGE_VALUES = [-0.0, 0.0, 5e-324, -2.2250738585072014e-308, 1e16,
                   1e308, 0.0, -0.0, 1e17, -1.0]

    def test_edge_values_in_one_chunk(self, tmp_path):
        v = np.array(self.EDGE_VALUES)
        A = CsrMatrix(1, len(v), [0, len(v)], np.arange(len(v)), v)
        self.assert_coordinate_bytes(tmp_path, A)
        text = (tmp_path / "a.mtx").read_bytes()
        assert b"1 1 -0\n1 2 0\n" in text
        assert b" -2.2250738585072014e-308\n" in text
        self.assert_array_bytes(tmp_path, v.reshape(-1, 1))
        self.assert_array_bytes(tmp_path, v.reshape(2, 5))

    @pytest.mark.parametrize("size", [10, 11, 100, 101, 10000, 10001])
    def test_index_widths(self, tmp_path, size):
        # row and column numbers up to size - 2, size - 1 and size: each
        # width change, 9 -> 10, 99 -> 100 and 9999 -> 10000, is crossed
        # with the largest number first at and then past it
        picks = [size - 3, size - 2, size - 1]
        self.assert_coordinate_bytes(  # as many entries as numbers: table
            tmp_path, CsrMatrix.identity(size))
        # fewer entries than numbers: converted directly
        self.assert_coordinate_bytes(
            tmp_path, CsrMatrix(1, size, [0, 3], picks, [1.0, -0.0, 2.5]))
        self.assert_coordinate_bytes(
            tmp_path, CsrMatrix.from_coo(size, 1, picks, [0, 0, 0],
                                         [1.0, -0.0, 2.5]))

    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_chunk_boundaries(self, tmp_path, rng, delta):
        nnz = mmio._CHUNK + delta
        v = rng.standard_normal(nnz)
        v[::97] = 1.0  # repeated values beside distinct ones
        self.assert_coordinate_bytes(
            tmp_path, CsrMatrix(1, nnz, [0, nnz], np.arange(nnz), v))
        self.assert_coordinate_bytes(
            tmp_path, CsrMatrix(nnz, 1, np.arange(nnz + 1), np.zeros(nnz), v))
        self.assert_array_bytes(tmp_path, v.reshape(-1, 1))
        self.assert_array_bytes(tmp_path, v.reshape(1, -1))


class TestMemory:
    """Writing and reading hold memory of the order of one block and of
    the result, not of a whole file's text.  Peaks by tracemalloc, which
    counts Python objects and NumPy data, for convdiff 200x200's A
    (199,200 entries, a 3.99 MB file)."""

    MB = 1024 * 1024

    def test_write_holds_blocks_not_the_file(self, tmp_path):
        # 1.42 MB measured; a byte matrix of the whole file is ~7.4 MB
        A = gen_convdiff2d(200, 200).A
        assert traced_peak(write_matrix_market, tmp_path / "a.mtx", A) \
            < 4 * self.MB

    def test_write_builds_no_table_wider_than_the_entries(self, tmp_path):
        # a digit table of 0..10**7 would take 76 MB
        A = CsrMatrix(2, 10**7, [0, 1, 2], [0, 10**7 - 1], [1.0, 2.0])
        assert traced_peak(write_matrix_market, tmp_path / "a.mtx", A) \
            < 0.1 * self.MB
        TestChunkedWriters.assert_coordinate_bytes(tmp_path, A)

    def test_read_shifts_indices_in_place(self, tmp_path):
        # 10.98 MB measured; 12.51 MB when the 0-based indices were made
        # as int64 copies of the parsed ones
        write_matrix_market(tmp_path / "a.mtx", gen_convdiff2d(200, 200).A)
        assert traced_peak(read_matrix_market, tmp_path / "a.mtx") \
            < 12 * self.MB


class TestReaderPaths:
    """The reader parses the open file in one ``np.loadtxt`` call and
    falls back to a line filter only when ``%`` lines (or a bad entry)
    sit in the data section; both paths must give the same arrays."""

    @staticmethod
    def variants(text):
        header, size, *data = text.splitlines(keepends=True)
        commented = "".join(("% note\n" if k % 50 == 0 else "") + line
                            for k, line in enumerate(data))
        blank = "".join(line + ("\n   \t\n" if k % 40 == 0 else "")
                        for k, line in enumerate(data))
        return {"plain": (text, 1),
                "comments": (header + size + commented + "% end\n", 2),
                "blank-crlf": ((header + size + "\n" + blank)
                               .replace("\n", "\r\n"), 1)}

    @staticmethod
    def arrays(m):
        if isinstance(m, CsrMatrix):
            return [m.row_offsets, m.col_indices, m.values]
        return [np.asarray(getattr(m, "values", m))]

    @pytest.mark.parametrize("payload", ["coordinate", "array", "vector"])
    def test_every_variant_reads_the_same_arrays(self, tmp_path, rng,
                                                 monkeypatch, payload):
        m = {"coordinate": gen_convdiff2d(9, 11).A,
             "array": DenseMatrix(rng.standard_normal((30, 7))),
             "vector": rng.standard_normal(200)}[payload]
        write_matrix_market(tmp_path / "m.mtx", m)
        text = (tmp_path / "m.mtx").read_text()
        want = [a.tobytes() for a in self.arrays(m)]
        parses = []
        real = mmio._parse
        monkeypatch.setattr(mmio, "_parse",
                            lambda *a: parses.append(a) or real(*a))
        for name, (content, calls) in self.variants(text).items():
            path = tmp_path / f"{name}.mtx"
            path.write_bytes(content.encode())
            parses.clear()
            got = read_matrix_market(path)
            assert [a.tobytes() for a in self.arrays(got)] == want, name
            assert len(parses) == calls, name  # 2: the line filter ran
