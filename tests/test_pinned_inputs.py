"""The benchmark's generated inputs, pinned bit for bit.

Each operator's CSR arrays and right-hand side are hashed and compared
with digests recorded before the generators were last rewritten.  A
generator edit that changes a single bit of any of them fails here.
"""

import hashlib

import numpy as np
import pytest

from oaplib import gen_convdiff2d, gen_poisson_lshape, gen_tridiag_unsym
from oaplib.cli import EXAMPLE1_GRIDS, EXAMPLE2_TARGETS, EXAMPLE3_N
from oaplib.problems import lshape_m_for

# label -> SHA-256 of (row_offsets, col_indices, values, b), little-endian;
# the indices are hashed as int64 values, the type they were recorded in,
# so a narrower storage type keeps the digests as long as no value changes
PINNED = {
    "convdiff2d-9x10": (
        "a8b03e345f7d16d84999ec90589308f539a2f639d9be9344b4220966eee9d854",
        "acaae363e17c7b6f5e1c79cdb9ff1e2b2a340ea4dd5021f32cb3fe41ae1f55bf",
        "4fd88876b54bedc208b0fe15189b299dffc7a309e5fd86e2c6a9c0741288d249",
        "16002976218684d976e1b8eee87de6988b4f7d8b43a54f730b0f2d67544cda6e",
    ),
    "convdiff2d-9x19": (
        "4492f67ee66a424ce2e6ad4e6a11945c304b981cdbd812e56537745d3d8c3a06",
        "60b288b03a72d2ddf37a21dda05d9fc2e143c2f797f29b7f10664ef3fdda3921",
        "cfab02ad91a6b9c5df7190c87eaa7680db6da984c33ab04fd2f8b62425a3d153",
        "0af6456c92f00fc5a9f8604ce6df3e2df70a3fa53dad4690ee681cb1ab930b30",
    ),
    "convdiff2d-19x19": (
        "ad363ece26ba812bf7ba8849789317a9ca9d4f10d85f0163a7e3c00dee0c6bf5",
        "8f4af91715828a486e61ec39df883f46bff79906b7bba228a2020d9e9233c476",
        "83a97494b2bbac473373851f8d5f0f799d8d09e3c2fcf2cbb4f0564af4bd1a46",
        "f7df661b6a33613a00dabd8f51490fe63d341fc7f075d95c1dd5d3afe1b4940f",
    ),
    "poisson-lshape-m9": (
        "9f6350fa683128997449eca6c8d3bff8cafb3f166bf053bf9eedfe209dd1f4c1",
        "86b147b3e670a95421a18f18920f6e3afb0e4d4ce126abb59c879f0741f86bf4",
        "ec5a3ee84b8369714198f6da426f2db74b0f1644cb1d912be12e547c29307daf",
        "0c6f3fc12f2cb4ec6dde0f00c8d90e705ae78caff158eba704793e0bb05c924d",
    ),
    "poisson-lshape-m14": (
        "b639c9a1d9af5e5ea5c0b747522c1c25ca37a8aff89cb36d9a1cec2e58c96060",
        "abdb444ddc5ad4fbe81f7db5d025a4e978da4955bba99fac6da2c2ac5cd2b8b9",
        "9675a966282e9656d1886e8d78b3c9326bbaeb02ace9aed094bb120048160fc8",
        "20e5e253fed77af8d5750785688416bee82e9b2d94c8ca925c4a66585ef35af4",
    ),
    "tridiag-unsym-600": (
        "93939debbbe93a38c287c4f61e2f5834d8b57088b4a5f6d4c2253cb04bc71d0f",
        "e4e58226b97b580baa7f9ba8fd3b32e2b479ea239747745dd1c8094c2061fdd7",
        "1de22bf811b9c4d7fef913fb713b90fabf16418b6a76ec70c06442a704f9369c",
        "2fc96304ab066099f1f5fed9a2968c9049bf1233d044703938f5d0be9eff9f82",
    ),
    "convdiff2d-60x60": (
        "36aa60688c6c05fa7027bcf8cb0c7fbdc1e8f7bfcccb65fbd1d64962d606fcd7",
        "b706d01d6ac4eddd19100f2b5f425cec34c008c273f271746be56909e1a3cd5c",
        "6039404bd42a9d57d01a9049d0dde7b312c219bd93834a97ed450ead496c26af",
        "c4b12e97d7c3c5dff64a03b7354f5a9c52af68125bc430b38912158bb737c176",
    ),
    "convdiff2d-200x200": (
        "1bcae0aeabe56009c12d5bb8aee393a5ca150bd75adb97d2d0811a6d7a3c4397",
        "a0ae635ce25efd55703a313a899c2bfca2d32310e23dbf946778bd47a6837497",
        "61d3ebbf91dcb5e10ee656f8a2478d185d8db5371dc950d1eb2523c703367c31",
        "d396651eff8fd01c6c4ec875d26ad2517e36605d3d9d3c92c180356005aa63c0",
    ),
}


def pinned_calls():
    """(generator, arguments) for every operator the benchmark solves."""
    calls = [(gen_convdiff2d, grid) for grid in EXAMPLE1_GRIDS]
    calls += [(gen_poisson_lshape, (lshape_m_for(t),)) for t in EXAMPLE2_TARGETS]
    calls.append((gen_tridiag_unsym, (EXAMPLE3_N,)))
    calls += [(gen_convdiff2d, (m, m)) for m in (60, 200)]
    return calls


def digest(a):
    dtype = "<i8" if a.dtype.kind == "i" else a.dtype.newbyteorder("<")
    return hashlib.sha256(np.asarray(a, dtype).tobytes()).hexdigest()


def test_one_digest_set_per_call():
    assert len(pinned_calls()) == len(PINNED)


@pytest.mark.parametrize("gen, args", pinned_calls(),
                         ids=lambda c: getattr(c, "__name__", str(c)))
def test_generated_arrays_match_digests(gen, args):
    problem = gen(*args)
    A = problem.A
    got = tuple(digest(a) for a in (A.row_offsets, A.col_indices, A.values,
                                    problem.b))
    assert got == PINNED[problem.label]
