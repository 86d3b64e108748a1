"""The package's public names: a removal must take its export with it."""

import oaplib


def test_every_exported_name_resolves():
    assert [name for name in oaplib.__all__ if not hasattr(oaplib, name)] == []
    assert len(set(oaplib.__all__)) == len(oaplib.__all__)


def test_star_import():
    namespace = {}
    exec("from oaplib import *", namespace)
    assert set(oaplib.__all__) <= namespace.keys()
