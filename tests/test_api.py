"""The package's public surface: `__all__` lists only names that exist."""

import potholesim


def test_every_exported_name_imports():
    namespace: dict = {}
    exec("from potholesim import *", namespace)  # fails on a stale name
    exported = set(potholesim.__all__)
    assert len(exported) == len(potholesim.__all__), "duplicate names in __all__"
    assert exported <= namespace.keys()
