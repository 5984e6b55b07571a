"""The package's public names: __all__ and the star import agree."""

import distbandit


def test_every_exported_name_resolves():
    missing = [name for name in distbandit.__all__ if not hasattr(distbandit, name)]
    assert missing == []
    assert len(set(distbandit.__all__)) == len(distbandit.__all__)


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from distbandit import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(distbandit.__all__)
