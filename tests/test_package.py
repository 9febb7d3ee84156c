"""The package's public names are the modules' own __all__ lists, said once."""

import enumtree
from enumtree import analytics, classify, maps, monoid, pairs, sseq

MODULES = (monoid, pairs, maps, sseq, classify, analytics)


def test_package_all_is_the_concatenation_of_disjoint_module_lists():
    names = [name for module in MODULES for name in module.__all__]
    assert enumtree.__all__ == names
    assert len(set(names)) == len(names)  # no module exports another's name


def test_every_package_name_is_its_module_own_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(enumtree, name) is getattr(module, name), (module.__name__, name)


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from enumtree import *", namespace)
    assert [name for name in enumtree.__all__ if name not in namespace] == []
    assert all(namespace[name] is getattr(enumtree, name) for name in enumtree.__all__)
