"""The package's export list: no stale or missing names."""

from types import ModuleType

import yflattice


def test_all_has_no_duplicates():
    assert len(yflattice.__all__) == len(set(yflattice.__all__))


def test_all_is_the_public_names():
    public = {
        name
        for name, value in vars(yflattice).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(yflattice.__all__) == public


def test_star_import_runs():
    namespace: dict = {}
    exec("from yflattice import *", namespace)
    assert set(yflattice.__all__) <= namespace.keys()
