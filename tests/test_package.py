"""The package's export list: no stale or missing names; its import footprint; its run as a process."""

import subprocess
import sys
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


def test_cli_import_loads_no_dataclasses_or_inspect():
    # The before/after difference, so modules a site hook loaded first do not count.
    probe = "import sys; before = set(sys.modules); import yflattice.cli; print(*sorted(set(sys.modules) - before))"
    added = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout.split()
    assert "yflattice.cli" in added
    assert not {"dataclasses", "inspect"} & set(added)


def test_package_runs_as_a_process():
    for argv, code in ((["main", "-k", "3"], 0), (["main", "-k", "15"], 1), (["main"], 2)):
        done = subprocess.run([sys.executable, "-m", "yflattice", "verify", *argv], capture_output=True, text=True)
        assert done.returncode == code, (argv, done.stderr)
        if code == 0:
            assert done.stdout.endswith("checks passed\n")
        elif code == 1:
            assert done.stdout == "" and "guard of" in done.stderr
