"""The package's export list: no stale or missing names; the tracer's targets; its import footprint; its run as a process."""

import ast
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from types import ModuleType

import yflattice
from yflattice import core, fstat, macdonald, primes, residues

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# Names left out of every __all__, which stay in their modules only because
# perfbench/tracer.py wraps them there.
TRACED_ONLY = {
    macdonald: ("MacdonaldNode", "MacdonaldTree", "build_tree", "f_valued_row"),
    residues: ("pi_multiset",),
    primes: ("is_coprime_direct",),
    fstat: ("f_mod",),
}


def test_all_has_no_duplicates():
    assert len(yflattice.__all__) == len(set(yflattice.__all__))


def test_all_is_the_public_names():
    public = {
        name
        for name, value in vars(yflattice).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert set(yflattice.__all__) == public


def test_all_joins_the_module_lists():
    assert yflattice.__all__ == [*core.__all__, *fstat.__all__, *macdonald.__all__, *primes.__all__, *residues.__all__]


def test_traced_only_names_stay_in_their_modules():
    for module, names in TRACED_ONLY.items():
        for name in names:
            assert not hasattr(yflattice, name), name
            assert name in vars(module), name


def test_every_tracer_target_resolves():
    """Each (name, module, attribute, per word) of the tracer's WRAPPED, read from its source, names a callable."""
    (wrapped,) = [
        ast.literal_eval(node.value)
        for node in ast.parse(TRACER.read_text(encoding="utf-8")).body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "WRAPPED" for t in node.targets)
    ]
    assert wrapped
    for _, module, attr, _ in wrapped:
        assert callable(attrgetter(attr)(getattr(yflattice, module))), (module, attr)


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
