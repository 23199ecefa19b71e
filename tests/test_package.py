"""The package's export list: no stale or missing names; the tracer's targets; its import footprint; its run as a process."""

import ast
import os
import subprocess
import sys
from operator import attrgetter
from pathlib import Path
from types import ModuleType

import pytest

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
        for name in dir(yflattice)
        if not name.startswith("_") and not isinstance(getattr(yflattice, name), ModuleType)
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


# The layer modules each command loads on top of yflattice, yflattice.cli and yflattice.core.
LOADS = [
    ("--help", set()),
    ("verify main -k 3", {"yflattice.residues"}),
    ("verify one-step -k 3 --max-n 8", {"yflattice.residues"}),
    ("residues -n 6 -k 2", {"yflattice.residues"}),
    ("verify oracle --max-n 5", {"yflattice.fstat"}),
    ("verify coprime -p 3 --max-n 4", {"yflattice.fstat", "yflattice.primes"}),
    ("verify pi-row --max-n 4", {"yflattice.macdonald", "yflattice.residues"}),
    ("enumerate -n 4", {"yflattice.fstat"}),
    ("enumerate -n 4 --filter coprime -p 3", {"yflattice.fstat", "yflattice.primes"}),
    ("residues -n 6 -p 3", {"yflattice.fstat", "yflattice.primes", "yflattice.residues"}),
    ("tree --max-rank 4", {"yflattice.macdonald"}),
]


def _loaded_after(code, *argv):
    """The yflattice modules loaded in a fresh interpreter once it has run code, which prints nothing, on argv."""
    probe = f"import sys\n{code}\nprint(*sorted(m for m in sys.modules if m.partition('.')[0] == 'yflattice'))"
    return set(subprocess.run([sys.executable, "-c", probe, *argv], capture_output=True, text=True, check=True).stdout.split())


@pytest.mark.parametrize(("argv", "layers"), LOADS, ids=[argv for argv, _ in LOADS])
def test_each_command_loads_only_its_modules(argv, layers):
    run = (
        "import contextlib, io\n"
        "from yflattice.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(sys.argv[1:]) == 0"
    )
    assert _loaded_after(run, *argv.split()) == {"yflattice", "yflattice.cli", "yflattice.core", *layers}


def test_name_lookups_load_only_what_they_name():
    assert _loaded_after("from yflattice import cli") == {"yflattice", "yflattice.cli", "yflattice.core"}
    assert _loaded_after("import yflattice\nassert not hasattr(yflattice, '__version__')") == {"yflattice"}


def test_tracer_leaves_no_unwrapped_reference():
    """After install(), as the tracer's main runs it, no yflattice module holds a WRAPPED function itself.

    A layer that bound another layer's function at import, before install()
    wrapped it there, would keep the original, and its calls would go untraced.
    """
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(TRACER.parent)!r})\n"
        "import tracer\n"
        "tracer.install(tracer.Tracer(0, False))\n"
        "targets = {(f'yflattice.{module}', attr) for _, module, attr, _ in tracer.WRAPPED}\n"
        "for name, module in sorted(sys.modules.items()):\n"
        "    if name.partition('.')[0] == 'yflattice':\n"
        "        for key, value in vars(module).items():\n"
        "            if (getattr(value, '__module__', None), getattr(value, '__qualname__', None)) in targets:\n"
        "                print(f'{name}.{key}')\n"
    )
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert done.stdout == ""


def test_package_runs_as_a_process():
    for argv, code in ((["main", "-k", "3"], 0), (["main", "-k", "15"], 1), (["main"], 2)):
        done = subprocess.run([sys.executable, "-m", "yflattice", "verify", *argv], capture_output=True, text=True)
        assert done.returncode == code, (argv, done.stderr)
        if code == 0:
            assert done.stdout.endswith("checks passed\n")
        elif code == 1:
            assert done.stdout == "" and "guard of" in done.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
def test_a_failed_last_write_exits_1():
    # Without PYTHONUNBUFFERED the whole output sits in stdout's buffer until
    # the last flush, which main makes and reports like any failed write.
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "yflattice", "verify", "main", "-k", "3"], stdout=full, stderr=subprocess.PIPE, text=True, env=env
        )
    assert done.returncode == 1
    assert done.stderr == "error: [Errno 28] No space left on device\n"
