"""Fixtures that more than one test file reads."""

import contextlib
import functools
import hashlib
import io
import json

import pytest

from yflattice import ResidueHistogram, core, fstat, macdonald, primes, residues
from yflattice.cli import main


def run_cli(*argv):
    """yflattice run in process on argv: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session")
def run():
    """run_cli, the one in-process runner of every test that calls the CLI."""
    return run_cli


# The first piece of work under each guard: rows of words, chain counts, tree
# rows, count multisets, row factors, the DP's tables and folds, row sizes.
WORK = {
    core: ["Row"],
    fstat: ["_chains", "_factor"],
    macdonald: ["_branch", "Counter"],
    residues: ["_row_factors", "_dlog", "_fold"],
    primes: ["row_size"],
}


def _worked(name, *args, **kwargs):
    raise AssertionError(f"{name} ran before the guard")


@pytest.fixture
def no_work(monkeypatch):
    """Every entry of WORK raises AssertionError, so a refusal that passes came before any work."""
    for module, names in WORK.items():
        for name in names:
            monkeypatch.setattr(module, name, functools.partial(_worked, f"{module.__name__}.{name}"))


@pytest.fixture(scope="session")
def k14_threshold():
    """Row n's `residues -n n -k 14 --assert --format json`, run once per session.

    Rows 8194 (the first flat row mod 2^14) and 8193 are the largest DP walks
    in the suite; test_cli_outputs.py pins their exit codes and digests and
    test_residues.py their flatness and masses.  Returns n -> (exit code,
    sha256 of stdout, the histogram its JSON reads back); the 10 MB of
    stdout is not kept.
    """

    @functools.cache
    def k14(n):
        code, text, _ = run_cli("residues", "-n", str(n), "-k", "14", "--assert", "--format", "json")
        data = json.loads(text)
        counts = {int(r): c for r, c in data["counts"].items()}
        return code, hashlib.sha256(text.encode()).hexdigest(), ResidueHistogram(data["modulus"], counts)

    return k14
