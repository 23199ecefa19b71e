"""Fixtures that more than one test file reads."""

import contextlib
import functools
import hashlib
import io
import json

import pytest

from yflattice import ResidueHistogram
from yflattice.cli import main


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
    def run(n):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = main(["residues", "-n", str(n), "-k", "14", "--assert", "--format", "json"])
        text = out.getvalue()
        data = json.loads(text)
        counts = {int(r): c for r, c in data["counts"].items()}
        return code, hashlib.sha256(text.encode()).hexdigest(), ResidueHistogram(data["modulus"], counts)

    return run
