"""README examples: every `yflattice` command line and the library doctest."""

import doctest
import re
import shlex
from pathlib import Path

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_readme_examples_run(run):
    commands = [
        shlex.split(line, comments=True)[1:]
        for block in _blocks("sh")
        for line in block.splitlines()
        if line.startswith("yflattice ")
    ]
    assert len(commands) >= 13
    for argv in commands:
        assert run(*argv)[0] == 0, argv

    (source,) = _blocks("python")
    test = doctest.DocTestParser().get_doctest(source, {}, "README", "README.md", 0)
    runner = doctest.DocTestRunner()
    runner.run(test)
    assert test.examples and runner.summarize(verbose=False).failed == 0
