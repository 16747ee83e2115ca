"""The README's examples: the ```python blocks run as doctests, and the `$ fmzv ...`
console lines run through `cli.main` (both with ELLIPSIS for long output)."""

import doctest
import re
import shlex
from pathlib import Path

import pytest

from fmzv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [(TEXT.count("\n", 0, m.start(1)), m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]
# (line, argv, shown output) of each `$ fmzv` line; the cache block is left out,
# since the cell count it shows depends on the local cache file
COMMANDS = [(TEXT.count("\n", 0, m.start()) + 1, shlex.split(m.group(1))[1:], m.group(2))
            for m in re.finditer(r"^\$ (fmzv .*)\n((?:(?!\$ |```).*\n)*)", TEXT, re.M)
            if "cache" not in shlex.split(m.group(1))]


def test_readme_has_examples():
    assert BLOCKS
    assert {argv[0] for _, argv, _ in COMMANDS} == {"compute", "verify", "discover", "dims"}


@pytest.mark.parametrize("lineno, block", BLOCKS, ids=["line%d" % (n + 1) for n, _ in BLOCKS])
def test_readme_block(lineno, block):
    test = doctest.DocTestParser().get_doctest(block, {}, README.name, str(README), lineno)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


@pytest.mark.parametrize("lineno, argv, want", COMMANDS,
                         ids=["line%d" % n for n, _, _ in COMMANDS])
def test_readme_command(capsys, monkeypatch, lineno, argv, want):
    monkeypatch.delenv("FMZV_CACHE", raising=False)
    assert main(argv) == 0
    got = capsys.readouterr().out
    assert doctest.OutputChecker().check_output(want, got, doctest.ELLIPSIS), got
