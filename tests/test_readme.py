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


def _example_id(pos, code):
    """An example's test id: its section heading and its first line of code, which
    stay put when README lines are added or removed elsewhere."""
    heading = re.findall(r"^#+ (.*)$", TEXT[:pos], re.M)[-1]
    return "%s: %s" % (heading, code.split("\n", 1)[0].removeprefix(">>> "))


# (line, block) of each ```python block
BLOCKS = [pytest.param(TEXT.count("\n", 0, m.start(1)), m.group(1),
                       id=_example_id(m.start(), m.group(1)))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]
# (argv, shown output) of each `$ fmzv` line; the cache block is left out, since
# the cell count it shows depends on the local cache file
COMMANDS = [pytest.param(shlex.split(m.group(1))[1:], m.group(2),
                         id=_example_id(m.start(), m.group(1)))
            for m in re.finditer(r"^\$ (fmzv .*)\n((?:(?!\$ |```).*\n)*)", TEXT, re.M)
            if "cache" not in shlex.split(m.group(1))]


def test_readme_has_examples():
    assert BLOCKS
    assert {p.values[0][0] for p in COMMANDS} == {"compute", "verify", "discover", "dims"}
    ids = [p.id for p in BLOCKS + COMMANDS]
    assert len(set(ids)) == len(ids), ids


@pytest.mark.parametrize("lineno, block", BLOCKS)
def test_readme_block(lineno, block):
    test = doctest.DocTestParser().get_doctest(block, {}, README.name, str(README), lineno)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)


@pytest.mark.parametrize("argv, want", COMMANDS)
def test_readme_command(capsys, monkeypatch, argv, want):
    monkeypatch.delenv("FMZV_CACHE", raising=False)
    assert main(argv) == 0
    got = capsys.readouterr().out
    assert doctest.OutputChecker().check_output(want, got, doctest.ELLIPSIS), got
