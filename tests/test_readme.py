"""The README's ```python blocks, run as doctests (with ELLIPSIS for long output)."""

import doctest
import re
from pathlib import Path

import pytest

from fmzv.evaluator import clear_memo

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = [(TEXT.count("\n", 0, m.start(1)), m.group(1))
          for m in re.finditer(r"^```python\n(.*?)^```$", TEXT, re.M | re.S)]


def test_readme_has_examples():
    assert BLOCKS


@pytest.mark.parametrize("lineno, block", BLOCKS, ids=["line%d" % (n + 1) for n, _ in BLOCKS])
def test_readme_block(lineno, block):
    test = doctest.DocTestParser().get_doctest(block, {}, README.name, str(README), lineno)
    assert test.examples
    report = []
    runner = doctest.DocTestRunner(optionflags=doctest.ELLIPSIS)
    try:
        runner.run(test, out=report.append)
    finally:
        clear_memo()  # later tests count the sweeps a run makes
    assert runner.failures == 0, "".join(report)
