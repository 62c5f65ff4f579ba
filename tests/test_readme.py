"""The README's ```python blocks run as doctests, so its examples keep
showing what the package does.  Each block is parsed on its own, without
its closing fence, which the doctest of the whole file would read as
expected output."""

import doctest
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _python_blocks():
    """(line of the opening fence, 0-based; block text) of each block."""
    text = (ROOT / "README.md").read_text()
    return [(text.count("\n", 0, m.start()), m.group(1))
            for m in re.finditer(r"^```python\n(.*?)^```$", text, re.M | re.S)]


def test_readme_python_examples_run_as_doctests():
    blocks = _python_blocks()
    assert blocks
    parser = doctest.DocTestParser()
    runner = doctest.DocTestRunner()
    report: list[str] = []
    for fence, block in blocks:
        # doctest numbers lines from lineno + 1, so the fence's line is the
        # one before the block's first line
        test = parser.get_doctest(block, {}, f"README.md:{fence + 2}",
                                  "README.md", fence + 1)
        assert test.examples, fence
        runner.run(test, out=report.append)
    assert runner.failures == 0, "".join(report)
