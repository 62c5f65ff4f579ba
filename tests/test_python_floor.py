"""The package's source parses under the oldest Python that pyproject.toml
declares, so syntax newer than the floor fails here and not in a user's
install.  ast.parse checks the grammar only: library calls that the floor
lacks are not found this way."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _floor():
    text = (ROOT / "pyproject.toml").read_text()
    major, minor = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"',
                             text).groups()
    return int(major), int(minor)


def test_source_parses_at_the_declared_floor():
    floor = _floor()
    assert floor == (3, 10)
    sources = sorted((ROOT / "src" / "boxpaths").glob("*.py"))
    assert sources
    for source in sources:
        ast.parse(source.read_text(), str(source), feature_version=floor)


def test_the_floor_check_rejects_newer_syntax():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    ast.parse(newer, feature_version=(3, 11))
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=_floor())
