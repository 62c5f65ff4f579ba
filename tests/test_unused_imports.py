"""Every name a module of the package imports is used in it, as a linter's
F401 rule asks; a line marked "# noqa: F401" is let through.  __init__.py
imports to re-export, so it is not checked."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(text: str) -> list[str]:
    """The names that text imports and never reads, in source order."""
    tree = ast.parse(text)
    lines = text.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # the mark may sit on the line of one name in parentheses
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                # import a.b binds a
                name = alias.asname or alias.name.split(".")[0]
                imported.append((alias.lineno, name))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for _, name in sorted(imported) if name not in used]


def test_the_package_imports_no_unused_name():
    sources = sorted((ROOT / "src" / "boxpaths").glob("*.py"))
    assert sources
    unused = {source.name: _unused_imports(source.read_text())
              for source in sources if source.name != "__init__.py"}
    assert {name: names for name, names in unused.items() if names} == {}


def test_the_unused_import_check_finds_an_unused_name():
    text = ("from __future__ import annotations\n"
            "import os.path\n"
            "import sys\n"
            "from itertools import chain, islice as take\n"
            "from json import dumps  # noqa: F401\n"
            "from re import (\n"
            "    escape,  # noqa: F401\n"
            "    match,\n"
            ")\n"
            "print(sys.argv, chain)\n")
    assert _unused_imports(text) == ["os", "take", "match"]
