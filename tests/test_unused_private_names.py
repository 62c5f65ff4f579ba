"""Every module-level private function or class of the package is named
somewhere in the package besides its own definition, so none is left
behind when its last caller goes.  A decorated definition is let through:
the decorator may register it, as verify's checks are."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> Counter:
    """How often each name is read, as a name, an attribute or an import,
    under node."""
    found = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            found[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            found[sub.name] += 1
    return found


def _unused_private_names(texts: dict[str, str]) -> list[str]:
    """module:name of each undecorated module-level private function or
    class in texts (module name to source) that no source names outside
    that definition, in module and source order."""
    trees = {module: ast.parse(text) for module, text in texts.items()}
    everywhere = sum(map(_names, trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, _DEFINITIONS) and not node.decorator_list
                    and node.name.startswith("_")
                    and not node.name.startswith("__")
                    and not everywhere[node.name] - _names(node)[node.name]):
                unused.append(f"{module}:{node.name}")
    return unused


def test_every_private_definition_is_named_elsewhere():
    sources = sorted((ROOT / "src" / "boxpaths").glob("*.py"))
    assert sources
    texts = {source.name: source.read_text() for source in sources}
    assert _unused_private_names(texts) == []


def test_the_private_name_check_finds_an_unused_definition():
    texts = {
        "a.py": ("from b import _imported\n"
                 "def _called():\n"
                 "    return _imported()\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else 0\n"
                 "class _Unused:\n"
                 "    pass\n"
                 "@register\n"
                 "def _registered():\n"
                 "    pass\n"
                 "def __getattr__(name):\n"
                 "    pass\n"
                 "def public():\n"
                 "    return _called()\n"),
        "b.py": ("import a\n"
                 "def _imported():\n"
                 "    return a._Used()\n"
                 "class _Used:\n"
                 "    pass\n"),
    }
    assert _unused_private_names(texts) == ["a.py:_recursive", "a.py:_Unused"]
