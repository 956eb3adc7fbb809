"""Static check of the package sources: no module-level import goes unused.

Uses only ``ast``, so it needs no linter.  ``__init__.py`` is skipped because
its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

SOURCES = sorted(p for p in (Path(__file__).parent.parent / "src" / "fourierdist").glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(tree: ast.Module) -> list[str]:
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


def test_the_check_sees_an_unused_import():
    tree = ast.parse("import json\nimport os\nfrom math import pi, tau\nprint(os.sep, pi)\n")
    assert unused_imports(tree) == ["line 1: json", "line 3: tau"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []
