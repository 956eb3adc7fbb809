"""Static checks of the package sources: no module-level import goes unused,
and every private module-level name is used somewhere in the package.

Uses only ``ast``, so it needs no linter.  ``__init__.py`` is skipped by the
import check because its imports are the package's public re-exports.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = sorted((Path(__file__).parent.parent / "src" / "fourierdist").glob("*.py"))
SOURCES = [p for p in PACKAGE if p.name != "__init__.py"]


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


def private_definitions(tree: ast.Module) -> list[str]:
    """Module-level functions, classes and constants named ``_x`` (not dunder)."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, ast.Assign):
            names += [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.append(node.target.id)
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_private_names(modules: dict[str, ast.Module]) -> list[str]:
    """Private module-level names that no module of the set reads, imports or
    reaches as an attribute; a definition is not a use of itself."""
    used = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [f"{module}: {name}" for module, tree in modules.items()
            for name in private_definitions(tree) if name not in used]


def test_the_check_sees_an_unused_private_name():
    modules = {
        "a": ast.parse("_LIMIT = 3\n_seen: set = set()\n__all__ = []\n"
                       "def _helper():\n    return _LIMIT\n"
                       "def _dead():\n    return _helper()\n"
                       "class _Base:\n    pass\n"),
        "b": ast.parse("from a import _Base\nimport a\nprint(a._seen)\n"),
    }
    assert unreferenced_private_names(modules) == ["a: _dead"]


def test_no_unreferenced_private_names():
    modules = {p.name: ast.parse(p.read_text()) for p in PACKAGE}
    assert unreferenced_private_names(modules) == []



def svd_callers(tree: ast.Module) -> list[str]:
    """Module-level definitions (``<module>`` for other statements) whose
    code calls np.linalg.svd."""
    return [getattr(top, "name", "<module>") for top in tree.body
            if any(isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.svd"
                   for node in ast.walk(top))]


def test_the_check_sees_svd_calls():
    tree = ast.parse("import numpy as np\nS = np.linalg.svd(np.eye(2))\n"
                     "def f(m):\n    return np.linalg.svd(m)[1]\n"
                     "def g(m):\n    return np.linalg.norm(m)\n"
                     "class C:\n    def h(self, m):\n        return np.linalg.svd(m)\n")
    assert svd_callers(tree) == ["<module>", "f", "C"]


def test_svd_is_called_only_by_the_norm_kernels():
    # top singular values and pairs come from optim, and so does the cb upper
    # bound's factorization of a Choi matrix; schatten_norm needs the whole
    # spectrum and the irrep split needs the polar factor of a stack
    calls = {p.name: svd_callers(ast.parse(p.read_text())) for p in PACKAGE}
    assert {name: fns for name, fns in calls.items() if fns} == {
        "optim.py": ["top_singular_values", "top_singular_pair", "cb_upper_bound",
                     "clip_to_ball", "polar_factor"],
        "fourier.py": ["schatten_norm"],
        "irreps.py": ["_eigensplit"],
    }
