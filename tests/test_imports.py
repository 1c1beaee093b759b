"""Source hygiene: no module-level import that its module never uses.

Deleting a function tends to leave its imports behind.  This test reads
every module under src/monofour with the standard-library `ast` and
fails on a module-level import whose bound name is never read in that
module, unless the module re-exports it through `__all__`.  Names inside
string annotations count as reads.
"""

import ast
from pathlib import Path

import pytest

import monofour

PACKAGE = Path(monofour.__file__).parent
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each top-level import, with its line number."""
    out = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                out[name] = node.lineno
    return out


def _annotation_names(node) -> set[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval")
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return used


def exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    keep = used_names(tree) | exported_names(tree)
    return [
        f"line {line}: {name}"
        for name, line in imported_names(tree).items()
        if name not in keep
    ]


def test_every_module_is_scanned():
    names = {p.relative_to(PACKAGE).as_posix() for p in MODULES}
    assert {"ore.py", "mellin.py", "scalars/__init__.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


class TestDetector:
    def test_flags_an_unread_import(self):
        src = "from .ore import fourier_auto, mellin_op\n\nx = mellin_op\n"
        assert unused_imports(src) == ["line 1: fourier_auto"]

    def test_all_and_string_annotations_count_as_use(self):
        src = (
            "from __future__ import annotations\n"
            "from .a import A, B, C\n"
            "import os.path\n"
            "__all__ = ['A']\n"
            "def f(x: 'B | None') -> 'C':\n"
            "    return os.path\n"
        )
        assert unused_imports(src) == []
