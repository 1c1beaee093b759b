"""Source hygiene: no module-level import that its module never uses,
no private module-level name that no module of the package reads, and
no dunder method written twice.

Deleting a function tends to leave its imports and its private helpers
behind.  These tests read every module under src/monofour with the
standard-library `ast`.  They fail on a module-level import whose bound
name is never read in that module, unless the module re-exports it
through `__all__`, and on a top-level private function, class or
constant (one leading underscore) that no module of the package reads,
by name, attribute or import.  Names inside string annotations count as
reads.  They also fail when two classes define a dunder method with the
same body, docstrings aside: such a method belongs in a shared base class.
One more test imports the package in a fresh interpreter and fails if
that loads `dataclasses` or `inspect`.  Public functions and methods are
held to being run by an entry point, which test_reach.py checks.
"""

import ast
import os
import subprocess
import sys
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


def _node_annotation_names(node) -> set[str]:
    if isinstance(node, ast.arg) and node.annotation is not None:
        return _annotation_names(node.annotation)
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
        return _annotation_names(node.returns)
    if isinstance(node, ast.AnnAssign):
        return _annotation_names(node.annotation)
    return set()


def used_names(tree: ast.Module) -> set[str]:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        used |= _node_annotation_names(node)
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


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Top-level private functions, classes and constants, with line numbers."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                out[name] = node.lineno
    return out


def read_names(tree: ast.Module) -> set[str]:
    """Names a module reads: loads, attributes, imports, annotations, `__all__`."""
    read = exported_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read |= {alias.name for alias in node.names}
        read |= _node_annotation_names(node)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    trees = {name: ast.parse(source) for name, source in sources.items()}
    read = set().union(*(read_names(tree) for tree in trees.values()))
    return [
        f"{module} line {line}: {name}"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in read
    ]


def _body_without_docstring(func: ast.FunctionDef) -> str:
    body = func.body
    if ast.get_docstring(func) is not None:
        body = body[1:]
    return "\n".join(ast.dump(stmt) for stmt in body)


def duplicated_dunders(sources: dict[str, str]) -> list[str]:
    """Each dunder method whose body, docstring aside, appears in more than
    one class, with the classes that define it."""
    owners: dict[tuple[str, str], list[str]] = {}
    for module, source in sources.items():
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and node.name.startswith("__") and node.name.endswith("__")):
                    key = (node.name, _body_without_docstring(node))
                    owners.setdefault(key, []).append(f"{module}:{cls.name}")
    return sorted(
        f"{name}: {', '.join(classes)}"
        for (name, _), classes in owners.items()
        if len(classes) > 1
    )


def test_every_module_is_scanned():
    names = {p.relative_to(PACKAGE).as_posix() for p in MODULES}
    assert {"ore.py", "mellin.py", "scalars/__init__.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(PACKAGE).as_posix())
def test_no_unused_module_level_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_private_name_is_read():
    sources = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    assert unread_private_names(sources) == []


def test_no_dunder_method_is_written_twice():
    sources = {p.relative_to(PACKAGE).as_posix(): p.read_text() for p in MODULES}
    assert duplicated_dunders(sources) == []


def test_start_up_loads_no_dataclasses():
    # `dataclasses` pulls in inspect, ast, dis and tokenize, which cost
    # about a tenth of the package's cold import; the records are slots
    # classes instead.  A fresh interpreter, so no earlier import counts.
    path = [str(PACKAGE.parent), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    script = ("import sys, monofour.checks, monofour.cli\n"
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


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

    def test_flags_an_unread_private_helper(self):
        sources = {
            "a.py": "_LIMIT = 3\n_cache = {}\n\ndef _helper():\n    return _cache\n\n"
                    "class _Orphan:\n    pass\n",
            "b.py": "from .a import _helper\n",
        }
        assert unread_private_names(sources) == [
            "a.py line 1: _LIMIT", "a.py line 7: _Orphan"]

    def test_attribute_and_annotation_reads_count(self):
        sources = {
            "a.py": "_A = 1\n_B = 2\n\nclass _C:\n    pass\n",
            "b.py": "from . import a\n\ndef f(x: '_C') -> int:\n    return a._A + a._B\n",
        }
        assert unread_private_names(sources) == []

    def test_flags_a_dunder_body_written_twice(self):
        sources = {
            "a.py": 'class A:\n    def __bool__(self):\n        """Nonzero."""\n'
                    "        return not self.is_zero\n\n"
                    "    def __str__(self):\n        return 'a'\n",
            "b.py": "class B:\n    def __bool__(self):\n        return not self.is_zero\n\n"
                    "    def __str__(self):\n        return 'b'\n",
        }
        assert duplicated_dunders(sources) == ["__bool__: a.py:A, b.py:B"]

    def test_plain_methods_and_distinct_bodies_pass(self):
        sources = {
            "a.py": "class A:\n    def to_str(self):\n        return 'x'\n\n"
                    "    def __repr__(self):\n        return 'A()'\n",
            "b.py": "class B:\n    def to_str(self):\n        return 'x'\n\n"
                    "    def __repr__(self):\n        return 'B()'\n",
        }
        assert duplicated_dunders(sources) == []
