"""Source style checks that need only the standard library: no line of the
package is longer than 100 characters, and no module imports a name it
never uses."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
MAX_LINE = 100


def unused_imports(source: str, reexports: bool = False) -> list[str]:
    """Names bound by the import statements of a module that nothing in it
    reads; a quoted annotation is read as code.  With reexports (a package
    __init__), relative imports are the package's public names and are not
    checked."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
            node.module == "__future__" or (reexports and node.level > 0)
        ):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = _read(tree)
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def _read(tree: ast.AST) -> set[str]:
    """Every name the code reads (the root of a dotted access such as
    np.float64 is a Name too), quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations = [node.annotation]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations = [node.returns]
        elif isinstance(node, ast.AnnAssign):
            annotations = [node.annotation]
        for note in annotations:
            for part in ast.walk(note) if note is not None else ():
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    names |= _read(ast.parse(part.value, mode="eval"))
    return names


def test_the_package_has_modules():
    assert any(path.name == "protocol.py" for path in MODULES)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_line_longer_than_limit(path):
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, "\n".join(long)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.relative_to(SRC).as_posix())
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text(encoding="utf-8"), path.name == "__init__.py")
    assert not unused, f"{path.name}: " + ", ".join(unused)


def test_unused_import_finder_sees_unused_and_used_names():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Mapping, Sequence\n"
        "from . import fields\n"
        "x: 'Mapping[str, int]' = {}\n"
        "z = 'Sequence is only mentioned in a string'\n"
        "y = np.zeros(3)\n"
        "def f(g: fields.FieldGraph) -> None: ...\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Sequence"]
    assert unused_imports(source, reexports=True) == ["line 2: os", "line 4: Sequence"]
    assert unused_imports("from .fields import FieldGraph\n", reexports=True) == []
    assert unused_imports("from .fields import FieldGraph\n") == ["line 1: FieldGraph"]
