"""Source style checks that need only the standard library: no line of the
package is longer than 100 characters, no module of the package or of the
tests imports a name it never uses, no module-level private name goes
unread in the package, no field of a package dataclass goes unread in the
package, the tests or the benchmark, and no public function, method or
property of the package goes unread in the package or the benchmark unless
the package exports it."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))
PERFBENCH = sorted((SRC.parent / "perfbench").glob("*.py"))
MAX_LINE = 100


def _path_id(path: Path) -> str:
    """sparsefuel/<name>.py for a module of the package, tests/<name>.py for a test module."""
    return path.relative_to(SRC if SRC in path.parents else SRC.parent).as_posix()


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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (one leading
    underscore; dunders are exempt) of the given modules, by module name,
    that no module reads, as a bare name or as an attribute."""
    defined = []
    read: set[str] = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        read |= _read(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names if _private(name)]
    return [f"{module}:{line}: {name}" for module, line, name in defined if name not in read]


def unread_fields(package: dict[str, str], readers: list[str]) -> list[str]:
    """Fields of the dataclasses of the given package modules, by module
    name, whose name no reader source reads as an attribute; assigning
    x.name or passing name= to a constructor is not a read."""
    read = set()
    for source in readers:
        read |= {
            n.attr
            for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    unread = []
    for module, source in package.items():
        classes = [
            n
            for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.ClassDef) and any(map(_is_dataclass, n.decorator_list))
        ]
        for node in classes:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and item.target.id not in read:
                    unread.append(f"{module}:{item.lineno}: {node.name}.{item.target.id}")
    return unread


def unread_public_members(
    package: dict[str, str], readers: list[str], exported: set[str]
) -> list[str]:
    """Public module-level functions and public methods and properties of
    module-level classes of the given package modules, by module name, whose
    name no reader source reads, as a bare name or as an attribute, and that
    is not among the exported names; a test is not a reader."""
    read = set(exported)
    for source in readers:
        tree = ast.parse(source)
        read |= _read(tree) | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unread = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            members = [(node, node.name)] if isinstance(node, functions) else []
            if isinstance(node, ast.ClassDef):
                members = [
                    (item, f"{node.name}.{item.name}")
                    for item in node.body
                    if isinstance(item, functions)
                ]
            unread += [
                f"{module}:{item.lineno}: {label}"
                for item, label in members
                if not item.name.startswith("_") and item.name not in read
            ]
    return unread


def _exported(init_source: str) -> set[str]:
    """The names a package __init__ imports from its own modules."""
    return {
        alias.asname or alias.name
        for node in ast.parse(init_source).body
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
    }


def _is_dataclass(decorator: ast.expr) -> bool:
    """Whether a class decorator is @dataclass or @dataclass(...)."""
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _read(tree: ast.AST) -> set[str]:
    """Every name the code reads (the root of a dotted access such as
    np.float64 is a Name too), quoted annotations included; a name that is
    only assigned is not read."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


@pytest.mark.parametrize("path", MODULES, ids=_path_id)
def test_no_line_longer_than_limit(path):
    long = [
        f"{path.name}:{number}: {len(line)} characters"
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, "\n".join(long)


@pytest.mark.parametrize("path", MODULES + TESTS, ids=_path_id)
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


def test_no_unread_private_names():
    sources = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8") for p in MODULES}
    unread = unread_private_names(sources)
    assert not unread, ", ".join(unread)


def test_unread_private_finder_sees_unread_and_read_names():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_unused: int = 0\n"
            "__version__ = '1'\n"
            "def _helper(): return _LIMIT\n"
            "def _stale(): ...\n"
            "class _Gone: ...\n"
            "class Public:\n"
            "    def _method(self): ...\n"
        ),
        "b.py": "from . import a\nfrom .a import _helper\nx: '_Typed' = a._stale\n",
        "c.py": "class _Typed: ...\n_helper()\n",
    }
    assert unread_private_names(sources) == ["a.py:2: _unused", "a.py:6: _Gone"]


def test_no_unread_dataclass_fields():
    package = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in MODULES + TESTS + PERFBENCH]
    unread = unread_fields(package, readers)
    assert not unread, ", ".join(unread)


def test_unread_field_finder_sees_unread_and_read_fields():
    package = {
        "a.py": (
            "from dataclasses import dataclass, field\n"
            "@dataclass\n"
            "class Point:\n"
            "    x: float\n"
            "    y: float = 0.0\n"
            "    tag: str = field(default='')\n"
            "    def norm(self): return abs(self.x)\n"
            "@dataclass(frozen=True)\n"
            "class Box:\n"
            "    corner: Point\n"
            "    size: float\n"
            "class Plain:\n"
            "    width: int\n"
        ),
    }
    # b.corner.y = ... reads corner and assigns y
    reader = (
        "from a import Box, Point\n"
        "b = Box(Point(1.0, tag='t'), size=2.0)\n"
        "b.corner.y = 1.0\n"
        "b.size\n"
    )
    assert unread_fields(package, list(package.values()) + [reader]) == [
        "a.py:5: Point.y",
        "a.py:6: Point.tag",
    ]


def test_no_unread_public_members():
    package = {p.relative_to(SRC).as_posix(): p.read_text(encoding="utf-8") for p in MODULES}
    readers = [p.read_text(encoding="utf-8") for p in MODULES + PERFBENCH]
    exported = _exported(package["sparsefuel/__init__.py"])
    unread = unread_public_members(package, readers, exported)
    assert not unread, ", ".join(unread)


def test_unread_public_member_finder_sees_unread_and_read_members():
    package = {
        "a.py": (
            "def run(): return helper()\n"
            "def helper(): ...\n"
            "def stale(): ...\n"
            "def exported(): ...\n"
            "def _private(): ...\n"
            "class Shape:\n"
            "    size: int\n"
            "    def __len__(self): return self.size\n"
            "    @property\n"
            "    def area(self): return self.size\n"
            "    @property\n"
            "    def width(self): ...\n"
            "    def grow(self): ...\n"
            "    @staticmethod\n"
            "    def build(): ...\n"
        ),
    }
    # assigning a name is no read of it
    reader = "from a import Shape, run\nrun()\nShape.build().area\nstale = 1\n"
    assert unread_public_members(package, list(package.values()) + [reader], {"exported"}) == [
        "a.py:3: stale",
        "a.py:12: Shape.width",
        "a.py:13: Shape.grow",
    ]
