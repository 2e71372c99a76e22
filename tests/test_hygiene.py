"""Source hygiene: every name a ``uhfflow`` module imports or a function
takes as a parameter is used there.

No linter ships with the project, so these tests parse each module of
``src/uhfflow`` (except the re-exporting ``__init__``) with :mod:`ast`.
A name bound by ``from m import name`` is used when it appears as a name
anywhere in the module; a quoted annotation does not count (the modules
use ``from __future__ import annotations``, so none needs quotes).
``import a.b`` binds ``a``, so it is used only when an attribute chain
starting with ``a.b`` appears; this tells ``import scipy.linalg`` from
``import scipy.sparse`` in a module that uses only one of them.  A
parameter is used when its name is read anywhere in the function body;
dunder methods, whose signatures a protocol fixes, are exempt.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "uhfflow"
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def _dotted(node) -> str | None:
    """``a.b.c`` for a chain of attributes on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def unused_imports(source: str) -> list[str]:
    """Imported names (``import a.b`` as ``a.b``) that ``source`` never uses."""
    tree = ast.parse(source)
    names, chains = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            chain = _dotted(node)
            if chain is not None:
                chains.add(chain)
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if bound not in names:
                    unused.append(bound)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    if alias.asname not in names:
                        unused.append(alias.asname)
                elif not any(c == alias.name or c.startswith(alias.name + ".")
                             for c in chains | names):
                    unused.append(alias.name)
    return unused


def unused_parameters(source: str) -> list[str]:
    """``function.parameter`` for every parameter its function body never reads."""
    unused = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if node.name.startswith("__") and node.name.endswith("__"):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        unused += [f"{node.name}.{name}" for name in params if name not in read]
    return unused


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_scanner_sees_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import scipy.linalg\nimport scipy.sparse\nimport numpy as np\n"
        "from typing import Sequence, Iterable\n"
        "def f(x: Sequence[int]):\n    return scipy.sparse.eye(2)\n"
    )
    assert unused_imports(source) == ["scipy.linalg", "np", "Iterable"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_parameters(path):
    assert unused_parameters(path.read_text()) == []


def test_scanner_sees_unused_parameters():
    source = (
        "def f(a, b, *args, c=1, **kw):\n    return a + kw['x']\n"
        "class K:\n"
        "    def __exit__(self, *exc):\n        return None\n"
        "    def m(self, x):\n        def inner():\n            return x\n"
        "        return inner\n"
    )
    assert unused_parameters(source) == ["f.b", "f.c", "f.args", "m.self"]
