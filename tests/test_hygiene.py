"""Source hygiene: every imported name is read somewhere in its module.

Uses only the standard library's ``ast``.  Every module of the package is
checked, ``__init__.py`` included; ``from __future__`` imports are skipped,
since they bind no name.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted([*(ROOT / "src" / "cfnmc").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list:
    """The names a module's imports bind that no expression of it reads,
    in order of appearance.  ``import a.b`` binds ``a``."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [name for name in bound if name not in read]


def test_sources_found():
    names = {p.name for p in SOURCES}
    assert {"__init__.py", "ehrhart.py", "helpers.py", "test_hygiene.py"} <= names


def test_no_unused_imports():
    unused = {
        f"{p.relative_to(ROOT)}: {name}"
        for p in SOURCES
        for name in unused_imports(p.read_text(encoding="utf-8"))
    }
    assert not unused, sorted(unused)


def test_detects_unused_and_skips_future():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "from math import comb, factorial as fact\n"
        "def f():\n"
        "    from itertools import chain\n"
        "    return fact(3) + os.sep.count('')\n"
    )
    assert unused_imports(source) == ["j", "comb", "chain"]
