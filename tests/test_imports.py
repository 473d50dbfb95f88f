"""Every module under src/ and tests/ loads each name it imports.

A static scan with the standard library's `ast`: a name bound by an import
must be read somewhere in its module. Package `__init__.py` files, which
import to re-export, names listed in a module's `__all__`, and
`from __future__` imports are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of every imported name the module never loads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported += [(node.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    loaded = {
        n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            loaded |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in loaded]


def test_every_imported_name_is_loaded():
    modules = [
        path
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path.name != "__init__.py"
    ]
    assert len(modules) > 20
    unused = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in modules
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert unused == []


def test_scan_flags_unused_names_and_honours_the_exemptions():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from math import pi, tau\n"
        "from json import dumps\n"
        "__all__ = ['dumps']\n"
        "def area(r):\n"
        "    return pi * r * r\n"
    )
    assert unused_imports(source) == [(2, "os"), (3, "np"), (4, "tau")]
