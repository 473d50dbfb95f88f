"""Every module under src/ and tests/ loads each name it imports, and every
public name is really there.

A static scan with the standard library's `ast`: a name bound by an import
must be read somewhere in its module. Package `__init__.py` files, which
import to re-export, names listed in a module's `__all__`, and
`from __future__` imports are exempt. Every name a module lists in its
`__all__` must be bound at its top level, and the package's `__all__` is
exactly the set of names its `__init__.py` imports.
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
    loaded |= set(declared(tree))
    return [(line, name) for line, name in imported if name not in loaded]


def declared(tree: ast.Module) -> list[str]:
    """The names in a module's `__all__`, or none if it has no `__all__`."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def unbound_exports(source: str) -> list[str]:
    """Names in the module's `__all__` that no top-level statement binds."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return [name for name in declared(tree) if name not in bound]


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


def test_every_exported_name_is_bound():
    modules = sorted((ROOT / "src").rglob("*.py"))
    stale = {
        str(path.relative_to(ROOT)): names
        for path in modules
        if (names := unbound_exports(path.read_text(encoding="utf-8")))
    }
    assert stale == {}


def test_package_exports_exactly_what_it_imports():
    tree = ast.parse((ROOT / "src" / "cdrecho" / "__init__.py").read_text(encoding="utf-8"))
    imported = {
        a.asname or a.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    exported = declared(tree)
    assert len(exported) == len(set(exported))
    assert set(exported) == imported


def test_export_scan_flags_stale_names():
    source = (
        "from math import pi\n"
        "import os.path\n"
        "__all__ = ['pi', 'os', 'area', 'Shape', 'UNIT', 'LIMIT', 'Gone']\n"
        "UNIT: float = 1.0\n"
        "LIMIT, _ = 2.0, None\n"
        "def area(r):\n"
        "    Gone = r\n"
        "    return pi * Gone\n"
        "class Shape:\n"
        "    pass\n"
    )
    assert unbound_exports(source) == ["Gone"]
