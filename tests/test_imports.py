"""Every module-level import in the package is used by its module.

An AST scan stands in for a linter: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module.
``__init__.py`` is skipped, since its imports are re-exports, and so are
``from __future__`` imports.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudospace"


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


def test_scan_finds_an_unused_import():
    source = "from os import path, sep\nimport json as j\nprint(sep)\n"
    assert _unused_imports(source) == ["path", "j"]


def test_package_has_no_unused_imports():
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert len(modules) > 5
    unused = {p.name: _unused_imports(p.read_text()) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}
