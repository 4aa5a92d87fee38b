"""Every module-level import in the package is used by its module, and the
word references in ``tests/brute.py`` share no code with the kernels.

An AST scan stands in for a linter: a name bound by a module-level
``import`` or ``from ... import`` must be read somewhere in the module.
``__init__.py`` is skipped, since its imports are re-exports, and so are
``from __future__`` imports.  A second scan follows the word references
through the functions of ``brute.py`` they call and requires that none of
them names ``kernels``: a fault in a kernel must not pass a cross-check by
breaking the reference too.  The same scan requires that the flag-path
reference names none of the library's connecting-path, bridge and chain
searches, nor the memo of between-set components they use, and that the
niceness, simple-connectivity and open-pair references name none of the
library's searches and do their own BFS, flood fills and order.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "pseudospace"
BRUTE = Path(__file__).resolve().parent / "brute.py"
WORD_REFERENCES = (
    "restart_reduce",
    "exhaustive_reducts",
    "brute_divisors",
    "bubble_normal_form",
    "swap_closure",
    "brute_prec",
    "absorbing_positions",
)
FLAG_PATH_SEARCHES = (
    "_connecting_path",
    "_subletter_bridge",
    "shortest_path",
    "_monotone_chain",
    "_between_part",
)
SPACE_REFERENCES = ("brute_nice_witness", "brute_simply_connected_witness", "brute_open_pairs")
SPACE_SEARCHES = (
    "distances_from",
    "_shortcut",
    "_component",
    "_between_part",
    "_closure",
    "_reach",
)


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


def _names_reached(source: str, roots) -> set[str]:
    """Every name read, attribute taken or import bound in the module-level
    functions ``roots`` and, transitively, in the functions of the same
    module that they name."""
    tree = ast.parse(source)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo, done, names = list(roots), set(), set()
    while todo:
        name = todo.pop()
        if name in done:
            continue
        done.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update((node.asname or node.name).split("."))
        todo += [n for n in names & functions.keys() if n not in done]
    return names


def test_scan_follows_calls_to_a_kernel():
    source = (
        "def f():\n    return g()\n"
        "def g():\n    from pseudospace import kernels\n    return kernels.normal_form(())\n"
        "def h():\n    return 1\n"
    )
    assert "kernels" in _names_reached(source, ["f"])
    assert "kernels" not in _names_reached(source, ["h"])


def test_word_references_name_no_kernel():
    names = _names_reached(BRUTE.read_text(), WORD_REFERENCES)
    assert "_absorption_pair" in names
    assert "kernels" not in names


def test_flag_path_reference_names_no_library_search():
    names = _names_reached(BRUTE.read_text(), ["restart_flag_path"])
    assert {"brute_between", "dfs_closure", "_plain_connecting_path"} <= names
    assert [n for n in FLAG_PATH_SEARCHES if n in names] == []


def test_space_references_name_no_library_search():
    names = _names_reached(BRUTE.read_text(), SPACE_REFERENCES)
    assert {"bfs_distance", "flood", "monotone_order"} <= names
    assert [n for n in SPACE_SEARCHES if n in names] == []
